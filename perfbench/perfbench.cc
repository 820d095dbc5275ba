// The repository benchmark: three workloads driven over loopback TCP
// against a real server::SearchServer by an open-loop generator, and a
// traced run that replays sampled queries down the stack.
//
//   knn-lowdim-distperm   read-only 10-NN on a 200k-point 4-dimensional
//                         embedding under the paper's distperm index
//   mixed-ingest-highdim  70/25/5 kNN/insert/remove on 50k uniform
//                         16-d points under an exact 8-shard vp-tree,
//                         with background folds during every run
//   replica-catchup       a fresh replica bootstraps a vp-tree
//                         primary's snapshot, catches up on a WAL
//                         backlog, then tails wire inserts
//
// --trace=0 prints the end-to-end metrics, --trace=1 the per-layer
// ones (see README.md in this directory for the list and what each
// should move).  Every run checks its answers; a mismatch prints
// "MISMATCH" lines, reports "correct": false and exits 1.  An open-loop
// phase whose generator ran late (send lag p99 over 5 ms) is measured
// once more; a run still behind its schedule then (over 20 ms) is
// invalid and exits 3 without a result.  The last stdout line is the
// result JSON.
//
// Usage: perfbench --workload=<name> --seed=<n> --seconds=<s>
//                  --trace=<0|1> --workdir=<dir> [--spans-dir=<dir>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/generation_store.h"
#include "engine/live_database.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/replica_server.h"
#include "server/search_server.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace dp = distperm;
namespace fs = std::filesystem;
using dp::metric::Vector;
using dp::obs::MetricsRegistry;
using Live = dp::engine::LiveDatabase<Vector>;
using Server = dp::server::SearchServer<Vector>;
using Replica = dp::server::ReplicaServer<Vector>;
using Query = dp::engine::QuerySpec<Vector>;
using Engine = dp::engine::QueryEngine<Vector>;
using Response = dp::net::WireSearchResponse;
using Status = dp::util::Status;

const SteadyClock kClock;
double Now() { return kClock.Now(); }

// Settings shared by every workload (also documented in README.md).
constexpr size_t kK = 10;
constexpr size_t kEngineThreads = 2;
constexpr size_t kBuildThreads = 2;
constexpr size_t kPermCacheCapacity = 4096;  // PermCacheStore's default
constexpr size_t kClosedLoopConnections = 2;
constexpr size_t kClosedLoopDepth = 8;  // pipelined queries per round trip
constexpr size_t kClosedLoopWindows = 6;
constexpr int kSetupRepeats = 5;
constexpr double kClosedLoopSeconds = 3.0;  // at most; the rest is open loop
constexpr double kMaxLagSeconds = 0.020;
constexpr double kRetryLagSeconds = 0.005;
constexpr size_t kSampleEvery = 8;  // wire answers kept for checking
constexpr size_t kLadderQueries = 120;
constexpr size_t kProbeInserts = 300;

const dp::metric::Metric<Vector>& L2() {
  static const dp::metric::Metric<Vector> metric(dp::metric::LpMetric::L2());
  return metric;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      char* end = nullptr;
      args->seed = static_cast<uint64_t>(std::strtoll(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0') return false;
    } else if (key == "seconds") {
      char* end = nullptr;
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "workdir") {
      args->workdir = value;
    } else if (key == "spans-dir") {
      args->spans_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

// --------------------------------------------------------------- report

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Mismatch(const std::string& what) {
    correct_ = false;
    std::cout << "MISMATCH: " << what << "\n";
  }
  bool correct() const { return correct_; }

  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  /// An end-to-end metric only some workloads have: printed with the
  /// others but kept out of the result, whose metrics every workload
  /// reports.
  void PrintedOnly(const std::string& name, double value,
                   const std::string& unit) {
    printed_only_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  void Count(const LatencyRecorder& recorder) {
    attempted_ += recorder.attempted();
    failed_ += recorder.failed();
  }
  void Note(const std::string& line) { std::cout << line << "\n"; }

  /// Human-readable lines for every metric, then the result JSON with
  /// the end-to-end metrics (trace off) or the per-layer ones.
  void Print(bool trace) const {
    for (const MetricValue& m : e2e_) {
      std::printf("end-to-end %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!trace) {
      for (const MetricValue& m : printed_only_) {
        std::printf("end-to-end %-34s %.6g %s (not in the result)\n",
                    m.name.c_str(), m.value, m.unit.c_str());
      }
      std::printf("end-to-end %-34s %.6g fraction (failed / attempted)\n",
                  "error_rate", Ratio(static_cast<double>(failed_),
                                      static_cast<double>(attempted_)));
    }
    for (const MetricValue& m : layer_) {
      std::printf("per-layer  %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::vector<MetricValue>& out = trace ? layer_ : e2e_;
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted_));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
      char number[64];
      double v = out[i].value;
      if (std::isnan(v)) v = 0.0;
      if (std::isinf(v)) v = v > 0 ? 1e12 : -1e12;  // beyond every limit
      std::snprintf(number, sizeof(number), "%.17g", v);
      if (i > 0) json += ", ";
      json += "\"" + out[i].name + "\": {\"value\": " + number +
              ", \"unit\": \"" + out[i].unit + "\"}";
    }
    json += "}}";
    std::fflush(stdout);
    std::cout << json << std::endl;
  }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<MetricValue> e2e_;
  std::vector<MetricValue> printed_only_;
  std::vector<MetricValue> layer_;
};

// --------------------------------------------------------- small tools

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Bytes of the newest snapshot file in `dir`.
uint64_t NewestSnapshotBytes(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".snap" && name > newest) {
      newest = name;
    }
  }
  if (newest.empty()) return 0;
  return fs::file_size(fs::path(dir) / newest, ec);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

uint64_t CounterValue(MetricsRegistry* registry, const char* name) {
  return registry == nullptr ? 0 : registry->GetCounter(name)->Value();
}

dp::obs::Histogram::Snapshot HistogramSnap(MetricsRegistry* registry,
                                           const char* name) {
  return registry->GetHistogram(name)->Snap();
}


/// Distinct inputs an open-loop phase at `rate` for `seconds` may use,
/// twice over (a Disturbed phase is measured again), with room for the
/// Poisson count to run high.
size_t OpsPoolSize(double rate, double seconds) {
  return 2 * static_cast<size_t>(1.1 * rate * seconds + 50);
}

/// Seconds of a run's --seconds spent in the closed-loop phase.
double ClosedLoopShare(double seconds) {
  return std::min(kClosedLoopSeconds, 0.25 * seconds);
}

/// The k nearest (distance, index) pairs of `q` in `data`, ascending.
std::vector<std::pair<double, size_t>> BruteKnn(const std::vector<Vector>& data,
                                                const Vector& q, size_t k) {
  std::vector<std::pair<double, size_t>> all(data.size());
  for (size_t i = 0; i < data.size(); ++i) all[i] = {L2()(q, data[i]), i};
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end());
  all.resize(k);
  return all;
}

/// Share of `results` within the true k-th distance.
double Recall(const std::vector<dp::index::SearchResult>& results,
              const std::vector<std::pair<double, size_t>>& truth) {
  if (truth.empty()) return 1.0;
  const double kth = truth.back().first;
  size_t hits = 0;
  for (const auto& r : results) {
    if (r.distance <= kth) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

/// True when `results` are exactly the brute-force answer: the same
/// distances bit for bit, and ids that resolve to the same points.
bool SameAsBrute(const std::vector<dp::index::SearchResult>& results,
                 const std::vector<std::pair<double, size_t>>& truth,
                 const std::vector<Vector>& data, const Live::Snapshot& view) {
  if (results.size() != truth.size()) return false;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].distance != truth[i].first) return false;
    auto point = view.ResolvePoint(results[i].id);
    if (!point.ok() || point.value() != data[truth[i].second]) return false;
  }
  return true;
}

std::vector<Query> KnnQueries(const std::vector<Vector>& points,
                              dp::index::ShardScheduling scheduling) {
  std::vector<Query> queries;
  queries.reserve(points.size());
  for (const Vector& p : points) {
    Query q = Query::Knn(p, kK);
    q.shard_scheduling = scheduling;
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Nanoseconds per Metric::Distance call on pairs of the workload's
/// points (median of five timed passes).
double NsPerDistance(const std::vector<Vector>& points) {
  const size_t calls = 100000;
  const size_t n = points.size();
  std::vector<double> passes;
  double sink = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = Now();
    for (size_t i = 0; i < calls; ++i) {
      sink += L2()(points[i % n], points[(i * 7919 + 13) % n]);
    }
    passes.push_back((Now() - t0) / static_cast<double>(calls) * 1e9);
  }
  if (sink == -1.0) std::cout << "";  // keeps the loop observable
  return Median(passes);
}

// ------------------------------------------------------------- serving

class ServerHandle {
 public:
  ServerHandle(Live* db, const Server::Options& options)
      : server_(db, options) {}
  ~ServerHandle() { Stop(); }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  Status Start() {
    Status status = server_.Start(0);
    if (status.ok()) thread_ = std::thread([this]() { server_.Run(); });
    return status;
  }
  void Stop() {
    if (!thread_.joinable()) return;
    server_.Shutdown();
    thread_.join();
  }
  uint16_t port() const { return server_.port(); }

 private:
  Server server_;
  std::thread thread_;
};

/// A replica serving on its own thread; stopped and joined on exit.
class ReplicaHandle {
 public:
  explicit ReplicaHandle(std::unique_ptr<Replica> replica)
      : replica_(std::move(replica)) {}
  ~ReplicaHandle() { Stop(); }
  ReplicaHandle(const ReplicaHandle&) = delete;
  ReplicaHandle& operator=(const ReplicaHandle&) = delete;

  Status Start() {
    Status status = replica_->Start(0);
    if (status.ok()) thread_ = std::thread([this]() { replica_->Run(); });
    return status;
  }
  void Stop() {
    if (replica_ == nullptr) return;
    replica_->Shutdown();
    if (thread_.joinable()) thread_.join();
    replica_.reset();
  }
  Replica* operator->() const { return replica_.get(); }

 private:
  std::unique_ptr<Replica> replica_;
  std::thread thread_;
};

/// Polls `done` every 200 us for up to `seconds`; true once it holds.
bool WaitFor(const std::function<bool()>& done, double seconds) {
  const double deadline = Now() + seconds;
  while (!done()) {
    if (Now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

Server::Options ServerOptions(MetricsRegistry* registry) {
  Server::Options options;
  options.engine_threads = kEngineThreads;
  options.perm_cache_capacity = kPermCacheCapacity;
  options.metrics = registry;
  return options;
}

dp::engine::LiveOptions StoreOptions(MetricsRegistry* registry) {
  dp::engine::LiveOptions options;
  options.build_threads = kBuildThreads;
  options.metrics = registry;
  return options;
}

struct Serving {
  std::unique_ptr<Live> db;
  std::unique_ptr<ServerHandle> server;

  void Close() {
    server.reset();
    db.reset();
  }
};

using Opener = std::function<dp::util::Result<std::unique_ptr<Live>>()>;

struct SetupTimes {
  std::vector<double> total;  // open until the first wire answer
  std::vector<double> open;   // LiveDatabase::Open alone
};

/// Sets the store up kSetupRepeats times and keeps the last one
/// serving.  `prepare` runs untimed before each repeat (clears the
/// directory, copies the data); the timed part opens the store, starts
/// the server, and waits for one wire kNN answer.
Status SetUp(const std::function<void()>& prepare, const Opener& open,
             const Server::Options& options, const Query& probe,
             Serving* serving, SetupTimes* times) {
  for (int r = 0; r < kSetupRepeats; ++r) {
    serving->Close();
    prepare();
    const double t0 = Now();
    auto db = open();
    if (!db.ok()) return db.status();
    const double opened = Now();
    serving->db = std::move(db).value();
    serving->server = std::make_unique<ServerHandle>(serving->db.get(), options);
    DP_RETURN_IF_ERROR(serving->server->Start());
    auto client = dp::net::Client::Connect("127.0.0.1", serving->server->port());
    if (!client.ok()) return client.status();
    auto answer = client.value()->Search(probe);
    if (!answer.ok()) return answer.status();
    if (!answer.value().status.ok()) {
      return Status::Internal("set-up probe: " + answer.value().status.message);
    }
    times->total.push_back(Now() - t0);
    times->open.push_back(opened - t0);
  }
  return Status::OK();
}

// ----------------------------------------------------------- open loop

enum class OpKind : uint8_t { kSearch, kInsert, kRemove };

/// One open-loop phase: the plan (due times, kinds, arguments) and
/// what came back.
struct Load {
  std::vector<double> due;
  std::vector<OpKind> kind;
  std::vector<size_t> arg;  // query index (search) or point index (insert)

  std::vector<uint64_t> distances;  // search: wire distance count
  std::vector<uint8_t> acked;       // OK response
  std::vector<uint8_t> skipped;     // remove not sent (see safe_remove)
  std::vector<Vector> removed;      // remove: the point it named
  std::vector<std::optional<Response>> kept;  // sampled search answers

  void Resize() {
    distances.assign(due.size(), 0);
    acked.assign(due.size(), 0);
    skipped.assign(due.size(), 0);
    removed.assign(due.size(), Vector());
    kept.assign(due.size(), std::nullopt);
  }
  size_t size() const { return due.size(); }
};

Outcome OutcomeOf(const dp::net::WireStatus& status) {
  switch (status.code) {
    case dp::net::WireCode::kOk:
      return Outcome::kOk;
    case dp::net::WireCode::kUnavailable:
      return Outcome::kUnavailable;
    case dp::net::WireCode::kOutOfRange:
      return Outcome::kBackpressure;
    default:
      return Outcome::kWireError;
  }
}

struct LoadHooks {
  uint16_t read_port = 0;
  size_t read_connections = 1;
  uint16_t write_port = 0;  // 0: the load has no writes
  std::function<const Query&(size_t)> query;
  std::function<const Vector&(size_t)> insert_point;
  /// Remove ops: returns the id to remove (and sets load->removed[op])
  /// or nullopt to skip the op.  `inflight_writes` is the number of
  /// writes sent but not yet answered.
  std::function<std::optional<uint64_t>(size_t op, size_t inflight_writes)>
      remove;
  /// Called before every send (after the sleep), for sampling.
  std::function<void()> tick;
};

/// Runs `load` open-loop: every op is written when due on its
/// connection (searches round-robin over the read connections, writes
/// in order on the one write connection) and completed by that
/// connection's receiver.  Returns the timing record.
std::unique_ptr<OpenLoop> RunOpenLoop(Load* load, const LoadHooks& hooks,
                                      Report* report) {
  auto loop = std::make_unique<OpenLoop>(load->due);
  OpenLoop* timings = loop.get();
  const auto on_frame = [load, timings](size_t op, Frame frame) {
    Outcome outcome = Outcome::kOk;
    if (!frame.ok()) {
      outcome = frame.status().code() == dp::util::StatusCode::kDeadlineExceeded
                    ? Outcome::kTimeout
                    : Outcome::kTransport;
    } else {
      const std::string& bytes = frame.value().second;
      const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
      switch (frame.value().first) {
        case dp::net::MessageType::kSearchResult: {
          auto decoded = dp::net::DecodeSearchResponse(data, bytes.size());
          outcome = decoded.ok() ? OutcomeOf(decoded.value().status)
                                 : Outcome::kWireError;
          if (outcome == Outcome::kOk) {
            load->distances[op] = decoded.value().stats.distance_computations;
            if (op % kSampleEvery == 0) load->kept[op] = std::move(decoded).value();
          }
          break;
        }
        case dp::net::MessageType::kInsertResult: {
          auto decoded = dp::net::DecodeInsertResponse(data, bytes.size());
          outcome = decoded.ok() ? OutcomeOf(decoded.value().status)
                                 : Outcome::kWireError;
          break;
        }
        case dp::net::MessageType::kRemoveResult: {
          auto decoded = dp::net::DecodeWireStatus(data, bytes.size());
          outcome = decoded.ok() ? OutcomeOf(decoded.value())
                                 : Outcome::kWireError;
          break;
        }
        default:
          outcome = Outcome::kWireError;
      }
    }
    if (outcome == Outcome::kOk) load->acked[op] = 1;
    timings->Complete(op, outcome, Now());
  };

  std::vector<std::unique_ptr<PipelinedConnection>> readers;
  for (size_t c = 0; c < hooks.read_connections; ++c) {
    auto conn = PipelinedConnection::Connect(hooks.read_port, on_frame);
    if (!conn.ok()) {
      report->Mismatch("connect: " + conn.status().message());
      return nullptr;
    }
    readers.push_back(std::move(conn).value());
  }
  std::unique_ptr<PipelinedConnection> writer;
  if (hooks.write_port != 0) {
    auto conn = PipelinedConnection::Connect(hooks.write_port, on_frame);
    if (!conn.ok()) {
      report->Mismatch("connect: " + conn.status().message());
      return nullptr;
    }
    writer = std::move(conn).value();
  }

  size_t next_reader = 0;
  loop->Run(kClock, [&](size_t op) {
    if (hooks.tick) hooks.tick();
    std::string payload;
    switch (load->kind[op]) {
      case OpKind::kSearch: {
        dp::net::EncodeSearchRequest(&payload, hooks.query(load->arg[op]));
        readers[next_reader]->Send(
            op, dp::net::EncodeFrame(dp::net::MessageType::kSearch, payload));
        next_reader = (next_reader + 1) % readers.size();
        break;
      }
      case OpKind::kInsert: {
        dp::net::EncodeInsertRequest(&payload,
                                     hooks.insert_point(load->arg[op]));
        writer->Send(op,
                     dp::net::EncodeFrame(dp::net::MessageType::kInsert, payload));
        break;
      }
      case OpKind::kRemove: {
        const std::optional<uint64_t> id =
            hooks.remove(op, writer->outstanding());
        if (!id.has_value()) {
          load->skipped[op] = 1;
          break;
        }
        dp::net::EncodeRemoveRequest(&payload, *id);
        writer->Send(op,
                     dp::net::EncodeFrame(dp::net::MessageType::kRemove, payload));
        break;
      }
    }
  });
  for (auto& conn : readers) conn->Finish();
  if (writer != nullptr) writer->Finish();
  return loop;
}

/// Outcomes and due-time latencies of the ops of `kind` (skipped ops
/// were never attempted).
LatencyRecorder Collect(const Load& load, const OpenLoop& loop, OpKind kind) {
  LatencyRecorder recorder;
  loop.Collect(
      [&](size_t i) { return load.kind[i] == kind && !load.skipped[i]; },
      &recorder);
  return recorder;
}

/// Closed loop: kClosedLoopConnections clients each send a pipelined
/// batch of kClosedLoopDepth queries and send the next batch when every
/// answer arrived, for `seconds` or until `queries` is used up (each is
/// sent once).  Returns the median over kClosedLoopWindows equal time
/// windows of the queries completed per second in each.
double ClosedLoopQps(uint16_t port, const std::vector<Query>& queries,
                     double seconds, LatencyRecorder* recorder) {
  std::atomic<size_t> next{0};
  std::atomic<bool> used_up{false};
  std::vector<LatencyRecorder> per_thread(kClosedLoopConnections);
  // Per connection, the [start, done) interval of each answered batch
  // and how many of its queries succeeded.
  struct Batch {
    double start, done;
    size_t ok;
  };
  std::vector<std::vector<Batch>> batches(kClosedLoopConnections);
  const double t0 = Now();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClosedLoopConnections; ++c) {
    threads.emplace_back([&, c]() {
      auto client = dp::net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        per_thread[c].Record(Outcome::kTransport, 0.0);
        return;
      }
      while (Now() < deadline) {
        const size_t first = next.fetch_add(kClosedLoopDepth);
        if (first + kClosedLoopDepth > queries.size()) {
          used_up.store(true);
          return;
        }
        const std::vector<Query> batch(
            queries.begin() + static_cast<ptrdiff_t>(first),
            queries.begin() + static_cast<ptrdiff_t>(first + kClosedLoopDepth));
        const double start = Now();
        auto answers = client.value()->SearchBatch(batch);
        const double done = Now();
        if (!answers.ok()) {
          for (size_t i = 0; i < batch.size(); ++i) {
            per_thread[c].Record(Outcome::kTransport, done - start);
          }
          return;
        }
        size_t ok = 0;
        for (const Response& answer : answers.value()) {
          const Outcome outcome = OutcomeOf(answer.status);
          per_thread[c].Record(outcome, done - start);
          if (outcome == Outcome::kOk) ++ok;
        }
        batches[c].push_back({start - t0, done - t0, ok});
      }
    });
  }
  for (auto& t : threads) t.join();
  if (used_up.load()) {
    std::cout << "warning: closed-loop query pool used up early\n";
  }
  for (const auto& r : per_thread) recorder->Merge(r);
  // A batch's queries count as progress spread evenly over its
  // interval, so each window gets the share that overlaps it.
  const double window = seconds / kClosedLoopWindows;
  std::vector<double> per_window(kClosedLoopWindows, 0.0);
  for (const auto& list : batches) {
    for (const Batch& b : list) {
      const double rate = static_cast<double>(b.ok) / (b.done - b.start);
      for (size_t w = 0; w < kClosedLoopWindows; ++w) {
        const double lo = std::max(b.start, window * static_cast<double>(w));
        const double hi = std::min(b.done, window * static_cast<double>(w + 1));
        if (hi > lo) per_window[w] += rate * (hi - lo) / window;
      }
    }
  }
  return Median(per_window);
}

/// The closed loop's throughput: printed with the end-to-end metrics
/// but kept out of the bounded result set (on `mixed-ingest-highdim` its
/// spread over 10 seeds reached 0.34 on the shared recording host, over
/// the largest bound the result may carry); the traced run reports it as
/// a per-layer value.
void QpsMetric(double qps, bool trace, Report* report) {
  if (trace) {
    report->Layer("query_qps", qps, "1/s");
  } else {
    report->PrintedOnly("query_qps", qps, "1/s");
  }
}

/// True when an open-loop phase's sender ran more than
/// kRetryLagSeconds late at p99: the host stalled the generator, so the
/// phase's tail says more about the host than about the program.  Such
/// a phase is measured once more and only the second attempt is scored
/// (a run still behind then, past kMaxLagSeconds, is invalid).
bool Disturbed(const OpenLoop& loop, Report* report) {
  const double lag = loop.LagQuantile(0.99);
  if (lag <= kRetryLagSeconds) return false;
  report->Note("open loop disturbed (generator lag p99 " +
               std::to_string(lag * 1e3) + " ms); measuring it again");
  return true;
}

/// The open-loop phases a run scores: both halves of a traced run, and
/// otherwise the last attempt.
std::vector<const OpenLoop*> ScoredLoops(
    const std::vector<std::unique_ptr<OpenLoop>>& loops, bool trace) {
  if (!trace) return {loops.back().get()};
  std::vector<const OpenLoop*> scored;
  for (const auto& loop : loops) scored.push_back(loop.get());
  return scored;
}

/// Adds the query-latency metrics of an open-loop phase.
/// Query latency of the scored open loop.  The p99 is printed but kept
/// out of the bounded result set: on a shared host its run-to-run
/// spread exceeds any bound the benchmark may set (see README.md); the
/// traced run reports it as a per-layer value.
void QueryLatencyMetrics(const LatencyRecorder& queries, bool trace,
                         Report* report) {
  char samples[128];
  std::snprintf(samples, sizeof(samples),
                "query samples: %zu, highest supported percentile: p%g",
                queries.samples(),
                HighestSupportedPercentile(queries.samples()));
  report->Note(samples);
  if (!queries.Supports(99.0)) {
    report->Note("warning: fewer than " + std::to_string(kMinSamplesBeyond) +
                 " query samples beyond p99");
  }
  const double p99_ms = queries.Quantile(0.99) * 1e3;
  if (trace) {
    report->Layer("query_p99_ms", p99_ms, "ms");
    return;
  }
  report->EndToEnd("query_p50_ms", queries.Quantile(0.50) * 1e3, "ms");
  report->PrintedOnly("query_p99_ms", p99_ms, "ms");
}

double MeanDistances(const Load& load) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < load.size(); ++i) {
    if (load.kind[i] == OpKind::kSearch && load.acked[i]) {
      sum += static_cast<double>(load.distances[i]);
      ++n;
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

// -------------------------------------------------------- traced replay

struct LadderResult {
  RungMedians medians;
  SelfTimes self;
  bool adds_up = false;
  double codec_us = 0.0;
  double bytes_per_query = 0.0;
  double index_distances = 0.0;
  double index_pruned = 0.0;
  double verified_per_result = 0.0;
};

/// Replays `queries` down the stack on one pinned snapshot of a
/// quiescent store, one rung at a time, recording a span around each
/// public call: the wire round trip (Client::Search), the codec work
/// for that request and its answer, LiveDatabase::RunBatch, and
/// QueryEngine::RunBatch with its per-shard SearchIndex::Search spans,
/// started from the bound the live call's delta leg found.
/// Distance calls inside the shard spans are costed at
/// `ns_per_distance`, scaled by the share of shard time on the
/// engine's critical path.
LadderResult RunLadder(uint16_t port, Live* db,
                       const std::vector<Query>& queries,
                       double ns_per_distance, SpanLog* spans,
                       Report* report) {
  LadderResult out;
  auto client = dp::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    report->Mismatch("ladder connect: " + client.status().message());
    return out;
  }
  Engine engine(kEngineThreads);
  const Live::Snapshot view = db->Pin();
  std::vector<double> wire, codec, live, engine_span, shards, metric;
  std::vector<double> bytes, index_distances, pruned, verified;
  for (size_t i = 0; i < std::min<size_t>(10, queries.size()); ++i) {
    (void)client.value()->Search(queries[i]);  // warm every rung once
    (void)db->RunBatch(engine, view, {queries[i]});
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const double w0 = Now();
    auto answer = client.value()->Search(q);
    const double w1 = Now();
    if (!answer.ok() || !answer.value().status.ok()) {
      report->Mismatch("ladder wire query failed");
      return out;
    }
    const int64_t wire_id = spans->Add("wire", w0, w1, -1, qi);

    // Both sides' codec work for this exchange, averaged over 16 reps.
    constexpr int kReps = 16;
    size_t frame_bytes = 0;
    const double c0 = Now();
    for (int rep = 0; rep < kReps; ++rep) {
      std::string payload;
      dp::net::EncodeSearchRequest(&payload, q);
      const std::string request =
          dp::net::EncodeFrame(dp::net::MessageType::kSearch, payload);
      dp::net::FrameView view_frame;
      size_t size = 0;
      Status error;
      dp::net::ParseFrame(reinterpret_cast<const uint8_t*>(request.data()),
                          request.size(), &view_frame, &size, &error);
      auto decoded = dp::net::DecodeSearchRequest<Vector>(view_frame.payload,
                                                          view_frame.payload_size);
      std::string reply_payload;
      dp::net::EncodeSearchResponse(&reply_payload, answer.value());
      const std::string reply =
          dp::net::EncodeFrame(dp::net::MessageType::kSearchResult, reply_payload);
      dp::net::ParseFrame(reinterpret_cast<const uint8_t*>(reply.data()),
                          reply.size(), &view_frame, &size, &error);
      auto back = dp::net::DecodeSearchResponse(view_frame.payload,
                                                view_frame.payload_size);
      frame_bytes = request.size() + reply.size();
      if (!decoded.ok() || !back.ok()) report->Mismatch("ladder codec");
    }
    const double c1 = Now();
    const double codec_s = (c1 - c0) / kReps;
    spans->Add("codec", c0, c0 + codec_s, wire_id, qi);

    Query traced = q;
    traced.collect_trace = true;
    const double l0 = Now();
    const auto live_out = db->RunBatch(engine, view, {traced});
    const double l1 = Now();
    const int64_t live_id = spans->Add("live", l0, l1, wire_id, qi);

    // The engine rung searches the generation as the live layer did: a
    // full delta leg hands its k-th distance down as the starting bound.
    for (const auto& span : live_out.traces[0].spans) {
      if (span.delta) {
        traced.initial_radius_bound =
            std::min(traced.initial_radius_bound, span.bound_exit);
      }
    }
    const double e0 = Now();
    const auto engine_out = engine.RunBatch(view.database(), {traced});
    const double e1 = Now();
    const int64_t engine_id = spans->Add("engine", e0, e1, live_id, qi);
    const double base =
        std::chrono::duration<double>(engine_out.batch_start.time_since_epoch())
            .count();
    std::vector<std::pair<double, double>> intervals;
    double shard_sum = 0.0;
    for (const auto& span : engine_out.traces[0].spans) {
      const double s0 = base + span.start_seconds;
      const double s1 = base + span.stop_seconds;
      spans->Add("shard." + std::to_string(span.shard), s0, s1, engine_id, qi);
      intervals.emplace_back(s0, s1);
      shard_sum += s1 - s0;
    }
    const double covered = Coverage(intervals, e0, e1);
    const double d =
        static_cast<double>(engine_out.per_query_distance_computations[0]);
    const double metric_s =
        d * ns_per_distance * 1e-9 * Ratio(covered, shard_sum);

    if (live_out.results[0] != answer.value().results) {
      report->Mismatch("ladder: wire and LiveDatabase::RunBatch answers differ");
    }
    wire.push_back(w1 - w0);
    codec.push_back(codec_s);
    live.push_back(l1 - l0);
    engine_span.push_back(e1 - e0);
    shards.push_back(covered);
    metric.push_back(std::min(metric_s, covered));
    bytes.push_back(static_cast<double>(frame_bytes));
    index_distances.push_back(d);
    pruned.push_back(
        static_cast<double>(engine_out.stats.pruning_eliminated));
    verified.push_back(Ratio(
        static_cast<double>(engine_out.stats.candidates_verified),
        static_cast<double>(engine_out.results[0].size())));
  }
  out.medians = {Median(wire),        Median(codec),  Median(live),
                 Median(engine_span), Median(shards), Median(metric)};
  out.self = SubtractChildren(out.medians);
  out.adds_up = AddsUp(out.self, out.medians.wire);
  out.codec_us = out.medians.codec * 1e6;
  out.bytes_per_query = Mean(bytes);
  out.index_distances = Mean(index_distances);
  out.index_pruned = Mean(pruned);
  out.verified_per_result = Mean(verified);
  if (!out.adds_up) report->Mismatch("ladder self times do not add up");
  return out;
}

void LadderMetrics(const LadderResult& ladder, double ns_per_distance,
                   Report* report) {
  const SelfTimes& s = ladder.self;
  report->Note("ladder (median us): wire " +
               std::to_string(ladder.medians.wire * 1e6) + " = server " +
               std::to_string(s.server * 1e6) + " + codec " +
               std::to_string(s.codec * 1e6) + " + live " +
               std::to_string(s.live * 1e6) + " + engine " +
               std::to_string(s.engine * 1e6) + " + index " +
               std::to_string(s.index * 1e6) + " + metric " +
               std::to_string(s.metric * 1e6));
  report->Layer("metric.ns_per_distance", ns_per_distance, "ns");
  report->Layer("index.self_us", s.index * 1e6, "us");
  report->Layer("index.distances_per_query", ladder.index_distances, "count");
  report->Layer("index.pruned_per_query", ladder.index_pruned, "count");
  report->Layer("index.verified_per_result", ladder.verified_per_result,
                "ratio");
  report->Layer("engine.self_us", s.engine * 1e6, "us");
  report->Layer("live.self_us", s.live * 1e6, "us");
  report->Layer("net.codec_us", ladder.codec_us, "us");
  report->Layer("net.bytes_per_query", ladder.bytes_per_query, "B");
  report->Layer("server.self_us", s.server * 1e6, "us");
}

// ------------------------------------------- registry-derived per-layer

/// Counter readings at the start of the measured load.
class CounterWindow {
 public:
  explicit CounterWindow(MetricsRegistry* registry) : registry_(registry) {}
  void Open() {
    for (const char* name : kNames) start_[name] = CounterValue(registry_, name);
  }
  double Delta(const char* name) const {
    const auto it = start_.find(name);
    const uint64_t start = it == start_.end() ? 0 : it->second;
    return static_cast<double>(CounterValue(registry_, name) - start);
  }

 private:
  static constexpr const char* kNames[] = {
      "engine_queries_total",
      "engine_shard_tasks_total",
      "engine_coop_bound_tightenings_total",
      "live_compactions_total",
      "live_compaction_shards_rebuilt_total",
      "live_compaction_shards_shared_total",
      "live_backpressure_total",
      "perm_cache_hits_total",
      "perm_cache_misses_total",
      "perm_cache_probe_distances_total",
      "perm_cache_invalidations_total",
      "server_requests_total",
      "server_batches_total",
      "server_overload_rejected_total",
      "wal_bytes_total",
      "wal_appends_total",
  };
  MetricsRegistry* registry_;
  std::map<std::string, uint64_t> start_;
};

/// What the sender's tick samples during the load.
struct LiveSampler {
  explicit LiveSampler(Live* store) : db(store) {}

  Live* db;
  uint64_t generation = 0;
  double depth_sum = 0.0;
  uint64_t samples = 0;
  std::vector<double> build_distances;

  void Tick() {
    depth_sum += static_cast<double>(db->delta_entries());
    ++samples;
    const uint64_t now = db->generation_number();
    if (now != generation) {
      if (generation != 0) {
        build_distances.push_back(static_cast<double>(
            db->last_compaction_stats().build_distance_computations));
      }
      generation = now;
    }
  }
};

void EngineServerMetrics(MetricsRegistry* registry, const CounterWindow& w,
                         Report* report) {
  const double queries = w.Delta("engine_queries_total");
  report->Layer("engine.shard_tasks_per_query",
                Ratio(w.Delta("engine_shard_tasks_total"), queries), "count");
  report->Layer("engine.queue_wait_us",
                HistogramSnap(registry, "engine_task_queue_wait_seconds").mean() *
                    1e6,
                "us");
  report->Layer("engine.coop_tightenings_per_query",
                Ratio(w.Delta("engine_coop_bound_tightenings_total"), queries),
                "count");
  const double hits = w.Delta("perm_cache_hits_total");
  const double misses = w.Delta("perm_cache_misses_total");
  const double requests = w.Delta("server_requests_total");
  report->Layer("server.cache_hit_ratio", Ratio(hits, hits + misses),
                "fraction");
  report->Layer("server.cache_probe_distances_per_query",
                Ratio(w.Delta("perm_cache_probe_distances_total"), requests),
                "count");
  report->Layer("server.cache_invalidations",
                w.Delta("perm_cache_invalidations_total"), "count");
  report->Layer("server.requests_per_batch",
                Ratio(requests, w.Delta("server_batches_total")), "count");
  report->Layer("server.overload_rejected",
                w.Delta("server_overload_rejected_total"), "count");
}

void LiveMetrics(MetricsRegistry* registry, const CounterWindow& w,
                 const LiveSampler& sampler, Report* report) {
  report->Layer("live.delta_entries",
                Ratio(sampler.depth_sum, static_cast<double>(sampler.samples)),
                "count");
  report->Layer("live.compactions", w.Delta("live_compactions_total"), "count");
  report->Layer("live.compact_s",
                HistogramSnap(registry, "live_compaction_seconds").mean(), "s");
  report->Layer("live.compact_build_distances", Mean(sampler.build_distances),
                "count");
  const double rebuilt = w.Delta("live_compaction_shards_rebuilt_total");
  const double shared = w.Delta("live_compaction_shards_shared_total");
  report->Layer("live.shards_rebuilt_fraction", Ratio(rebuilt, rebuilt + shared),
                "fraction");
  report->Layer("live.backpressure", w.Delta("live_backpressure_total"),
                "count");
}

/// Per-layer storage and insert probes on the finished store: a timed
/// reopen of its directory, then kProbeInserts timed inserts into it.
void StorageProbes(const std::string& spec, size_t shards, uint64_t seed,
                   const std::vector<Vector>& points, double snapshot_bytes,
                   double snapshot_points, MetricsRegistry* run_registry,
                   Report* report) {
  MetricsRegistry probe_registry("perfbench_probe");
  const double t0 = Now();
  auto reopened = Live::Open({}, L2(), shards, spec, seed,
                             StoreOptions(&probe_registry));
  const double reopen_s = Now() - t0;
  if (!reopened.ok()) {
    report->Mismatch("probe reopen: " + reopened.status().message());
    return;
  }
  std::vector<double> insert_us;
  for (size_t i = 0; i < std::min(kProbeInserts, points.size()); ++i) {
    const double s0 = Now();
    auto id = reopened.value()->Insert(points[i]);
    insert_us.push_back((Now() - s0) * 1e6);
    if (!id.ok()) report->Mismatch("probe insert: " + id.status().message());
  }
  reopened.value().reset();
  const auto run_fsync = HistogramSnap(run_registry, "wal_fsync_seconds");
  const auto fsync = run_fsync.count() > 0
                         ? run_fsync
                         : HistogramSnap(&probe_registry, "wal_fsync_seconds");
  report->Layer("live.insert_us", Median(insert_us), "us");
  report->Layer("storage.wal_bytes_per_insert",
                Ratio(static_cast<double>(
                          CounterValue(&probe_registry, "wal_bytes_total")),
                      static_cast<double>(
                          CounterValue(&probe_registry, "wal_appends_total"))),
                "B");
  report->Layer("storage.fsync_p99_ms", fsync.Quantile(0.99) * 1e3, "ms");
  report->Layer("storage.snapshot_write_s",
                HistogramSnap(run_registry, "snapshot_write_seconds").mean(),
                "s");
  report->Layer("storage.snapshot_bytes_per_point",
                Ratio(snapshot_bytes, snapshot_points), "B");
  report->Layer("storage.reopen_s", reopen_s, "s");
}

double BuildSeconds(const std::vector<Vector>& data, size_t shards,
                    const std::string& spec, uint64_t seed) {
  const double t0 = Now();
  auto built = dp::engine::ShardedDatabase<Vector>::BuildFromRegistry(
      data, L2(), shards, spec, seed, kBuildThreads);
  const double elapsed = Now() - t0;
  return built.ok() ? elapsed : 0.0;
}

/// Per-layer metrics that only the replica workload has, reported as 0
/// elsewhere so every workload prints the same set.
void NoReplication(Report* report) {
  const std::pair<const char*, const char*> metrics[] = {
      {"replication.local_replay_records_per_s", "1/s"},
      {"replication.apply_us", "us"},
      {"replication.wire_share", "fraction"},
      {"replication.snapshot_bytes", "B"},
      {"replication.reconnects", "count"},
      {"bootstrap_s", "s"},
      {"catchup_records_per_s", "1/s"},
      {"replica_lag_p50_ms", "ms"},
      {"replica_lag_p99_ms", "ms"},
  };
  for (const auto& [name, unit] : metrics) report->Layer(name, 0.0, unit);
}

void WriteSpans(const Args& args, const SpanLog& spans, Report* report) {
  if (args.spans_dir.empty()) return;
  const std::string path = args.spans_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  if (spans.WriteJsonLines(path)) {
    report->Note("spans: " + std::to_string(spans.spans().size()) +
                 " written to " + path);
  }
}

void GeneratorMetrics(const std::vector<const OpenLoop*>& loops,
                      Report* report, bool* fell_behind) {
  double worst = 0.0;
  for (const OpenLoop* loop : loops) {
    worst = std::max(worst, loop->LagQuantile(0.99));
    if (loop->FellBehind(kMaxLagSeconds)) *fell_behind = true;
  }
  report->Note("generator lag p99: " + std::to_string(worst * 1e3) + " ms");
  report->Layer("gen.lag_p99_ms", worst * 1e3, "ms");
}

// ------------------------------------------------- knn-lowdim-distperm

int RunKnnLowdim(const Args& args, Report* report) {
  constexpr size_t kPoints = 200000;
  constexpr double kRate = 125.0;  // offered queries per second
  const std::string index = "distperm:fraction=0.02";
  const std::string dir = args.workdir + "/knn";
  const std::string spec = index + ",fsync=batched,wal_dir=" + dir;
  const double closed_s = ClosedLoopShare(args.seconds);
  const double open_s = args.seconds - closed_s;

  // Queries come from the same 4-d subspace as the data: one draw,
  // split.  Every query is distinct, so the perm cache always misses.
  const size_t open_queries = OpsPoolSize(kRate, open_s);
  const size_t closed_queries = static_cast<size_t>(1000 * closed_s) + 1;
  const size_t total_queries = 1 + open_queries + kLadderQueries + closed_queries;
  dp::util::Rng rng(args.seed);
  std::vector<Vector> points =
      dp::dataset::LowDimEmbedding(kPoints + total_queries, 16, 4, 0.0, &rng);
  const std::vector<Query> queries = KnnQueries(
      std::vector<Vector>(points.begin() + kPoints, points.end()),
      dp::index::ShardScheduling::kIndependent);
  points.resize(kPoints);
  const std::vector<Vector>& data = points;
  const size_t open_base = 1;
  const size_t ladder_base = open_base + open_queries;
  const size_t closed_base = ladder_base + kLadderQueries;

  MetricsRegistry registry("perfbench");
  MetricsRegistry* reg = args.trace ? &registry : nullptr;
  Serving serving;
  SetupTimes setup;
  std::vector<Vector> copy;
  Status status = SetUp(
      [&]() {
        ResetDir(dir);
        copy = data;
      },
      [&]() {
        return Live::Open(std::move(copy), L2(), 4, spec, args.seed,
                          StoreOptions(reg));
      },
      ServerOptions(nullptr), queries[0], &serving, &setup);
  if (!status.ok()) {
    report->Mismatch("set-up: " + status.message());
    return 1;
  }
  Live* db = serving.db.get();

  // Open loop: one phase with tracing off (measured again if
  // Disturbed); the traced run splits it in an untraced half and a half
  // served with the registry on.
  size_t phases = args.trace ? 2 : 1;
  const double phase_s = open_s / static_cast<double>(phases);
  std::vector<Load> loads;
  loads.reserve(2);
  std::vector<std::unique_ptr<OpenLoop>> loops;
  CounterWindow window(reg);
  LiveSampler sampler(db);
  size_t next_query = open_base;
  for (size_t p = 0; p < phases; ++p) {
    Load& load = loads.emplace_back();
    load.due = PoissonSchedule(kRate, phase_s, args.seed * 31 + p);
    load.kind.assign(load.due.size(), OpKind::kSearch);
    for (size_t i = 0; i < load.due.size(); ++i) load.arg.push_back(next_query++);
    load.Resize();
    if (args.trace && p == 1) {
      serving.server.reset();  // detaches its replication tap first
      serving.server = std::make_unique<ServerHandle>(db, ServerOptions(reg));
      if (!serving.server->Start().ok()) {
        report->Mismatch("traced server start");
        return 1;
      }
      window.Open();
    }
    LoadHooks hooks;
    hooks.read_port = serving.server->port();
    hooks.read_connections = 2;
    hooks.query = [&](size_t i) -> const Query& { return queries[i]; };
    hooks.tick = [&]() { sampler.Tick(); };
    auto loop = RunOpenLoop(&load, hooks, report);
    if (loop == nullptr) return 1;
    loops.push_back(std::move(loop));
    if (!args.trace && p == 0 && Disturbed(*loops[0], report)) phases = 2;
  }

  // Read before the checks below, whose copies of the data are the
  // benchmark's, not the program's.
  const double peak_rss_mb = PeakRssMb();

  // Correctness: sampled wire answers are bit-identical to
  // LiveDatabase::RunBatch on the same store (results and distance
  // counts); recall against brute force over the same data.
  Engine engine(kEngineThreads);
  const Live::Snapshot view = db->Pin();
  std::vector<double> recalls;
  size_t checked = 0;
  for (const Load& load : loads) {
    for (size_t i = 0; i < load.size(); ++i) {
      if (!load.kept[i].has_value()) continue;
      const Query& q = queries[load.arg[i]];
      const auto want = db->RunBatch(engine, view, {q});
      const Response& got = *load.kept[i];
      if (got.results != want.results[0] ||
          got.stats.distance_computations !=
              want.per_query_distance_computations[0]) {
        report->Mismatch("wire answer " + std::to_string(load.arg[i]) +
                         " differs from LiveDatabase::RunBatch");
      }
      recalls.push_back(Recall(got.results, BruteKnn(data, q.point, kK)));
      ++checked;
    }
  }
  report->Note("checked " + std::to_string(checked) +
               " sampled wire answers against LiveDatabase::RunBatch");

  LatencyRecorder query_latency;
  for (size_t p = 0; p < phases; ++p) {
    query_latency.Merge(Collect(loads[p], *loops[p], OpKind::kSearch));
  }
  report->Count(query_latency);
  const double distances = MeanDistances(loads.back());

  const std::vector<const OpenLoop*> loop_ptrs = ScoredLoops(loops, args.trace);
  bool fell_behind = false;
  LatencyRecorder closed;
  const double qps = ClosedLoopQps(
      serving.server->port(),
      std::vector<Query>(queries.begin() + closed_base, queries.end()),
      closed_s, &closed);
  report->Count(closed);
  QpsMetric(qps, args.trace, report);
  if (!args.trace) {
    report->EndToEnd("setup_s", Median(setup.total), "s");
    QueryLatencyMetrics(Collect(loads.back(), *loops.back(), OpKind::kSearch),
                        false, report);
    report->EndToEnd("distances_per_query", distances, "count");
    report->EndToEnd("recall_at_10", Mean(recalls), "fraction");
    report->EndToEnd("store_bytes_per_point",
                     Ratio(static_cast<double>(DirBytes(dir)),
                           static_cast<double>(db->size())),
                     "B");
    report->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
    GeneratorMetrics(loop_ptrs, report, &fell_behind);
  } else {
    const double ns = NsPerDistance(data);
    SpanLog spans;
    for (size_t i = 0; i < loops[1]->size(); ++i) {
      const OpTiming& op = loops[1]->op(i);
      spans.Add("request", loops[1]->start() + op.due,
                loops[1]->start() + op.done, -1, loads[1].arg[i]);
    }
    const LadderResult ladder = RunLadder(
        serving.server->port(), db,
        std::vector<Query>(queries.begin() + ladder_base,
                           queries.begin() + closed_base),
        ns, &spans, report);
    LadderMetrics(ladder, ns, report);
    report->Layer("index.build_s",
                  BuildSeconds(data, 4, index, args.seed),
                  "s");
    EngineServerMetrics(reg, window, report);
    LiveMetrics(reg, window, sampler, report);
    const double snapshot_bytes = static_cast<double>(NewestSnapshotBytes(dir));
    const double snapshot_points =
        static_cast<double>(view.database().size());
    LatencyRecorder untraced = Collect(loads[0], *loops[0], OpKind::kSearch);
    LatencyRecorder traced = Collect(loads[1], *loops[1], OpKind::kSearch);
    report->Layer("obs.tracing_overhead",
                  traced.Quantile(0.5) / untraced.Quantile(0.5) - 1.0,
                  "fraction");
    QueryLatencyMetrics(query_latency, true, report);
    GeneratorMetrics(loop_ptrs, report, &fell_behind);
    report->Layer("insert_p50_ms", 0.0, "ms");
    report->Layer("insert_p99_ms", 0.0, "ms");
    report->Layer("error_rate",
                  Ratio(static_cast<double>(query_latency.failed()),
                        static_cast<double>(query_latency.attempted())),
                  "fraction");
    NoReplication(report);
    serving.Close();
    StorageProbes(spec, 4, args.seed, data, snapshot_bytes, snapshot_points,
                  reg, report);
    WriteSpans(args, spans, report);
  }
  serving.Close();
  return fell_behind ? 3 : 0;
}

// ------------------------------------------------ mixed-ingest-highdim

int RunMixedIngest(const Args& args, Report* report) {
  constexpr size_t kPoints = 50000;
  constexpr size_t kDim = 16;
  constexpr size_t kShards = 8;
  constexpr size_t kHotQueries = 32;
  constexpr double kRate = 95.0;  // offered operations per second
  constexpr size_t kCompactThreshold = 30;
  const std::string dir = args.workdir + "/mixed";
  const std::string spec =
      "vp-tree:auto_compact_threshold=" + std::to_string(kCompactThreshold) +
      ",delta_index_min=10,fsync=batched,wal_dir=" + dir;
  const double closed_s = ClosedLoopShare(args.seconds);
  const double open_s = args.seconds - closed_s;

  dp::util::Rng rng(args.seed);
  const std::vector<Vector> data = dp::dataset::UniformCube(kPoints, kDim, &rng);
  const size_t max_ops = OpsPoolSize(kRate, open_s);
  const std::vector<Vector> insert_pool =
      dp::dataset::UniformCube(max_ops + kProbeInserts, kDim, &rng);
  // Query pool: the hot set first, then distinct cold queries.
  constexpr size_t kClosedPool = 6000;  // half of it cold
  const size_t cold = max_ops + kLadderQueries + kClosedPool / 2 + 200;
  const std::vector<Query> queries = KnnQueries(
      dp::dataset::UniformCube(kHotQueries + cold, kDim, &rng),
      dp::index::ShardScheduling::kCooperative);

  MetricsRegistry registry("perfbench");
  MetricsRegistry* reg = args.trace ? &registry : nullptr;
  Serving serving;
  SetupTimes setup;
  std::vector<Vector> copy;
  Status status = SetUp(
      [&]() {
        ResetDir(dir);
        copy = data;
      },
      [&]() {
        return Live::Open(std::move(copy), L2(), kShards, spec, args.seed,
                          StoreOptions(reg));
      },
      ServerOptions(nullptr), queries[kHotQueries], &serving, &setup);
  if (!status.ok()) {
    report->Mismatch("set-up: " + status.message());
    return 1;
  }
  Live* db = serving.db.get();

  // The plan: 70% kNN (half from the hot set), 25% insert, 5% remove.
  SeededStream mix(args.seed * 7 + 1);
  size_t next_cold = kHotQueries + 1;
  size_t next_insert = 0;
  size_t phases = args.trace ? 2 : 1;
  const double phase_s = open_s / static_cast<double>(phases);
  std::vector<Load> loads;
  loads.reserve(2);
  const auto plan = [&](size_t p) {
    Load& load = loads.emplace_back();
    load.due = PoissonSchedule(kRate, phase_s, args.seed * 31 + p);
    for (size_t i = 0; i < load.due.size(); ++i) {
      const double u = mix.Uniform();
      if (u < 0.70) {
        load.kind.push_back(OpKind::kSearch);
        load.arg.push_back(mix.Uniform() < 0.5 ? mix.Below(kHotQueries)
                                               : next_cold++);
      } else if (u < 0.95) {
        load.kind.push_back(OpKind::kInsert);
        load.arg.push_back(next_insert++);
      } else {
        load.kind.push_back(OpKind::kRemove);
        load.arg.push_back(0);
      }
    }
    load.Resize();
  };

  // A remove names a base point of the current generation by id.  Ids
  // are remapped when a fold swaps generations, so a remove is only
  // sent while no fold can swap in before it lands: every write goes
  // through this one sender and one connection, so the delta depth
  // plus the writes still in flight bounds the depth the remove lands
  // at, and auto-compaction only triggers at the threshold.
  SeededStream pick(args.seed * 11 + 3);
  std::set<Vector> removed_points;
  size_t skipped_removes = 0;
  const auto safe_remove = [&](Load* load, size_t op,
                               size_t inflight) -> std::optional<uint64_t> {
    const Live::Snapshot snap = db->Pin();
    if (snap.delta_entries() + inflight + 1 >= kCompactThreshold) {
      ++skipped_removes;
      return std::nullopt;
    }
    const auto& base = snap.database();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const size_t s = pick.Below(base.shard_count());
      if (base.shard(s).size() == 0) continue;
      const size_t local = pick.Below(base.shard(s).size());
      const Vector& point = base.shard(s).data()[local];
      if (!removed_points.insert(point).second) continue;
      load->removed[op] = point;
      return base.shard_offset(s) + local;
    }
    ++skipped_removes;
    return std::nullopt;
  };

  std::vector<std::unique_ptr<OpenLoop>> loops;
  CounterWindow window(reg);
  LiveSampler sampler(db);
  for (size_t p = 0; p < phases; ++p) {
    plan(p);
    if (args.trace && p == 1) {
      serving.server.reset();  // detaches its replication tap first
      serving.server = std::make_unique<ServerHandle>(db, ServerOptions(reg));
      if (!serving.server->Start().ok()) {
        report->Mismatch("traced server start");
        return 1;
      }
    }
    if (p + 1 == phases) window.Open();
    Load* load = &loads[p];
    LoadHooks hooks;
    hooks.read_port = serving.server->port();
    hooks.read_connections = 2;
    hooks.write_port = serving.server->port();
    hooks.query = [&](size_t i) -> const Query& { return queries[i]; };
    hooks.insert_point = [&](size_t i) -> const Vector& {
      return insert_pool[i];
    };
    hooks.remove = [&, load](size_t op, size_t inflight) {
      return safe_remove(load, op, inflight);
    };
    hooks.tick = [&]() { sampler.Tick(); };
    auto loop = RunOpenLoop(load, hooks, report);
    if (loop == nullptr) return 1;
    loops.push_back(std::move(loop));
    if (!args.trace && p == 0 && Disturbed(*loops[0], report)) phases = 2;
  }
  report->Note("removes skipped near a fold: " + std::to_string(skipped_removes));

  // Every attempt counts as attempted work; latencies come from the
  // scored phases.
  LatencyRecorder query_latency, insert_latency, remove_latency;
  for (size_t p = 0; p < phases; ++p) {
    LatencyRecorder queries_p = Collect(loads[p], *loops[p], OpKind::kSearch);
    LatencyRecorder inserts_p = Collect(loads[p], *loops[p], OpKind::kInsert);
    LatencyRecorder removes_p = Collect(loads[p], *loops[p], OpKind::kRemove);
    report->Count(queries_p);
    report->Count(inserts_p);
    report->Count(removes_p);
    if (args.trace || p + 1 == phases) {
      query_latency.Merge(queries_p);
      insert_latency.Merge(inserts_p);
      remove_latency.Merge(removes_p);
    }
  }
  const double distances = MeanDistances(loads.back());
  const std::vector<const OpenLoop*> loop_ptrs = ScoredLoops(loops, args.trace);
  bool fell_behind = false;
  db->WaitForCompaction();
  {
    // Closed loop: queries only, same hot/cold mix, writes stopped.
    std::vector<Query> closed_pool;
    SeededStream closed_mix(args.seed * 13 + 5);
    for (size_t i = 0; i < kClosedPool; ++i) {
      closed_pool.push_back(closed_mix.Uniform() < 0.5
                                ? queries[closed_mix.Below(kHotQueries)]
                                : queries[next_cold++]);
    }
    LatencyRecorder closed;
    const double qps =
        ClosedLoopQps(serving.server->port(), closed_pool, closed_s, &closed);
    report->Count(closed);
    QpsMetric(qps, args.trace, report);
  }
  db->WaitForCompaction();
  const uint64_t folds = db->generation_number() - 1;
  report->Note("generations folded: " + std::to_string(folds));

  // The traced replay runs on the quiescent store, before the checks
  // below close it.
  std::optional<LadderResult> ladder;
  SpanLog spans;
  double ns = 0.0;
  if (args.trace) {
    ns = NsPerDistance(data);
    for (size_t i = 0; i < loops[1]->size(); ++i) {
      const OpTiming& op = loops[1]->op(i);
      spans.Add("request", loops[1]->start() + op.due,
                loops[1]->start() + op.done, -1, i);
    }
    ladder = RunLadder(serving.server->port(), db,
                       std::vector<Query>(queries.begin() + next_cold,
                                          queries.begin() + next_cold +
                                              kLadderQueries),
                       ns, &spans, report);
    next_cold += kLadderQueries;
  }

  // Read before the checks below, whose copies of the data are the
  // benchmark's, not the program's.
  const double peak_rss_mb = PeakRssMb();

  // Correctness 1: on the quiescent view, wire answers (hot and cold,
  // cache on) equal brute force over Pin().Materialize().
  std::vector<double> recalls;
  {
    auto client = dp::net::Client::Connect("127.0.0.1", serving.server->port());
    const Live::Snapshot view = db->Pin();
    const std::vector<Vector> current = view.Materialize();
    for (size_t i = 0; i < 64 && client.ok(); ++i) {
      const Query& q = queries[i < kHotQueries ? i : next_cold++];
      auto answer = client.value()->Search(q);
      if (!answer.ok() || !answer.value().status.ok()) {
        report->Mismatch("final wire query failed");
        break;
      }
      const auto truth = BruteKnn(current, q.point, kK);
      if (!SameAsBrute(answer.value().results, truth, current, view)) {
        report->Mismatch("wire answer differs from brute force");
      }
      recalls.push_back(Recall(answer.value().results, truth));
    }
    if (!client.ok()) report->Mismatch("final connect failed");
  }

  const double snapshot_bytes = static_cast<double>(NewestSnapshotBytes(dir));
  const double snapshot_points =
      static_cast<double>(db->Pin().database().size());
  const double live_points = static_cast<double>(db->size());
  const double store_bytes = static_cast<double>(DirBytes(dir));

  // Correctness 2: reopen the store from its directory.  Every acked
  // insert is present, every acked remove is absent, and sampled kNN
  // answers equal brute force over the reopened view.
  serving.Close();
  {
    auto reopened = Live::Open({}, L2(), kShards, spec, args.seed,
                               StoreOptions(nullptr));
    if (!reopened.ok()) {
      report->Mismatch("reopen: " + reopened.status().message());
    } else {
      const Live::Snapshot view = reopened.value()->Pin();
      std::vector<Vector> got = view.Materialize();
      std::multiset<Vector> expected(data.begin(), data.end());
      size_t acked_inserts = 0, acked_removes = 0;
      for (const Load& load : loads) {
        for (size_t i = 0; i < load.size(); ++i) {
          if (!load.acked[i]) continue;
          if (load.kind[i] == OpKind::kInsert) {
            expected.insert(insert_pool[load.arg[i]]);
            ++acked_inserts;
          } else if (load.kind[i] == OpKind::kRemove) {
            const auto it = expected.find(load.removed[i]);
            if (it != expected.end()) expected.erase(it);
            ++acked_removes;
          }
        }
      }
      std::multiset<Vector> actual(got.begin(), got.end());
      if (actual != expected) {
        report->Mismatch("reopened store holds " + std::to_string(actual.size()) +
                         " points, expected " + std::to_string(expected.size()) +
                         " after " + std::to_string(acked_inserts) +
                         " acked inserts and " + std::to_string(acked_removes) +
                         " acked removes");
      }
      Engine engine(kEngineThreads);
      for (size_t i = 0; i < 24; ++i) {
        const Query& q = queries[i < 8 ? i : next_cold++];
        const auto answer = reopened.value()->RunBatch(engine, view, {q});
        if (!SameAsBrute(answer.results[0], BruteKnn(got, q.point, kK), got,
                         view)) {
          report->Mismatch("reopened answer differs from brute force");
        }
      }
      report->Note("reopened store verified: " + std::to_string(acked_inserts) +
                   " acked inserts present, " + std::to_string(acked_removes) +
                   " acked removes absent");
    }
  }

  if (!args.trace) {
    report->EndToEnd("setup_s", Median(setup.total), "s");
    QueryLatencyMetrics(query_latency, false, report);
    report->EndToEnd("distances_per_query", distances, "count");
    report->EndToEnd("recall_at_10", Mean(recalls), "fraction");
    report->EndToEnd("store_bytes_per_point", Ratio(store_bytes, live_points),
                     "B");
    report->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
    report->PrintedOnly("insert_p50_ms", insert_latency.Quantile(0.5) * 1e3,
                        "ms");
    report->PrintedOnly("insert_p99_ms", insert_latency.Quantile(0.99) * 1e3,
                        "ms");
    GeneratorMetrics(loop_ptrs, report, &fell_behind);
  } else {
    LadderMetrics(*ladder, ns, report);
    report->Layer("index.build_s", BuildSeconds(data, kShards, "vp-tree", args.seed),
                  "s");
    EngineServerMetrics(reg, window, report);
    LiveMetrics(reg, window, sampler, report);
    LatencyRecorder untraced = Collect(loads[0], *loops[0], OpKind::kSearch);
    LatencyRecorder traced = Collect(loads[1], *loops[1], OpKind::kSearch);
    report->Layer("obs.tracing_overhead",
                  traced.Quantile(0.5) / untraced.Quantile(0.5) - 1.0,
                  "fraction");
    QueryLatencyMetrics(query_latency, true, report);
    GeneratorMetrics(loop_ptrs, report, &fell_behind);
    report->Layer("insert_p50_ms", insert_latency.Quantile(0.5) * 1e3, "ms");
    report->Layer("insert_p99_ms", insert_latency.Quantile(0.99) * 1e3, "ms");
    const double attempted = static_cast<double>(
        query_latency.attempted() + insert_latency.attempted() +
        remove_latency.attempted());
    const double failed = static_cast<double>(
        query_latency.failed() + insert_latency.failed() +
        remove_latency.failed());
    report->Layer("error_rate", Ratio(failed, attempted), "fraction");
    NoReplication(report);
    StorageProbes(spec, kShards, args.seed,
                  std::vector<Vector>(insert_pool.end() - kProbeInserts,
                                      insert_pool.end()),
                  snapshot_bytes, snapshot_points, reg, report);
    WriteSpans(args, spans, report);
  }
  return fell_behind ? 3 : 0;
}

// ----------------------------------------------------- replica-catchup

int RunReplicaCatchup(const Args& args, Report* report) {
  constexpr size_t kBasePoints = 20000;
  constexpr size_t kDim = 8;
  constexpr size_t kShards = 4;
  constexpr size_t kBacklog = 100000;
  constexpr double kInsertRate = 200.0;  // wire inserts per second
  constexpr double kReadRate = 80.0;     // replica kNN per second
  const std::string primary_dir = args.workdir + "/primary";
  const std::string replica_dir = args.workdir + "/replica";
  const double closed_s = ClosedLoopShare(args.seconds);
  const double open_s = args.seconds - closed_s;
  const size_t tail_inserts = OpsPoolSize(kInsertRate, open_s);
  const std::string knobs =
      "delta_scan_limit=" + std::to_string(kBacklog + tail_inserts + 1000) +
      ",fsync=batched";
  const std::string spec = "vp-tree:" + knobs + ",wal_dir=" + primary_dir;

  dp::util::Rng rng(args.seed);
  const std::vector<Vector> base = dp::dataset::UniformCube(kBasePoints, kDim, &rng);
  const std::vector<Vector> backlog = dp::dataset::UniformCube(kBacklog, kDim, &rng);
  const std::vector<Vector> tail =
      dp::dataset::UniformCube(tail_inserts + kProbeInserts, kDim, &rng);
  const size_t read_queries = OpsPoolSize(kReadRate, open_s);
  const std::vector<Query> queries =
      KnnQueries(dp::dataset::UniformCube(
                     read_queries + kLadderQueries + 2000 + 64, kDim, &rng),
                 dp::index::ShardScheduling::kIndependent);

  MetricsRegistry registry("perfbench");
  MetricsRegistry replica_registry("perfbench_replica");
  MetricsRegistry* reg = args.trace ? &registry : nullptr;
  MetricsRegistry* replica_reg = args.trace ? &replica_registry : nullptr;

  // The primary: base snapshot plus an unfolded backlog in its WAL.
  ResetDir(primary_dir);
  ResetDir(replica_dir);
  {
    auto seeded = Live::Open(base, L2(), kShards, spec, args.seed,
                             StoreOptions(reg));
    if (!seeded.ok()) {
      report->Mismatch("primary seed: " + seeded.status().message());
      return 1;
    }
    for (const Vector& p : backlog) {
      if (!seeded.value()->Insert(p).ok()) {
        report->Mismatch("backlog insert failed");
        return 1;
      }
    }
  }

  // Set-up is the WAL replay: reopen the directory until it serves.
  Serving serving;
  SetupTimes setup;
  Status status = SetUp(
      []() {},
      [&]() {
        return Live::Open({}, L2(), kShards, spec, args.seed, StoreOptions(reg));
      },
      ServerOptions(reg), queries.back(), &serving, &setup);
  if (!status.ok()) {
    report->Mismatch("set-up: " + status.message());
    return 1;
  }
  Live* primary = serving.db.get();
  CounterWindow window(reg);
  window.Open();

  // The backlog's record bytes, for the apply probe of the traced run
  // (read now: the fold below retires this WAL).
  std::vector<dp::storage::WalRecord> backlog_records;
  if (args.trace) {
    auto wal = dp::storage::ReadWal(dp::storage::Env::Default(),
                                    primary_dir + "/wal-00000001.log", 1);
    if (!wal.ok() || wal.value().records.size() != kBacklog) {
      report->Mismatch("primary WAL does not hold the backlog");
      return 1;
    }
    backlog_records = std::move(wal).value().records;
  }

  // Bootstrap: snapshot transfer plus replica open; then catch-up on
  // the backlog.
  Replica::Options replica_options;
  replica_options.dir = replica_dir;
  replica_options.index_spec = "vp-tree";
  replica_options.seed = args.seed;
  replica_options.shard_count = kShards;
  replica_options.live_knobs = knobs;
  replica_options.build_threads = kBuildThreads;
  replica_options.engine_threads = kEngineThreads;
  replica_options.replication.primary_port = serving.server->port();
  replica_options.metrics = replica_reg;
  const double b0 = Now();
  auto opened = Replica::Open(L2(), replica_options);
  const double bootstrap_s = Now() - b0;
  if (!opened.ok()) {
    report->Mismatch("replica open: " + opened.status().message());
    return 1;
  }
  ReplicaHandle replica(std::move(opened).value());
  if (!replica.Start().ok()) {
    report->Mismatch("replica start");
    return 1;
  }
  const uint16_t replica_port = replica->server().port();
  const double c0 = Now();
  if (!WaitFor([&]() { return replica->replication().applied_seq() >= kBacklog; },
               60.0)) {
    report->Mismatch("replica did not catch up on the backlog");
    return 1;
  }
  const double catchup_s = Now() - c0;
  const double catchup_rate = static_cast<double>(kBacklog) / catchup_s;

  // Fold the backlog on the primary; the replica replays the rotation,
  // so both serve the tail from a small delta.
  if (!primary->Compact().ok() ||
      !WaitFor(
          [&]() {
            return replica->db().generation_number() ==
                       primary->generation_number() &&
                   replica->replication().applied_seq() ==
                       primary->delta_entries();
          },
          60.0)) {
    report->Mismatch("replica did not follow the primary's fold");
    return 1;
  }

  // Tail: wire inserts to the primary and kNN reads on the replica,
  // both open-loop (measured again if Disturbed); a poller stamps when
  // each record's seq is applied.
  struct Tail {
    Load load;
    std::unique_ptr<OpenLoop> loop;
    std::vector<double> lags;  // ascending, seconds
  };
  std::vector<Tail> tails;
  tails.reserve(2);
  LiveSampler sampler(primary);
  size_t next_insert = 0;
  size_t next_read = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Tail& tail_run = tails.emplace_back();
    Load& load = tail_run.load;
    const std::vector<double> inserts =
        PoissonSchedule(kInsertRate, open_s, args.seed * 31 + attempt);
    const std::vector<double> reads =
        PoissonSchedule(kReadRate, open_s, args.seed * 37 + 1 + attempt);
    size_t a = 0, b = 0;
    while (a < inserts.size() || b < reads.size()) {
      if (b == reads.size() || (a < inserts.size() && inserts[a] <= reads[b])) {
        load.due.push_back(inserts[a++]);
        load.kind.push_back(OpKind::kInsert);
        load.arg.push_back(next_insert++);
      } else {
        load.due.push_back(reads[b++]);
        load.kind.push_back(OpKind::kSearch);
        load.arg.push_back(next_read++);
      }
    }
    load.Resize();
    const uint64_t seq_base = replica->replication().applied_seq();
    std::vector<double> applied_at(inserts.size(), 0.0);
    std::atomic<bool> polling{true};
    std::thread poller([&]() {
      uint64_t seen = seq_base;
      while (polling.load()) {
        const uint64_t applied = replica->replication().applied_seq();
        const double now = Now();
        for (uint64_t seq = seen + 1; seq <= applied; ++seq) {
          if (seq - seq_base - 1 < applied_at.size()) {
            applied_at[seq - seq_base - 1] = now;
          }
        }
        seen = std::max(seen, applied);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    LoadHooks hooks;
    hooks.tick = [&]() { sampler.Tick(); };
    hooks.read_port = replica_port;
    hooks.read_connections = 1;
    hooks.write_port = serving.server->port();
    hooks.query = [&](size_t i) -> const Query& { return queries[i]; };
    hooks.insert_point = [&](size_t i) -> const Vector& { return tail[i]; };
    tail_run.loop = RunOpenLoop(&load, hooks, report);
    size_t acked_inserts = 0;
    for (size_t i = 0; i < load.size(); ++i) {
      if (load.kind[i] == OpKind::kInsert && load.acked[i]) ++acked_inserts;
    }
    const uint64_t target = seq_base + acked_inserts;
    const bool applied = WaitFor(
        [&]() { return replica->replication().applied_seq() >= target; }, 60.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    polling.store(false);
    poller.join();
    if (tail_run.loop == nullptr) return 1;
    if (!applied) report->Mismatch("replica did not apply every acked insert");
    size_t rank = 0;
    for (size_t i = 0; i < load.size(); ++i) {
      if (load.kind[i] != OpKind::kInsert || !load.acked[i]) continue;
      const double ack = tail_run.loop->start() + tail_run.loop->op(i).done;
      tail_run.lags.push_back(std::max(0.0, applied_at[rank++] - ack));
    }
    std::sort(tail_run.lags.begin(), tail_run.lags.end());
    if (args.trace || !Disturbed(*tail_run.loop, report)) break;
  }
  const Load& load = tails.back().load;
  const OpenLoop& loop = *tails.back().loop;
  const std::vector<double>& lags = tails.back().lags;

  // Read before the checks below, whose copies of the data are the
  // benchmark's, not the program's.
  const double peak_rss_mb = PeakRssMb();

  // Correctness: the replica's view and batch answers equal the
  // primary's; replica wire answers equal brute force over its view.
  std::vector<double> recalls;
  {
    const Live::Snapshot primary_view = primary->Pin();
    const Live::Snapshot replica_view = replica->db().Pin();
    const std::vector<Vector> primary_points = primary_view.Materialize();
    if (replica_view.Materialize() != primary_points) {
      report->Mismatch("replica Materialize() differs from the primary's");
    }
    std::vector<Query> batch(queries.end() - 64, queries.end());
    Engine engine(kEngineThreads);
    const auto want = primary->RunBatch(engine, primary_view, batch);
    const auto got = replica->db().RunBatch(engine, replica_view, batch);
    if (got.results != want.results) {
      report->Mismatch("replica batch results differ from the primary's");
    }
    if (got.per_query_distance_computations !=
        want.per_query_distance_computations) {
      report->Mismatch("replica batch distance counts differ from the primary's");
    }
    auto client = dp::net::Client::Connect("127.0.0.1", replica_port);
    for (size_t i = 0; i < 16 && client.ok(); ++i) {
      const Query& q = batch[i];
      auto answer = client.value()->Search(q);
      if (!answer.ok() || !answer.value().status.ok()) {
        report->Mismatch("replica wire query failed");
        break;
      }
      const auto truth = BruteKnn(primary_points, q.point, kK);
      if (!SameAsBrute(answer.value().results, truth, primary_points,
                       replica_view)) {
        report->Mismatch("replica wire answer differs from brute force");
      }
      recalls.push_back(Recall(answer.value().results, truth));
    }
  }

  for (const Tail& t : tails) {
    report->Count(Collect(t.load, *t.loop, OpKind::kSearch));
    report->Count(Collect(t.load, *t.loop, OpKind::kInsert));
  }
  const LatencyRecorder query_latency = Collect(load, loop, OpKind::kSearch);
  const LatencyRecorder insert_latency = Collect(load, loop, OpKind::kInsert);
  const double distances = MeanDistances(load);
  bool fell_behind = false;
  const std::vector<const OpenLoop*> loop_ptrs = {&loop};
  const double store_bytes = static_cast<double>(DirBytes(primary_dir));
  const double live_points = static_cast<double>(primary->size());
  const double snapshot_bytes =
      static_cast<double>(NewestSnapshotBytes(primary_dir));
  const double snapshot_points =
      static_cast<double>(primary->Pin().database().size());
  report->Note("bootstrap_s " + std::to_string(bootstrap_s) +
               " s, catchup_records_per_s " + std::to_string(catchup_rate) +
               " 1/s over a " + std::to_string(kBacklog) + "-record backlog");

  {
    LatencyRecorder closed;
    const double qps = ClosedLoopQps(
        replica_port,
        std::vector<Query>(queries.begin() + read_queries + kLadderQueries,
                           queries.end() - 64),
        closed_s, &closed);
    report->Count(closed);
    QpsMetric(qps, args.trace, report);
  }
  if (!args.trace) {
    report->EndToEnd("setup_s", Median(setup.total), "s");
    QueryLatencyMetrics(query_latency, false, report);
    report->EndToEnd("distances_per_query", distances, "count");
    report->EndToEnd("recall_at_10", Mean(recalls), "fraction");
    report->EndToEnd("store_bytes_per_point", Ratio(store_bytes, live_points),
                     "B");
    report->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
    report->PrintedOnly("insert_p50_ms", insert_latency.Quantile(0.5) * 1e3,
                        "ms");
    report->PrintedOnly("insert_p99_ms", insert_latency.Quantile(0.99) * 1e3,
                        "ms");
    report->PrintedOnly("bootstrap_s", bootstrap_s, "s");
    report->PrintedOnly("catchup_records_per_s", catchup_rate, "1/s");
    report->PrintedOnly("replica_lag_p50_ms", SortedQuantile(lags, 0.5) * 1e3,
                        "ms");
    report->PrintedOnly("replica_lag_p99_ms", SortedQuantile(lags, 0.99) * 1e3,
                        "ms");
    GeneratorMetrics(loop_ptrs, report, &fell_behind);
    replica.Stop();
    serving.Close();
    return fell_behind ? 3 : 0;
  }

  const double ns = NsPerDistance(base);
  SpanLog spans;
  const LadderResult ladder = RunLadder(
      replica_port, &replica->db(),
      std::vector<Query>(queries.begin() + read_queries,
                         queries.begin() + read_queries + kLadderQueries),
      ns, &spans, report);
  LadderMetrics(ladder, ns, report);
  report->Layer("index.build_s", BuildSeconds(base, kShards, "vp-tree", args.seed),
                "s");
  EngineServerMetrics(replica_reg, CounterWindow(replica_reg), report);
  LiveMetrics(reg, window, sampler, report);
  report->Layer("obs.tracing_overhead", 0.0, "fraction");
  QueryLatencyMetrics(query_latency, true, report);
  GeneratorMetrics(loop_ptrs, report, &fell_behind);
  report->Layer("insert_p50_ms", insert_latency.Quantile(0.5) * 1e3, "ms");
  report->Layer("insert_p99_ms", insert_latency.Quantile(0.99) * 1e3, "ms");
  report->Layer("error_rate",
                Ratio(static_cast<double>(query_latency.failed() +
                                          insert_latency.failed()),
                      static_cast<double>(query_latency.attempted() +
                                          insert_latency.attempted())),
                "fraction");

  // Replication layer: the local replay ceiling, the apply cost of the
  // primary's own record bytes on a scratch store, and the share of
  // catch-up not spent applying.
  const double replay_rate =
      static_cast<double>(kBacklog) / Median(setup.open);
  double apply_us = 0.0;
  {
    const std::string scratch_dir = args.workdir + "/apply";
    ResetDir(scratch_dir);
    auto scratch = Live::Open(base, L2(), kShards,
                              "vp-tree:" + knobs + ",wal_dir=" + scratch_dir,
                              args.seed, StoreOptions(nullptr));
    if (!scratch.ok()) {
      report->Mismatch("apply probe open: " + scratch.status().message());
    } else {
      const double a0 = Now();
      for (const dp::storage::WalRecord& record : backlog_records) {
        auto op = dp::engine::DecodeWalRecord<Vector>(record.payload);
        if (!op.ok() ||
            !scratch.value()->ApplyReplicated(std::move(op).value(),
                                              record.payload).ok()) {
          report->Mismatch("apply probe: record " + std::to_string(record.seq));
          break;
        }
      }
      apply_us = (Now() - a0) / static_cast<double>(kBacklog) * 1e6;
    }
  }
  report->Layer("replication.local_replay_records_per_s", replay_rate, "1/s");
  report->Layer("replication.apply_us", apply_us, "us");
  report->Layer("replication.wire_share",
                1.0 - apply_us * 1e-6 * static_cast<double>(kBacklog) / catchup_s,
                "fraction");
  report->Layer("replication.snapshot_bytes",
                static_cast<double>(
                    CounterValue(replica_reg, "replica_snapshot_bytes_total")),
                "B");
  report->Layer("replication.reconnects",
                static_cast<double>(
                    CounterValue(replica_reg, "replica_reconnects_total")),
                "count");
  report->Layer("bootstrap_s", bootstrap_s, "s");
  report->Layer("catchup_records_per_s", catchup_rate, "1/s");
  report->Layer("replica_lag_p50_ms", SortedQuantile(lags, 0.5) * 1e3, "ms");
  report->Layer("replica_lag_p99_ms", SortedQuantile(lags, 0.99) * 1e3, "ms");

  replica.Stop();
  serving.Close();
  StorageProbes(spec, kShards, args.seed,
                std::vector<Vector>(tail.end() - kProbeInserts, tail.end()),
                snapshot_bytes, snapshot_points, reg, report);
  WriteSpans(args, spans, report);
  return fell_behind ? 3 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator settings: with glibc's defaults (an arena per
  // thread, a mmap threshold that grows after large frees) peak RSS
  // depends on which threads happened to allocate what, and varies run
  // to run far more than the program's live memory does.
  mallopt(M_ARENA_MAX, 2);
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload=<name> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> --workdir=<dir> [--spans-dir=<dir>]\n";
    return 2;
  }
  std::cout << "perfbench " << args.workload << " seed " << args.seed << " ("
            << args.seconds << " s, trace " << args.trace << ", "
            << std::thread::hardware_concurrency() << " hardware threads)\n";
  perfbench::Report report;
  int code = 0;
  if (args.workload == "knn-lowdim-distperm") {
    code = perfbench::RunKnnLowdim(args, &report);
  } else if (args.workload == "mixed-ingest-highdim") {
    code = perfbench::RunMixedIngest(args, &report);
  } else if (args.workload == "replica-catchup") {
    code = perfbench::RunReplicaCatchup(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (code == 3) {
    std::cout << "run invalid: the generator fell behind its schedule "
                 "(lag p99 over "
              << perfbench::kMaxLagSeconds * 1e3 << " ms)\n";
    return 3;
  }
  if (code != 0 && report.correct()) return code;
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
