// Durability tests for the live engine: fresh durable opens, recovery
// (snapshot + WAL replay) that is bit-identical to the pre-crash
// store AND to a fresh build over the equivalent dataset, fault
// injection at the nasty points (torn WAL tail, failed fsync, crash
// mid-compaction), exactness of the durability metrics, and the
// DeltaLog edge cases (chunk boundaries, replay idempotence).
//
// The crash tests use storage::FaultInjectionEnv: the injected crash
// leaves exactly the bytes a SIGKILL would have, and the store is then
// reopened with the real Env — the same sequence a reboot runs.  The
// fork+SIGKILL variant lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "engine/generation_store.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "index/distperm_index.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace engine {
namespace {

using index::SearchResult;
using metric::Vector;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }
metric::Metric<std::string> Lev() {
  return metric::Metric<std::string>(metric::LevenshteinMetric());
}

/// A per-test store directory, emptied of any leftovers from previous
/// runs (TempDir persists across ctest invocations).
std::string FreshStoreDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  std::string dir = ::testing::TempDir() + "/durability_" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  auto listing = env->ListDir(dir);
  if (listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }
  return dir;
}

/// Appends the durability knobs to an index spec.
std::string WithWal(const std::string& spec, const std::string& dir,
                    const std::string& fsync = "always") {
  return spec + (spec.find(':') == std::string::npos ? ":" : ",") +
         "wal_dir=" + dir + ",fsync=" + fsync;
}

template <typename P>
std::vector<std::pair<double, P>> Fingerprint(
    const std::vector<SearchResult>& results,
    const std::function<P(size_t)>& resolve) {
  std::vector<std::pair<double, P>> prints;
  prints.reserve(results.size());
  for (const SearchResult& r : results) {
    prints.emplace_back(r.distance, resolve(r.id));
  }
  std::sort(prints.begin(), prints.end());
  return prints;
}

std::vector<QuerySpec<Vector>> VectorBatch(util::Rng* rng) {
  std::vector<QuerySpec<Vector>> batch;
  for (int q = 0; q < 3; ++q) {
    Vector point = {rng->NextDouble(), rng->NextDouble(), rng->NextDouble()};
    batch.push_back(QuerySpec<Vector>::Knn(point, 7));
  }
  Vector point = {rng->NextDouble(), rng->NextDouble(), rng->NextDouble()};
  batch.push_back(QuerySpec<Vector>::Range(point, 0.4));
  return batch;
}

// ---------------------------------------------------------------- DeltaLog

TEST(DeltaLog, AppendsAcrossChunkBoundaries) {
  // kChunkSize is the lazily-allocated block size: the boundary entry,
  // the one before it, and the first of the next chunk must all read
  // back intact, for several chunks' worth of appends.
  DeltaLog<std::string> log;
  const size_t n = DeltaLog<std::string>::kChunkSize * 3 + 5;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(log.Append({i % 7 == 0, i, 0, "entry-" + std::to_string(i)}));
    ASSERT_EQ(log.committed(), i + 1);
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = log.entry(i);
    EXPECT_EQ(entry.is_remove, i % 7 == 0) << i;
    EXPECT_EQ(entry.id, i) << i;
    EXPECT_EQ(entry.point, "entry-" + std::to_string(i)) << i;
  }
}

TEST(DeltaLog, ExactChunkMultipleThenOneMore) {
  DeltaLog<std::string> log;
  const size_t boundary = DeltaLog<std::string>::kChunkSize;
  for (size_t i = 0; i < boundary; ++i) {
    ASSERT_TRUE(log.Append({false, i, 0, "x"}));
  }
  ASSERT_EQ(log.committed(), boundary);
  EXPECT_EQ(log.entry(boundary - 1).id, boundary - 1);
  // This append is the first touch of chunk 1.
  ASSERT_TRUE(log.Append({false, boundary, 0, "first-of-chunk-1"}));
  EXPECT_EQ(log.entry(boundary).point, "first-of-chunk-1");
  EXPECT_EQ(log.entry(boundary - 1).id, boundary - 1);  // chunk 0 intact
}

// ------------------------------------------------------- fresh durable open

TEST(Durability, FreshOpenCreatesSnapshotAndWal) {
  const std::string dir = FreshStoreDir("fresh_open");
  util::Rng rng(11);
  auto data = dataset::UniformCube(40, 3, &rng);
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2,
                                         WithWal("vp-tree", dir), 7);
  ASSERT_TRUE(live.ok()) << live.status();
  storage::Env* env = storage::Env::Default();
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_TRUE(env->FileExists(dir + "/" + WalFileName(1)));
  EXPECT_EQ(live.value()->generation_number(), 1u);
  EXPECT_EQ(live.value()->size(), 40u);
}

TEST(Durability, OpeningExistingStoreWithSeedDataIsRejected) {
  const std::string dir = FreshStoreDir("reject_seed");
  util::Rng rng(12);
  auto data = dataset::UniformCube(20, 3, &rng);
  const std::string spec = WithWal("vp-tree", dir);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7).ok()); }
  auto reopened = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(Durability, MismatchedIdentityIsRefused) {
  const std::string dir = FreshStoreDir("identity");
  util::Rng rng(13);
  auto data = dataset::UniformCube(20, 3, &rng);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2,
                                           WithWal("vp-tree", dir), 7)
                    .ok()); }
  // Wrong spec, wrong seed, wrong shard count: all refused, never
  // silently served.
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 2, WithWal("gh-tree", dir), 7)
          .ok());
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 2, WithWal("vp-tree", dir), 8)
          .ok());
  EXPECT_FALSE(
      LiveDatabase<Vector>::Open({}, L2(), 3, WithWal("vp-tree", dir), 7)
          .ok());
}

// A CRC-valid snapshot whose distperm shard state disagrees with the
// shard (replicas bootstrap from bytes received over the wire) must be
// refused with an error, never reach the restore constructor's fatal
// check.
TEST(Snapshot, RejectsDistPermStateThatDisagreesWithItsShard) {
  using State = index::DistPermIndex<Vector>::PackedState;
  storage::Env* env = storage::Env::Default();
  const std::string dir = FreshStoreDir("snapshot_hostile_state");
  const std::string spec = "distperm:k=6";
  util::Rng rng(17);
  auto generation = Generation<Vector>::Build(
      dataset::UniformCube(400, 3, &rng), L2(), 2, spec, 9, 1);
  ASSERT_TRUE(generation.ok()) << generation.status();
  const std::string good = dir + "/good.snap";
  ASSERT_TRUE(
      WriteGenerationSnapshot<Vector>(env, good, *generation.value()).ok());
  auto reader = storage::SnapshotReader::Open(env, good);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Rewrites the snapshot with shard 0's state passed through `tamper`;
  // every checksum in the result is valid.
  const auto load_tampered = [&](const std::function<void(State*)>& tamper) {
    storage::SnapshotWriter writer;
    for (const auto& [key, value] : reader.value().meta()) {
      writer.SetMeta(key, value);
    }
    for (const std::string name : {"vectors", "shard0", "shard1"}) {
      auto section = reader.value().GetSection(name);
      EXPECT_TRUE(section.ok()) << name;
      std::string bytes(reinterpret_cast<const char*>(section.value().data),
                        section.value().size);
      if (name == "shard0") {
        State state;
        EXPECT_TRUE(internal::DecodeDistPermState<Vector>(
            section.value().data, section.value().size, &state));
        tamper(&state);
        bytes = internal::EncodeDistPermState<Vector>(state);
      }
      writer.AddSection(name, std::move(bytes));
    }
    const std::string path = dir + "/tampered.snap";
    EXPECT_TRUE(writer.Write(env, path).ok());
    return ReadGenerationSnapshot<Vector>(env, path, L2(), 2, spec, 9, 1);
  };

  auto untouched = load_tampered([](State*) {});
  ASSERT_TRUE(untouched.ok()) << untouched.status();
  EXPECT_EQ(untouched.value()->size(), 400u);

  // Six sites: full permutations are 10-bit Lehmer ranks (6! = 720),
  // and rank rows hold values in [0, 6].
  const std::vector<std::pair<const char*, std::function<void(State*)>>>
      hostile = {
          {"packed_bits off by one", [](State* s) { ++s->packed_bits; }},
          {"packed bytes short", [](State* s) { s->packed.pop_back(); }},
          {"one record short",
           [](State* s) {
             s->packed_bits -= 10;
             s->packed.resize((s->packed_bits + 7) / 8);
           }},
          {"table offsets end short",
           [](State* s) { --s->row_offsets.back(); }},
          {"table offset past the end",
           [](State* s) { s->row_offsets[1] = 1000; }},
          {"table id out of range",
           [](State* s) { s->row_ids.front() = 400; }},
          {"table rank above the prefix",
           [](State* s) { s->rows.front() = 7; }},
          {"table row missing", [](State* s) { s->rows.pop_back(); }},
          {"prefix zero", [](State* s) { s->prefix = 0; }},
          {"fraction above one", [](State* s) { s->fraction = 2.0; }},
          {"no sites", [](State* s) { s->sites.clear(); }},
          {"site of the wrong dimension",
           [](State* s) { s->sites[0].push_back(0.5); }},
      };
  for (const auto& [what, tamper] : hostile) {
    auto loaded = load_tampered(tamper);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError) << what;
    EXPECT_NE(loaded.status().message().find("state is malformed"),
              std::string::npos)
        << what << ": " << loaded.status();
  }
}

// ------------------------------------------------- reopen is bit-identical

/// The acceptance loop: seed a durable store, apply writes (half
/// before a compaction, half after, some removes), close it, reopen
/// from disk, and require (a) the reopened view is exactly the
/// pre-close view — same ids, same points — and (b) its answers are
/// fingerprint-identical to a fresh in-memory build over the same
/// final dataset.
template <typename P>
void RoundTripStore(const std::string& tag, const std::string& base_spec,
                    bool exact, std::vector<P> data,
                    const metric::Metric<P>& metric, std::vector<P> extra,
                    const std::vector<QuerySpec<P>>& batch) {
  const std::string dir = FreshStoreDir(tag);
  const std::string spec = WithWal(base_spec, dir);
  const uint64_t seed = 29;

  std::vector<P> final_view;
  typename QueryEngine<P>::BatchOutput before;
  {
    auto live = LiveDatabase<P>::Open(data, metric, 3, spec, seed);
    ASSERT_TRUE(live.ok()) << live.status();
    auto& store = *live.value();
    const size_t half = extra.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(store.Insert(extra[i]).ok());
    }
    ASSERT_TRUE(store.Remove(1).ok());
    ASSERT_TRUE(store.Compact().ok());
    for (size_t i = half; i < extra.size(); ++i) {
      ASSERT_TRUE(store.Insert(extra[i]).ok());
    }
    ASSERT_TRUE(store.Remove(0).ok());
    final_view = store.Pin().Materialize();
    before = store.RunBatch(batch);
    ASSERT_TRUE(before.all_ok());
  }

  auto reopened = LiveDatabase<P>::Open({}, metric, 3, spec, seed);
  ASSERT_TRUE(reopened.ok()) << base_spec << ": " << reopened.status();
  auto& store = *reopened.value();

  // (a) Exactly the pre-close store: same materialized view (order
  // included), same generation, and the same answers with the same ids.
  EXPECT_EQ(store.generation_number(), 2u) << base_spec;
  EXPECT_EQ(store.Pin().Materialize(), final_view) << base_spec;
  auto after = store.RunBatch(batch);
  ASSERT_TRUE(after.all_ok());
  EXPECT_EQ(after.results, before.results) << base_spec;

  // (b) For exact specs, also fingerprint-identical to a fresh
  // in-memory build over the equivalent dataset.  Approximate specs
  // (distperm) are covered by (a) only: their candidate sets depend on
  // the index layout, which a fresh build over the compacted order
  // legitimately changes.
  if (!exact) return;
  auto fresh = LiveDatabase<P>::Open(final_view, metric, 3, base_spec, seed);
  ASSERT_TRUE(fresh.ok());
  auto want = fresh.value()->RunBatch(batch);
  ASSERT_TRUE(want.all_ok());
  auto snapshot = store.Pin();
  const std::function<P(size_t)> live_resolve = [&snapshot](size_t id) {
    auto point = snapshot.ResolvePoint(id);
    EXPECT_TRUE(point.ok());
    return point.ok() ? point.value() : P{};
  };
  const std::function<P(size_t)> fresh_resolve = [&final_view](size_t id) {
    return final_view.at(id);
  };
  for (size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(Fingerprint<P>(after.results[q], live_resolve),
              Fingerprint<P>(want.results[q], fresh_resolve))
        << base_spec << " query " << q;
  }
}

TEST(Durability, VectorsReopenBitIdenticalAcrossSpecs) {
  for (const auto& [spec, exact] :
       {std::pair<const char*, bool>{"vp-tree", true},
        {"laesa:k=4", true},
        {"distperm:k=6,fraction=0.5", false}}) {
    util::Rng rng(31);
    auto data = dataset::UniformCube(60, 3, &rng);
    auto extra = dataset::UniformCube(20, 3, &rng);
    util::Rng qrng(32);
    RoundTripStore<Vector>(std::string("vec_") + spec[0] + spec[1], spec,
                           exact, data, L2(), extra, VectorBatch(&qrng));
  }
}

TEST(Durability, StringsReopenBitIdenticalAcrossSpecs) {
  for (const auto& [spec, exact] :
       {std::pair<const char*, bool>{"vp-tree", true},
        {"gh-tree", true},
        {"distperm:k=6,fraction=0.5", false}}) {
    util::Rng rng(33);
    auto words = dataset::DnaSequences(50, 4, 5, 12, 0.1, &rng);
    auto extra = dataset::DnaSequences(16, 4, 5, 12, 0.1, &rng);
    std::vector<QuerySpec<std::string>> batch = {
        QuerySpec<std::string>::Knn("acgtacgt", 6),
        QuerySpec<std::string>::Range(words[7], 4.0),
        QuerySpec<std::string>::KnnWithinRadius("tttt", 3, 5.0)};
    RoundTripStore<std::string>(std::string("str_") + spec[0] + spec[1],
                                spec, exact, words, Lev(), extra, batch);
  }
}

TEST(Durability, ReplayIsIdempotentAcrossRepeatedOpens) {
  // Opening a store replays its WAL onto its snapshot; opening it
  // again replays the same records again.  The state must be the same
  // every time — replay must not duplicate or re-id anything.
  const std::string dir = FreshStoreDir("idempotent");
  const std::string spec = WithWal("vp-tree", dir);
  util::Rng rng(41);
  auto data = dataset::UniformCube(30, 3, &rng);
  std::vector<Vector> view;
  {
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 5);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    ASSERT_TRUE(live.value()->Remove(3).ok());
    view = live.value()->Pin().Materialize();
  }
  for (int reopen = 0; reopen < 3; ++reopen) {
    auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 5);
    ASSERT_TRUE(live.ok()) << "reopen " << reopen;
    EXPECT_EQ(live.value()->Pin().Materialize(), view) << reopen;
    EXPECT_EQ(live.value()->delta_entries(), 11u) << reopen;
  }
}

TEST(Durability, WritesAfterRecoveryChainCorrectly) {
  // The WAL continues (append mode, next seq) after a recovery; a
  // second recovery must see old and new records as one log.
  const std::string dir = FreshStoreDir("chain");
  const std::string spec = WithWal("vp-tree", dir);
  {
    auto live = LiveDatabase<Vector>::Open({{0, 0}, {1, 1}, {2, 2}}, L2(),
                                           1, spec, 3);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live.value()->Insert({3, 3}).ok());
  }
  {
    auto live = LiveDatabase<Vector>::Open({}, L2(), 1, spec, 3);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live.value()->size(), 4u);
    ASSERT_TRUE(live.value()->Insert({4, 4}).ok());
    ASSERT_TRUE(live.value()->Remove(0).ok());
  }
  auto live = LiveDatabase<Vector>::Open({}, L2(), 1, spec, 3);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value()->size(), 4u);  // 3 base + 2 inserts - 1 remove
  EXPECT_EQ(live.value()->delta_entries(), 3u);
}

TEST(Durability, CompactionRetiresOldGenerationFiles) {
  const std::string dir = FreshStoreDir("retire");
  util::Rng rng(51);
  auto data = dataset::UniformCube(30, 3, &rng);
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2,
                                         WithWal("vp-tree", dir), 9);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.5, 0.5, 0.5}).ok());
  ASSERT_TRUE(live.value()->Compact().ok());
  storage::Env* env = storage::Env::Default();
  EXPECT_TRUE(env->FileExists(dir + "/" + SnapshotFileName(2)));
  EXPECT_TRUE(env->FileExists(dir + "/" + WalFileName(2)));
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_FALSE(env->FileExists(dir + "/" + WalFileName(1)));
}

TEST(Durability, StrayFilesAreCleanedOnOpen) {
  const std::string dir = FreshStoreDir("strays");
  util::Rng rng(52);
  auto data = dataset::UniformCube(20, 3, &rng);
  const std::string spec = WithWal("vp-tree", dir);
  { ASSERT_TRUE(LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7).ok()); }
  // Plant the leftovers of a crashed rotation: a half-written tmp
  // snapshot and a next-generation WAL that never got published.
  storage::Env* env = storage::Env::Default();
  for (const std::string& name :
       {SnapshotFileName(2) + ".tmp", WalFileName(2)}) {
    auto file = env->NewWritableFile(dir + "/" + name, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(std::string("garbage")).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value()->size(), 20u);
  EXPECT_FALSE(env->FileExists(dir + "/" + SnapshotFileName(2) + ".tmp"));
  EXPECT_FALSE(env->FileExists(dir + "/" + WalFileName(2)));
}

// ----------------------------------------------------------- fault injection

TEST(Durability, TornWalTailIsTruncatedOnRecovery) {
  const std::string dir = FreshStoreDir("torn_tail");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(61);
  auto data = dataset::UniformCube(30, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  {
    LiveOptions options;
    options.env = &fault;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    // The next insert's frame (16-byte header + 29-byte payload) tears
    // after 20 bytes — mid-frame, exactly what a power cut leaves.
    fault.CrashAfterBytes(20);
    EXPECT_FALSE(live.value()->Insert({0.1, 0.2, 0.3}).ok());
    EXPECT_TRUE(fault.crashed());
    // The failed write must not be visible in memory either.
    EXPECT_EQ(live.value()->delta_entries(), 5u);
  }
  // Reboot: reopen with the real env.  The 5 acked inserts are there
  // (fsync=always), the torn frame is gone, and the store keeps
  // accepting writes whose WAL records chain onto the truncated log.
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live.value()->size(), 35u);
  EXPECT_EQ(live.value()->delta_entries(), 5u);
  ASSERT_TRUE(live.value()->Insert({0.4, 0.5, 0.6}).ok());
  auto again = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->size(), 36u);
}

TEST(Durability, FailedFsyncSurfacesAndDoesNotCommit) {
  const std::string dir = FreshStoreDir("failed_fsync");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(62);
  auto data = dataset::UniformCube(20, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  LiveOptions options;
  options.env = &fault;
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.1, 0.1, 0.1}).ok());

  fault.FailNextSync();
  auto failed = live.value()->Insert({0.2, 0.2, 0.2});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kIoError);
  // WAL-before-commit: the failed insert is not in the serving view.
  EXPECT_EQ(live.value()->delta_entries(), 1u);
  // The poisoned log rejects further appends...
  EXPECT_FALSE(live.value()->Insert({0.3, 0.3, 0.3}).ok());
  // ...until a compaction rotates to a fresh log, after which the
  // store is fully usable again.
  ASSERT_TRUE(live.value()->Compact().ok());
  ASSERT_TRUE(live.value()->Insert({0.4, 0.4, 0.4}).ok());
  EXPECT_EQ(live.value()->size(), 22u);
}

TEST(Durability, CrashDuringCompactionKeepsOldGeneration) {
  const std::string dir = FreshStoreDir("crash_compact");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(63);
  auto data = dataset::UniformCube(40, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  std::vector<Vector> view_before_crash;
  {
    LiveOptions options;
    options.env = &fault;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    view_before_crash = live.value()->Pin().Materialize();
    // The compaction's first durable step is the multi-kilobyte tmp
    // snapshot: a 200-byte budget tears it mid-write.
    fault.CrashAfterBytes(200);
    util::Status compacted = live.value()->Compact();
    ASSERT_FALSE(compacted.ok());
    // The old generation keeps serving in memory despite the crash.
    EXPECT_EQ(live.value()->generation_number(), 1u);
    EXPECT_EQ(live.value()->Pin().Materialize(), view_before_crash);
  }
  // Reboot with the real env: generation 1 + full WAL replay — the
  // torn tmp snapshot is ignored and cleaned up.
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live.value()->generation_number(), 1u);
  EXPECT_EQ(live.value()->Pin().Materialize(), view_before_crash);
  auto listing = storage::Env::Default()->ListDir(dir);
  ASSERT_TRUE(listing.ok());
  for (const std::string& name : listing.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(Durability, TransientCompactionFailureRetriesInBackground) {
  const std::string dir = FreshStoreDir("backoff");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(64);
  auto data = dataset::UniformCube(30, 3, &rng);
  storage::FaultInjectionEnv fault(storage::Env::Default());
  obs::MetricsRegistry registry("durability_test");
  LiveOptions options;
  options.env = &fault;
  options.metrics = &registry;
  auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->Insert({0.5, 0.5, 0.5}).ok());

  // First attempt hits a failed fsync; the backoff retry succeeds.
  fault.FailNextSync();
  live.value()->CompactAsync();
  live.value()->WaitForCompaction();
  EXPECT_TRUE(live.value()->last_background_compact_status().ok());
  EXPECT_EQ(live.value()->generation_number(), 2u);
  EXPECT_GE(
      registry.GetCounter("live_compaction_failures_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("live_compactions_total")->Value(), 1u);
}

// ------------------------------------------------------------------ metrics

TEST(Durability, MetricsAreExact) {
  const std::string dir = FreshStoreDir("metrics");
  const std::string spec = WithWal("vp-tree", dir, "always");
  util::Rng rng(71);
  auto data = dataset::UniformCube(25, 3, &rng);
  // Vector WAL frames are deterministic: 16-byte header + 1-byte op +
  // 4-byte shard + 4-byte dim + 3 doubles = 49 per insert;
  // 16 + 1 + 4 + 8 = 29 per remove.
  constexpr uint64_t kInsertFrame = 49, kRemoveFrame = 29;
  {
    obs::MetricsRegistry registry("durability_test");
    LiveOptions options;
    options.metrics = &registry;
    auto live = LiveDatabase<Vector>::Open(data, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          live.value()
              ->Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()})
              .ok());
    }
    ASSERT_TRUE(live.value()->Remove(2).ok());
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 5u);
    EXPECT_EQ(registry.GetCounter("wal_bytes_total")->Value(),
              4 * kInsertFrame + kRemoveFrame);
    // fsync=always: one recorded fsync per append.
    EXPECT_EQ(registry.GetHistogram("wal_fsync_seconds")->Snap().count(),
              5u);
    // The fresh open wrote exactly one snapshot; nothing was replayed.
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 1u);
    EXPECT_EQ(registry.GetCounter("recovery_replayed_entries")->Value(), 0u);
  }
  {
    obs::MetricsRegistry registry("durability_test");
    LiveOptions options;
    options.metrics = &registry;
    auto live = LiveDatabase<Vector>::Open({}, L2(), 2, spec, 7, options);
    ASSERT_TRUE(live.ok());
    // Recovery replayed the 5 logged operations and wrote no snapshot.
    EXPECT_EQ(registry.GetCounter("recovery_replayed_entries")->Value(), 5u);
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 0u);
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 0u);
    // A compaction rotates the log: the carried-over tail (5 entries)
    // is re-encoded into wal-2 and the snapshot write is timed.
    ASSERT_TRUE(live.value()->Compact().ok());
    EXPECT_EQ(registry.GetCounter("wal_appends_total")->Value(), 0u);
    EXPECT_EQ(
        registry.GetHistogram("snapshot_write_seconds")->Snap().count(), 1u);
  }
}

}  // namespace
}  // namespace engine
}  // namespace distperm
