// In-memory span log of the traced run.  Spans are recorded by the
// benchmark around the public calls it makes into each layer (and the
// shard spans QueryEngine::RunBatch reports for a traced query), kept
// in memory while the run measures, and written out as JSON lines when
// it ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds, steady clock
  double end = 0.0;
  int64_t parent = -1;  ///< index into the log; -1 for a root span
  uint64_t query = 0;
};

class SpanLog {
 public:
  /// Appends a span and returns its index (the parent handle for its
  /// children).
  int64_t Add(std::string name, double start, double end, int64_t parent,
              uint64_t query) {
    spans_.push_back({std::move(name), start, end, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: id, name, start/end (seconds), parent,
  /// query.  False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %lld, \"query\": %llu}\n",
                   i, s.name.c_str(), s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.query));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
