// Flat blocked-kernel data path for vector indexes.
//
// FlatDataPath<P> is the bridge between SearchIndex implementations and
// the contiguous storage + vectorized kernels introduced for the paper's
// Section 5 hot loops.  For P = metric::Vector with a kernel-tagged
// metric (Metric<Vector>::vector_kernel() != kNone) it packs the
// database into a dataset::FlatVectorStore at build time, precomputes
// per-row norms for the angle metric, and serves distances one row or
// one block at a time through metric/kernels.h.  For every other point
// type (or an untagged metric) it is a zero-size stub whose enabled()
// is false, so index templates keep a single code path:
//
//   if (flat_.enabled()) { ... blocked kernels ... }
//   else                 { ... scalar Metric<P> evaluations ... }
//
// Equivalence contract: because the scalar Lp/angle entry points
// delegate to the very same kernels (see kernels.h), a flat-path
// distance is bit-identical to metric_(data_[i], query), and callers
// charge exactly one distance computation per row either way — the
// paper's cost model is untouched.
//
// For L2 the path hands out *scores* (squared distances) so sqrt stays
// out of the inner loop: scores are monotone in the true distance,
// ScoreToDistance finishes the survivors, and RangeScoreBound gives a
// conservative squared-radius filter that is re-checked exactly.
//
// Memory tradeoff: a flat-enabled index (linear scan, LAESA, distperm,
// and the vp-tree, whose store is packed in node order) holds the
// packed store next to the SearchIndex's own std::vector<P> copy (whose
// data() accessor and scalar fallback the base API guarantees) —
// roughly 2x the raw database bytes.  Deduplicating requires the base
// class to serve data() from the store and is deliberately out of scope
// here.

#ifndef DISTPERM_INDEX_FLAT_DATA_PATH_H_
#define DISTPERM_INDEX_FLAT_DATA_PATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dataset/flat_vector_store.h"
#include "metric/cosine.h"
#include "metric/kernels.h"
#include "metric/metric.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// Rows evaluated per blocked-kernel call: large enough to amortize the
/// loop setup, small enough that a block of scores stays in L1.
inline constexpr size_t kDistanceBlockRows = 256;

/// Generic stub: no flat path for non-vector point types.  All methods
/// exist so index templates compile unchanged; none may be called
/// (enabled() is always false).
template <typename P>
class FlatDataPath {
 public:
  static constexpr bool kSupported = false;

  struct QueryContext {};

  FlatDataPath() = default;
  FlatDataPath(const std::vector<P>&, const metric::Metric<P>&,
               const std::vector<uint32_t>& = {}) {}

  bool enabled() const { return false; }
  QueryContext MakeQuery(const P&) const { return {}; }
  QueryContext MakeRowQuery(size_t) const { return {}; }
  template <typename Fn>
  void ForEachRowDistance(size_t, size_t, size_t, uint64_t*,
                          const Fn&) const {
    DP_CHECK(false);
  }
  void BlockScores(const QueryContext&, size_t, size_t, double*) const {
    DP_CHECK(false);
  }
  double RowScore(const QueryContext&, size_t) const {
    DP_CHECK(false);
    return 0.0;
  }
  double RowDistance(const QueryContext&, size_t) const {
    DP_CHECK(false);
    return 0.0;
  }
  double ChargedRowDistance(const QueryContext&, size_t, uint64_t*) const {
    DP_CHECK(false);
    return 0.0;
  }
  double RowPairDistance(size_t, size_t) const {
    DP_CHECK(false);
    return 0.0;
  }
  double ChargedRowPairDistance(size_t, size_t, uint64_t*) const {
    DP_CHECK(false);
    return 0.0;
  }
  double ScoreToDistance(double s) const { return s; }
  double RangeScoreBound(double radius) const { return radius; }
};

/// Dense-vector specialization: flat storage + blocked kernels.
template <>
class FlatDataPath<metric::Vector> {
 public:
  static constexpr bool kSupported = true;

  /// Per-query precomputation: the raw query row and, for the angle
  /// metric, its norm (computed once instead of once per pair).
  struct QueryContext {
    const double* query = nullptr;
    size_t dim = 0;
    double query_norm = 0.0;
  };

  FlatDataPath() = default;

  /// Packs `data` if the metric is kernel-tagged and the database is a
  /// non-empty, non-ragged set of dimension >= 1; otherwise stays
  /// disabled and the caller falls back to scalar evaluation.  A
  /// non-empty `row_order` packs data[row_order[r]] as row r (see
  /// FlatVectorStore); every row-indexed method then addresses rows in
  /// that order.
  FlatDataPath(const std::vector<metric::Vector>& data,
               const metric::Metric<metric::Vector>& metric,
               const std::vector<uint32_t>& row_order = {})
      : kind_(metric.vector_kernel()) {
    if (kind_ == metric::VectorKernelKind::kNone || data.empty()) {
      kind_ = metric::VectorKernelKind::kNone;
      return;
    }
    const size_t dim = data.front().size();
    if (dim == 0) {
      kind_ = metric::VectorKernelKind::kNone;
      return;
    }
    for (const metric::Vector& p : data) {
      if (p.size() != dim) {
        kind_ = metric::VectorKernelKind::kNone;
        return;
      }
    }
    store_ = dataset::FlatVectorStore(data, row_order);
    if (kind_ == metric::VectorKernelKind::kAngle) {
      norms_.resize(store_.size());
      for (size_t i = 0; i < store_.size(); ++i) {
        norms_[i] = std::sqrt(metric::DotRaw(store_.row(i), store_.row(i),
                                             dim));
      }
    }
  }

  bool enabled() const {
    return kind_ != metric::VectorKernelKind::kNone;
  }
  const dataset::FlatVectorStore& store() const { return store_; }

  QueryContext MakeQuery(const metric::Vector& query) const {
    DP_CHECK_MSG(query.size() == store_.dim(), "dimension mismatch");
    QueryContext ctx{query.data(), query.size(), 0.0};
    if (kind_ == metric::VectorKernelKind::kAngle) {
      ctx.query_norm =
          std::sqrt(metric::DotRaw(ctx.query, ctx.query, ctx.dim));
    }
    return ctx;
  }

  /// Query context over stored row i — the build-path counterpart of
  /// MakeQuery.  Table builds (AESA's matrix, LAESA's pivot table) use
  /// it to evaluate one stored row against whole blocks of rows;
  /// ScoreToDistance(BlockScores(...)[r]) is bit-identical to
  /// RowPairDistance(i, begin + r).
  QueryContext MakeRowQuery(size_t i) const {
    QueryContext ctx{store_.row(i), store_.dim(), 0.0};
    if (kind_ == metric::VectorKernelKind::kAngle) {
      ctx.query_norm = norms_[i];
    }
    return ctx;
  }

  /// Evaluates stored row i against every row in [begin, end), one
  /// kDistanceBlockRows block at a time: charges one distance
  /// computation per row to `counter` and calls fn(row, distance) with
  /// the true distance.  The blocked build loop shared by AESA's matrix
  /// and LAESA's pivot table; each distance is bit-identical to
  /// RowPairDistance(i, row).
  template <typename Fn>
  void ForEachRowDistance(size_t i, size_t begin, size_t end,
                          uint64_t* counter, const Fn& fn) const {
    const QueryContext ctx = MakeRowQuery(i);
    double block[kDistanceBlockRows];
    for (size_t b = begin; b < end; b += kDistanceBlockRows) {
      const size_t count = std::min(kDistanceBlockRows, end - b);
      BlockScores(ctx, b, count, block);
      *counter += count;
      for (size_t r = 0; r < count; ++r) {
        fn(b + r, ScoreToDistance(block[r]));
      }
    }
  }

  /// Scores for rows [begin, begin + count): the distance itself for
  /// L1/LInf/angle, the squared distance for L2.  Monotone in the true
  /// distance in every case.
  void BlockScores(const QueryContext& ctx, size_t begin, size_t count,
                   double* out) const {
    const double* rows = store_.row(begin);
    const size_t stride = store_.stride();
    switch (kind_) {
      case metric::VectorKernelKind::kL1:
        metric::L1Block(ctx.query, rows, count, stride, ctx.dim, out);
        break;
      case metric::VectorKernelKind::kL2:
        metric::L2sqBlock(ctx.query, rows, count, stride, ctx.dim, out);
        break;
      case metric::VectorKernelKind::kLInf:
        metric::LInfBlock(ctx.query, rows, count, stride, ctx.dim, out);
        break;
      case metric::VectorKernelKind::kAngle:
        metric::DotBlock(ctx.query, rows, count, stride, ctx.dim, out);
        for (size_t r = 0; r < count; ++r) {
          out[r] = metric::AngleFromParts(out[r], ctx.query_norm,
                                          norms_[begin + r]);
        }
        break;
      default:
        DP_CHECK(false);
    }
  }

  /// Score of a single row (same convention as BlockScores).
  double RowScore(const QueryContext& ctx, size_t i) const {
    const double* row = store_.row(i);
    switch (kind_) {
      case metric::VectorKernelKind::kL1:
        return metric::L1Raw(ctx.query, row, ctx.dim);
      case metric::VectorKernelKind::kL2:
        return metric::L2sqRaw(ctx.query, row, ctx.dim);
      case metric::VectorKernelKind::kLInf:
        return metric::LInfRaw(ctx.query, row, ctx.dim);
      case metric::VectorKernelKind::kAngle:
        return metric::AngleFromParts(
            metric::DotRaw(ctx.query, row, ctx.dim), ctx.query_norm,
            norms_[i]);
      default:
        DP_CHECK(false);
        return 0.0;
    }
  }

  /// True distance of row i to the query — bit-identical to evaluating
  /// the wrapped metric on (data[i], query).
  double RowDistance(const QueryContext& ctx, size_t i) const {
    return ScoreToDistance(RowScore(ctx, i));
  }

  /// RowDistance plus the cost-model charge: exactly one distance
  /// computation, credited to `counter` (a QueryStats field or the
  /// build counter) so call sites cannot forget the accounting.
  double ChargedRowDistance(const QueryContext& ctx, size_t i,
                            uint64_t* counter) const {
    ++*counter;
    return RowDistance(ctx, i);
  }

  /// True distance between two stored rows (build-path helper).
  double RowPairDistance(size_t i, size_t j) const {
    const double* a = store_.row(i);
    const double* b = store_.row(j);
    const size_t dim = store_.dim();
    switch (kind_) {
      case metric::VectorKernelKind::kL1:
        return metric::L1Raw(a, b, dim);
      case metric::VectorKernelKind::kL2:
        return std::sqrt(metric::L2sqRaw(a, b, dim));
      case metric::VectorKernelKind::kLInf:
        return metric::LInfRaw(a, b, dim);
      case metric::VectorKernelKind::kAngle:
        return metric::AngleFromParts(metric::DotRaw(a, b, dim), norms_[i],
                                      norms_[j]);
      default:
        DP_CHECK(false);
        return 0.0;
    }
  }

  /// RowPairDistance plus the cost-model charge (see
  /// ChargedRowDistance).
  double ChargedRowPairDistance(size_t i, size_t j,
                                uint64_t* counter) const {
    ++*counter;
    return RowPairDistance(i, j);
  }

  /// Maps a score back to the true distance (sqrt for L2).
  double ScoreToDistance(double score) const {
    return kind_ == metric::VectorKernelKind::kL2 ? std::sqrt(score)
                                                  : score;
  }

  /// Conservative score-space filter for a range query of `radius`:
  /// every row with true distance <= radius scores <= the bound, so the
  /// cheap block filter never drops a result; survivors are re-checked
  /// with the exact `ScoreToDistance(score) <= radius` predicate.  For
  /// L2 the slack covers the rounding of radius^2 and of the correctly
  /// rounded sqrt (a few ULP).
  double RangeScoreBound(double radius) const {
    if (kind_ != metric::VectorKernelKind::kL2) return radius;
    const double rr = radius * radius;
    return rr + 8.0 * (std::numeric_limits<double>::epsilon() * rr +
                       std::numeric_limits<double>::denorm_min());
  }

 private:
  metric::VectorKernelKind kind_ = metric::VectorKernelKind::kNone;
  dataset::FlatVectorStore store_;
  std::vector<double> norms_;  // per-row L2 norms; angle metric only
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_FLAT_DATA_PATH_H_
