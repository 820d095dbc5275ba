// The permutation index of Chavez, Figueroa & Navarro (2005) — the
// "distperm" index the paper instruments for its Section 5 experiments.
//
// Per database point the index stores only the point's distance
// permutation with respect to k sites (bit-packed: ceil(lg k!) bits), or
// optionally just the prefix naming its `prefix_length` closest sites —
// the truncated variant used in practice when k is large.  At query time
// the query's own permutation is computed (k metric evaluations) and
// candidates are verified in increasing Spearman-footrule order;
// reviewing only a fraction f of the database gives the probabilistic
// search of the original paper.  The index also reports the number of
// distinct permutations it stores — the quantity this paper counts — and
// its exact packed storage size.
//
// Query-time ranking follows the paper's Section 4 storage argument: a
// database holds far fewer distinct permutations N than points n, so
// the index keeps a side table of the distinct ones (as inverted rank
// rows) with the ids of the points sharing each.  A query scores each
// distinct row once, O(N k), and touches point ids only for the rows
// that can fall inside its verification budget.

#ifndef DISTPERM_INDEX_DISTPERM_INDEX_H_
#define DISTPERM_INDEX_DISTPERM_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/distance_permutation.h"
#include "core/perm_codec.h"
#include "core/perm_metrics.h"
#include "index/flat_data_path.h"
#include "index/index.h"
#include "index/pivot_select.h"
#include "index/query_scratch.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace distperm {
namespace index {

/// Permutation (distperm) index.  Range and kNN queries are approximate:
/// they verify the `fraction` of the database whose stored permutations
/// are footrule-closest to the query's permutation.  fraction = 1.0
/// degenerates to an ordered linear scan (exact).
template <typename P>
class DistPermIndex : public SearchIndex<P> {
 public:
  using SearchIndex<P>::data_;

  /// Builds with `site_count` random sites (the paper's protocol) and
  /// the given default verification fraction.  `prefix_length` = 0 (the
  /// default) stores full permutations; a value m in [1, site_count)
  /// stores only each point's m closest sites.
  DistPermIndex(std::vector<P> data, metric::Metric<P> metric,
                size_t site_count, util::Rng* rng, double fraction = 0.1,
                size_t prefix_length = 0)
      : SearchIndex<P>(std::move(data), std::move(metric)),
        flat_(data_, this->metric_),
        fraction_(fraction) {
    DP_CHECK(site_count >= 1 && site_count <= core::kMaxRank64Sites);
    DP_CHECK(fraction > 0.0 && fraction <= 1.0);
    prefix_ = prefix_length == 0 ? site_count
                                 : std::min(prefix_length, site_count);
    std::vector<size_t> site_ids = RandomPivots(data_, site_count, rng);
    sites_.reserve(site_count);
    for (size_t id : site_ids) sites_.push_back(data_[id]);

    // Per-site query contexts for the flat build path (sites_ is fully
    // built above and never reallocates, so the row pointers are
    // stable).
    std::vector<typename FlatDataPath<P>::QueryContext> site_ctx;
    if (flat_.enabled()) {
      site_ctx.reserve(site_count);
      for (const P& site : sites_) site_ctx.push_back(flat_.MakeQuery(site));
    }

    field_bits_ = FieldBits(site_count, prefix_);
    std::vector<double> distances(site_count);
    util::BitWriter writer;
    std::vector<uint8_t> point_rows(data_.size() * site_count,
                                    static_cast<uint8_t>(prefix_));
    for (size_t i = 0; i < data_.size(); ++i) {
      for (size_t j = 0; j < site_count; ++j) {
        distances[j] =
            flat_.enabled()
                ? flat_.ChargedRowDistance(site_ctx[j], i,
                                           &this->build_count_)
                : this->BuildDist(sites_[j], data_[i]);
      }
      core::Permutation perm =
          prefix_ == site_count
              ? core::PermutationFromDistances(distances)
              : core::PermutationPrefixFromDistances(distances, prefix_);
      PackPermutation(perm, &writer);
      uint8_t* row = &point_rows[i * site_count];
      for (size_t r = 0; r < perm.size(); ++r) {
        row[perm[r]] = static_cast<uint8_t>(r);
      }
    }
    packed_bits_ = writer.bit_count();
    packed_ = writer.Finish();
    BuildRowTable(point_rows);
  }

  /// Everything the index keeps besides the data itself — the exact
  /// members search reads.  Exported for snapshot persistence and fed
  /// back through the restore constructor: a restored index answers
  /// bit-identically to the one that exported, because SearchImpl
  /// depends on nothing outside this state.
  struct PackedState {
    std::vector<P> sites;
    size_t prefix = 0;
    double fraction = 0.1;
    std::vector<uint8_t> packed;
    uint64_t packed_bits = 0;
    /// The distinct-row table (see the members of the same names).
    /// Carried so a restore copies it instead of decoding every record.
    std::vector<uint8_t> rows;
    std::vector<uint32_t> row_offsets;
    std::vector<uint32_t> row_ids;
  };

  PackedState ExportPackedState() const {
    PackedState state;
    state.sites = sites_;
    state.prefix = prefix_;
    state.fraction = fraction();
    state.packed = packed_;
    state.packed_bits = packed_bits_;
    state.rows = rows_;
    state.row_offsets = row_offsets_;
    state.row_ids = row_ids_;
    return state;
  }

  /// Restores an index from previously exported state without paying
  /// the n x k build-time distance evaluations.  The state's scalar
  /// fields and array sizes must match `data`; this is checked.  Its
  /// contents are trusted: state from outside the program must pass
  /// StateFits first.  build_distance_computations() reports 0 for a
  /// restored index — restoration computes no distances.
  DistPermIndex(std::vector<P> data, metric::Metric<P> metric,
                PackedState state)
      : SearchIndex<P>(std::move(data), std::move(metric)),
        flat_(data_, this->metric_),
        fraction_(state.fraction) {
    DP_CHECK_MSG(ShapeFits(state, data_.size()),
                 "restored distperm state does not match the data: "
                     << state.packed_bits << " packed bits for "
                     << data_.size() << " points x " << state.sites.size()
                     << " sites");
    sites_ = std::move(state.sites);
    prefix_ = state.prefix;
    packed_ = std::move(state.packed);
    packed_bits_ = state.packed_bits;
    field_bits_ = FieldBits(sites_.size(), prefix_);
    rows_ = std::move(state.rows);
    row_offsets_ = std::move(state.row_offsets);
    row_ids_ = std::move(state.row_ids);
  }

  /// Whether `state` can back an index over `data`, checked without
  /// aborting so a snapshot loader can refuse hostile bytes.  Beyond the
  /// restore constructor's size checks: vector sites have the data's
  /// dimension, and the table is well formed — non-empty rows whose
  /// offsets end at the point count, rank bytes in [0, prefix], and
  /// in-range ids ascending within each row.  (Search reads only the
  /// table; the packed records are decoded only on request.)
  static bool StateFits(const PackedState& state,
                        const std::vector<P>& data) {
    const size_t n = data.size();
    if (!ShapeFits(state, n)) return false;
    if constexpr (std::is_same_v<P, metric::Vector>) {
      for (const P& site : state.sites) {
        if (n > 0 && site.size() != data[0].size()) return false;
      }
    }
    // Branch-free maxima (they vectorize); restore time is gated.
    uint8_t top_rank = 0;
    for (uint8_t rank : state.rows) top_rank = std::max(top_rank, rank);
    uint32_t top_id = 0;
    for (uint32_t id : state.row_ids) top_id = std::max(top_id, id);
    if (top_rank > state.prefix || (n > 0 && top_id >= n)) return false;
    const std::vector<uint32_t>& offsets = state.row_offsets;
    for (size_t r = 0; r + 1 < offsets.size(); ++r) {
      const uint32_t begin = offsets[r], end = offsets[r + 1];
      if (begin >= end || end > n) return false;
      for (uint32_t v = begin + 1; v < end; ++v) {
        if (state.row_ids[v] <= state.row_ids[v - 1]) return false;
      }
    }
    return true;
  }

  std::string name() const override {
    return prefix_ == sites_.size() ? "distperm" : "distperm-prefix";
  }

  /// Exact packed size of the stored permutations in bits.
  uint64_t IndexBits() const override { return packed_bits_; }

  /// Number of distinct (possibly truncated) permutations stored — the
  /// paper's counted quantity N: the row count of the distinct-row
  /// table.
  size_t DistinctPermutationCount() const {
    return row_offsets_.size() - 1;
  }

  /// The stored permutation (or prefix) of database point i.
  core::Permutation StoredPermutation(size_t i) const {
    return DecodePackedPermutation(i);
  }

  /// Decodes point i's permutation from the bit-packed buffer.  Records
  /// are fixed-width, so the reader seeks straight to record i in O(1).
  core::Permutation DecodePackedPermutation(size_t i) const {
    util::BitReader reader(packed_);
    reader.Seek(i * RecordBits(sites_.size(), prefix_, field_bits_));
    if (prefix_ == sites_.size()) {
      return core::UnrankPermutation(reader.Read(field_bits_),
                                     sites_.size());
    }
    core::Permutation perm(prefix_);
    for (uint8_t& site : perm) {
      site = static_cast<uint8_t>(reader.Read(field_bits_));
    }
    return perm;
  }

  /// The sites used by the index.
  const std::vector<P>& sites() const { return sites_; }

  /// Stored prefix length (equals sites().size() for full permutations).
  size_t prefix_length() const { return prefix_; }

  /// Default fraction of the database verified per query.  Stored in an
  /// atomic so the engine can retune it while queries are in flight.
  double fraction() const {
    return fraction_.load(std::memory_order_relaxed);
  }
  void set_fraction(double fraction) {
    DP_CHECK(fraction > 0.0 && fraction <= 1.0);
    fraction_.store(fraction, std::memory_order_relaxed);
  }

 protected:
  void SearchImpl(const SearchRequest<P>& request,
                  SearchContext* context) const override {
    ScanByFootrule(request.point,
                   VerifyBudget(request.approx_candidate_fraction),
                   context);
  }

 private:
  /// Bits of one packed field.  A full permutation is one field, its
  /// Lehmer rank: the densest fixed-width code, ceil(lg k!) bits.  A
  /// prefix is `prefix` fields of ceil(lg k) bits, one site id each.
  static int FieldBits(size_t k, size_t prefix) {
    return prefix == k ? util::BitsForFactorial(static_cast<int>(k))
                       : util::BitsFor(k);
  }

  /// Bits of one point's record.
  static size_t RecordBits(size_t k, size_t prefix, int field_bits) {
    return (prefix == k ? 1 : prefix) * static_cast<size_t>(field_bits);
  }

  /// The restore constructor's O(1) check on `state` for `n` points:
  /// scalar fields in range and every array sized to match.
  static bool ShapeFits(const PackedState& state, size_t n) {
    const size_t k = state.sites.size();
    const size_t prefix = state.prefix;
    if (k == 0 || k > core::kMaxRank64Sites) return false;
    if (prefix < 1 || prefix > k) return false;
    if (!(state.fraction > 0.0 && state.fraction <= 1.0)) return false;
    if (n > std::numeric_limits<uint32_t>::max()) return false;
    const size_t record_bits = RecordBits(k, prefix, FieldBits(k, prefix));
    const std::vector<uint32_t>& offsets = state.row_offsets;
    return state.packed_bits == n * record_bits &&
           state.packed.size() == (state.packed_bits + 7) / 8 &&
           !offsets.empty() && offsets.front() == 0 &&
           offsets.back() == n &&
           state.rows.size() == (offsets.size() - 1) * k &&
           state.row_ids.size() == n;
  }

  void PackPermutation(const core::Permutation& perm,
                       util::BitWriter* writer) const {
    if (prefix_ == sites_.size()) {
      writer->Write(core::RankPermutation(perm), field_bits_);
      return;
    }
    for (uint8_t site : perm) writer->Write(site, field_bits_);
  }

  /// Builds the distinct-row table from every point's rank row
  /// (`point_rows`, n x k).  The point ids are LSD radix-sorted on their
  /// row bytes, which are ranks in [0, prefix_]; every pass is stable,
  /// so each row's ids come out ascending, and equal rows end up
  /// adjacent for the final dedup.
  void BuildRowTable(const std::vector<uint8_t>& point_rows) {
    const size_t n = data_.size();
    const size_t k = sites_.size();
    DP_CHECK(n <= std::numeric_limits<uint32_t>::max());

    std::vector<uint32_t> order(n), next(n);
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::vector<uint32_t> starts(prefix_ + 2);
    for (size_t site = k; site-- > 0;) {
      std::fill(starts.begin(), starts.end(), 0);
      for (uint32_t id : order) ++starts[point_rows[id * k + site] + 1];
      std::partial_sum(starts.begin(), starts.end(), starts.begin());
      for (uint32_t id : order) {
        next[starts[point_rows[id * k + site]]++] = id;
      }
      order.swap(next);
    }

    const uint8_t* last = nullptr;
    for (size_t v = 0; v < n; ++v) {
      const uint8_t* row = &point_rows[order[v] * k];
      if (last == nullptr || std::memcmp(row, last, k) != 0) {
        row_offsets_.push_back(static_cast<uint32_t>(v));
        rows_.insert(rows_.end(), row, row + k);
        last = row;
      }
    }
    row_offsets_.push_back(static_cast<uint32_t>(n));
    rows_.shrink_to_fit();
    row_offsets_.shrink_to_fit();
    row_ids_ = std::move(order);
  }

  /// Points to verify on this call: `override_fraction` (a per-request
  /// SearchRequest::approx_candidate_fraction, validated to [0, 1])
  /// when non-zero, the index's configured default otherwise.
  size_t VerifyBudget(double override_fraction) const {
    const double f =
        override_fraction > 0.0 ? override_fraction : fraction();
    size_t budget =
        static_cast<size_t>(f * static_cast<double>(data_.size()));
    return std::max<size_t>(1, std::min(budget, data_.size()));
  }

  /// Computes the query permutation and selects the `budget`
  /// footrule-closest points through the distinct-row table:
  ///   1. score each distinct row once with the O(k) rank-array
  ///      footrule;
  ///   2. histogram the points per footrule value (at most k * prefix
  ///      + 1 buckets);
  ///   3. find the cutoff T, the smallest footrule whose cumulative
  ///      count reaches the budget;
  ///   4. gather the (footrule, id) pairs of the rows scoring <= T,
  ///      partially select the budget with std::nth_element, sort only
  ///      that slice, and verify it.
  /// The candidate sequence is identical to fully ordering the database
  /// by (footrule, id) and taking the first `budget`, i.e. to the
  /// original full-sort formulation.
  void ScanByFootrule(const P& query, size_t budget,
                      SearchContext* context) const {
    QueryStats* stats = context->stats();
    const size_t k = sites_.size();
    std::vector<double> distances(k);
    for (size_t j = 0; j < k; ++j) {
      if (context->StopAfterBudget()) return;
      distances[j] = this->QueryDist(sites_[j], query, stats);
    }
    core::Permutation query_perm =
        prefix_ == k ? core::PermutationFromDistances(distances)
                     : core::PermutationPrefixFromDistances(distances,
                                                            prefix_);
    uint8_t query_ranks[core::kMaxSites];
    std::fill(query_ranks, query_ranks + k, static_cast<uint8_t>(prefix_));
    for (size_t r = 0; r < query_perm.size(); ++r) {
      query_ranks[query_perm[r]] = static_cast<uint8_t>(r);
    }

    QueryScratch& scratch = QueryScratch::ForThread();
    std::vector<uint32_t>& row_scores = scratch.row_scores;
    std::vector<uint32_t>& counts = scratch.footrule_counts;
    const size_t rows = DistinctPermutationCount();
    row_scores.resize(rows);
    counts.assign(k * prefix_ + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
      const int f = core::FootruleFromRanks(query_ranks, &rows_[r * k], k);
      row_scores[r] = static_cast<uint32_t>(f);
      counts[f] += row_offsets_[r + 1] - row_offsets_[r];
    }
    budget = std::min(budget, data_.size());  // VerifyBudget is >= 1
    uint32_t cutoff = 0;
    for (size_t covered = counts[0]; covered < budget;) {
      covered += counts[++cutoff];
    }

    std::vector<std::pair<uint32_t, uint32_t>>& scored = scratch.scored;
    scored.clear();
    for (size_t r = 0; r < rows; ++r) {
      if (row_scores[r] > cutoff) continue;
      for (uint32_t v = row_offsets_[r]; v < row_offsets_[r + 1]; ++v) {
        scored.emplace_back(row_scores[r], row_ids_[v]);
      }
    }
    if (budget < scored.size()) {
      std::nth_element(scored.begin(), scored.begin() + budget,
                       scored.end());
    }
    std::sort(scored.begin(), scored.begin() + budget);

    // Candidates past the verification budget are dropped on their
    // footrule score alone; everything inside it pays a true distance.
    stats->pruning_eliminated += data_.size() - budget;

    const bool flat = flat_.enabled();
    const auto ctx = flat ? flat_.MakeQuery(query)
                          : typename FlatDataPath<P>::QueryContext{};
    for (size_t v = 0; v < budget; ++v) {
      if (context->StopAfterBudget()) return;
      const size_t id = scored[v].second;
      context->Emit(
          id, flat ? flat_.ChargedRowDistance(ctx, id,
                                              &stats->distance_computations)
                   : this->QueryDist(data_[id], query, stats));
      ++stats->candidates_verified;
    }
  }

  FlatDataPath<P> flat_;
  std::vector<P> sites_;
  size_t prefix_ = 0;
  /// One bit-packed record per point (see FieldBits), behind
  /// IndexBits and DecodePackedPermutation.
  std::vector<uint8_t> packed_;
  size_t packed_bits_ = 0;
  int field_bits_ = 0;
  /// The distinct-row table, in CSR form.  Row r (k bytes at
  /// rows_[r * k]) is a distinct inverted permutation: entry `site` is
  /// the site's rank, or prefix_length() for sites outside a stored
  /// prefix.  The points holding it are row_ids_[row_offsets_[r] ..
  /// row_offsets_[r + 1]), ascending.
  std::vector<uint8_t> rows_;
  std::vector<uint32_t> row_offsets_;
  std::vector<uint32_t> row_ids_;
  std::atomic<double> fraction_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_DISTPERM_INDEX_H_
