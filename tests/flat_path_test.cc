// Equivalence tests for the flat blocked data path: every index that
// adopts it (linear scan, LAESA, distperm, vp-tree) must return
// bit-identical results AND bit-identical distance-computation counts
// to the scalar Metric<P> path.  The scalar path is forced by wrapping
// the same kernel-tagged metric in an untagged lambda Metric — the
// distance function is the very same code, only the index's data path
// changes.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_permutation.h"
#include "core/perm_metrics.h"
#include "dataset/string_gen.h"
#include "dataset/vector_gen.h"
#include "gtest/gtest.h"
#include "index/distperm_index.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/cosine.h"
#include "metric/lp.h"
#include "metric/string_metrics.h"
#include "util/rng.h"

namespace distperm {
namespace {

using index::DistPermIndex;
using index::LaesaIndex;
using index::LinearScanIndex;
using index::QueryStats;
using index::SearchRequest;
using index::SearchResponse;
using index::SearchResult;
using index::VpTreeIndex;
using metric::Metric;
using metric::Vector;

// The same distance function with the kernel tag stripped: forces the
// index onto the scalar point-at-a-time path.
Metric<Vector> Untagged(const Metric<Vector>& tagged) {
  return Metric<Vector>(tagged.name(),
                        [tagged](const Vector& a, const Vector& b) {
                          return tagged(a, b);
                        });
}

std::vector<Metric<Vector>> TaggedMetrics() {
  return {Metric<Vector>(metric::LpMetric::L1()),
          Metric<Vector>(metric::LpMetric::L2()),
          Metric<Vector>(metric::LpMetric::LInf()),
          Metric<Vector>(metric::DenseAngleMetric())};
}

std::vector<Vector> QueryPoints(size_t count, size_t dim, util::Rng* rng) {
  std::vector<Vector> queries;
  for (size_t q = 0; q < count; ++q) {
    Vector p(dim);
    for (double& c : p) c = rng->NextDouble();
    queries.push_back(std::move(p));
  }
  return queries;
}

TEST(FlatPath, LinearScanMatchesScalarPathBitExactly) {
  for (size_t dim : {3u, 8u, 32u}) {
    util::Rng rng(100 + dim);
    auto data = dataset::UniformCube(400, dim, &rng);
    auto queries = QueryPoints(12, dim, &rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      LinearScanIndex<Vector> flat(data, tagged);
      LinearScanIndex<Vector> scalar(data, Untagged(tagged));
      for (const Vector& q : queries) {
        QueryStats flat_stats, scalar_stats;
        EXPECT_EQ(flat.KnnQuery(q, 7, &flat_stats),
                  scalar.KnnQuery(q, 7, &scalar_stats))
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(flat_stats.distance_computations,
                  scalar_stats.distance_computations);
        const double radius = tagged.name() == "angle" ? 0.4 : 0.8;
        flat_stats = scalar_stats = QueryStats();
        EXPECT_EQ(flat.RangeQuery(q, radius, &flat_stats),
                  scalar.RangeQuery(q, radius, &scalar_stats))
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(flat_stats.distance_computations,
                  scalar_stats.distance_computations);
      }
    }
  }
}

TEST(FlatPath, LaesaMatchesScalarPathBitExactly) {
  for (size_t dim : {3u, 8u}) {
    util::Rng data_rng(200 + dim);
    auto data = dataset::UniformCube(300, dim, &data_rng);
    auto queries = QueryPoints(10, dim, &data_rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      util::Rng flat_rng(7), scalar_rng(7);
      LaesaIndex<Vector> flat(data, tagged, 6, &flat_rng);
      LaesaIndex<Vector> scalar(data, Untagged(tagged), 6, &scalar_rng);
      ASSERT_EQ(flat.pivot_ids(), scalar.pivot_ids());
      EXPECT_EQ(flat.build_distance_computations(),
                scalar.build_distance_computations())
          << tagged.name();
      for (size_t i = 0; i < data.size(); ++i) {
        for (size_t j = 0; j < flat.pivot_ids().size(); ++j) {
          EXPECT_EQ(flat.StoredDistance(i, j), scalar.StoredDistance(i, j));
        }
      }
      for (const Vector& q : queries) {
        QueryStats flat_stats, scalar_stats;
        EXPECT_EQ(flat.KnnQuery(q, 5, &flat_stats),
                  scalar.KnnQuery(q, 5, &scalar_stats))
            << tagged.name() << " dim " << dim;
        EXPECT_EQ(flat_stats.distance_computations,
                  scalar_stats.distance_computations)
            << tagged.name() << " dim " << dim;
        const double radius = tagged.name() == "angle" ? 0.3 : 0.6;
        flat_stats = scalar_stats = QueryStats();
        EXPECT_EQ(flat.RangeQuery(q, radius, &flat_stats),
                  scalar.RangeQuery(q, radius, &scalar_stats));
        EXPECT_EQ(flat_stats.distance_computations,
                  scalar_stats.distance_computations);
      }
    }
  }
}

TEST(FlatPath, DistPermMatchesScalarPathBitExactly) {
  for (size_t prefix : {0u, 3u}) {
    util::Rng data_rng(300 + prefix);
    auto data = dataset::UniformCube(350, 6, &data_rng);
    auto queries = QueryPoints(10, 6, &data_rng);
    for (const Metric<Vector>& tagged : TaggedMetrics()) {
      util::Rng flat_rng(9), scalar_rng(9);
      DistPermIndex<Vector> flat(data, tagged, 8, &flat_rng,
                                 /*fraction=*/0.25, prefix);
      DistPermIndex<Vector> scalar(data, Untagged(tagged), 8, &scalar_rng,
                                   /*fraction=*/0.25, prefix);
      EXPECT_EQ(flat.build_distance_computations(),
                scalar.build_distance_computations());
      for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(flat.StoredPermutation(i), scalar.StoredPermutation(i));
      }
      for (const Vector& q : queries) {
        QueryStats flat_stats, scalar_stats;
        EXPECT_EQ(flat.KnnQuery(q, 5, &flat_stats),
                  scalar.KnnQuery(q, 5, &scalar_stats))
            << tagged.name() << " prefix " << prefix;
        EXPECT_EQ(flat_stats.distance_computations,
                  scalar_stats.distance_computations);
      }
    }
  }
}

// Reimplementation of the seed's candidate ranking — per-pair footrule
// over the stored permutations, counting-sorted over the full footrule
// range — to pin that the table-backed selection visits the exact same
// candidates in the exact same order.  `footrules`, when non-null,
// receives the footrule of each returned id.
std::vector<uint32_t> SeedCandidateOrder(const DistPermIndex<Vector>& index,
                                         const Vector& query, size_t budget,
                                         std::vector<int>* footrules =
                                             nullptr) {
  const auto& metric = index.metric();
  const size_t k = index.sites().size();
  std::vector<double> distances(k);
  for (size_t j = 0; j < k; ++j) {
    distances[j] = metric(index.sites()[j], query);
  }
  const bool full = index.prefix_length() == k;
  core::Permutation query_perm =
      full ? core::PermutationFromDistances(distances)
           : core::PermutationPrefixFromDistances(distances,
                                                  index.prefix_length());
  const size_t max_footrule =
      full ? static_cast<size_t>(core::MaxFootrule(k))
           : k * index.prefix_length();
  std::vector<std::vector<uint32_t>> buckets(max_footrule + 1);
  for (size_t i = 0; i < index.size(); ++i) {
    core::Permutation stored = index.StoredPermutation(i);
    const int f = full ? core::SpearmanFootrule(query_perm, stored)
                       : core::PrefixFootrule(query_perm, stored, k);
    buckets[static_cast<size_t>(f)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> order;
  for (size_t f = 0; f < buckets.size(); ++f) {
    for (uint32_t id : buckets[f]) {
      if (order.size() >= budget) return order;
      order.push_back(id);
      if (footrules != nullptr) footrules->push_back(static_cast<int>(f));
    }
  }
  return order;
}

// Ids of a range query with infinite radius — exactly the verified
// candidates — sorted.
std::vector<uint32_t> VerifiedIds(const DistPermIndex<Vector>& index,
                                  const SearchRequest<Vector>& request) {
  SearchResponse response = index.Search(request);
  EXPECT_TRUE(response.status.ok());
  std::vector<uint32_t> ids;
  for (const SearchResult& r : response.results) {
    ids.push_back(static_cast<uint32_t>(r.id));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FlatPath, DistPermPartialSelectionMatchesSeedOrdering) {
  for (size_t prefix : {0u, 4u}) {
    util::Rng data_rng(400 + prefix);
    auto data = dataset::UniformCube(300, 5, &data_rng);
    auto queries = QueryPoints(8, 5, &data_rng);
    util::Rng site_rng(21);
    const double fraction = 0.15;
    DistPermIndex<Vector> index(data, metric::LpMetric::L2(), 10,
                                &site_rng, fraction, prefix);
    const size_t budget = static_cast<size_t>(
        fraction * static_cast<double>(data.size()));
    for (const Vector& q : queries) {
      // The verified candidate set and order are observable through a
      // range query with infinite radius: it returns exactly the
      // verified ids with their true distances.
      auto results = index.RangeQuery(
          q, std::numeric_limits<double>::infinity());
      std::vector<uint32_t> expect = SeedCandidateOrder(index, q, budget);
      ASSERT_EQ(results.size(), expect.size());
      std::vector<uint32_t> got;
      for (const SearchResult& r : results) {
        got.push_back(static_cast<uint32_t>(r.id));
      }
      std::sort(expect.begin(), expect.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expect);
    }
  }

  // Tie-heavy inputs: on 1-d and 2-d data six sites induce few distinct
  // permutations, so most points share a footrule with many others and
  // the budget's cutoff usually splits a footrule bucket.  The order is
  // pinned, not just the set: a distance budget of k + m stops the
  // search after m verifications, which must be the first m candidates
  // of the seed order.
  constexpr size_t kSites = 6;
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t dim : {1u, 2u}) {
    for (size_t prefix : {0u, 3u}) {
      util::Rng data_rng(500 + 10 * dim + prefix);
      auto data = dataset::UniformCube(240, dim, &data_rng);
      auto queries = QueryPoints(5, dim, &data_rng);
      util::Rng site_rng(23);
      DistPermIndex<Vector> index(data, metric::LpMetric::L2(), kSites,
                                  &site_rng, 1.0, prefix);
      const double n = static_cast<double>(data.size());
      for (const Vector& q : queries) {
        std::vector<int> footrules;
        const std::vector<uint32_t> full =
            SeedCandidateOrder(index, q, data.size(), &footrules);
        // A budget strictly inside the footrule bucket that holds the
        // candidate at position n / 3.
        size_t lo = data.size() / 3, hi = lo + 1;
        while (lo > 0 && footrules[lo - 1] == footrules[lo]) --lo;
        while (hi < full.size() && footrules[hi] == footrules[lo]) ++hi;
        ASSERT_GE(hi - lo, 2u) << "dim " << dim << " prefix " << prefix;
        const size_t inside = lo + (hi - lo) / 2;
        ASSERT_EQ(footrules[inside - 1], footrules[inside]);
        for (size_t budget : {size_t{1}, inside, data.size()}) {
          // Truncates to exactly `budget` in VerifyBudget.
          const double fraction =
              std::min(1.0, (static_cast<double>(budget) + 0.5) / n);
          auto request =
              SearchRequest<Vector>::Range(q, inf)
                  .WithCandidateFraction(fraction);
          std::vector<uint32_t> expect(full.begin(), full.begin() + budget);
          std::sort(expect.begin(), expect.end());
          EXPECT_EQ(VerifiedIds(index, request), expect)
              << "dim " << dim << " prefix " << prefix << " budget "
              << budget;
          for (size_t m = 1; m <= budget; ++m) {
            std::vector<uint32_t> first(full.begin(), full.begin() + m);
            std::sort(first.begin(), first.end());
            ASSERT_EQ(VerifiedIds(index, request.WithDistanceBudget(
                                             kSites + m)),
                      first)
                << "dim " << dim << " prefix " << prefix << " budget "
                << budget << " m " << m;
          }
        }
      }
    }
  }
}

// Reference copy of the pointer-based vp-tree the node array replaced:
// heap nodes linked by unique_ptr, built recursively from the same rng
// draws, searched with scalar metric evaluations.  Pins that the
// pre-order node array visits the same nodes in the same order with
// the same pruning.
template <typename P>
class SeedVpTreeIndex : public index::SearchIndex<P> {
 public:
  using index::SearchIndex<P>::data_;

  SeedVpTreeIndex(std::vector<P> data, Metric<P> metric, util::Rng* rng)
      : index::SearchIndex<P>(std::move(data), std::move(metric)) {
    std::vector<size_t> ids(data_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    root_ = Build(ids, rng);
  }
  std::string name() const override { return "seed-vp-tree"; }
  uint64_t IndexBits() const override { return 0; }

 protected:
  void SearchImpl(const SearchRequest<P>& request,
                  index::SearchContext* context) const override {
    SearchNode(root_.get(), request.point, context);
  }

 private:
  struct Node {
    size_t vantage;
    double median = 0.0;
    std::unique_ptr<Node> inside;
    std::unique_ptr<Node> outside;
  };

  std::unique_ptr<Node> Build(std::vector<size_t>& ids, util::Rng* rng) {
    if (ids.empty()) return nullptr;
    auto node = std::make_unique<Node>();
    size_t pick = static_cast<size_t>(rng->NextBounded(ids.size()));
    std::swap(ids[pick], ids.back());
    node->vantage = ids.back();
    ids.pop_back();
    if (ids.empty()) return node;
    std::vector<std::pair<double, size_t>> by_distance;
    for (size_t id : ids) {
      by_distance.emplace_back(
          this->BuildDist(data_[node->vantage], data_[id]), id);
    }
    size_t half = by_distance.size() / 2;
    std::nth_element(by_distance.begin(), by_distance.begin() + half,
                     by_distance.end());
    node->median = by_distance[half].first;
    std::vector<size_t> inside_ids, outside_ids;
    for (const auto& [d, id] : by_distance) {
      (d < node->median ? inside_ids : outside_ids).push_back(id);
    }
    node->inside = Build(inside_ids, rng);
    node->outside = Build(outside_ids, rng);
    return node;
  }

  void SearchNode(const Node* node, const P& query,
                  index::SearchContext* context) const {
    if (node == nullptr || context->StopAfterBudget()) return;
    double d = this->QueryDist(data_[node->vantage], query,
                               context->stats());
    context->Emit(node->vantage, d);
    if (d - context->Radius() < node->median) {
      SearchNode(node->inside.get(), query, context);
    }
    if (d + context->Radius() >= node->median) {
      SearchNode(node->outside.get(), query, context);
    }
  }

  std::unique_ptr<Node> root_;
};

// Same results, distance counts and truncation flags, query by query.
template <typename P>
void ExpectSameSearch(const index::SearchIndex<P>& got,
                      const index::SearchIndex<P>& want,
                      const SearchRequest<P>& request,
                      const std::string& context) {
  SearchResponse a = got.Search(request);
  SearchResponse b = want.Search(request);
  ASSERT_TRUE(a.status.ok()) << context;
  ASSERT_TRUE(b.status.ok()) << context;
  EXPECT_EQ(a.results, b.results) << context;
  EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations)
      << context;
  EXPECT_EQ(a.truncated, b.truncated) << context;
}

// kNN, range and kNN-within-radius requests around `q`, unbudgeted and
// at budgets of 1, 7 and n / 3 distance computations.
template <typename P>
std::vector<SearchRequest<P>> VpRequests(const P& q, double radius,
                                         size_t n) {
  std::vector<SearchRequest<P>> requests;
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                          static_cast<uint64_t>(n / 3)}) {
    requests.push_back(
        SearchRequest<P>::Knn(q, 7).WithDistanceBudget(budget));
    requests.push_back(
        SearchRequest<P>::Range(q, radius).WithDistanceBudget(budget));
    requests.push_back(SearchRequest<P>::KnnWithinRadius(q, 5, radius)
                           .WithDistanceBudget(budget));
  }
  return requests;
}

// Points on the integer grid {1, 2, 3}^dim, each stored twice: ties in
// every distance, zero distances between copies, no zero vector (the
// angle metric rejects it).
std::vector<Vector> DuplicatedGrid(size_t distinct, size_t dim,
                                   util::Rng* rng) {
  std::vector<Vector> data;
  for (size_t i = 0; i < distinct; ++i) {
    Vector p(dim);
    for (double& c : p) c = 1.0 + static_cast<double>(rng->NextBounded(3));
    data.push_back(p);
    data.push_back(p);
  }
  return data;
}

TEST(FlatPath, VpTreeMatchesScalarPathBitExactly) {
  for (size_t dim : {3u, 8u, 32u}) {
    util::Rng data_rng(600 + dim);
    const std::vector<std::vector<Vector>> datasets = {
        dataset::UniformCube(360, dim, &data_rng),
        DuplicatedGrid(150, dim, &data_rng)};
    for (size_t set = 0; set < datasets.size(); ++set) {
      const std::vector<Vector>& data = datasets[set];
      std::vector<Vector> queries = QueryPoints(6, dim, &data_rng);
      queries.push_back(data[3]);  // a stored point: distance-0 ties
      for (const Metric<Vector>& tagged : TaggedMetrics()) {
        const std::string context = tagged.name() + " dim " +
                                    std::to_string(dim) + " set " +
                                    std::to_string(set);
        util::Rng flat_rng(11), scalar_rng(11), seed_rng(11);
        VpTreeIndex<Vector> flat(data, tagged, &flat_rng);
        VpTreeIndex<Vector> scalar(data, Untagged(tagged), &scalar_rng);
        SeedVpTreeIndex<Vector> seed(data, tagged, &seed_rng);
        EXPECT_EQ(flat.build_distance_computations(),
                  seed.build_distance_computations())
            << context;
        EXPECT_EQ(scalar.build_distance_computations(),
                  seed.build_distance_computations())
            << context;
        EXPECT_EQ(flat.IndexBits(), data.size() * 16 * 8) << context;
        LinearScanIndex<Vector> scan(data, tagged);
        for (const Vector& q : queries) {
          // The 10th-nearest distance: range requests return a handful
          // of points whatever the metric's scale.
          const double radius = scan.KnnQuery(q, 10).back().distance;
          for (const auto& request : VpRequests(q, radius, data.size())) {
            ExpectSameSearch(flat, scalar, request, context);
            ExpectSameSearch(flat, seed, request, context);
          }
        }
      }
    }
  }

  // Strings under edit distance take the scalar path; the node array
  // must still reproduce the seed tree exactly.
  util::Rng rng(13);
  auto words = dataset::DnaSequences(150, 4, 6, 16, 0.1, &rng);
  Metric<std::string> lev((metric::LevenshteinMetric()));
  util::Rng vp_rng(5), seed_rng(5);
  VpTreeIndex<std::string> vp(words, lev, &vp_rng);
  SeedVpTreeIndex<std::string> seed(words, lev, &seed_rng);
  EXPECT_EQ(vp.build_distance_computations(),
            seed.build_distance_computations());
  for (int q = 0; q < 8; ++q) {
    const std::string& query = words[rng.NextBounded(words.size())];
    for (const auto& request : VpRequests(query, 3.0, words.size())) {
      ExpectSameSearch(vp, seed, request, "levenshtein");
    }
  }
}

TEST(FlatPath, SparseDocumentSpacesStillUseScalarPath) {
  // Non-vector point types must compile and run through the scalar
  // path untouched (FlatDataPath generic stub).
  util::Rng rng(31);
  std::vector<metric::SparseVector> docs;
  for (int i = 0; i < 40; ++i) {
    metric::SparseVector doc;
    for (uint32_t d = 0; d < 6; ++d) {
      doc.emplace_back(d, rng.NextDouble() + 0.1);
    }
    docs.push_back(std::move(doc));
  }
  Metric<metric::SparseVector> angle{metric::AngleMetric()};
  EXPECT_EQ(angle.vector_kernel(), metric::VectorKernelKind::kNone);
  LinearScanIndex<metric::SparseVector> scan(docs, angle);
  QueryStats stats;
  auto results = scan.KnnQuery(docs[0], 3, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, 0u);
  EXPECT_EQ(stats.distance_computations, docs.size());
}

TEST(IsPermutationBitmask, HandlesFullRangeAndDuplicates) {
  core::Permutation identity(200);
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<uint8_t>(i);
  }
  EXPECT_TRUE(core::IsPermutation(identity));
  std::swap(identity[0], identity[199]);
  EXPECT_TRUE(core::IsPermutation(identity));
  identity[5] = identity[7];  // duplicate
  EXPECT_FALSE(core::IsPermutation(identity));

  EXPECT_TRUE(core::IsPermutation({}));
  EXPECT_TRUE(core::IsPermutation({0}));
  EXPECT_FALSE(core::IsPermutation({1}));     // out of range
  EXPECT_FALSE(core::IsPermutation({0, 0}));  // duplicate
}

TEST(FootruleFromRanks, AgreesWithSpearmanAndPrefixFootrule) {
  util::Rng rng(41);
  for (size_t k : {2u, 5u, 9u}) {
    for (int rep = 0; rep < 30; ++rep) {
      std::vector<double> da(k), db(k);
      for (double& v : da) v = rng.NextDouble();
      for (double& v : db) v = rng.NextDouble();
      core::Permutation a = core::PermutationFromDistances(da);
      core::Permutation b = core::PermutationFromDistances(db);
      core::Permutation ra = core::InvertPermutation(a);
      core::Permutation rb = core::InvertPermutation(b);
      EXPECT_EQ(core::FootruleFromRanks(ra.data(), rb.data(), k),
                core::SpearmanFootrule(a, b));

      const size_t prefix = (k + 1) / 2;
      core::Permutation pa = core::PermutationPrefixFromDistances(da, prefix);
      core::Permutation pb = core::PermutationPrefixFromDistances(db, prefix);
      std::vector<uint8_t> rank_a(k, static_cast<uint8_t>(prefix));
      std::vector<uint8_t> rank_b(k, static_cast<uint8_t>(prefix));
      for (size_t r = 0; r < prefix; ++r) {
        rank_a[pa[r]] = static_cast<uint8_t>(r);
        rank_b[pb[r]] = static_cast<uint8_t>(r);
      }
      EXPECT_EQ(core::FootruleFromRanks(rank_a.data(), rank_b.data(), k),
                core::PrefixFootrule(pa, pb, k));
    }
  }
}

}  // namespace
}  // namespace distperm
