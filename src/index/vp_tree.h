// Vantage-point tree (Uhlmann 1991; Yianilos 1993).
//
// One of the tree-structured baselines the paper's introduction cites:
// each node holds a vantage point and the median distance to it; the
// inside/outside children are pruned with the triangle inequality.
//
// Layout: the tree is one array of 16-byte nodes in pre-order.  The
// inside child of node i is node i + 1; its outside subtree starts at
// `outside` and ends where the parent's subtree ends.  For kernel-tagged
// vector metrics the vantage points are packed into the flat data path
// in that same node order, so node i's distance reads packed row i and
// a search streams forward through both arrays instead of chasing a
// heap pointer per node.  Every other point type evaluates the metric
// on data_[vantage] over the same node array.

#ifndef DISTPERM_INDEX_VP_TREE_H_
#define DISTPERM_INDEX_VP_TREE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "index/flat_data_path.h"
#include "index/index.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// Classic VP-tree with exact range and kNN queries.
template <typename P>
class VpTreeIndex : public SearchIndex<P> {
 public:
  using SearchIndex<P>::data_;

  VpTreeIndex(std::vector<P> data, metric::Metric<P> metric,
              util::Rng* rng)
      : SearchIndex<P>(std::move(data), std::move(metric)) {
    DP_CHECK_MSG(data_.size() <= std::numeric_limits<uint32_t>::max(),
                 "vp-tree: shard size exceeds 32-bit node ids");
    std::vector<uint32_t> ids(data_.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<uint32_t>(i);
    }
    nodes_.reserve(data_.size());
    Build(ids, rng);
    std::vector<uint32_t> node_order(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      node_order[i] = nodes_[i].vantage;
    }
    flat_ = FlatDataPath<P>(data_, this->metric_, node_order);
  }

  std::string name() const override { return "vp-tree"; }

  uint64_t IndexBits() const override {
    return static_cast<uint64_t>(nodes_.size()) * sizeof(Node) * 8;
  }

 protected:
  void SearchImpl(const SearchRequest<P>& request,
                  SearchContext* context) const override {
    const uint32_t end = static_cast<uint32_t>(nodes_.size());
    if (flat_.enabled()) {
      const auto query = flat_.MakeQuery(request.point);
      uint64_t* counter = &context->stats()->distance_computations;
      SearchNodes(0, end, context, [&](uint32_t i) {
        return flat_.ChargedRowDistance(query, i, counter);
      });
    } else {
      SearchNodes(0, end, context, [&](uint32_t i) {
        return this->QueryDist(data_[nodes_[i].vantage], request.point,
                               context->stats());
      });
    }
  }

 private:
  struct Node {
    double median;
    uint32_t vantage;
    uint32_t outside;  // first node of the outside subtree
  };
  static_assert(sizeof(Node) == 16, "vp-tree nodes are 16 bytes");

  /// Appends the subtree over `ids` to nodes_ in pre-order: the node,
  /// then its inside subtree, then its outside subtree.
  void Build(std::vector<uint32_t>& ids, util::Rng* rng) {
    if (ids.empty()) return;
    size_t pick = static_cast<size_t>(rng->NextBounded(ids.size()));
    std::swap(ids[pick], ids.back());
    const uint32_t vantage = ids.back();
    ids.pop_back();
    const size_t self = nodes_.size();
    nodes_.push_back({0.0, vantage, static_cast<uint32_t>(self + 1)});
    if (ids.empty()) return;

    std::vector<std::pair<double, uint32_t>> by_distance;
    by_distance.reserve(ids.size());
    for (uint32_t id : ids) {
      by_distance.emplace_back(
          this->BuildDist(data_[vantage], data_[id]), id);
    }
    size_t half = by_distance.size() / 2;
    std::nth_element(by_distance.begin(), by_distance.begin() + half,
                     by_distance.end());
    const double median = by_distance[half].first;
    nodes_[self].median = median;
    std::vector<uint32_t> inside_ids, outside_ids;
    for (const auto& [d, id] : by_distance) {
      (d < median ? inside_ids : outside_ids).push_back(id);
    }
    Build(inside_ids, rng);
    nodes_[self].outside = static_cast<uint32_t>(nodes_.size());
    Build(outside_ids, rng);
  }

  /// Searches the subtree stored in nodes_[i, end).  `dist(i)` is node
  /// i's charged distance to the query.  The outside subtree continues
  /// the loop instead of recursing.
  template <typename Dist>
  void SearchNodes(uint32_t i, uint32_t end, SearchContext* context,
                   const Dist& dist) const {
    while (i != end) {
      if (context->StopAfterBudget()) return;
      const Node& node = nodes_[i];
      const double d = dist(i);
      context->Emit(node.vantage, d);
      // Inside child holds points with distance-to-vantage < median.
      if (d - context->Radius() < node.median) {
        SearchNodes(i + 1, node.outside, context, dist);
      }
      if (!(d + context->Radius() >= node.median)) return;
      i = node.outside;
    }
  }

  std::vector<Node> nodes_;
  FlatDataPath<P> flat_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_VP_TREE_H_
