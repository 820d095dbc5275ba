#include "core/perm_table.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/perm_codec.h"
#include "util/status.h"

namespace distperm {
namespace core {

PermutationTable PermutationTable::Build(
    const std::vector<Permutation>& perms) {
  PermutationTable out;
  out.point_count_ = perms.size();
  if (perms.empty()) return out;
  out.sites_ = perms[0].size();
  DP_CHECK(out.sites_ <= kMaxRank64Sites);

  std::vector<uint64_t> ranks(perms.size());
  for (size_t i = 0; i < perms.size(); ++i) {
    DP_CHECK_MSG(perms[i].size() == out.sites_,
                 "mixed permutation sizes in one table");
    ranks[i] = RankPermutation(perms[i]);
  }
  out.table_ = ranks;
  std::sort(out.table_.begin(), out.table_.end());
  out.table_.erase(std::unique(out.table_.begin(), out.table_.end()),
                   out.table_.end());

  out.index_width_ = util::BitsFor(out.table_.size());
  out.rank_width_ =
      util::BitsForFactorial(static_cast<int>(out.sites_));

  util::BitWriter writer;
  for (uint64_t rank : ranks) {
    size_t index = static_cast<size_t>(
        std::lower_bound(out.table_.begin(), out.table_.end(), rank) -
        out.table_.begin());
    writer.Write(index, out.index_width_);
  }
  out.index_stream_ = writer.Finish();
  return out;
}

Permutation PermutationTable::Get(size_t index) const {
  DP_CHECK(index < point_count_);
  util::BitReader reader(index_stream_);
  reader.Seek(index * static_cast<size_t>(index_width_));
  uint64_t table_index = reader.Read(index_width_);
  return UnrankPermutation(table_[table_index], sites_);
}

uint64_t PermutationTable::TotalBits() const {
  return static_cast<uint64_t>(index_width_) * point_count_ +
         static_cast<uint64_t>(rank_width_) * table_.size();
}

uint64_t PermutationTable::RawBits() const {
  return static_cast<uint64_t>(rank_width_) * point_count_;
}

double PermutationEntropyBits(const std::vector<Permutation>& perms) {
  if (perms.empty()) return 0.0;
  std::unordered_map<uint64_t, size_t> histogram;
  for (const Permutation& perm : perms) {
    ++histogram[PermutationKey(perm)];
  }
  double entropy = 0.0;
  const double n = static_cast<double>(perms.size());
  for (const auto& [key, count] : histogram) {
    double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

}  // namespace core
}  // namespace distperm
