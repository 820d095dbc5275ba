// Table-compressed permutation storage — the paper's storage scheme
// realised as a data structure.
//
// Section 4: "When the number of points in the database is large in
// comparison to the number of permutations, the bound can be achieved
// simply by storing the full permutations in a separate table and
// storing the index numbers into that table alongside the points."
// PermutationTable does exactly that: a sorted side table of the N
// distinct permutations that occur, plus one ceil(lg N)-bit index per
// point, both bit-packed.

#ifndef DISTPERM_CORE_PERM_TABLE_H_
#define DISTPERM_CORE_PERM_TABLE_H_

#include <cstdint>
#include <vector>

#include "core/distance_permutation.h"
#include "util/bitpack.h"

namespace distperm {
namespace core {

/// Immutable compressed store of one distance permutation per database
/// point.  Requires k <= 20 (64-bit Lehmer ranks).
class PermutationTable {
 public:
  /// Builds from the per-point permutations (all the same size k).
  static PermutationTable Build(const std::vector<Permutation>& perms);

  /// The permutation of point i, decoded.  The index stream is
  /// fixed-width, so this seeks straight to entry i in O(1).
  Permutation Get(size_t index) const;

  /// Number of points stored.
  size_t size() const { return point_count_; }

  /// Number of distinct permutations (the paper's counted quantity N).
  size_t distinct() const { return table_.size(); }

  /// Number of sites k.
  size_t sites() const { return sites_; }

  /// Bits per point in the index stream: ceil(lg N).
  int index_bits_per_point() const { return index_width_; }

  /// Total bits: packed index stream plus the packed side table.
  uint64_t TotalBits() const;

  /// Bits a raw (uncompressed-table-free) encoding would use:
  /// points * ceil(lg k!).
  uint64_t RawBits() const;

 private:
  std::vector<uint64_t> table_;        // sorted distinct Lehmer ranks
  std::vector<uint8_t> index_stream_;  // bit-packed indexes into table_
  size_t point_count_ = 0;
  size_t sites_ = 0;
  int index_width_ = 0;
  int rank_width_ = 0;  // bits per table entry when packed
};

/// Shannon entropy (bits) of the permutation distribution over a
/// database: how much information one stored permutation actually
/// carries.  The paper's closing observation — once few permutations are
/// possible, a permutation index cannot discriminate much — is this
/// quantity; it is at most lg(distinct) and far below lg k! in practice.
double PermutationEntropyBits(const std::vector<Permutation>& perms);

}  // namespace core
}  // namespace distperm

#endif  // DISTPERM_CORE_PERM_TABLE_H_
