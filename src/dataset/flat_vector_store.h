// Flat, cache-friendly storage for a dense-vector database.
//
// A vector database held as std::vector<metric::Vector> scatters every
// point across the heap: a linear scan chases one pointer per point and
// the rows are rarely contiguous.  FlatVectorStore packs the whole
// database into a single row-major buffer whose rows start on 64-byte
// (cache-line) boundaries, so the blocked kernels in metric/kernels.h
// stream over the data with unit-stride loads and hardware prefetch.
//
// Rows are padded from `dim` to `stride` doubles (stride is dim rounded
// up to a multiple of 8, i.e. one cache line of doubles); the padding is
// zero-filled and never read by the kernels.  VectorView is a cheap
// pointer + dimension handle onto one row.

#ifndef DISTPERM_DATASET_FLAT_VECTOR_STORE_H_
#define DISTPERM_DATASET_FLAT_VECTOR_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "metric/metric.h"

namespace distperm {
namespace dataset {

/// Non-owning handle onto one packed row: pointer + dimension.
struct VectorView {
  const double* data = nullptr;
  size_t dim = 0;

  double operator[](size_t i) const { return data[i]; }
  const double* begin() const { return data; }
  const double* end() const { return data + dim; }
};

/// One contiguous row-major buffer holding every point of a database.
/// Move-only (the buffer is a single aligned allocation); immutable
/// after construction and therefore freely shared across query threads.
class FlatVectorStore {
 public:
  /// Row alignment in bytes (one x86 cache line).
  static constexpr size_t kRowAlignBytes = 64;

  /// An empty store (size() == 0).
  FlatVectorStore() = default;

  /// Packs `points` into the flat buffer.  All points must share one
  /// dimension >= 1 (fatal otherwise); an empty database yields an
  /// empty store.  An empty `row_order` stores points[r] as row r; a
  /// non-empty one must be a permutation of the point ids and stores
  /// points[row_order[r]] as row r, so an index can lay rows out in the
  /// order its search visits them (the vp-tree's pre-order nodes).
  explicit FlatVectorStore(const std::vector<metric::Vector>& points,
                           const std::vector<uint32_t>& row_order = {});

  FlatVectorStore(FlatVectorStore&&) = default;
  FlatVectorStore& operator=(FlatVectorStore&&) = default;
  FlatVectorStore(const FlatVectorStore&) = delete;
  FlatVectorStore& operator=(const FlatVectorStore&) = delete;

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }
  /// Doubles per row (dim rounded up to a multiple of 8).
  size_t stride() const { return stride_; }

  /// Pointer to row i (64-byte aligned).
  const double* row(size_t i) const { return data_.get() + i * stride_; }
  /// View of row i.
  VectorView view(size_t i) const { return {row(i), dim_}; }
  /// Copies row i back out as a heap vector.
  metric::Vector ToVector(size_t i) const;

  /// Base of the packed buffer (size() * stride() doubles).
  const double* data() const { return data_.get(); }
  /// Total bytes held by the packed buffer.
  uint64_t AllocatedBytes() const {
    return static_cast<uint64_t>(size_) * stride_ * sizeof(double);
  }

 private:
  struct FreeDeleter {
    void operator()(double* p) const { std::free(p); }
  };

  std::unique_ptr<double[], FreeDeleter> data_;
  size_t size_ = 0;
  size_t dim_ = 0;
  size_t stride_ = 0;
};

}  // namespace dataset
}  // namespace distperm

#endif  // DISTPERM_DATASET_FLAT_VECTOR_STORE_H_
