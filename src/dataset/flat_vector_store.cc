#include "dataset/flat_vector_store.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace distperm {
namespace dataset {

FlatVectorStore::FlatVectorStore(const std::vector<metric::Vector>& points,
                                 const std::vector<uint32_t>& row_order) {
  DP_CHECK_MSG(row_order.empty() || row_order.size() == points.size(),
               "FlatVectorStore row order must cover every point");
  if (points.empty()) return;
  dim_ = points.front().size();
  DP_CHECK_MSG(dim_ >= 1, "FlatVectorStore requires dimension >= 1");
  for (const metric::Vector& p : points) {
    DP_CHECK_MSG(p.size() == dim_, "FlatVectorStore requires equal dims");
  }
  size_ = points.size();
  constexpr size_t kDoublesPerLine = kRowAlignBytes / sizeof(double);
  stride_ = (dim_ + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;

  // stride_ is a multiple of the alignment in doubles, so the total byte
  // count is a multiple of kRowAlignBytes as std::aligned_alloc requires.
  const size_t bytes = size_ * stride_ * sizeof(double);
  double* raw = static_cast<double*>(
      std::aligned_alloc(kRowAlignBytes, bytes));
  DP_CHECK_MSG(raw != nullptr, "FlatVectorStore allocation failed");
  data_.reset(raw);

  for (size_t i = 0; i < size_; ++i) {
    const size_t source = row_order.empty() ? i : row_order[i];
    DP_CHECK_MSG(source < size_, "FlatVectorStore row order out of range");
    double* row = raw + i * stride_;
    std::memcpy(row, points[source].data(), dim_ * sizeof(double));
    std::fill(row + dim_, row + stride_, 0.0);
  }
}

metric::Vector FlatVectorStore::ToVector(size_t i) const {
  const double* r = row(i);
  return metric::Vector(r, r + dim_);
}

}  // namespace dataset
}  // namespace distperm
