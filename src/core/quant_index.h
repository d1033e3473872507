// Precomputed nearest-value quantization index over a sorted value table.
//
// The scalar paths (EnumeratedFormat::quantize, CodeTable::nearest_index)
// binary-search a double table — for an n-bit format that is ~n double
// compares, a virtual call, and a tie branch per element (they share one
// rule: quant::nearest_index in core/quant_rule.h).  This index hoists all
// of that out of the loop: each decision boundary is resolved once, at
// build time, to the exact float where the scalar rule flips from the
// lower to the upper table value, stored as an order-preserving uint32
// key.  Batched lookups are then a bucket jump plus a count of the
// bucket's keys <= the input's key, remain bit-exact with the scalar rule
// by construction, and are served by the dispatched kernel layer
// (src/kernels: the scalar reference, or the AVX2/AVX-512 search in which
// every SIMD lane walks its own bucket; selected at runtime via cpuid /
// LP_KERNEL).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.h"

namespace lp {

class QuantIndex {
 public:
  QuantIndex() = default;

  /// `values` must be sorted ascending, distinct, finite, and non-empty.
  explicit QuantIndex(std::span<const double> values);

  /// Quantize xs in place; non-finite inputs become quiet NaN.  Returns the
  /// sum of squared error against the double-precision table values (NaN if
  /// any input was non-finite, matching quantize_span's behaviour).  Large
  /// buffers run chunk-parallel on the default pool: the error is
  /// accumulated per fixed-size chunk (kQuantChunk elements, boundaries
  /// independent of the pool size) and partials are combined in chunk
  /// order, so the result is bit-identical for any thread count; buffers of
  /// at most one chunk accumulate in element order exactly as the scalar
  /// loop does.  Within a chunk the dispatched kernel runs (LP_KERNEL);
  /// every kernel variant is bit-identical (see tests/test_kernels.cpp).
  double quantize(std::span<float> xs) const;

  /// Fixed reduction-chunk size for quantize() (elements).
  static constexpr std::size_t kQuantChunk = 1U << 15;

  /// Sentinel index reported for non-finite inputs by nearest_indices().
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFU;

  /// out[i] = index of the nearest value to xs[i], or kInvalid when xs[i]
  /// is not finite.  Spans must have equal length.
  void nearest_indices(std::span<const float> xs,
                       std::span<std::uint32_t> out) const;

  /// Raw-pointer view for the kernel layer.  Valid only while this index
  /// is alive and non-empty.
  [[nodiscard]] kernels::QuantIndexView view() const {
    return {keys_.data(),     keys_.size(),    bucket_lo_.data(),
            kBucketBits,      values_f_.data(), values_.data()};
  }

  [[nodiscard]] bool empty() const { return values_f_.empty(); }
  [[nodiscard]] std::size_t size() const { return values_f_.size(); }

 private:
  static constexpr int kBucketBits = 12;

  std::vector<std::uint32_t> keys_;       ///< boundary keys, ascending
  std::vector<float> values_f_;           ///< table values cast to float
  std::vector<double> values_;            ///< double table (error accounting)
  std::vector<std::uint32_t> bucket_lo_;  ///< (1<<kBucketBits)+1 lower bounds
};

}  // namespace lp
