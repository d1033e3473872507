#include "core/packed_codes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/number_format.h"
#include "core/quant_index.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace lp {

std::shared_ptr<const DecodeTable> build_decode_table(const NumberFormat& fmt) {
  if (!fmt.quantize_codes_batch({}, {})) return nullptr;  // no code path
  std::vector<float> table = fmt.decode_table();
  if (table.empty() || table.size() >= PackedCodes::kMaxLutSize) return nullptr;
  table.reserve(table.size() + 1);  // not 2x: the cache keeps every table
  table.push_back(std::numeric_limits<float>::quiet_NaN());
  return std::make_shared<const DecodeTable>(std::move(table));
}

std::int64_t lut_zero_code(const DecodeTable& lut) {
  for (std::size_t i = 0; i < lut.size(); ++i) {
    // Exact +0.0f only: -0.0f decodes to a different bit pattern than the
    // 0.0f the float im2col pads with.
    if (lut[i] == 0.0F && !std::signbit(lut[i])) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

PackedCodes PackedCodes::from_codes(std::vector<std::uint8_t> data,
                                    std::vector<std::int64_t> shape, int bits,
                                    std::shared_ptr<const DecodeTable> lut) {
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) numel *= d;
  LP_CHECK_MSG(data.size() == stream_bytes(numel, bits),
               "code-stream size mismatch: " << data.size() << " bytes for "
                                             << numel << " elements at "
                                             << bits << " bits");
  LP_CHECK(lut != nullptr && !lut->empty());
  PackedCodes out;
  out.shape_ = std::move(shape);
  out.numel_ = numel;
  out.bits_ = bits;
  out.data_ = std::move(data);
  out.lut_ = std::move(lut);
  return out;
}

void PackedCodes::reshape(std::vector<std::int64_t> shape) {
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) numel *= d;
  LP_CHECK_MSG(numel == numel_, "packed-code reshape numel mismatch: "
                                    << numel << " vs " << numel_);
  shape_ = std::move(shape);
}

void PackedCodes::decode(std::span<float> out) const {
  LP_CHECK(static_cast<std::int64_t>(out.size()) == numel_);
  const kernels::PackedCodesView v = view();
  float* dst = out.data();
  parallel_for(default_pool(), 0, numel_, 1 << 15,
               [&](std::int64_t e0, std::int64_t e1, std::int64_t) {
                 for (std::int64_t e = e0; e < e1; ++e) {
                   dst[e] = kernels::packed_decode_at(v, e);
                 }
               });
}

PackedCodes PackedCodes::pack(std::span<const float> data,
                              std::vector<std::int64_t> shape,
                              const NumberFormat& fmt,
                              std::shared_ptr<const DecodeTable> lut,
                              int min_bits) {
  LP_CHECK_MSG(lut != nullptr && !lut->empty() &&
                   lut->size() <= kMaxLutSize && std::isnan(lut->back()) &&
                   fmt.quantize_codes_batch({}, {}),
               "pack() needs a format with a code path and its "
               "build_decode_table()");
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) numel *= d;
  LP_CHECK_MSG(numel == static_cast<std::int64_t>(data.size()),
               "packed-code shape/data mismatch: " << numel << " vs "
                                                   << data.size());

  // Nearest-value indices, chunk-parallel (fixed boundaries, disjoint
  // writes — identical for any pool size).  A non-finite element takes
  // the NaN code, the LUT's last entry.
  const std::size_t n = data.size();
  std::vector<std::uint32_t> idx(n);
  const std::uint32_t lut_size = static_cast<std::uint32_t>(lut->size());
  const std::uint32_t nan_code = lut_size - 1;
  constexpr std::size_t kChunk = QuantIndex::kQuantChunk;
  ThreadPool& pool = default_pool();
  const std::int64_t chunks =
      static_cast<std::int64_t>((n + kChunk - 1) / kChunk);
  pool.run_chunks(chunks, [&](std::int64_t c) {
    const std::size_t begin = static_cast<std::size_t>(c) * kChunk;
    const std::size_t len = std::min(kChunk, n - begin);
    const std::span<std::uint32_t> out(idx.data() + begin, len);
    (void)fmt.quantize_codes_batch(data.subspan(begin, len), out);
    for (std::uint32_t& v : out) {
      if (v == kernels::kInvalidIndex) v = nan_code;
    }
  });

  PackedCodes out;
  out.shape_ = std::move(shape);
  out.numel_ = numel;
  out.bits_ = bits_for(lut_size, min_bits);
  out.lut_ = std::move(lut);
  const std::size_t bytes = stream_bytes(numel, out.bits_);
  out.data_.assign(bytes, 0);
  std::uint8_t* dst = out.data_.data();
  // Pack over disjoint byte ranges (a 4-bit byte covers elements 2b and
  // 2b+1, so byte-granular chunks never share an element).
  parallel_for(pool, 0, static_cast<std::int64_t>(bytes), 1 << 16,
               [&](std::int64_t b0, std::int64_t b1, std::int64_t) {
                 switch (out.bits_) {
                   case 4:
                     for (std::int64_t b = b0; b < b1; ++b) {
                       const std::size_t e = static_cast<std::size_t>(b) * 2;
                       std::uint32_t byte = idx[e] & 0xFU;
                       if (e + 1 < n) byte |= (idx[e + 1] & 0xFU) << 4;
                       dst[b] = static_cast<std::uint8_t>(byte);
                     }
                     break;
                   case 8:
                     for (std::int64_t b = b0; b < b1; ++b) {
                       dst[b] = static_cast<std::uint8_t>(
                           idx[static_cast<std::size_t>(b)]);
                     }
                     break;
                   default:
                     for (std::int64_t b = b0; b < b1; ++b) {
                       const std::size_t e = static_cast<std::size_t>(b) / 2;
                       dst[b] = static_cast<std::uint8_t>(
                           (b & 1) != 0 ? idx[e] >> 8 : idx[e] & 0xFFU);
                     }
                     break;
                 }
               });
  return out;
}

}  // namespace lp
