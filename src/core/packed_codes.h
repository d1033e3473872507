// Packed weight-code storage — the software analogue of keeping n<=8-bit
// LP codes in accelerator SRAM and decoding them inside the datapath
// (paper Section 5; PDPU and Deep Positron make the same move).
//
// A PackedCodes holds one quantized weight tensor as dense decode-table
// *indices* (4/8/16 bits each, bit-packed for 4) plus a shared pointer to
// the format's decode LUT.  Expanding index i through the LUT yields the
// exact float the float-path quantized tensor stores at that element —
// the alignment contract between NumberFormat::quantize_codes_batch and
// NumberFormat::decode_table() — so the LUT-decoding GEMM kernels
// (src/kernels) are bit-identical to decode-then-GEMM by construction.
//
// The payload is 4-8x smaller than the float tensor it replaces, which is
// the whole point: the runtime's byte-budgeted weight cache holds 4-8x
// more (slot, format) pairs, and the GEMM B-stream reads 4-8x fewer
// bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kernels/kernels.h"

namespace lp {

class NumberFormat;

/// Dense decode LUT: entry i is the float value of code index i.  Shared
/// (one instance per format) across every PackedCodes of that format.
using DecodeTable = std::vector<float>;

class PackedCodes {
 public:
  /// Largest decode table the packed path serves (16-bit codes), the NaN
  /// entry included.
  static constexpr std::size_t kMaxLutSize = 1U << 16;

  /// Quantize `data` (logical shape `shape`) into packed codes.  A
  /// non-finite element gets the NaN code (lut.size() - 1), which decodes
  /// to the quiet NaN the float path stores for it, so every tensor packs.
  /// `lut` must be the format's build_decode_table() (non-null: the format
  /// has a batched code path and a table the packed path serves).  Runs
  /// chunk-parallel on the default pool; all chunk writes are disjoint, so
  /// the result is identical for any pool size.  `min_bits` floors the
  /// code width: activation streams pass 8 so codes stay byte-aligned and
  /// parallel writers never share a byte (weights keep the default 0 =
  /// narrowest width that fits the LUT).
  [[nodiscard]] static PackedCodes pack(std::span<const float> data,
                                        std::vector<std::int64_t> shape,
                                        const NumberFormat& fmt,
                                        std::shared_ptr<const DecodeTable> lut,
                                        int min_bits = 0);

  /// Code width (4, 8, or 16) pack() would choose for a LUT of that size,
  /// floored at `min_bits`.  Callers sizing kernel-written code streams
  /// (the fused encode epilogue) use this plus stream_bytes().
  [[nodiscard]] static int bits_for(std::size_t lut_size, int min_bits = 0) {
    const int natural = lut_size <= 16 ? 4 : lut_size <= 256 ? 8 : 16;
    return natural < min_bits ? min_bits : natural;
  }

  /// Bytes a code stream of `numel` elements at `bits` wide occupies.
  [[nodiscard]] static std::size_t stream_bytes(std::int64_t numel, int bits) {
    const std::size_t n = static_cast<std::size_t>(numel);
    return bits == 4 ? (n + 1) / 2 : bits == 8 ? n : n * 2;
  }

  /// Wrap a kernel-written code stream (the fused encode epilogue writes
  /// codes directly, no float detour) as a PackedCodes.  `data` must hold
  /// exactly stream_bytes(numel(shape), bits) bytes of valid indices into
  /// `lut`; nothing is validated beyond the sizes.
  [[nodiscard]] static PackedCodes from_codes(
      std::vector<std::uint8_t> data, std::vector<std::int64_t> shape,
      int bits, std::shared_ptr<const DecodeTable> lut);

  [[nodiscard]] const std::vector<std::int64_t>& shape() const {
    return shape_;
  }

  /// Reinterpret the logical shape (element count must match) — the coded
  /// analogue of Tensor::reshape for nn's [B,T,D] <-> [B*T,D] round-trips.
  void reshape(std::vector<std::int64_t> shape);
  [[nodiscard]] std::int64_t dim(std::size_t i) const { return shape_[i]; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::int64_t numel() const { return numel_; }

  /// Bits per stored code: 4, 8, or 16.
  [[nodiscard]] int code_bits() const { return bits_; }
  /// Bytes of the packed code array (excludes the shared LUT).
  [[nodiscard]] std::size_t payload_bytes() const { return data_.size(); }
  /// The packed code bytes themselves — what the serialized model artifact
  /// stores verbatim (and hands back to from_codes on load).
  [[nodiscard]] std::span<const std::uint8_t> raw_bytes() const {
    return data_;
  }
  /// Bytes of the float tensor this replaces (the decoded equivalent).
  [[nodiscard]] std::size_t logical_bytes() const {
    return static_cast<std::size_t>(numel_) * sizeof(float);
  }
  [[nodiscard]] const std::shared_ptr<const DecodeTable>& lut() const {
    return lut_;
  }

  /// Kernel-layer view starting at logical element `elem_offset` (grouped
  /// convolutions slice per-group weight blocks).  Valid while this
  /// object is alive.
  [[nodiscard]] kernels::PackedCodesView view(
      std::int64_t elem_offset = 0) const {
    return {data_.data(), elem_offset, bits_, lut_->data(),
            static_cast<std::uint32_t>(lut_->size())};
  }

  /// Decoded value of element i — the float the float path would store.
  [[nodiscard]] float decode_at(std::int64_t i) const {
    return kernels::packed_decode_at(view(), i);
  }

  /// Decode every element into `out` (size numel()) — the exact float
  /// tensor the float path produces for this data.  Chunk-parallel with
  /// disjoint writes; identical for any pool size.
  void decode(std::span<float> out) const;

 private:
  PackedCodes() = default;

  std::vector<std::int64_t> shape_;
  std::int64_t numel_ = 0;
  int bits_ = 8;
  std::vector<std::uint8_t> data_;
  std::shared_ptr<const DecodeTable> lut_;
};

/// Build the shared decode LUT for a format: its values in code order,
/// then one std::numeric_limits<float>::quiet_NaN() entry — the code every
/// non-finite element encodes to.  Null when the format cannot serve the
/// packed path (no batched code emission, or a table beyond
/// PackedCodes::kMaxLutSize).
[[nodiscard]] std::shared_ptr<const DecodeTable> build_decode_table(
    const NumberFormat& fmt);

/// Index of the exact +0.0f entry in a decode LUT, or a negative value
/// when the table has none.  The coded im2col path pads with this code so
/// padded patches decode to the same 0.0f the float im2col writes.
[[nodiscard]] std::int64_t lut_zero_code(const DecodeTable& lut);

}  // namespace lp
