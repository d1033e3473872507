// Serialized quantized-model artifact — the persistence layer of the
// serving core.
//
// A server should be able to cold-start from the exact bytes a previous
// quantization run produced: the packed per-slot weight codes, the decode
// LUTs they index, the per-layer LPConfig assignment (weights and
// activations), all without re-running quantization.  This module defines
// that on-disk format and the pure read/write halves;
// InferenceSession::save_artifact / load_artifact wire them into the
// cache + publish machinery.
//
// Layout (little-endian, fixed-width fields):
//
//   magic "LPAR" | u32 format_version | u64 fnv1a64(body) | u64 body_size
//   body:
//     u32 name_len, name bytes          — model the artifact was built for
//     u64 num_slots, u8 has_act_cfgs
//     num_slots x weight LPConfig       — i32 n, es, rs + u64 sf bit pattern
//     [num_slots x act LPConfig]
//     u64 num_luts; per LUT: u64 size, size x u32 float bits
//     per slot:
//       u32 rank, rank x i64 dims
//       i32 code_bits, u64 lut_index, u64 nbytes, raw code bytes
//
// Every float crosses the boundary as its IEEE-754 bit pattern, and the
// packed code stream is stored verbatim — so a round trip is bit-identical
// by construction, and the checksum turns silent corruption into a load
// error instead of wrong logits.  The stored LUTs also let the loader
// cross-check against the decode tables this build computes for the same
// configs: a mismatch means the format implementation changed since the
// artifact was written, which must fail loudly, not serve stale values.
//
// Failure is structured: every load-path rejection throws
// ArtifactLoadError carrying an ArtifactErrorCode, so a cold-start
// supervisor can distinguish "file is torn, re-quantize from configs"
// (InferenceSession::cold_start) from "this artifact was never for this
// model" without parsing exception text.  ArtifactLoadError derives from
// std::invalid_argument, so pre-existing catch sites keep working.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lp_config.h"
#include "core/packed_codes.h"

namespace lp::runtime {

class ServableModel;

/// Current on-disk format version; bumped on any layout change.
inline constexpr std::uint32_t kArtifactVersion = 2;

/// Why an artifact failed to load.  kNone is the "no error" value used by
/// cold-start results; everything else names one rejection class the
/// corruption-matrix tests in tests/test_chaos.cpp cover.
enum class ArtifactErrorCode {
  kNone = 0,
  kIo,             ///< file missing / unreadable / short read
  kBadMagic,       ///< first four bytes are not "LPAR"
  kVersionSkew,    ///< on-disk format_version != kArtifactVersion
  kTruncated,      ///< header or body ends mid-field
  kChecksum,       ///< body bytes fail the stored FNV-1a checksum
  kMalformed,      ///< body parses but violates a structural invariant
  kLutMismatch,    ///< stored decode LUT != the table this build derives
  kModelMismatch,  ///< artifact names/shapes a different model
};

[[nodiscard]] const char* to_string(ArtifactErrorCode code);

/// Structured artifact rejection.  Subclass of std::invalid_argument so
/// legacy `catch (const std::invalid_argument&)` sites still catch it.
class ArtifactLoadError : public std::invalid_argument {
 public:
  ArtifactLoadError(ArtifactErrorCode code, const std::string& what)
      : std::invalid_argument(what), code_(code) {}
  [[nodiscard]] ArtifactErrorCode code() const { return code_; }

 private:
  ArtifactErrorCode code_;
};

/// One slot's deserialized payload (raw bytes — not yet bound to a model
/// or a decode-LUT instance; InferenceSession::load_artifact does that).
struct ArtifactSlot {
  std::vector<std::int64_t> shape;
  int code_bits = 0;
  std::size_t lut_index = 0;        ///< into Artifact::luts
  std::vector<std::uint8_t> codes;  ///< packed payload
};

/// In-memory form of a deserialized artifact.
struct Artifact {
  std::uint32_t format_version = kArtifactVersion;
  std::string model_name;
  std::vector<LPConfig> weight_cfgs;
  std::vector<LPConfig> act_cfgs;  ///< empty = no activation quantization
  std::vector<DecodeTable> luts;   ///< distinct weight decode LUTs
  std::vector<ArtifactSlot> slots;
};

/// Serialize a published snapshot (codes, LUTs, configs) to `path`.
/// Throws std::invalid_argument on I/O failure.
void write_artifact(const std::string& path, const ServableModel& m);

/// Parse `path`, validating magic, version, size, and checksum.  Throws
/// ArtifactLoadError (an std::invalid_argument) with the precise
/// ArtifactErrorCode on any mismatch or truncation.
[[nodiscard]] Artifact read_artifact(const std::string& path);

}  // namespace lp::runtime
