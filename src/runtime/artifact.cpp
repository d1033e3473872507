#include "runtime/artifact.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "kernels/kernels.h"
#include "runtime/servable_model.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace lp::runtime {
namespace {

constexpr char kMagic[4] = {'L', 'P', 'A', 'R'};
/// Encoded sizes the count bounds use: an LPConfig (3 x i32 + u64), and a
/// slot's fixed fields (u32 rank, i32 code_bits, u64 lut_index, u64
/// nbytes).
constexpr std::size_t kConfigBytes = 20;
constexpr std::size_t kSlotFieldBytes = 24;

[[noreturn]] void raise(ArtifactErrorCode code, const std::string& msg) {
  std::ostringstream os;
  os << "artifact load failed [" << to_string(code) << "]: " << msg;
  throw ArtifactLoadError(code, os.str());
}

/// LP_CHECK_MSG analogue that throws the structured error instead.
#define LP_ARTIFACT_CHECK(code, cond, msg)      \
  do {                                          \
    if (!(cond)) {                              \
      std::ostringstream lp_art_os_;            \
      lp_art_os_ << msg;                        \
      raise((code), lp_art_os_.str());          \
    }                                           \
  } while (false)

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Append-only little-endian serializer.  The library targets x86 (the
/// SIMD kernel dispatch is x86-only), so host order is the file order;
/// fixed-width copies keep that explicit.
struct Writer {
  std::vector<std::uint8_t> out;

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
  }
  void put_bytes(const void* p, std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, p, n);
  }
  void put_config(const LPConfig& c) {
    put<std::int32_t>(c.n);
    put<std::int32_t>(c.es);
    put<std::int32_t>(c.rs);
    put<std::uint64_t>(std::bit_cast<std::uint64_t>(c.sf));
  }
};

/// Bounds-checked cursor over the deserialized body.
struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t left() const { return in.size() - pos; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kTruncated, sizeof(T) <= left(),
                      "body ends mid-field at offset " << pos);
    T v;
    std::memcpy(&v, in.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kTruncated, n <= left(),
                      "body ends mid-field at offset " << pos);
    const auto s = in.subspan(pos, n);
    pos += n;
    return s;
  }
  /// Reject a count whose elements, at least `min_bytes` each, cannot fit
  /// in the bytes left — before a reserve() sizes a vector by it.  The
  /// checksum is no MAC, so a resealed file reaches here with any count.
  void check_count(std::uint64_t count, std::size_t min_bytes,
                   const char* what) const {
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      count <= left() / min_bytes,
                      what << " count " << count << " overruns the "
                           << left() << " body bytes left");
  }
  LPConfig get_config() {
    LPConfig c;
    c.n = get<std::int32_t>();
    c.es = get<std::int32_t>();
    c.rs = get<std::int32_t>();
    c.sf = std::bit_cast<double>(get<std::uint64_t>());
    try {
      c.validate();
    } catch (const std::invalid_argument& e) {
      raise(ArtifactErrorCode::kMalformed, e.what());
    }
    return c;
  }
};

/// Largest of the first `numel` codes of a stream, in one pass; the width
/// is a constant so packed_code_at's switch folds out of the loop.
template <int Bits>
std::uint32_t max_code(const std::vector<std::uint8_t>& stream,
                       std::int64_t numel) {
  const kernels::PackedCodesView v{stream.data(), 0, Bits, nullptr, 0};
  std::uint32_t top = 0;
  for (std::int64_t i = 0; i < numel; ++i) {
    top = std::max(top, kernels::packed_code_at(v, i));
  }
  return top;
}

}  // namespace

const char* to_string(ArtifactErrorCode code) {
  switch (code) {
    case ArtifactErrorCode::kNone: return "none";
    case ArtifactErrorCode::kIo: return "io";
    case ArtifactErrorCode::kBadMagic: return "bad-magic";
    case ArtifactErrorCode::kVersionSkew: return "version-skew";
    case ArtifactErrorCode::kTruncated: return "truncated";
    case ArtifactErrorCode::kChecksum: return "checksum";
    case ArtifactErrorCode::kMalformed: return "malformed";
    case ArtifactErrorCode::kLutMismatch: return "lut-mismatch";
    case ArtifactErrorCode::kModelMismatch: return "model-mismatch";
  }
  return "unknown";
}

void write_artifact(const std::string& path, const ServableModel& m) {
  const QuantizedModel& qm = m.snapshot();
  const std::size_t n = m.weight_configs().size();

  Writer body;
  const std::string& name = m.model().name();
  body.put<std::uint32_t>(static_cast<std::uint32_t>(name.size()));
  body.put_bytes(name.data(), name.size());
  body.put<std::uint64_t>(n);
  body.put<std::uint8_t>(m.act_configs().empty() ? 0 : 1);
  for (const LPConfig& c : m.weight_configs()) body.put_config(c);
  for (const LPConfig& c : m.act_configs()) body.put_config(c);

  // Distinct weight decode LUTs, in first-use slot order (deterministic),
  // deduplicated by instance — slots of one interned format share one LUT.
  std::vector<const DecodeTable*> luts;
  std::unordered_map<const DecodeTable*, std::size_t> lut_index;
  for (std::size_t s = 0; s < n; ++s) {
    const DecodeTable* lut = qm.codes()[s]->lut().get();
    if (lut_index.emplace(lut, luts.size()).second) luts.push_back(lut);
  }
  body.put<std::uint64_t>(luts.size());
  for (const DecodeTable* lut : luts) {
    body.put<std::uint64_t>(lut->size());
    for (const float v : *lut) {
      body.put<std::uint32_t>(std::bit_cast<std::uint32_t>(v));
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    const PackedCodes& codes = *qm.codes()[s];
    body.put<std::uint32_t>(static_cast<std::uint32_t>(codes.rank()));
    for (const std::int64_t d : codes.shape()) body.put<std::int64_t>(d);
    body.put<std::int32_t>(codes.code_bits());
    body.put<std::uint64_t>(lut_index.at(codes.lut().get()));
    const auto raw = codes.raw_bytes();
    body.put<std::uint64_t>(raw.size());
    body.put_bytes(raw.data(), raw.size());
  }

  Writer head;
  head.put_bytes(kMagic, sizeof(kMagic));
  head.put<std::uint32_t>(kArtifactVersion);
  head.put<std::uint64_t>(fnv1a64(body.out));
  head.put<std::uint64_t>(body.out.size());

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  LP_CHECK_MSG(f.good(), "cannot open artifact for writing: " << path);
  f.write(reinterpret_cast<const char*>(head.out.data()),
          static_cast<std::streamsize>(head.out.size()));
  f.write(reinterpret_cast<const char*>(body.out.data()),
          static_cast<std::streamsize>(body.out.size()));
  f.flush();
  LP_CHECK_MSG(f.good(), "artifact write failed: " << path);
}

Artifact read_artifact(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kIo, f.good(),
                    "cannot open artifact: " << path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(raw.data()), size);
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kIo, f.good(),
                    "artifact read failed: " << path);
  // Chaos harness: pretend the file system handed us a short file, so the
  // truncation rejection (and any cold-start fallback above it) runs.
  if (LP_FAULT_POINT("artifact.read.truncate") && raw.size() > 1) {
    raw.resize(raw.size() / 2);
  }

  constexpr std::size_t kHeader = sizeof(kMagic) + sizeof(std::uint32_t) +
                                  2 * sizeof(std::uint64_t);
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kTruncated, raw.size() >= kHeader,
                    "artifact smaller than its header: " << path);
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kBadMagic,
                    std::memcmp(raw.data(), kMagic, sizeof(kMagic)) == 0,
                    "not an LP artifact: " << path);
  Reader head{std::span<const std::uint8_t>(raw).subspan(sizeof(kMagic)), 0};
  const auto version = head.get<std::uint32_t>();
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kVersionSkew,
                    version == kArtifactVersion,
                    "on-disk format version " << version << " != supported "
                                              << kArtifactVersion);
  const auto checksum = head.get<std::uint64_t>();
  const auto body_size = head.get<std::uint64_t>();
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kTruncated,
                    raw.size() == kHeader + body_size,
                    "size field says " << body_size << " body bytes, file has "
                                       << raw.size() - kHeader);
  const auto body_bytes = std::span<const std::uint8_t>(raw).subspan(kHeader);
  // Chaos harness: force the checksum comparison down its failure arm.
  const bool checksum_ok = fnv1a64(body_bytes) == checksum &&
                           !LP_FAULT_POINT("artifact.read.checksum");
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kChecksum, checksum_ok,
                    "body checksum mismatch (corrupt file): " << path);

  Reader r{body_bytes, 0};
  Artifact art;
  art.format_version = version;
  const auto name_len = r.get<std::uint32_t>();
  const auto name = r.get_bytes(name_len);
  art.model_name.assign(reinterpret_cast<const char*>(name.data()),
                        name.size());
  const auto num_slots = r.get<std::uint64_t>();
  // A slot takes at least its weight config and its fixed slot fields.
  r.check_count(num_slots, kConfigBytes + kSlotFieldBytes, "slot");
  const bool has_acts = r.get<std::uint8_t>() != 0;
  art.weight_cfgs.reserve(num_slots);
  for (std::uint64_t s = 0; s < num_slots; ++s) {
    art.weight_cfgs.push_back(r.get_config());
  }
  if (has_acts) {
    art.act_cfgs.reserve(num_slots);
    for (std::uint64_t s = 0; s < num_slots; ++s) {
      art.act_cfgs.push_back(r.get_config());
    }
  }

  const auto num_luts = r.get<std::uint64_t>();
  r.check_count(num_luts, sizeof(std::uint64_t), "LUT");
  art.luts.reserve(num_luts);
  for (std::uint64_t l = 0; l < num_luts; ++l) {
    const auto lut_size = r.get<std::uint64_t>();
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      lut_size <= PackedCodes::kMaxLutSize,
                      "LUT larger than the packed path serves");
    DecodeTable lut;
    lut.reserve(lut_size);
    for (std::uint64_t i = 0; i < lut_size; ++i) {
      lut.push_back(std::bit_cast<float>(r.get<std::uint32_t>()));
    }
    art.luts.push_back(std::move(lut));
  }

  art.slots.reserve(num_slots);
  for (std::uint64_t s = 0; s < num_slots; ++s) {
    ArtifactSlot slot;
    const auto rank = r.get<std::uint32_t>();
    std::int64_t numel = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      const auto dim = r.get<std::int64_t>();
      const bool overflow = __builtin_mul_overflow(numel, dim, &numel);
      LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed, dim >= 0 && !overflow,
                        "negative or overflowing dimension at slot " << s);
      slot.shape.push_back(dim);
    }
    slot.code_bits = r.get<std::int32_t>();
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      slot.code_bits == 4 || slot.code_bits == 8 ||
                          slot.code_bits == 16,
                      "unsupported code width " << slot.code_bits);
    slot.lut_index = r.get<std::uint64_t>();
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      slot.lut_index < art.luts.size(),
                      "LUT index out of range at slot " << s);
    const auto nbytes = r.get<std::uint64_t>();
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      nbytes ==
                          PackedCodes::stream_bytes(numel, slot.code_bits),
                      "code stream size mismatch at slot " << s);
    const auto bytes = r.get_bytes(nbytes);
    slot.codes.assign(bytes.begin(), bytes.end());
    // The kernels index the LUT with these codes unchecked, and the
    // checksum is no MAC: a re-sealed file reaches here.  The width must
    // be the one pack() picks for the LUT (the SIMD 4-bit decode holds at
    // most 16 entries), and every code must index the LUT.
    const std::size_t lut_size = art.luts[slot.lut_index].size();
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      slot.code_bits == PackedCodes::bits_for(lut_size),
                      "code width " << slot.code_bits << " does not fit its "
                                    << lut_size << "-entry LUT at slot "
                                    << s);
    const std::uint32_t top =
        slot.code_bits == 4   ? max_code<4>(slot.codes, numel)
        : slot.code_bits == 8 ? max_code<8>(slot.codes, numel)
                              : max_code<16>(slot.codes, numel);
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed,
                      numel == 0 || top < lut_size,
                      "code " << top << " past the end of its " << lut_size
                              << "-entry LUT at slot " << s);
    art.slots.push_back(std::move(slot));
  }
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kMalformed, r.pos == r.in.size(),
                    "trailing bytes after last slot");
  return art;
}

}  // namespace lp::runtime
