#include "runtime/session.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "runtime/artifact.h"
#include "tensor/ops.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lp::runtime {
namespace {

[[noreturn]] void raise_artifact(ArtifactErrorCode code,
                                 const std::string& msg) {
  std::ostringstream os;
  os << "artifact load failed [" << to_string(code) << "]: " << msg;
  throw ArtifactLoadError(code, os.str());
}

/// LP_CHECK_MSG analogue for the load path's model/LUT cross-checks.
#define LP_ARTIFACT_CHECK(code, cond, msg)      \
  do {                                          \
    if (!(cond)) {                              \
      std::ostringstream lp_art_os_;            \
      lp_art_os_ << msg;                        \
      raise_artifact((code), lp_art_os_.str()); \
    }                                           \
  } while (false)

/// (slot, format) pair key for the per-prepare missing set.
struct PairKey {
  std::size_t slot = 0;
  FormatKey fmt;
  friend bool operator==(const PairKey&, const PairKey&) = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return FormatKeyHash{}(k.fmt) ^ (k.slot * 0x9e3779b97f4a7c15ULL);
  }
};

using MissingSet = std::unordered_set<PairKey, PairKeyHash>;

}  // namespace

InferenceSession::InferenceSession(const nn::Model& model, SessionOptions opts)
    : model_(&model), opts_(opts), weights_(opts.weight_cache_bytes) {
  LP_CHECK(model_->num_slots() > 0);
}

void InferenceSession::prepare_missing(
    std::span<const std::vector<LPConfig>> weight_cfgs,
    std::span<const std::vector<LPConfig>> act_cfgs) {
  const std::size_t n = model_->num_slots();

  // Distinct formats and (slot, weight format) pairs not yet cached, in
  // first-appearance order (candidate-major, slot-minor) — the work lists
  // for the parallel build below.  Order is a pure function of the request,
  // so the cache contents stay deterministic for any pool size.
  std::vector<LPConfig> missing_fmts;
  MissingSet seen_fmts;
  auto note_format = [&](const LPConfig& cfg) {
    if (formats_.find(cfg) != nullptr) return;
    if (seen_fmts.insert(PairKey{0, FormatKey::of(cfg)}).second) {
      missing_fmts.push_back(cfg);
    }
  };
  std::vector<std::pair<std::size_t, LPConfig>> missing_weights;
  MissingSet seen_pairs;
  std::vector<LPConfig> act_fmt_list;  ///< distinct act configs, request order
  MissingSet seen_acts;
  for (std::size_t c = 0; c < weight_cfgs.size(); ++c) {
    LP_CHECK_MSG(weight_cfgs[c].size() == n,
                 "candidate " << c << " has " << weight_cfgs[c].size()
                              << " layer configs but model has " << n
                              << " slots");
    for (std::size_t s = 0; s < n; ++s) {
      const LPConfig& w = weight_cfgs[c][s];
      note_format(w);
      if (weights_.contains(s, w)) continue;
      if (seen_pairs.insert(PairKey{s, FormatKey::of(w)}).second) {
        missing_weights.emplace_back(s, w);
      }
    }
    if (c < act_cfgs.size() && !act_cfgs[c].empty()) {
      LP_CHECK(act_cfgs[c].size() == n);
      for (const LPConfig& a : act_cfgs[c]) {
        note_format(a);
        if (seen_acts.insert(PairKey{0, FormatKey::of(a)}).second) {
          act_fmt_list.push_back(a);
        }
      }
    }
  }

  ThreadPool& pool = default_pool();

  // Build missing format tables in parallel (each entry writes only its
  // own slot), then intern serially.
  std::vector<std::shared_ptr<const LPFormat>> built(missing_fmts.size());
  pool.run_chunks(static_cast<std::int64_t>(missing_fmts.size()),
                  [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    built[u] = std::make_shared<const LPFormat>(missing_fmts[u]);
                  });
  for (std::size_t i = 0; i < missing_fmts.size(); ++i) {
    formats_.put(missing_fmts[i], std::move(built[i]));
  }

  // Intern activation decode LUTs (serial — cache mutation) so every
  // assemble() below is a pure cache hit.  Formats without an enumerable
  // code table negative-cache a null record; their edges stay float.
  if (opts_.coded_activations) {
    for (const LPConfig& a : act_fmt_list) {
      (void)weights_.act_decode_lut(a, *formats_.find(a));
    }
  }

  // Intern decode LUTs for the missing weight formats (serial — cache
  // mutation) so the parallel pass below only reads them.
  std::vector<std::shared_ptr<const DecodeTable>> pair_luts(
      missing_weights.size());
  for (std::size_t i = 0; i < missing_weights.size(); ++i) {
    const LPConfig& cfg = missing_weights[i].second;
    pair_luts[i] = weights_.decode_lut(cfg, *formats_.find(cfg));
  }

  // Quantize missing weight payloads in parallel.  The packed path emits
  // nearest-value code indices straight from the FP weights — the same
  // indices whose LUT entries quantize_batch writes — so decoding the
  // cached codes reproduces the float flow bit-for-bit; slots the packed
  // path cannot serve (no enumerated code table, or non-finite weight
  // elements) copy and quantize a float tensor exactly as before.  The
  // format and LUT maps are read-only here (built above).
  std::vector<WeightPayload> payloads(missing_weights.size());
  const auto& slots = model_->slot_list();
  pool.run_chunks(static_cast<std::int64_t>(missing_weights.size()),
                  [&](std::int64_t i) {
                    const auto u = static_cast<std::size_t>(i);
                    const auto& [slot, cfg] = missing_weights[u];
                    const std::shared_ptr<const LPFormat> fmt = formats_.find(cfg);
                    const Tensor& w = slots[slot]->weight;
                    if (pair_luts[u] != nullptr) {
                      auto packed =
                          PackedCodes::pack(w.data(), w.shape(), *fmt,
                                            pair_luts[u]);
                      if (packed.has_value()) {
                        payloads[u].codes = std::make_shared<const PackedCodes>(
                            std::move(*packed));
                        return;
                      }
                    }
                    auto copy = std::make_shared<Tensor>(w);
                    quantize_inplace(*copy, *fmt);
                    payloads[u].floats = std::move(copy);
                  });
  for (std::size_t i = 0; i < missing_weights.size(); ++i) {
    weights_.insert(missing_weights[i].first, missing_weights[i].second,
                    std::move(payloads[i]));
  }
}

QuantizedModel InferenceSession::assemble(std::span<const LPConfig> weight_cfgs,
                                          std::span<const LPConfig> act_cfgs) {
  const std::size_t n = model_->num_slots();
  LP_CHECK(weight_cfgs.size() == n);
  LP_CHECK(act_cfgs.empty() || act_cfgs.size() == n);

  QuantizedModel qm;
  qm.model_ = model_;
  qm.codes_.resize(n);
  qm.weights_.resize(n);
  qm.weight_fmts_.resize(n);
  qm.act_fmts_.resize(n);
  const bool coded_acts = opts_.coded_activations && !act_cfgs.empty();
  if (coded_acts) qm.act_coding_.resize(n);
  qm.approx_ = opts_.approx;
  for (std::size_t s = 0; s < n; ++s) {
    // get() (not find()) so assembly stamps format recency for the
    // generational sweep; this phase is serial, so stamping is safe.
    qm.weight_fmts_[s] = formats_.get(weight_cfgs[s]);
    WeightPayload payload = weights_.find(s, weight_cfgs[s]);
    LP_CHECK_MSG(!payload.empty(), "slot " << s << " not prepared");
    qm.codes_[s] = std::move(payload.codes);
    qm.weights_[s] = std::move(payload.floats);
    if (!act_cfgs.empty()) {
      qm.act_fmts_[s] = formats_.get(act_cfgs[s]);
      if (coded_acts) {
        // The qidx points into the interned LPFormat and the LUT into the
        // cache's activation table — both shared-owned by the snapshot.
        const LPFormat& f = *qm.act_fmts_[s];
        std::shared_ptr<const DecodeTable> lut =
            weights_.act_decode_lut(act_cfgs[s], f);
        const QuantIndex* qidx = f.quant_index();
        if (lut != nullptr && qidx != nullptr) {
          const int bits = PackedCodes::bits_for(lut->size(), /*min_bits=*/8);
          qm.act_coding_[s] = nn::ActCoding{qidx, std::move(lut), bits};
        }
      }
    }
  }
  return qm;
}

QuantizedModel InferenceSession::prepare_locked(
    std::span<const LPConfig> weight_cfgs,
    std::span<const LPConfig> act_cfgs) {
  const std::vector<std::vector<LPConfig>> w{
      std::vector<LPConfig>(weight_cfgs.begin(), weight_cfgs.end())};
  const std::vector<std::vector<LPConfig>> a{
      std::vector<LPConfig>(act_cfgs.begin(), act_cfgs.end())};
  prepare_missing(w, a);
  QuantizedModel qm = assemble(weight_cfgs, act_cfgs);
  weights_.next_generation();
  formats_.next_generation(opts_.format_cache_entries);
  return qm;
}

QuantizedModel InferenceSession::prepare(std::span<const LPConfig> weight_cfgs,
                                         std::span<const LPConfig> act_cfgs) {
  const MutexLock lk(prepare_mu_);
  return prepare_locked(weight_cfgs, act_cfgs);
}

std::vector<QuantizedModel> InferenceSession::prepare_all(
    std::span<const std::vector<LPConfig>> weight_cfgs,
    std::span<const std::vector<LPConfig>> act_cfgs) {
  const MutexLock lk(prepare_mu_);
  prepare_missing(weight_cfgs, act_cfgs);
  std::vector<QuantizedModel> out;
  out.reserve(weight_cfgs.size());
  for (std::size_t c = 0; c < weight_cfgs.size(); ++c) {
    const std::span<const LPConfig> acts =
        c < act_cfgs.size() ? std::span<const LPConfig>(act_cfgs[c])
                            : std::span<const LPConfig>();
    out.push_back(assemble(weight_cfgs[c], acts));
  }
  weights_.next_generation();
  formats_.next_generation(opts_.format_cache_entries);
  return out;
}

void InferenceSession::publish_locked(QuantizedModel qm,
                                      std::span<const LPConfig> weight_cfgs,
                                      std::span<const LPConfig> act_cfgs) {
  // Chaos harness: fault before the sequence increment, so a failed
  // publish never consumes a version number — the retry that succeeds
  // publishes the next consecutive version and serving threads keep the
  // previous snapshot throughout.
  if (LP_FAULT_POINT("snapshot.publish")) {
    throw fault::InjectedFault("snapshot.publish");
  }
  publisher_.publish(std::make_shared<const ServableModel>(
      std::move(qm),
      std::vector<LPConfig>(weight_cfgs.begin(), weight_cfgs.end()),
      std::vector<LPConfig>(act_cfgs.begin(), act_cfgs.end()),
      ++publish_seq_));
}

void InferenceSession::set_formats(std::span<const LPConfig> weight_cfgs,
                                   std::span<const LPConfig> act_cfgs) {
  const MutexLock lk(prepare_mu_);
  publish_locked(prepare_locked(weight_cfgs, act_cfgs), weight_cfgs,
                 act_cfgs);
}

const QuantizedModel& InferenceSession::current() const {
  const ServablePtr sp = publisher_.acquire();
  LP_CHECK_MSG(sp != nullptr, "call set_formats() first");
  // The publisher slot keeps the servable alive until the next publish —
  // the documented lifetime of this reference.
  return sp->snapshot();
}

nn::ForwardResult InferenceSession::run(const Tensor& batch,
                                        bool capture_pooled,
                                        nn::ActTraffic* act_traffic) const {
  const ServablePtr sp = publisher_.acquire();
  LP_CHECK_MSG(sp != nullptr, "call set_formats() first");
  return sp->run(batch, capture_pooled, act_traffic);
}

Tensor InferenceSession::run_batched(std::span<const Tensor> inputs) const {
  const ServablePtr sp = publisher_.acquire();
  LP_CHECK_MSG(sp != nullptr, "call set_formats() first");
  return sp->run(stack_batches(inputs)).logits;
}

void InferenceSession::save_artifact(const std::string& path) const {
  const ServablePtr sp = publisher_.acquire();
  LP_CHECK_MSG(sp != nullptr, "call set_formats() first");
  write_artifact(path, *sp);
}

std::uint64_t InferenceSession::load_artifact(const std::string& path) {
  Artifact art = read_artifact(path);
  const std::size_t n = model_->num_slots();
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kModelMismatch,
                    art.model_name == model_->name(),
                    "built for model '" << art.model_name << "', loaded into '"
                                        << model_->name() << "'");
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kModelMismatch,
                    art.weight_cfgs.size() == n,
                    "has " << art.weight_cfgs.size()
                           << " slots but model has " << n);
  LP_ARTIFACT_CHECK(ArtifactErrorCode::kModelMismatch, art.slots.size() == n,
                    "slot payload count " << art.slots.size()
                                          << " != model slots " << n);
  const auto& slots = model_->slot_list();

  const MutexLock lk(prepare_mu_);
  // Which stored LUTs have been bit-compared against this build's tables.
  std::vector<bool> lut_verified(art.luts.size(), false);
  for (std::size_t s = 0; s < n; ++s) {
    const LPConfig& cfg = art.weight_cfgs[s];
    ArtifactSlot& as = art.slots[s];
    LP_ARTIFACT_CHECK(ArtifactErrorCode::kModelMismatch,
                      as.shape == slots[s]->weight.shape(),
                      "slot " << s << " shape mismatch against model '"
                              << model_->name() << "'");
    if (weights_.contains(s, cfg)) continue;  // keep the cached bits
    const std::shared_ptr<const LPFormat> fmt = formats_.get(cfg);
    WeightPayload payload;
    if (as.packed) {
      std::shared_ptr<const DecodeTable> lut = weights_.decode_lut(cfg, *fmt);
      LP_ARTIFACT_CHECK(ArtifactErrorCode::kLutMismatch, lut != nullptr,
                        "slot " << s
                                << " is packed but the format has no decode "
                                   "table in this build");
      if (!lut_verified[as.lut_index]) {
        // The artifact's table must be bit-equal to the one this build
        // derives for the config — otherwise the stored codes would decode
        // to different values than a fresh quantization.
        const DecodeTable& stored = art.luts[as.lut_index];
        LP_ARTIFACT_CHECK(ArtifactErrorCode::kLutMismatch,
                          stored.size() == lut->size(),
                          "decode LUT size mismatch (format tables changed "
                          "since the artifact was written)");
        for (std::size_t i = 0; i < stored.size(); ++i) {
          LP_ARTIFACT_CHECK(ArtifactErrorCode::kLutMismatch,
                            std::bit_cast<std::uint32_t>(stored[i]) ==
                                std::bit_cast<std::uint32_t>((*lut)[i]),
                            "decode LUT entry " << i
                                << " mismatch (format tables changed since "
                                   "the artifact was written)");
        }
        lut_verified[as.lut_index] = true;
      }
      payload.codes = std::make_shared<const PackedCodes>(
          PackedCodes::from_codes(std::move(as.codes), as.shape, as.code_bits,
                                  std::move(lut)));
    } else {
      payload.floats = std::make_shared<const Tensor>(
          Tensor(as.shape, std::move(as.floats)));
    }
    weights_.insert(s, cfg, std::move(payload), /*count_miss=*/false);
  }

  // Assemble through the normal prepare path — every (slot, format) pair
  // is now a pure cache hit, so no weight quantization runs — and publish.
  publish_locked(prepare_locked(art.weight_cfgs, art.act_cfgs),
                 art.weight_cfgs, art.act_cfgs);
  return publish_seq_;
}

ColdStartResult InferenceSession::cold_start(
    const std::string& path, std::span<const LPConfig> weight_cfgs,
    std::span<const LPConfig> act_cfgs, const ColdStartOptions& opts) {
  ColdStartResult res;
  try {
    res.version = load_artifact(path);
    res.loaded = true;
    return res;
  } catch (const ArtifactLoadError& e) {
    res.error = e.code();
    res.error_message = e.what();
  }
  if (!opts.fallback_requantize) return res;
  // Degraded path: quantize everything from the caller's configs.  The
  // result is what a fresh set_formats publishes — bit-identical to a
  // never-had-an-artifact start; only the cold-start latency differs.
  set_formats(weight_cfgs, act_cfgs);
  res.requantized = true;
  const MutexLock lk(prepare_mu_);
  res.version = publish_seq_;
  return res;
}

Tensor stack_batches(std::span<const Tensor> inputs) {
  LP_CHECK_MSG(!inputs.empty(), "stack_batches over no inputs");
  // Target rank = the highest rank present; rank-(r-1) inputs are single
  // samples and contribute one batch row, rank-r inputs are batches and
  // contribute dim(0) rows.
  std::size_t rank = 0;
  for (const Tensor& t : inputs) rank = std::max(rank, t.rank());
  LP_CHECK(rank >= 1);

  // Non-batch dims from the first input (its own dims if it is a sample).
  const Tensor& first = inputs[0];
  const std::size_t skip0 = first.rank() == rank ? 1 : 0;
  std::vector<std::int64_t> tail(first.shape().begin() +
                                     static_cast<std::ptrdiff_t>(skip0),
                                 first.shape().end());

  std::int64_t total = 0;
  for (const Tensor& t : inputs) {
    const bool sample = t.rank() + 1 == rank;
    LP_CHECK_MSG(sample || t.rank() == rank, "stack_batches rank mismatch");
    for (std::size_t d = 0; d < tail.size(); ++d) {
      LP_CHECK_MSG(t.dim(d + (sample ? 0 : 1)) == tail[d],
                   "stack_batches shape mismatch");
    }
    total += sample ? 1 : t.dim(0);
  }

  std::vector<std::int64_t> shape;
  shape.reserve(rank);
  shape.push_back(total);
  shape.insert(shape.end(), tail.begin(), tail.end());
  Tensor out(std::move(shape));
  float* dst = out.raw();
  for (const Tensor& t : inputs) {
    std::copy_n(t.raw(), t.numel(), dst);
    dst += t.numel();
  }
  return out;
}

}  // namespace lp::runtime
