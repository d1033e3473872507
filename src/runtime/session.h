// InferenceSession — the quantized-inference runtime's control plane.
//
// The seed-era flow ("quantize then run once") rebuilt every format table
// and re-quantized every weight tensor for each quantized forward.  That
// is the dominant cost of an LPQ generation: a genetic-search population
// shares most per-layer genes with the best parent, so nearly all of that
// work recomputes bytes the previous evaluation already produced.  The
// session separates format conversion from the inference datapath the way
// the paper's LPA (and PDPU / Deep Positron) do in hardware:
//
//   * a FormatCache interns one LPFormat (code table + quant index) per
//     distinct LPConfig,
//   * a WeightCodeCache keeps packed weight codes (n-bit indices plus one
//     decode LUT per format — see core/packed_codes.h) keyed by
//     (slot, format) under a byte budget, 4-8x denser than the float
//     tensors they decode to; the GEMM kernels expand them in-datapath,
//   * prepare()/prepare_all() snapshot candidates into QuantizedModels,
//     quantizing only (slot, format) pairs never seen before,
//   * set_formats()/run() serve batched inference against the current
//     snapshot — changing one layer's format gene re-quantizes only that
//     layer.
//
// Multi-tenant serving split: the session is the *writer* side only.  What
// concurrent callers execute is an immutable, refcounted ServableModel
// (runtime/servable_model.h) published through an RCU-style atomic slot —
// set_formats() builds the snapshot off to the side and publishes it in
// one atomic swap, so LPQ can hot-swap a better config mid-serve while
// in-flight batches finish on the snapshot they acquired.  Prepare calls
// from any thread serialize behind an internal mutex; cache reads
// (stats(), servable(), publisher().acquire()) are safe concurrently with
// a prepare (the cache's sharded locks and atomic counters — see
// weight_cache.h — cover the overlap).  save_artifact()/load_artifact()
// persist the published snapshot as a versioned, checksummed file
// (runtime/artifact.h) so a server cold-starts without re-quantizing.
//
// Determinism contract: all cache mutation happens in the (serialized)
// prepare phase; the parallel work inside it (building missing format
// tables, quantizing missing weight tensors) writes disjoint per-entry
// slots in an order fixed by the request list, never by thread
// scheduling.  Snapshots are therefore bit-identical to the uncached
// Model::forward_quantized path for any LP_THREADS / LP_KERNEL
// combination (tests/test_runtime.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/artifact.h"
#include "runtime/quantized_model.h"
#include "runtime/servable_model.h"
#include "runtime/weight_cache.h"
#include "util/thread_annotations.h"

namespace lp::runtime {

/// Knobs for InferenceSession::cold_start.
struct ColdStartOptions {
  /// When the artifact is unusable, fall back to quantizing from the given
  /// configs (slow but alive) instead of reporting a dead start.
  bool fallback_requantize = true;
};

/// What a cold start did.  Exactly one of `loaded` / `requantized` is true
/// on success; both false means the artifact failed and fallback was off
/// (or itself not attempted) — `error` then says why the artifact was
/// rejected.
struct ColdStartResult {
  bool loaded = false;       ///< artifact accepted, no re-quantization ran
  bool requantized = false;  ///< fell back to quantizing from configs
  std::uint64_t version = 0; ///< published snapshot version (if any)
  ArtifactErrorCode error = ArtifactErrorCode::kNone;
  std::string error_message;
};

struct SessionOptions {
  /// Byte budget for cached quantized weight copies.
  std::size_t weight_cache_bytes = WeightCodeCache::kDefaultBudgetBytes;
  /// Entry cap for interned formats.  sf is continuous, so a long search
  /// interns a fresh format for almost every new gene; the cap bounds that
  /// growth with the same generational sweep as the weight cache.
  std::size_t format_cache_entries = 4096;
  /// Thread inter-layer activations as packed codes (bit-identical to the
  /// float path; edges whose activation format has no enumerable code
  /// table fall back to float per-edge).  Off = every edge stays float.
  bool coded_activations = true;
  /// Multiply semantics for the coded-B^T GEMMs in every snapshot this
  /// session assembles.  Defaults to the LP_APPROX env selection (exact
  /// unless LP_APPROX=plam) so serving processes opt in without a rebuild.
  kernels::ApproxMode approx = kernels::approx_mode();
};

class InferenceSession {
 public:
  /// The model must outlive the session.
  explicit InferenceSession(const nn::Model& model, SessionOptions opts = {});

  /// Snapshot one assignment.  `weight_cfgs`/`act_cfgs` are per-slot
  /// (act_cfgs may be empty = no activation quantization).  Quantizes only
  /// layers whose (slot, weight format) pair is not already cached.
  [[nodiscard]] QuantizedModel prepare(std::span<const LPConfig> weight_cfgs,
                                       std::span<const LPConfig> act_cfgs);

  /// Population variant: snapshot many assignments at once.  All missing
  /// (slot, format) pairs across the population are deduplicated and
  /// quantized in a single parallel pass, then every candidate snapshot is
  /// assembled from the cache — candidates sharing layer genes share the
  /// quantized bytes.  One generation tick for the whole batch.
  [[nodiscard]] std::vector<QuantizedModel> prepare_all(
      std::span<const std::vector<LPConfig>> weight_cfgs,
      std::span<const std::vector<LPConfig>> act_cfgs);

  /// Serving API: make `weight_cfgs`/`act_cfgs` the session's current
  /// assignment and atomically publish it as a new ServableModel version.
  /// Only layers whose format gene changed are re-quantized.  Safe to call
  /// while serving threads execute the previous version (they finish on
  /// the snapshot they acquired — the hot-swap contract).
  void set_formats(std::span<const LPConfig> weight_cfgs,
                   std::span<const LPConfig> act_cfgs);

  /// Batched forward through the current published snapshot (set_formats
  /// first).  The batch rides dim 0; per-layer activation formats are
  /// applied in one quantize_batch pass over each node's whole batched
  /// output.  With coded activations on (the default), inter-layer
  /// activations flow as packed codes; `act_traffic` (optional) receives
  /// the byte counts.  Safe concurrently with a hot-swap (the call
  /// executes on the snapshot it acquires).
  [[nodiscard]] nn::ForwardResult run(const Tensor& batch,
                                      bool capture_pooled = false,
                                      nn::ActTraffic* act_traffic = nullptr) const;

  /// Multi-request variant: stacks equal-shaped inputs (samples or
  /// mini-batches) into one batch and executes a single fused forward, so
  /// per-layer table lookups and activation quantization amortize across
  /// every request.  Returns the stacked logits ([total_batch, classes]).
  [[nodiscard]] Tensor run_batched(std::span<const Tensor> inputs) const;

  /// The current snapshot (set_formats first).  Legacy single-caller
  /// accessor: the reference is valid until the next set_formats /
  /// load_artifact; concurrent serving must hold a servable() reference
  /// instead.
  [[nodiscard]] const QuantizedModel& current() const;

  /// Strong reference to the published ServableModel (null before the
  /// first set_formats).  Thread-safe.
  [[nodiscard]] ServablePtr servable() const { return publisher_.acquire(); }

  /// The publish point serving layers subscribe to (serve::Server holds a
  /// pointer to this and acquires per batch).  Thread-safe.
  [[nodiscard]] const SnapshotPublisher& publisher() const {
    return publisher_;
  }

  /// Serialize the current published snapshot to `path` (versioned,
  /// checksummed — see runtime/artifact.h).  set_formats first.
  void save_artifact(const std::string& path) const;

  /// Cold-start path: seed the caches from a serialized artifact and
  /// publish its assignment as the current snapshot — no weight is
  /// re-quantized (stats().misses stays 0 for the load).  The artifact
  /// must match this session's model (name and per-slot weight shapes),
  /// and its stored decode LUTs must equal the tables this build derives
  /// for the same configs; any mismatch throws ArtifactLoadError with the
  /// precise ArtifactErrorCode.  Returns the published version stamp.
  std::uint64_t load_artifact(const std::string& path);

  /// Supervised cold start: try load_artifact(path); if the artifact is
  /// rejected for any reason and `opts.fallback_requantize` is set,
  /// degrade to a from-scratch set_formats over the caller's configs —
  /// slow instead of dead.  The fallback publishes exactly what a fresh
  /// quantization of the same configs would (bit-identical logits).
  /// Never throws ArtifactLoadError; the result carries the rejection.
  ColdStartResult cold_start(const std::string& path,
                             std::span<const LPConfig> weight_cfgs,
                             std::span<const LPConfig> act_cfgs,
                             const ColdStartOptions& opts = {});

  [[nodiscard]] const nn::Model& model() const { return *model_; }
  /// Weight-cache counter snapshot (hits/misses/evictions/bytes).
  /// Lock-free; safe concurrently with a prepare pass.
  [[nodiscard]] CacheStats stats() const { return weights_.stats(); }
  /// Number of distinct interned formats (weight + activation).
  [[nodiscard]] std::size_t format_count() const { return formats_.size(); }

 private:
  /// One candidate's resolved per-slot assignment during prepare.
  [[nodiscard]] QuantizedModel assemble(std::span<const LPConfig> weight_cfgs,
                                        std::span<const LPConfig> act_cfgs)
      LP_REQUIRES(prepare_mu_);
  void prepare_missing(std::span<const std::vector<LPConfig>> weight_cfgs,
                       std::span<const std::vector<LPConfig>> act_cfgs)
      LP_REQUIRES(prepare_mu_);
  [[nodiscard]] QuantizedModel prepare_locked(
      std::span<const LPConfig> weight_cfgs,
      std::span<const LPConfig> act_cfgs) LP_REQUIRES(prepare_mu_);
  /// Wrap a snapshot + its assignment into the next ServableModel version
  /// and publish it.
  void publish_locked(QuantizedModel qm,
                      std::span<const LPConfig> weight_cfgs,
                      std::span<const LPConfig> act_cfgs)
      LP_REQUIRES(prepare_mu_);

  const nn::Model* model_;
  SessionOptions opts_;
  /// Serializes every cache-mutating phase (prepare, set_formats,
  /// load_artifact) so concurrent control-plane callers are safe; the
  /// read paths never take it.
  Mutex prepare_mu_;
  /// Phase-confined, not mutex-guarded: every mutation happens inside the
  /// *_locked methods above (LP_REQUIRES(prepare_mu_)), but the parallel
  /// format-build/quantize passes read it lock-free from pool threads —
  /// a confinement the analysis cannot model, so no LP_GUARDED_BY here.
  /// The TSan legs and the prepare-phase contract in format_cache.h cover
  /// it.
  FormatCache formats_;
  WeightCodeCache weights_;
  SnapshotPublisher publisher_;
  std::uint64_t publish_seq_ LP_GUARDED_BY(prepare_mu_) = 0;
};

/// Stack inputs along dim 0 ([...] -> [sum_N, ...]).  Dim 0 of each input
/// is its batch size; trailing dims must match.  An input whose rank is
/// one less than the highest rank present is treated as a single sample
/// and contributes one row.  Note a uniform-rank list is necessarily
/// interpreted as batches — when stacking bare samples, shape them
/// [1, ...] (or include one batch so the sample rank is distinguishable).
/// Exposed for tests.
[[nodiscard]] Tensor stack_batches(std::span<const Tensor> inputs);

}  // namespace lp::runtime
