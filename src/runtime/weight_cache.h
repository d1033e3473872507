// Weight-code cache: packed quantized weight payloads keyed by
// (slot, format).
//
// Quantizing a layer's weights — one full quantize_batch pass over the
// weight tensor — is the dominant cost of an LPQ fitness evaluation once
// GEMM is SIMD-dispatched.  A GA generation re-evaluates candidates that
// share most of their per-layer genes with the current best parent, so the
// same (slot, format) pair is requested over and over.  This cache keeps
// each quantized copy alive as a shared payload; hits are pointer copies.
//
// Entries are PackedCodes — n-bit code indices (bit-packed for 4-bit) plus
// one decode LUT shared per format — exactly what the paper's accelerator
// keeps in SRAM, so the same byte budget holds 4-8x more (slot, format)
// pairs than the float tensors it used to store.  Every weight tensor
// packs: a non-finite element takes its LUT's NaN code.  stats() reports
// physical bytes (codes + LUTs — the LUTs are charged so many live formats
// cannot silently overshoot the budget), the float32-equivalent logical
// bytes, and the LUT share.
//
// Eviction is generational LRU under a byte budget: every prepare pass on
// the owning session advances a tick, entries remember the last tick that
// touched them, and the sweep drops oldest ticks first (ties broken by
// slot then format key, so eviction order never depends on hash-map
// iteration order).  Entries touched in the current tick are never evicted
// — a single generation's working set may exceed the budget, but reuse
// within the generation is always preserved.  A decode LUT lives as long
// as any entry of its format (dropping with the last one); snapshots hold
// shared ownership, so eviction never invalidates a live QuantizedModel.
//
// Concurrency: the entry map is sharded by slot, each shard behind its own
// mutex, and every counter is a relaxed atomic — so readers (find /
// contains / stats) are safe concurrently with each other and with a
// prepare pass mutating the cache.  stats() is lock-free: it snapshots the
// counters without touching any shard.  What stays single-writer is the
// *compound* prepare sequence (the contains -> quantize -> insert dance
// and the eviction sweep): InferenceSession serializes prepares behind its
// own mutex, which also keeps eviction order — and therefore the set of
// survivors — a pure function of the request history.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>

#include "core/packed_codes.h"
#include "runtime/format_cache.h"
#include "util/thread_annotations.h"

namespace lp::runtime {

/// A point-in-time snapshot of the cache counters (plain values — safe to
/// copy and compare).  Taken lock-free from the relaxed atomics, so a
/// snapshot racing a prepare pass may be mid-update between fields; each
/// individual field is always a value the counter actually held.
struct CacheStats {
  std::uint64_t hits = 0;        ///< lookups served from the cache
  std::uint64_t misses = 0;      ///< lookups that required quantization
  std::uint64_t evictions = 0;   ///< entries dropped by the byte budget
  std::size_t entries = 0;       ///< live entries
  std::size_t bytes = 0;         ///< live physical bytes: codes + decode LUTs
  std::size_t logical_bytes = 0; ///< float32-equivalent bytes of live entries
  std::size_t lut_bytes = 0;     ///< portion of `bytes` held by weight decode LUTs
  std::size_t act_lut_bytes = 0; ///< portion of `bytes` held by activation decode LUTs
};

class WeightCodeCache {
 public:
  /// Default budget: 256 MB of cached weight payloads.  Packed codes make
  /// this hold 4-8x more (slot, format) pairs than float storage did.
  static constexpr std::size_t kDefaultBudgetBytes = 256U << 20;

  /// Entry-map shards; slot s lives in shard s % kShards.
  static constexpr std::size_t kShards = 8;

  explicit WeightCodeCache(std::size_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}

  /// Cached codes for (slot, cfg), or null.  A hit marks the
  /// entry as used in the current tick and counts toward stats().hits
  /// (lookups served from the cache — including entries quantized earlier
  /// in the same prepare pass; misses counts pairs that had to be
  /// quantized, so the invalidation delta per format-gene change is exact).
  /// Thread-safe against concurrent finds and a concurrent prepare.
  [[nodiscard]] std::shared_ptr<const PackedCodes> find(std::size_t slot,
                                                        const LPConfig& cfg);

  /// Presence probe without touching counters or recency.  Thread-safe.
  [[nodiscard]] bool contains(std::size_t slot, const LPConfig& cfg) const;

  /// Insert freshly packed codes, which must carry the LUT decode_lut()
  /// returned for their config.  `count_miss` is false when seeding from a
  /// serialized artifact — those codes were never quantized here, and
  /// cold-start accounting must show zero misses.
  void insert(std::size_t slot, const LPConfig& cfg,
              std::shared_ptr<const PackedCodes> codes,
              bool count_miss = true);

  /// Shared decode LUT for cfg, built from `fmt` on first request and
  /// charged against the budget, or null when the format cannot serve the
  /// packed path (build_decode_table; never for a valid LPConfig).
  /// Prepare phase only (serialized by the owning session).
  [[nodiscard]] std::shared_ptr<const DecodeTable> decode_lut(
      const LPConfig& cfg, const NumberFormat& fmt);

  /// Shared decode LUT for cfg used as an *activation* format — interned
  /// in its own map with its own byte accounting (stats().act_lut_bytes),
  /// so the weight vs activation LUT budget split stays visible.  Null
  /// when the format has no enumerable code table (those edges stay
  /// float).  LUTs unused for a full generation are swept; snapshots hold
  /// shared ownership, so eviction never invalidates a live run.  Prepare
  /// phase only (serialized by the owning session).
  [[nodiscard]] std::shared_ptr<const DecodeTable> act_decode_lut(
      const LPConfig& cfg, const NumberFormat& fmt);

  /// Advance the generation tick and sweep oldest-tick entries until the
  /// payload fits the budget again (current-tick entries are kept).  Also
  /// drops decode LUTs no live entry references.  Prepare phase only.
  void next_generation();

  /// Lock-free counter snapshot (see CacheStats).
  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct SlotKey {
    std::size_t slot = 0;
    FormatKey fmt;
    friend bool operator<(const SlotKey& a, const SlotKey& b) {
      if (a.slot != b.slot) return a.slot < b.slot;
      return a.fmt < b.fmt;
    }
  };
  struct Entry {
    std::shared_ptr<const PackedCodes> codes;
    std::uint64_t last_used = 0;
  };
  struct LutRec {
    std::shared_ptr<const DecodeTable> lut;  ///< null = format can't pack
    std::size_t refs = 0;                    ///< live entries of this format
    std::uint64_t last_used = 0;
  };
  /// One entry-map shard.  Ordered maps: the eviction sweep iterates in
  /// key order, which makes the set of survivors a pure function of the
  /// lookup/insert history.
  struct Shard {
    mutable Mutex mu;
    std::map<SlotKey, Entry> entries LP_GUARDED_BY(mu);
  };

  [[nodiscard]] Shard& shard_for(std::size_t slot) {
    return shards_[slot % kShards];
  }
  [[nodiscard]] const Shard& shard_for(std::size_t slot) const {
    return shards_[slot % kShards];
  }

  void evict_to_budget();
  /// Drop one entry; caller holds the shard lock (NOT lut_mu_ — the lock
  /// order is shard.mu then lut_mu_, taken inside).
  void erase_entry_locked(Shard& shard, const SlotKey& key,
                          std::map<SlotKey, Entry>::iterator it)
      LP_REQUIRES(shard.mu) LP_EXCLUDES(lut_mu_);
  void sweep_stale_luts() LP_EXCLUDES(lut_mu_);
  void sweep_stale_act_luts() LP_EXCLUDES(lut_mu_);

  std::array<Shard, kShards> shards_;
  /// Lock order: shard.mu before lut_mu_ (erase_entry_locked); never the
  /// reverse.  The analysis cannot state an order against an array of
  /// capabilities, so the order is prose + the EXCLUDES above.
  mutable Mutex lut_mu_;
  std::map<FormatKey, LutRec> luts_ LP_GUARDED_BY(lut_mu_);
  /// Activation-side LUTs (refs unused).
  std::map<FormatKey, LutRec> act_luts_ LP_GUARDED_BY(lut_mu_);
  std::size_t budget_bytes_;
  std::atomic<std::uint64_t> tick_{0};

  /// Relaxed atomics behind stats() — lock-free to read while a prepare
  /// pass mutates the cache (the TSan concurrent prepare/read test pins
  /// this).
  struct Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::size_t> entries{0};
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> logical_bytes{0};
    std::atomic<std::size_t> lut_bytes{0};
    std::atomic<std::size_t> act_lut_bytes{0};
  };
  mutable Counters counters_;
};

}  // namespace lp::runtime
