#include "runtime/weight_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace lp::runtime {
namespace {

std::size_t lut_payload_bytes(const DecodeTable& lut) {
  return lut.size() * sizeof(float);
}

}  // namespace

std::shared_ptr<const PackedCodes> WeightCodeCache::find(std::size_t slot,
                                                         const LPConfig& cfg) {
  Shard& shard = shard_for(slot);
  const MutexLock lk(shard.mu);
  const auto it = shard.entries.find(SlotKey{slot, FormatKey::of(cfg)});
  if (it == shard.entries.end()) return {};
  it->second.last_used = tick_.load(std::memory_order_relaxed);
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.codes;
}

bool WeightCodeCache::contains(std::size_t slot, const LPConfig& cfg) const {
  const Shard& shard = shard_for(slot);
  const MutexLock lk(shard.mu);
  return shard.entries.find(SlotKey{slot, FormatKey::of(cfg)}) !=
         shard.entries.end();
}

void WeightCodeCache::insert(std::size_t slot, const LPConfig& cfg,
                             std::shared_ptr<const PackedCodes> codes,
                             bool count_miss) {
  LP_CHECK(codes != nullptr);
  if (count_miss) counters_.misses.fetch_add(1, std::memory_order_relaxed);
  const SlotKey key{slot, FormatKey::of(cfg)};
  Shard& shard = shard_for(slot);
  const MutexLock lk(shard.mu);
  const std::uint64_t tick = tick_.load(std::memory_order_relaxed);
  auto [it, inserted] =
      shard.entries.emplace(key, Entry{std::move(codes), tick});
  if (!inserted) {
    it->second.last_used = tick;
    return;  // already cached (same bits); keep the existing copy
  }
  const PackedCodes& stored = *it->second.codes;
  {
    // The codes must carry the LUT decode_lut() interned for this format —
    // that is what find() hands to live snapshots and what the byte
    // accounting charged once.
    const MutexLock llk(lut_mu_);
    const auto lit = luts_.find(key.fmt);
    LP_CHECK_MSG(lit != luts_.end() && lit->second.lut == stored.lut(),
                 "packed codes with an un-interned decode LUT");
    ++lit->second.refs;
  }
  counters_.bytes.fetch_add(stored.payload_bytes(), std::memory_order_relaxed);
  counters_.logical_bytes.fetch_add(stored.logical_bytes(),
                                    std::memory_order_relaxed);
  counters_.entries.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const DecodeTable> WeightCodeCache::decode_lut(
    const LPConfig& cfg, const NumberFormat& fmt) {
  const FormatKey key = FormatKey::of(cfg);
  const MutexLock lk(lut_mu_);
  const auto it = luts_.find(key);
  if (it != luts_.end()) {
    it->second.last_used = tick_.load(std::memory_order_relaxed);
    return it->second.lut;
  }
  std::shared_ptr<const DecodeTable> lut = build_decode_table(fmt);
  if (lut != nullptr) {
    const std::size_t b = lut_payload_bytes(*lut);
    counters_.bytes.fetch_add(b, std::memory_order_relaxed);
    counters_.lut_bytes.fetch_add(b, std::memory_order_relaxed);
  }
  luts_.emplace(key, LutRec{lut, 0, tick_.load(std::memory_order_relaxed)});
  return lut;
}

std::shared_ptr<const DecodeTable> WeightCodeCache::act_decode_lut(
    const LPConfig& cfg, const NumberFormat& fmt) {
  const FormatKey key = FormatKey::of(cfg);
  const MutexLock lk(lut_mu_);
  const auto it = act_luts_.find(key);
  if (it != act_luts_.end()) {
    it->second.last_used = tick_.load(std::memory_order_relaxed);
    return it->second.lut;
  }
  std::shared_ptr<const DecodeTable> lut = build_decode_table(fmt);
  if (lut != nullptr) {
    const std::size_t b = lut_payload_bytes(*lut);
    counters_.bytes.fetch_add(b, std::memory_order_relaxed);
    counters_.act_lut_bytes.fetch_add(b, std::memory_order_relaxed);
  }
  act_luts_.emplace(key,
                    LutRec{lut, 0, tick_.load(std::memory_order_relaxed)});
  return lut;
}

CacheStats WeightCodeCache::stats() const {
  CacheStats s;
  s.hits = counters_.hits.load(std::memory_order_relaxed);
  s.misses = counters_.misses.load(std::memory_order_relaxed);
  s.evictions = counters_.evictions.load(std::memory_order_relaxed);
  s.entries = counters_.entries.load(std::memory_order_relaxed);
  s.bytes = counters_.bytes.load(std::memory_order_relaxed);
  s.logical_bytes = counters_.logical_bytes.load(std::memory_order_relaxed);
  s.lut_bytes = counters_.lut_bytes.load(std::memory_order_relaxed);
  s.act_lut_bytes = counters_.act_lut_bytes.load(std::memory_order_relaxed);
  return s;
}

void WeightCodeCache::next_generation() {
  evict_to_budget();
  sweep_stale_luts();
  sweep_stale_act_luts();
  tick_.fetch_add(1, std::memory_order_relaxed);
}

void WeightCodeCache::erase_entry_locked(
    Shard& shard, const SlotKey& key,
    std::map<SlotKey, Entry>::iterator it) {
  const Entry& entry = it->second;
  counters_.bytes.fetch_sub(entry.codes->payload_bytes(),
                            std::memory_order_relaxed);
  counters_.logical_bytes.fetch_sub(entry.codes->logical_bytes(),
                                    std::memory_order_relaxed);
  {
    const MutexLock llk(lut_mu_);
    const auto lit = luts_.find(key.fmt);
    if (lit != luts_.end() && --lit->second.refs == 0) {
      // Last entry of this format gone: its decode LUT goes with it.
      const std::size_t b = lut_payload_bytes(*lit->second.lut);
      counters_.bytes.fetch_sub(b, std::memory_order_relaxed);
      counters_.lut_bytes.fetch_sub(b, std::memory_order_relaxed);
      luts_.erase(lit);
    }
  }
  shard.entries.erase(it);
  counters_.entries.fetch_sub(1, std::memory_order_relaxed);
  counters_.evictions.fetch_add(1, std::memory_order_relaxed);
}

void WeightCodeCache::evict_to_budget() {
  if (counters_.bytes.load(std::memory_order_relaxed) <= budget_bytes_) {
    return;
  }
  // Collect evictable entries (not used this tick) across every shard,
  // oldest ticks first; within a tick the key order breaks ties
  // deterministically — shard layout never influences the sweep order.
  const std::uint64_t tick = tick_.load(std::memory_order_relaxed);
  std::vector<std::pair<std::uint64_t, SlotKey>> victims;
  for (Shard& shard : shards_) {
    const MutexLock lk(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      if (entry.last_used < tick) victims.emplace_back(entry.last_used, key);
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  for (const auto& [vtick, key] : victims) {
    if (counters_.bytes.load(std::memory_order_relaxed) <= budget_bytes_) {
      break;
    }
    Shard& shard = shard_for(key.slot);
    const MutexLock lk(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) erase_entry_locked(shard, key, it);
  }
}

void WeightCodeCache::sweep_stale_luts() {
  // A LUT interned for a format no entry holds (an artifact load rejected
  // after interning it) has refs == 0 and would otherwise linger charged
  // against the budget forever.  Null records (formats the packed path
  // cannot serve) cost nothing and stay as a negative cache.
  const std::uint64_t tick = tick_.load(std::memory_order_relaxed);
  const MutexLock lk(lut_mu_);
  for (auto it = luts_.begin(); it != luts_.end();) {
    if (it->second.refs == 0 && it->second.lut != nullptr &&
        it->second.last_used < tick) {
      const std::size_t b = lut_payload_bytes(*it->second.lut);
      counters_.bytes.fetch_sub(b, std::memory_order_relaxed);
      counters_.lut_bytes.fetch_sub(b, std::memory_order_relaxed);
      it = luts_.erase(it);
    } else {
      ++it;
    }
  }
}

void WeightCodeCache::sweep_stale_act_luts() {
  // Activation LUTs have no entry refcounts — recency alone decides.  A
  // LUT untouched for a full generation is dropped (live snapshots keep
  // shared ownership); null records stay as a free negative cache.
  const std::uint64_t tick = tick_.load(std::memory_order_relaxed);
  const MutexLock lk(lut_mu_);
  for (auto it = act_luts_.begin(); it != act_luts_.end();) {
    if (it->second.lut != nullptr && it->second.last_used < tick) {
      const std::size_t b = lut_payload_bytes(*it->second.lut);
      counters_.bytes.fetch_sub(b, std::memory_order_relaxed);
      counters_.act_lut_bytes.fetch_sub(b, std::memory_order_relaxed);
      it = act_luts_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace lp::runtime
