// Visited-state stores for the exploration engines.
//
// Two families:
//   * VisitedSet        -- the single-threaded store (exact flat key set or
//                          double-bit Bloom filter in bitstate mode), with an
//                          optional hash seed so swarm workers can run
//                          independently seeded bitstate searches;
//   * ShardedVisitedSet -- the concurrent exact store used by the parallel
//                          engine: 64 shards over the 64-bit state hash,
//                          each a read-mostly table whose duplicate hits
//                          take no lock. Insertion is linearizable per key.
//
// Exact storage is the flat open-addressing table + slab arena from
// flat_store.h (no per-key heap nodes); approx_bytes() reports the real
// table + arena footprint, which is what the memory-budget ladder consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "explore/flat_store.h"
#include "support/hash.h"

namespace pnp::explore {

/// Single-threaded visited-state store: exact flat key set, or double-bit
/// Bloom filter in bitstate (supertrace) mode. `seed` perturbs the bitstate
/// hash functions; seed 0 reproduces the historical single-search behavior.
/// `expected` pre-sizes the exact table (ignored in bitstate mode).
class VisitedSet {
 public:
  VisitedSet(bool bitstate, std::uint64_t bytes, std::uint64_t seed = 0,
             std::uint64_t expected = 0)
      : bitstate_(bitstate), seed_(seed), set_(bitstate ? 0 : expected) {
    if (bitstate_) bits_.assign(bytes, 0);
  }

  /// Two-phase insert for callers that can overlap the probe's cache misses
  /// with other work (exact mode only): stage() hashes the key and prefetches
  /// its first probe slot; insert_staged() completes the probe, usually with
  /// the slot line already in cache. Any number of stage() calls may be in
  /// flight; each insert_staged() must pass the hash its stage() returned.
  std::uint64_t stage(std::span<const std::uint8_t> key) const {
    const std::uint64_t h = fast_hash64(key);
    set_.prefetch(h);
    return h;
  }

  bool insert_staged(std::span<const std::uint8_t> key, std::uint64_t h) {
    return set_.insert(key, h);
  }

  /// Deeper pipelining over the same staged hash: probe_staged() walks the
  /// (prefetched) cluster, inserting definitely-fresh keys and prefetching
  /// the arena record of a fingerprint match; confirm_staged() settles that
  /// match later. See FlatKeySet::probe_or_insert.
  FlatKeySet::Staged probe_staged(std::span<const std::uint8_t> key,
                                  std::uint64_t h) {
    return set_.probe_or_insert(key, h);
  }

  bool confirm_staged(std::span<const std::uint8_t> key, std::uint64_t h,
                      std::uint32_t off) {
    return set_.confirm_or_insert(key, h, off);
  }

  /// Returns true if `key` was not present before (and records it).
  bool insert(std::span<const std::uint8_t> key) {
    if (!bitstate_) return set_.insert(key, fast_hash64(key));
    const std::uint64_t nbits = bits_.size() * 8;
    const std::uint64_t b1 = (hash_bytes(key) ^ avalanche64(seed_)) % nbits;
    const std::uint64_t b2 = (hash_bytes2(key) + seed_ * kFnvPrime) % nbits;
    const bool seen = get_bit(b1) && get_bit(b2);
    set_bit(b1);
    set_bit(b2);
    if (!seen) ++approx_count_;
    return !seen;
  }

  std::uint64_t size() const {
    return bitstate_ ? approx_count_ : set_.size();
  }

  /// Memory footprint: the bit array in bitstate mode; probe arrays plus
  /// resident key-arena slabs for the exact set.
  std::uint64_t approx_bytes() const {
    if (bitstate_) return bits_.size();
    return set_.approx_bytes();
  }

  /// New key-arena slabs spill to `pool`; no-op in bitstate mode (the bit
  /// array is fixed-size, there is nothing to spill).
  void attach_spill(support::SpillPool* pool) {
    if (!bitstate_) set_.attach_spill(pool);
  }

  std::uint64_t spill_bytes() const {
    return bitstate_ ? 0 : set_.spill_bytes();
  }

  /// Enumerates every stored key; exact mode only (bitstate stores hashes,
  /// not keys, which is why bitstate runs cannot be checkpointed).
  template <class F>
  void for_each_key(F&& f) const {
    PNP_CHECK(!bitstate_, "bitstate visited set cannot enumerate keys");
    set_.for_each_key(f);
  }

 private:
  bool get_bit(std::uint64_t i) const {
    return (bits_[i >> 3] >> (i & 7)) & 1;
  }
  void set_bit(std::uint64_t i) { bits_[i >> 3] |= std::uint8_t(1u << (i & 7)); }

  bool bitstate_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> bits_;
  FlatKeySet set_;
  std::uint64_t approx_count_ = 0;
};

/// Concurrent exact visited set: 64 shards selected by the top bits of the
/// state-key hash (the bottom bits probe the shard-local table, so the two
/// uses stay independent). Each shard is a ReadMostlyTable over its own
/// KeyArena: a duplicate -- four of every five probes in a typical search
/// -- is found and confirmed against the key bytes without taking a lock;
/// only a miss takes the shard lock to re-probe, append and publish.
/// Growth is self-contained, so any number of threads may insert into a
/// default-constructed set. `expected` pre-sizes every shard for
/// expected/64 keys.
class ShardedVisitedSet {
 public:
  explicit ShardedVisitedSet(std::uint64_t expected = 0) {
    shards_.reserve(kShards);
    for (std::size_t i = 0; i < kShards; ++i)
      shards_.push_back(std::make_unique<Shard>(expected / kShards + 1));
  }

  static std::uint64_t hash_key(std::span<const std::uint8_t> key) {
    return fast_hash64(key);
  }

  /// Returns true if `key` was not present (and records it); exactly one
  /// of any number of racing inserts of one key returns true. `h` must be
  /// hash_key(key) -- or any function of the key bytes used for every
  /// insert: callers always have it already for sharding.
  bool insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    Shard& sh = *shards_[shard_of(h)];
    const auto eq = [&](std::uint32_t off) {
      return sh.arena.equals(off, key);
    };
    if (sh.index.find(h, eq) != support::ReadMostlyTable::kMiss) return false;
    std::lock_guard<std::mutex> lock(sh.mu);
    return sh.index.insert(h, eq, [&] { return sh.arena.append(key); }).second;
  }

  /// Stored keys: the sum of the shard counts, so fresh inserts share no
  /// counter line. Exact once inserts are quiesced; while they run it
  /// includes at least every insert that returned to this thread.
  std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->index.size();
    return n;
  }

  /// Footprint across all shards (resident tables plus resident arena
  /// slabs), readable without taking any shard lock.
  std::uint64_t approx_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& sh : shards_)
      bytes += sh->index.bytes() + sh->arena.resident_bytes();
    return bytes;
  }

  /// New key-arena slabs in every shard spill to `pool`. Safe to call while
  /// workers are inserting: the switch is taken under each shard lock and
  /// only affects future slab allocations.
  void attach_spill(support::SpillPool* pool) {
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->mu);
      sh->arena.attach_spill(pool);
    }
  }

  std::uint64_t spill_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& sh : shards_) bytes += sh->arena.spill_bytes();
    return bytes;
  }

  /// Enumerates every stored key across all shards. Callers must quiesce
  /// inserts first (the parallel engine's checkpoint barrier does).
  template <class F>
  void for_each_key(F&& f) const {
    for (const auto& sh : shards_)
      sh->index.for_each([&](std::uint32_t off) { f(sh->arena.at(off)); });
  }

 private:
  static constexpr std::size_t kShards = 64;

  static std::size_t shard_of(std::uint64_t h) {
    return static_cast<std::size_t>(h >> 58);  // top 6 bits
  }

  // One allocation per shard keeps neighboring shards' lines apart.
  struct Shard {
    explicit Shard(std::uint64_t expected) : index(expected) {}
    support::ReadMostlyTable index;
    KeyArena arena;
    std::mutex mu;  // writers only
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pnp::explore
