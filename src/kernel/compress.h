// COLLAPSE-style state compression (after SPIN's COLLAPSE mode, Holzmann).
//
// The state vector is split along Layout::regions() boundaries -- globals,
// one region per process frame, one region per buffered channel -- and each
// region's slot values are interned once in a per-region component table.
// A compressed state is then just one varint component id per region plus
// the atomic-holder pid: a successor that only moved one process re-encodes
// as a handful of bytes instead of the whole vector, and the full slot data
// for each distinct component is stored exactly once, in the table.
//
// Ids are dense and injective per region, so equal compressed keys imply
// equal states (the property the visited set relies on), and decompress()
// is exact -- the tables retain every component ever interned.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "kernel/state.h"
#include "support/probe_table.h"
#include "support/spill.h"

namespace pnp::kernel {

/// Chunked append-only arena of fixed-width component value records -- the
/// intern pool behind each compressor stripe. Chunks never move, so value
/// pointers stay stable across appends, and chunk k holds 64 << k records:
/// record `local` is found by arithmetic in a fixed 32-entry directory,
/// which lets at() run lock-free while the stripe's writer appends. Once a
/// SpillPool is attached, new chunks are disk-backed: the pool's pages are
/// clean-evictable, which lets the intern tables grow past the memory
/// budget.
class ValueArena {
 public:
  void init(int width) {
    width_ = width < 0 ? 0 : static_cast<std::size_t>(width);
  }

  const Value* at(std::uint32_t local) const {
    // A width-0 region has one empty component; hand back a stable dummy
    // so memcmp(at(..), vals, 0) sees a valid pointer.
    if (width_ == 0) return &kZeroWidth;
    const std::uint64_t q = local / kFirstChunk + 1;
    const int k = std::bit_width(q) - 1;
    const std::uint64_t first = kFirstChunk * ((std::uint64_t{1} << k) - 1);
    return chunks_[k] + (local - first) * width_;
  }

  /// Appends one record (width values); records are addressed by append
  /// order, matching the caller's dense local ids.
  void append(const Value* vals) {
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    if (width_ != 0) {
      const std::uint64_t q = n / kFirstChunk + 1;
      const int k = std::bit_width(q) - 1;
      const std::uint64_t first = kFirstChunk * ((std::uint64_t{1} << k) - 1);
      if (n == first) new_chunk(k);
      std::memcpy(chunks_[k] + (n - first) * width_, vals,
                  width_ * sizeof(Value));
    }
    size_.store(n + 1, std::memory_order_release);
  }

  /// Records appended; readable from any thread.
  std::uint32_t size() const { return size_.load(std::memory_order_acquire); }

  void attach_spill(support::SpillPool* pool) { spill_ = pool; }

  std::uint64_t resident_bytes() const { return resident_; }
  std::uint64_t spill_bytes() const { return spilled_; }

 private:
  static constexpr std::uint64_t kFirstChunk = 64;  // records in chunk 0

  void new_chunk(int k) {
    const std::size_t values = (kFirstChunk << k) * width_;
    if (spill_) {
      chunks_[k] = static_cast<Value*>(spill_->alloc(values * sizeof(Value)));
      spilled_ += values * sizeof(Value);
    } else {
      heap_.push_back(std::make_unique_for_overwrite<Value[]>(values));
      chunks_[k] = heap_.back().get();
      resident_ += values * sizeof(Value);
    }
  }

  static constexpr Value kZeroWidth{};

  std::size_t width_ = 1;
  std::array<Value*, 32> chunks_{};  // chunk k: kFirstChunk << k records
  std::atomic<std::uint32_t> size_{0};
  std::vector<std::unique_ptr<Value[]>> heap_;  // owns the heap chunks
  support::SpillPool* spill_ = nullptr;         // not owned
  std::uint64_t resident_ = 0;
  std::uint64_t spilled_ = 0;
};

class StateCompressor {
 public:
  /// `stripes` > 1 (a power of two) stripes every component table so
  /// compress() and decompress() may be called concurrently from that many
  /// (or more) workers: a component already interned is found without a
  /// lock, and only a new one takes its stripe's lock. 1 elides all locking for
  /// single-threaded searches. `expected_components` pre-sizes
  /// each region's table (components are shared across states, so even
  /// million-state runs typically intern a few thousand per region).
  explicit StateCompressor(const Layout& lay, int stripes = 1,
                           std::size_t expected_components = 1024);

  StateCompressor(const StateCompressor&) = delete;
  StateCompressor& operator=(const StateCompressor&) = delete;

  /// Replaces `out` with the compressed encoding of `s` (reusing capacity):
  /// LEB128 varint component ids in region order, then `atomic_pid & 0xff`.
  void compress(const State& s, std::vector<std::uint8_t>& out);

  /// compress() that also reports each region's component id into `ids`
  /// (n_regions() entries), enabling compress_delta() on successors.
  void compress_full(const State& s, std::vector<std::uint8_t>& out,
                     std::uint32_t* ids);

  /// Delta compression -- the core COLLAPSE win. `s` differs from a
  /// previously compressed state only in the regions flagged in `dirty`
  /// (n_regions() entries): clean regions reuse `prev_ids` without touching
  /// their slots, dirty ones are re-interned. Produces exactly the bytes
  /// compress() would; `ids` receives s's per-region ids. Callers derive
  /// `dirty` from the successor generator's undo log via region_of_slot().
  void compress_delta(const State& s, const std::uint32_t* prev_ids,
                      const std::uint8_t* dirty,
                      std::vector<std::uint8_t>& out, std::uint32_t* ids);

  /// compress_delta() fed by a codegen engine's specialized store path: the
  /// dirty set arrives as a region bitmask (so layouts are capped at 64
  /// regions for this entry) and each dirty region's hash is precomputed by
  /// the engine's open-coded layout walk instead of the generic
  /// fast_hash64 loop here. `hashes[k]` must be bit-exact fast_hash64 of
  /// region k's value span whenever bit k of `dirty` is set -- ids, stripe
  /// placement, and the output bytes are derived from it and must match
  /// what compress() would produce.
  void compress_delta_masked(const State& s, const std::uint32_t* prev_ids,
                             std::uint64_t dirty, const std::uint64_t* hashes,
                             std::vector<std::uint8_t>& out,
                             std::uint32_t* ids);

  /// Region index covering each state slot (regions partition the slots).
  const std::vector<int>& region_of_slot() const { return region_of_slot_; }

  /// Exact inverse of compress() for keys produced by this compressor.
  State decompress(std::span<const std::uint8_t> key) const;

  /// decompress() into `out`, reusing its capacity; `ids` (n_regions()
  /// entries, or null) receives the key's per-region ids, which is what
  /// compress_delta() needs for the state's successors.
  void decompress(std::span<const std::uint8_t> key, State& out,
                  std::uint32_t* ids) const;

  int n_regions() const { return static_cast<int>(regions_.size()); }

  /// Total distinct components interned across all regions.
  std::uint64_t components() const;

  /// Distinct components per region, in region order -- the intern-table
  /// size profile surfaced by the observability layer (a region whose count
  /// approaches the visited-set size is not compressing).
  std::vector<std::uint64_t> region_component_counts() const;

  /// Resident footprint of the intern tables: open-addressing slot arrays
  /// plus the heap-resident component value chunks. Feeds memory-budget
  /// accounting; spilled chunks are excluded (see attach_spill).
  std::uint64_t approx_bytes() const;

  /// New component-value chunks in every stripe spill to `pool` from now
  /// on. Safe to call while workers are interning (the switch is taken
  /// under each stripe lock in concurrent mode).
  void attach_spill(support::SpillPool* pool);

  /// Disk-backed share of the intern pools.
  std::uint64_t spill_bytes() const;

 private:
  // One stripe of a region's intern table: a ReadMostlyTable from the
  // component hash to its local id (the arena confirms every fingerprint
  // match, so the truncation to 32 bits can cost a rare extra compare but
  // never a wrong id), with the component values appended to a
  // width-strided arena. A component's global id is local_index *
  // n_stripes + stripe -- a shift and an or, the stripe count being a power
  // of two -- which keeps ids dense and injective without cross-stripe
  // coordination.
  struct Stripe {
    explicit Stripe(std::size_t expected) : index(expected) {}
    support::ReadMostlyTable index;
    ValueArena store;
    std::mutex mu;                              // writers only
    std::atomic<std::uint64_t> bytes{0};        // resident footprint
    std::atomic<std::uint64_t> spill_bytes{0};  // disk-backed footprint
  };
  struct Region {
    int begin = 0;
    int width = 0;
    std::vector<std::unique_ptr<Stripe>> stripes;
  };

  std::uint32_t intern(Region& r, const Value* vals);
  std::uint32_t intern_hashed(Region& r, const Value* vals, std::uint64_t h);

  std::vector<Region> regions_;
  std::vector<int> region_of_slot_;
  int stripe_bits_;  // log2 of the stripe count
  bool concurrent_;
  int state_size_;
};

}  // namespace pnp::kernel
