// Flat visited-key storage: an open-addressing fingerprint table plus an
// append-only slab arena for the key bytes.
//
// The previous stores kept one heap-allocated std::string per state inside
// a node-based std::unordered_set -- three pointer chases and ~64 bytes of
// overhead per state. Here a state costs one 8-byte {offset, fingerprint}
// slot in a flat huge-page-backed table plus its key bytes (length-prefixed)
// in a slab arena that never moves or frees, so inserts are a single probe
// sequence and a bump-pointer append.
//
// Durability: a SpillPool (support/spill.h) can be attached at any point;
// slabs allocated after that are mmap'd file-backed blocks whose pages are
// clean-evictable, so the arena keeps growing past the memory budget while
// only the pre-spill slabs and the probe arrays stay unconditionally
// resident. Offsets, spans, and equals() work identically on both kinds of
// slab -- callers cannot tell where a record landed.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "support/hash.h"
#include "support/panic.h"
#include "support/probe_table.h"
#include "support/spill.h"

namespace pnp::explore {

using support::HugeZeroBuf;

/// Append-only arena for length-prefixed key records. Records never span a
/// slab boundary and slabs never move, so a returned offset stays valid for
/// the arena's lifetime.
///
/// Offsets address a fixed span of 2 MiB per slab (slab = off >> 21), and
/// the slab directory is a fixed array: at() and equals() read it without
/// a lock while a writer appends, so the parallel visited set can confirm
/// a fingerprint hit lock-free. Slabs are sized to the keys they hold:
/// they double from 64 KiB up to the 2 MiB span, so a store holding a few
/// hundred KiB of keys does not pin a whole huge page per arena.
class KeyArena {
 public:
  KeyArena()
      : dir_(std::make_unique_for_overwrite<std::uint8_t*[]>(kMaxSlabs)) {}

  /// Appends `key` (2-byte length prefix + bytes) and returns its offset.
  std::uint32_t append(std::span<const std::uint8_t> key) {
    const std::size_t need = key.size() + 2;
    PNP_CHECK(key.size() <= 0xffff, "visited key exceeds 64 KiB");
    if (cap_ - used_ < need) new_slab(need);
    const std::uint32_t off =
        static_cast<std::uint32_t>((n_slabs_ - 1) * kSlabSpan + used_);
    std::uint8_t* dst = dir_[n_slabs_ - 1] + used_;
    dst[0] = static_cast<std::uint8_t>(key.size() & 0xff);
    dst[1] = static_cast<std::uint8_t>(key.size() >> 8);
    if (!key.empty()) std::memcpy(dst + 2, key.data(), key.size());
    used_ += need;
    return off;
  }

  std::span<const std::uint8_t> at(std::uint32_t off) const {
    const std::uint8_t* p = record(off);
    const std::size_t len =
        static_cast<std::size_t>(p[0]) | (static_cast<std::size_t>(p[1]) << 8);
    return {p + 2, len};
  }

  bool equals(std::uint32_t off, std::span<const std::uint8_t> key) const {
    const std::span<const std::uint8_t> rec = at(off);
    return rec.size() == key.size() &&
           (key.empty() ||
            std::memcmp(rec.data(), key.data(), key.size()) == 0);
  }

  /// Hints the cache that the record at `off` is about to be read. Two
  /// lines: a typical key straddles a line boundary often enough that the
  /// second serial miss would eat most of the hint's win.
  void prefetch(std::uint32_t off) const {
    const std::uint8_t* p = record(off);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
  }

  /// Slabs allocated from now on come from `pool` (disk-backed) instead of
  /// the heap. Existing slabs are untouched, but the current slab is sealed
  /// so the very next append already lands on the new backing -- "after
  /// attach, keys go to disk" must not depend on how full the last heap
  /// slab happens to be (offsets are absolute, so sealing only wastes the
  /// slab's tail). Pass nullptr to detach. The pool must outlive the
  /// arena's last access.
  void attach_spill(support::SpillPool* pool) {
    if (pool != spill_) used_ = cap_;
    spill_ = pool;
  }
  bool spilling() const { return spill_ != nullptr; }

  /// Total arena footprint, resident or not.
  std::uint64_t bytes() const { return resident_bytes() + spill_bytes(); }
  /// Heap (unconditionally resident) share of bytes(). Readable from any
  /// thread while a writer appends.
  std::uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  /// Disk-backed (page-cache evictable) share of bytes().
  std::uint64_t spill_bytes() const {
    return spilled_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kSlabSpan = HugeZeroBuf::kHuge;
  static constexpr std::size_t kFirstSlab = std::size_t{64} << 10;
  static constexpr std::size_t kMaxSlabs = (std::uint64_t{1} << 32) / kSlabSpan;

  const std::uint8_t* record(std::uint32_t off) const {
    return dir_[off / kSlabSpan] + off % kSlabSpan;
  }

  void new_slab(std::size_t need) {
    PNP_CHECK(n_slabs_ < kMaxSlabs,
              "visited-key arena exceeds 4 GiB (raise the memory budget "
              "or switch to bitstate mode)");
    std::size_t bytes = n_slabs_ < 5 ? kFirstSlab << n_slabs_ : kSlabSpan;
    while (bytes < need) bytes *= 2;  // a key near 64 KiB in an early slab
    std::uint8_t* slab;
    if (spill_) {
      slab = static_cast<std::uint8_t*>(spill_->alloc(bytes));
      spilled_.store(spill_bytes() + bytes, std::memory_order_relaxed);
    } else {
      // Only full 2 MiB slabs go onto a huge page (see HugeZeroBuf).
      heap_.emplace_back(bytes);
      slab = static_cast<std::uint8_t*>(heap_.back().data());
      resident_.store(resident_bytes() + bytes, std::memory_order_relaxed);
    }
    dir_[n_slabs_++] = slab;
    cap_ = bytes;
    used_ = 0;
  }

  std::unique_ptr<std::uint8_t*[]> dir_;  // kMaxSlabs entries, n_slabs_ set
  // Writer-side state on its own line: lock-free readers only load dir_.
  alignas(64) std::size_t n_slabs_ = 0;
  std::size_t cap_ = 0;   // bytes in the current slab
  std::size_t used_ = 0;  // bytes appended to the current slab
  std::vector<HugeZeroBuf> heap_;        // owns the heap slabs
  support::SpillPool* spill_ = nullptr;  // not owned; frees on destruction
  std::atomic<std::uint64_t> resident_{0};
  std::atomic<std::uint64_t> spilled_{0};
};

/// Open-addressing set of byte keys, probed by a caller-supplied 64-bit
/// hash. Key bytes live in the arena; the table is ONE flat array of 8-byte
/// {offset, fingerprint} slots. Interleaving matters: the table is far
/// larger than cache on big runs, so a probe that touched parallel
/// fingerprint and offset arrays cost two DRAM misses where one slot read
/// costs one -- and insert() is the hottest call in exact-mode exploration
/// (~60% of a profiled bridge run). The stored fingerprint is the hash's
/// low 32 bits; a fingerprint match is confirmed against the arena bytes,
/// so truncation can cause a rare extra compare, never a wrong answer. The
/// probe index is also derived from the low hash bits, which is what lets
/// rehash() re-place slots without the full 64-bit hash. (A variant that
/// stored short keys inline in 32-byte slots was measured slower here:
/// linear-probe clusters span 4x the cache lines, and the 4x table defeats
/// the TLB on kernels without transparent huge pages.)
class FlatKeySet {
 public:
  explicit FlatKeySet(std::uint64_t expected = 0) {
    rehash(cap_for(expected));
  }

  /// Hints the cache that `h`'s first probe slot is about to be read. An
  /// insert that grows the table in between simply wastes the hint.
  void prefetch(std::uint64_t h) const {
    if (slots_ != nullptr)
      __builtin_prefetch(&slots_[static_cast<std::size_t>(h) & mask_]);
  }

  /// Returns true if `key` was not present before (and records it). `h`
  /// must be the same hash function for every insert into this set.
  bool insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    if ((size_ + 1) * 10 >= cap_ * 7) grow();
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].off1 != 0) {
      if (slots_[i].fp == fp && arena_.equals(slots_[i].off1 - 1, key))
        return false;
      i = (i + 1) & mask_;
    }
    slots_[i].fp = fp;
    slots_[i].off1 = arena_.append(key) + 1;
    ++size_;
    return true;
  }

  /// Result of probe_or_insert: `fresh` means the key was definitely absent
  /// and has been inserted; otherwise `off` is the arena offset of the
  /// first fingerprint match, to be settled by confirm_or_insert.
  struct Staged {
    bool fresh;
    std::uint32_t off;
  };

  /// First half of a split insert: walks `h`'s cluster and inserts the key
  /// outright when no stored fingerprint matches (the definitely-fresh
  /// case). On a fingerprint match it leaves the table unchanged,
  /// prefetches the matching record's bytes, and returns the offset for a
  /// later confirm_or_insert. An insert is two DEPENDENT memory reads --
  /// probe slot, then key bytes at the offset the slot holds -- and on big
  /// tables both are DRAM misses the out-of-order window cannot hide;
  /// splitting them across two calls lets a pipelined caller overlay each
  /// with real work (the explorer overlays successor generation).
  Staged probe_or_insert(std::span<const std::uint8_t> key, std::uint64_t h) {
    if ((size_ + 1) * 10 >= cap_ * 7) grow();
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].off1 != 0) {
      if (slots_[i].fp == fp) {
        const std::uint32_t off = slots_[i].off1 - 1;
        arena_.prefetch(off);
        return {false, off};
      }
      i = (i + 1) & mask_;
    }
    slots_[i].fp = fp;
    slots_[i].off1 = arena_.append(key) + 1;
    ++size_;
    return {true, 0};
  }

  /// Second half: settles a probe_or_insert fingerprint match. Returns
  /// false when the record equals `key` (a genuine duplicate -- the common
  /// case); a fingerprint collision falls back to a full insert, which
  /// steps past the colliding slot and probes on. Intervening inserts and
  /// grows are fine: arena offsets never move.
  bool confirm_or_insert(std::span<const std::uint8_t> key, std::uint64_t h,
                         std::uint32_t off) {
    if (arena_.equals(off, key)) return false;
    return insert(key, h);
  }

  std::uint64_t size() const { return size_; }

  /// Pre-sizes the table for `n` keys (never shrinks).
  void reserve(std::uint64_t n) {
    const std::size_t cap = cap_for(n);
    if (cap > cap_) rehash(cap);
  }

  /// Calls `f(std::span<const std::uint8_t>)` once per stored key, in
  /// table order. Used by checkpointing to enumerate the visited set.
  template <class F>
  void for_each_key(F&& f) const {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (slots_[i].off1 != 0) f(arena_.at(slots_[i].off1 - 1));
    }
  }

  /// New arena slabs spill to `pool` from now on (see KeyArena).
  void attach_spill(support::SpillPool* pool) { arena_.attach_spill(pool); }
  bool spilling() const { return arena_.spilling(); }

  /// Resident footprint: probe arrays + heap arena slabs. Spilled slabs are
  /// deliberately excluded -- their pages are clean-evictable, which is the
  /// whole point of spilling.
  std::uint64_t approx_bytes() const {
    return cap_ * sizeof(Slot) + arena_.resident_bytes();
  }

  /// Disk-backed share of the arena.
  std::uint64_t spill_bytes() const { return arena_.spill_bytes(); }

 private:
  static std::size_t cap_for(std::uint64_t expected) {
    // smallest power of two holding `expected` at <= 0.7 load
    std::size_t cap = 64;
    while (cap * 7 < (expected + 1) * 10) cap <<= 1;
    return cap;
  }

  // off1 is the arena offset + 1, so the all-zeroes slot a fresh mapping
  // starts with means "free" (kernel zero pages, no memset pass).
  struct Slot {
    std::uint32_t off1;  // arena offset + 1; 0 marks a free slot
    std::uint32_t fp;    // low 32 bits of the key hash
  };

  void rehash(std::size_t cap) {
    // The probe index comes from the stored 32-bit fingerprint, so the
    // table cannot outgrow 2^32 slots -- the 4 GiB arena overflows first.
    PNP_CHECK(cap <= (std::size_t{1} << 32),
              "visited table exceeds 2^32 slots");
    HugeZeroBuf buf(cap * sizeof(Slot));
    Slot* slots = static_cast<Slot*>(buf.data());
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < cap_; ++i) {
      const Slot& s = slots_[i];
      if (s.off1 == 0) continue;
      std::size_t j = static_cast<std::size_t>(s.fp) & mask;
      while (slots[j].off1 != 0) j = (j + 1) & mask;
      slots[j] = s;
    }
    buf_ = std::move(buf);
    slots_ = slots;
    cap_ = cap;
    mask_ = mask;
  }

  void grow() { rehash(cap_ * 2); }

  HugeZeroBuf buf_;
  Slot* slots_ = nullptr;
  std::size_t cap_ = 0;
  KeyArena arena_;
  std::uint64_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace pnp::explore
