// Open-addressing index tables shared by the visited stores and the
// COLLAPSE intern tables.
//
//   * HugeZeroBuf     -- zeroed memory, on transparent huge pages once a
//                        block reaches 2 MiB;
//   * ReadMostlyTable -- a concurrent index whose hit path takes no lock
//                        (after Laarman, van de Pol and Weber, "Boosting
//                        Multi-Core Reachability Performance with Shared
//                        Hash Tables", FMCAD 2010).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "support/panic.h"

namespace pnp::support {

/// Zeroed memory. Blocks of 64 KiB and up are anonymous mappings, whose
/// pages become resident only when first touched; blocks of 2 MiB and up
/// are also advised onto transparent huge pages. The visited table is
/// probed at a random slot per insert; at millions of states the table
/// spans hundreds of megabytes, so with 4 KiB pages nearly every probe adds
/// a dTLB miss on top of the unavoidable cache miss. 2 MiB pages cover the
/// whole table with a few dozen TLB entries. Smaller blocks stay off huge
/// pages: one would make the block resident in full however little of it
/// is used. Falls back to operator new when mmap is unavailable (non-Linux,
/// or mmap failure) -- callers only see zeroed memory either way.
class HugeZeroBuf {
 public:
  static constexpr std::size_t kHuge = std::size_t{2} << 20;
  static constexpr std::size_t kMapped = std::size_t{64} << 10;

  HugeZeroBuf() = default;
  explicit HugeZeroBuf(std::size_t bytes) { allocate(bytes); }
  ~HugeZeroBuf() { release(); }

  HugeZeroBuf(HugeZeroBuf&& o) noexcept { *this = std::move(o); }
  HugeZeroBuf& operator=(HugeZeroBuf&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      bytes_ = o.bytes_;
      mapped_ = o.mapped_;
      o.data_ = nullptr;
      o.bytes_ = 0;
      o.mapped_ = false;
    }
    return *this;
  }
  HugeZeroBuf(const HugeZeroBuf&) = delete;
  HugeZeroBuf& operator=(const HugeZeroBuf&) = delete;

  void* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }

  /// Returns a mapped block's pages to the system, keeping the mapping: a
  /// later read sees zeroes, never unmapped memory. False (and no effect)
  /// for a block from operator new.
  bool discard() {
#if defined(__linux__)
    if (mapped_) return ::madvise(data_, bytes_, MADV_DONTNEED) == 0;
#endif
    return false;
  }

 private:
  void allocate(std::size_t bytes) {
    bytes_ = bytes;
#if defined(__linux__)
    if (bytes >= kMapped) {
      const std::size_t unit = bytes >= kHuge ? kHuge : std::size_t{4096};
      const std::size_t len = (bytes + unit - 1) & ~(unit - 1);
      void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p != MAP_FAILED) {
        if (bytes >= kHuge) ::madvise(p, len, MADV_HUGEPAGE);
        data_ = p;
        bytes_ = len;
        mapped_ = true;
        return;
      }
    }
#endif
    data_ = ::operator new(bytes);
    std::memset(data_, 0, bytes);
  }

  void release() {
#if defined(__linux__)
    if (mapped_) {
      ::munmap(data_, bytes_);
      data_ = nullptr;
      mapped_ = false;
      return;
    }
#endif
    if (data_ != nullptr) ::operator delete(data_);
    data_ = nullptr;
  }

  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
};

/// Read-mostly concurrent index from a 64-bit hash to a 32-bit record
/// reference. The records themselves (key bytes, component values) live in
/// the caller's append-only arena; a slot is one 64-bit word {fingerprint =
/// low 32 hash bits, reference + 1}, 0 when free.
///
///   * find() takes no lock: it walks the slots with acquire loads, and a
///     fingerprint match is confirmed by the caller's `eq(ref)` against
///     the record bytes, so a hit is exact and returns at once.
///   * insert() runs under the caller's writer lock (or single-threaded):
///     it re-probes, lets `make()` append the record, and publishes the
///     slot with a release store, so a reader that sees the slot sees the
///     record.
///   * Growth builds the doubled table and publishes its pointer. Retired
///     tables stay mapped until the index is destroyed: a reader still
///     walking one sees a subset of the keys, so it can only miss and fall
///     through to the locked path, which probes the current table. A
///     retired table's pages are handed back to the system (HugeZeroBuf::
///     discard); a reader then sees free slots, which is again a miss.
///
/// The probe index comes from the fingerprint, which is what lets growth
/// re-place slots without the full hash.
class ReadMostlyTable {
 public:
  static constexpr std::uint32_t kMiss = 0xffffffffu;

  explicit ReadMostlyTable(std::uint64_t expected = 0) {
    publish(cap_for(expected));
  }

  ReadMostlyTable(const ReadMostlyTable&) = delete;
  ReadMostlyTable& operator=(const ReadMostlyTable&) = delete;

  /// Lock-free lookup: the reference of the record matching `h` and `eq`,
  /// or kMiss. May miss a record inserted concurrently; never reports a
  /// record that is not there.
  template <class Eq>
  std::uint32_t find(std::uint64_t h, Eq&& eq) const {
    const Table* t = cur_.load(std::memory_order_acquire);
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    for (std::size_t i = fp & t->mask;; i = (i + 1) & t->mask) {
      const std::uint64_t w = load(t->slots[i], std::memory_order_acquire);
      if (w == 0) return kMiss;
      if (static_cast<std::uint32_t>(w >> 32) == fp &&
          eq(static_cast<std::uint32_t>(w) - 1))
        return static_cast<std::uint32_t>(w) - 1;
    }
  }

  /// Find-or-insert; the caller holds the writer lock. Returns the record's
  /// reference and whether `make()` just appended it. `make()` returns the
  /// new record's reference (below kMiss).
  template <class Eq, class Make>
  std::pair<std::uint32_t, bool> insert(std::uint64_t h, Eq&& eq,
                                        Make&& make) {
    const Table* t = cur_.load(std::memory_order_relaxed);
    const std::uint32_t fp = static_cast<std::uint32_t>(h);
    std::size_t i = fp & t->mask;
    for (;; i = (i + 1) & t->mask) {
      const std::uint64_t w = load(t->slots[i], std::memory_order_relaxed);
      if (w == 0) break;
      if (static_cast<std::uint32_t>(w >> 32) == fp &&
          eq(static_cast<std::uint32_t>(w) - 1))
        return {static_cast<std::uint32_t>(w) - 1, false};
    }
    const std::uint32_t ref = make();
    std::atomic_ref<std::uint64_t>(t->slots[i])
        .store(pack(fp, ref), std::memory_order_release);
    const std::uint64_t n = size_.load(std::memory_order_relaxed) + 1;
    size_.store(n, std::memory_order_relaxed);
    if ((n + 1) * 10 >= (t->mask + 1) * 7) grow();
    return {ref, true};
  }

  /// Stored records; exact once writers are quiesced.
  std::uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Resident slot memory: the current table plus any retired table too
  /// small to be handed back.
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Calls `f(ref)` once per stored record, in table order. Writers must be
  /// quiesced.
  template <class F>
  void for_each(F&& f) const {
    const Table* t = cur_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i <= t->mask; ++i) {
      const std::uint64_t w = load(t->slots[i], std::memory_order_relaxed);
      if (w != 0) f(static_cast<std::uint32_t>(w) - 1);
    }
  }

 private:
  struct Table {
    HugeZeroBuf buf;
    std::uint64_t* slots = nullptr;
    std::size_t mask = 0;
  };

  static std::uint64_t pack(std::uint32_t fp, std::uint32_t ref) {
    return (static_cast<std::uint64_t>(fp) << 32) | (ref + 1u);
  }

  // Slots are plain words in zeroed memory, accessed only through
  // atomic_ref once a table is published.
  static std::uint64_t load(std::uint64_t& slot, std::memory_order mo) {
    return std::atomic_ref<std::uint64_t>(slot).load(mo);
  }

  static std::size_t cap_for(std::uint64_t expected) {
    // smallest power of two holding `expected` at <= 0.7 load
    std::size_t cap = 64;
    while (cap * 7 < (expected + 1) * 10) cap <<= 1;
    return cap;
  }

  /// Builds a table of `cap` slots holding every current record and makes
  /// it the one readers probe.
  void publish(std::size_t cap) {
    PNP_CHECK(cap <= (std::size_t{1} << 32), "index table exceeds 2^32 slots");
    auto t = std::make_unique<Table>();
    t->buf = HugeZeroBuf(cap * sizeof(std::uint64_t));
    t->slots = static_cast<std::uint64_t*>(t->buf.data());
    t->mask = cap - 1;
    if (!tables_.empty()) {
      const Table& old = *tables_.back();
      for (std::size_t i = 0; i <= old.mask; ++i) {
        const std::uint64_t w = load(old.slots[i], std::memory_order_relaxed);
        if (w == 0) continue;
        std::size_t j = static_cast<std::size_t>(w >> 32) & t->mask;
        while (t->slots[j] != 0) j = (j + 1) & t->mask;
        t->slots[j] = w;
      }
    }
    std::uint64_t bytes =
        bytes_.load(std::memory_order_relaxed) + t->buf.bytes();
    cur_.store(t.get(), std::memory_order_release);
    if (!tables_.empty() && tables_.back()->buf.discard())
      bytes -= tables_.back()->buf.bytes();
    bytes_.store(bytes, std::memory_order_relaxed);
    tables_.push_back(std::move(t));
  }

  void grow() { publish((tables_.back()->mask + 1) * 2); }

  // Readers touch only cur_ and the tables; the writer-side fields sit on
  // their own line so a fresh insert does not evict every reader's cur_.
  alignas(64) std::atomic<const Table*> cur_{nullptr};
  alignas(64) std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::vector<std::unique_ptr<Table>> tables_;  // writer-only; newest last
};

}  // namespace pnp::support
