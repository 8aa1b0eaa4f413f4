#include "kernel/compress.h"

#include <cstring>

#include "support/hash.h"
#include "support/panic.h"

namespace pnp::kernel {

namespace {

// Compressed keys are built tens of millions of times per run; writing
// through a raw pointer into a pre-sized buffer avoids the per-byte
// push_back size/capacity dance that showed up in exploration profiles.
inline std::uint8_t* write_varint(std::uint8_t* p, std::uint32_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

// Worst-case encoded size: 5 varint bytes per region plus the pid byte.
inline std::size_t key_bound(std::size_t n_regions) { return n_regions * 5 + 1; }

std::uint32_t read_varint(std::span<const std::uint8_t> key, std::size_t& at) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    PNP_CHECK(at < key.size(), "truncated compressed state key");
    const std::uint8_t b = key[at++];
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    PNP_CHECK(shift < 32, "overlong varint in compressed state key");
  }
}

}  // namespace

StateCompressor::StateCompressor(const Layout& lay, int stripes,
                                 std::size_t expected_components)
    : n_stripes_(stripes < 1 ? 1 : stripes),
      concurrent_(stripes > 1),
      state_size_(lay.size()) {
  const auto regions = lay.regions();
  regions_.reserve(regions.size());
  const std::size_t per_stripe =
      expected_components / static_cast<std::size_t>(n_stripes_) + 1;
  for (const auto& [begin, width] : regions) {
    Region r;
    r.begin = begin;
    r.width = width;
    for (int i = 0; i < n_stripes_; ++i) {
      r.stripes.push_back(std::make_unique<Stripe>(per_stripe));
      Stripe& st = *r.stripes.back();
      st.store.init(width);
      st.bytes.store(st.index.bytes(), std::memory_order_relaxed);
    }
    regions_.push_back(std::move(r));
  }
  region_of_slot_.assign(static_cast<std::size_t>(state_size_), -1);
  for (std::size_t k = 0; k < regions_.size(); ++k)
    for (int i = 0; i < regions_[k].width; ++i)
      region_of_slot_[static_cast<std::size_t>(regions_[k].begin + i)] =
          static_cast<int>(k);
}

std::uint32_t StateCompressor::intern(Region& r, const Value* vals) {
  const std::size_t width = static_cast<std::size_t>(r.width);
  const std::uint64_t h = fast_hash64(
      {reinterpret_cast<const std::uint8_t*>(vals), width * sizeof(Value)});
  return intern_hashed(r, vals, h);
}

std::uint32_t StateCompressor::intern_hashed(Region& r, const Value* vals,
                                             std::uint64_t h) {
  const std::size_t bytes = static_cast<std::size_t>(r.width) * sizeof(Value);
  // High bits pick the stripe, low bits probe the stripe-local table, so the
  // two uses stay independent.
  const std::uint32_t si = static_cast<std::uint32_t>(
      (h >> 48) % static_cast<std::uint64_t>(n_stripes_));
  const std::uint32_t n = static_cast<std::uint32_t>(n_stripes_);
  Stripe& st = *r.stripes[si];
  const auto eq = [&](std::uint32_t local) {
    return std::memcmp(st.store.at(local), vals, bytes) == 0;
  };
  const std::uint32_t hit = st.index.find(h, eq);
  if (hit != support::ReadMostlyTable::kMiss) return hit * n + si;

  std::unique_lock<std::mutex> lock(st.mu, std::defer_lock);
  if (concurrent_) lock.lock();
  const auto [local, fresh] = st.index.insert(h, eq, [&] {
    const std::uint32_t id = st.store.size();
    st.store.append(vals);
    return id;
  });
  if (fresh) {
    st.bytes.store(st.index.bytes() + st.store.resident_bytes(),
                   std::memory_order_relaxed);
    st.spill_bytes.store(st.store.spill_bytes(), std::memory_order_relaxed);
  }
  return local * n + si;
}

void StateCompressor::compress(const State& s, std::vector<std::uint8_t>& out) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (Region& r : regions_)
    p = write_varint(p, intern(r, s.mem.data() + r.begin));
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void StateCompressor::compress_full(const State& s,
                                    std::vector<std::uint8_t>& out,
                                    std::uint32_t* ids) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    ids[k] = intern(regions_[k], s.mem.data() + regions_[k].begin);
    p = write_varint(p, ids[k]);
  }
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void StateCompressor::compress_delta(const State& s,
                                     const std::uint32_t* prev_ids,
                                     const std::uint8_t* dirty,
                                     std::vector<std::uint8_t>& out,
                                     std::uint32_t* ids) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    ids[k] = dirty[k] ? intern(regions_[k], s.mem.data() + regions_[k].begin)
                      : prev_ids[k];
    p = write_varint(p, ids[k]);
  }
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void StateCompressor::compress_delta_masked(const State& s,
                                            const std::uint32_t* prev_ids,
                                            std::uint64_t dirty,
                                            const std::uint64_t* hashes,
                                            std::vector<std::uint8_t>& out,
                                            std::uint32_t* ids) {
  PNP_CHECK(static_cast<int>(s.mem.size()) == state_size_,
            "compress: state size does not match layout");
  PNP_CHECK(regions_.size() <= 64,
            "compress_delta_masked: layout exceeds 64 regions");
  out.resize(key_bound(regions_.size()));
  std::uint8_t* p = out.data();
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    ids[k] = (dirty >> k) & 1u
                 ? intern_hashed(regions_[k], s.mem.data() + regions_[k].begin,
                                 hashes[k])
                 : prev_ids[k];
    p = write_varint(p, ids[k]);
  }
  PNP_CHECK(s.atomic_pid < 255, "compress: atomic pid out of byte range");
  *p++ = static_cast<std::uint8_t>(s.atomic_pid & 0xff);
  out.resize(static_cast<std::size_t>(p - out.data()));
}

State StateCompressor::decompress(std::span<const std::uint8_t> key) const {
  State s;
  decompress(key, s, nullptr);
  return s;
}

void StateCompressor::decompress(std::span<const std::uint8_t> key, State& s,
                                 std::uint32_t* ids) const {
  s.mem.resize(static_cast<std::size_t>(state_size_));
  std::size_t at = 0;
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    const Region& r = regions_[k];
    const std::uint32_t id = read_varint(key, at);
    const std::uint32_t local = id / static_cast<std::uint32_t>(n_stripes_);
    const Stripe& st = *r.stripes[id % static_cast<std::uint32_t>(n_stripes_)];
    PNP_CHECK(local < st.store.size(), "decompress: component id out of range");
    std::memcpy(s.mem.data() + r.begin, st.store.at(local),
                static_cast<std::size_t>(r.width) * sizeof(Value));
    if (ids != nullptr) ids[k] = id;
  }
  PNP_CHECK(at + 1 == key.size(), "decompress: trailing bytes in key");
  const std::uint8_t pid = key[at];
  s.atomic_pid = pid == 0xff ? -1 : static_cast<int>(pid);
}

std::uint64_t StateCompressor::components() const {
  std::uint64_t n = 0;
  for (const Region& r : regions_)
    for (const auto& st : r.stripes) n += st->store.size();
  return n;
}

std::vector<std::uint64_t> StateCompressor::region_component_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(regions_.size());
  for (const Region& r : regions_) {
    std::uint64_t n = 0;
    for (const auto& st : r.stripes) n += st->store.size();
    out.push_back(n);
  }
  return out;
}

std::uint64_t StateCompressor::approx_bytes() const {
  std::uint64_t bytes = 0;
  for (const Region& r : regions_)
    for (const auto& st : r.stripes)
      bytes += st->bytes.load(std::memory_order_relaxed);
  return bytes;
}

void StateCompressor::attach_spill(support::SpillPool* pool) {
  for (Region& r : regions_) {
    for (const auto& st : r.stripes) {
      std::unique_lock<std::mutex> lock(st->mu, std::defer_lock);
      if (concurrent_) lock.lock();
      st->store.attach_spill(pool);
    }
  }
}

std::uint64_t StateCompressor::spill_bytes() const {
  std::uint64_t bytes = 0;
  for (const Region& r : regions_)
    for (const auto& st : r.stripes)
      bytes += st->spill_bytes.load(std::memory_order_relaxed);
  return bytes;
}

}  // namespace pnp::kernel
