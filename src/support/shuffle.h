// The seeded successor-order shuffle shared by the swarm workers
// (explore/explorer.cpp) and the racing LTL workers (ltl/product.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

namespace pnp {

/// Deterministic Fisher-Yates driven by xorshift64*: the same (length,
/// seed) always yields the same permutation, so a search that expands a
/// state again (a DFS frame it returns to) sees the same order each time.
/// xorshift never leaves zero, so a zero seed is replaced by a constant.
template <class T>
void seeded_shuffle(std::span<T> v, std::uint64_t seed) {
  std::uint64_t x = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  for (std::size_t i = v.size(); i > 1; --i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    // bias of the modulo reduction is irrelevant here
    std::swap(v[i - 1], v[(x * 0x2545f4914f6cdd1dull) % i]);
  }
}

}  // namespace pnp
