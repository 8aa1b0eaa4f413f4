// Successor -> visited key, shared by the sequential and parallel exact
// engines.
//
// A successor produced by mutate-and-revert generation differs from its
// parent only in the slots its undo log names, so its COLLAPSE key needs
// only those regions re-interned; every other region reuses the parent's
// component id (the delta win -- most steps dirty one or two regions out
// of many). States with no parent ids to delta against -- the root and
// states restored from a checkpoint -- take the full path.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "codegen/engine.h"
#include "kernel/compress.h"

namespace pnp::explore {

/// One per searching thread (it owns the key and id buffers); any number
/// of keyers may share one concurrent compressor.
class SuccKeyer {
 public:
  /// `engine` may be null. When it open-codes this layout's dirty-mask and
  /// region-hash walks (Engine::encode_support, at most 64 regions), the
  /// delta path takes them instead of the generic undo-log scan.
  SuccKeyer(kernel::StateCompressor& c, const codegen::Engine* engine)
      : c_(c),
        ids_(static_cast<std::size_t>(c.n_regions())),
        dirty_(ids_.size()) {
    if (engine != nullptr && engine->encode_support() && ids_.size() <= 64) {
      engine_ = engine;
      hashes_.resize(ids_.size());
    }
  }

  /// Key of `s` from scratch; ids() receives its per-region ids.
  std::span<const std::uint8_t> full(const kernel::State& s) {
    c_.compress_full(s, key_, ids_.data());
    ++fulls_;
    return key_;
  }

  /// Key of a successor just produced by the streaming generator, while
  /// `undo` (the generator's undo log) still describes the mutation from
  /// the parent whose ids are `parent_ids`. Byte-identical to full(s);
  /// ids() receives the successor's ids.
  std::span<const std::uint8_t> delta(
      const kernel::State& s,
      const std::vector<std::pair<int, kernel::Value>>& undo,
      const std::uint32_t* parent_ids) {
    if (engine_ != nullptr) {
      // Engine store path: the undo log folds to a region bitmask through
      // the engine's constant slot->mask table, and each dirty region's
      // hash comes from its open-coded layout walk (bit-exact fast_hash64,
      // so ids and key bytes are unchanged -- see Engine::encode_support).
      const std::uint64_t dirty =
          engine_->dirty_regions(undo.data(), undo.size());
      for (std::uint64_t rest = dirty; rest != 0; rest &= rest - 1) {
        const int k = std::countr_zero(rest);
        hashes_[static_cast<std::size_t>(k)] =
            engine_->region_hash(s.mem.data(), k);
      }
      c_.compress_delta_masked(s, parent_ids, dirty, hashes_.data(), key_,
                               ids_.data());
    } else {
      std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
      const std::vector<int>& reg = c_.region_of_slot();
      for (const auto& [slot, old] : undo)
        dirty_[static_cast<std::size_t>(reg[static_cast<std::size_t>(slot)])] =
            1;
      c_.compress_delta(s, parent_ids, dirty_.data(), key_, ids_.data());
    }
    ++deltas_;
    return key_;
  }

  /// Per-region ids of the state keyed last.
  const std::vector<std::uint32_t>& ids() const { return ids_; }

  /// Keys built by full() and by delta(), for the CompressFull and
  /// CompressDelta counters.
  std::uint64_t fulls() const { return fulls_; }
  std::uint64_t deltas() const { return deltas_; }

 private:
  kernel::StateCompressor& c_;
  const codegen::Engine* engine_ = nullptr;
  std::vector<std::uint8_t> key_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint8_t> dirty_;     // per-region dirty flags (reused)
  std::vector<std::uint64_t> hashes_;   // per-region, dirty bits only
  std::uint64_t fulls_ = 0;
  std::uint64_t deltas_ = 0;
};

}  // namespace pnp::explore
