// Counterexample trails without stored Steps, shared by the parallel exact
// engine and the sequential breadth-first search.
//
// A search that may have to print a trail keeps, for every stored state,
// only the edge it was reached by: its parent's id and the successor's
// ordinal -- its index in the parent's successor stream. The trail is
// rebuilt once, after a violation, by replaying the chain from its start
// state: each parent's successors are regenerated with the very call the
// search made (visit_expansion) and the ordinal-th one is taken. The
// replay is exact because successor order is deterministic and identical
// across engines (the codegen/engine.h contract) and the proviso-free
// ample choice is a pure function of the state, so the replayed Steps are
// the ones the search took. An ordinal, unlike (pid, trans, partner),
// also tells apart several successors of one transition (unordered and
// lossy receives).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "explore/explorer.h"
#include "kernel/machine.h"
#include "trace/trace.h"

namespace pnp::explore {

/// How a stored state was reached: its parent's id (the engine's own
/// numbering) and its ordinal in the parent's successor stream.
struct TrailEdge {
  std::uint64_t parent = 0;
  std::uint32_t ordinal = 0;
};
static_assert(sizeof(TrailEdge) <= 16, "a trail edge must stay compact");

/// Append-only edge storage for one searching thread: fixed-size chunks,
/// so an append is a store (no allocation per edge) and an index stays
/// valid for the log's lifetime.
class EdgeLog {
 public:
  static constexpr std::uint64_t kChunkEdges = std::uint64_t{1} << 12;

  /// Appends `e` and returns its index.
  std::uint64_t push(TrailEdge e) {
    if (size_ % kChunkEdges == 0)
      chunks_.push_back(std::make_unique<TrailEdge[]>(kChunkEdges));
    chunks_.back()[size_ % kChunkEdges] = e;
    return size_++;
  }

  const TrailEdge& operator[](std::uint64_t i) const {
    return chunks_[i / kChunkEdges][i % kChunkEdges];
  }

  std::uint64_t size() const { return size_; }

  /// Bytes held: every allocated chunk plus the chunk directory.
  std::uint64_t bytes() const {
    return chunks_.size() * kChunkEdges * sizeof(TrailEdge) +
           chunks_.capacity() * sizeof(chunks_[0]);
  }

 private:
  std::vector<std::unique_ptr<TrailEdge[]>> chunks_;
  std::uint64_t size_ = 0;
};

/// Streams the successors that a breadth-first or parallel expansion of
/// `s` visits, in order: the proviso-free ample set's when opt.por is on,
/// otherwise every successor, from opt.engine or the interpreter. Returns
/// the ample choice (-1 = full expansion).
int visit_expansion(const kernel::Machine& m, const Options& opt,
                    const kernel::State& s, kernel::SuccScratch& scratch,
                    kernel::SuccSink& sink);

/// Replays a trail from `start`, taking the ordinal-th successor of each
/// visit_expansion in turn, and renders it: one step per ordinal, and the
/// state the last one reaches as the final state. A replay that finds no
/// such successor means the search was not deterministic; it raises a
/// ModelError rather than print a trail the search never took.
trace::Trace replay_trail(const kernel::Machine& m, const Options& opt,
                          kernel::State start,
                          std::span<const std::uint32_t> ordinals);

}  // namespace pnp::explore
