// Partial-order reduction: conservative ample-set computation.
//
// A process is an ample candidate in a state when every transition it can
// take there is `local_only` (touches neither globals nor channels, so it
// is both invisible to properties and independent of every other process's
// transitions). The cycle proviso (C3) is enforced by rejecting candidates
// with a successor already on the DFS stack.
//
// Every entry point optionally takes a codegen::Engine: when non-null, both
// the per-pid ample probe and the chosen expansion run the compiled backend
// instead of the interpreter. The engine equivalence contract (byte-identical
// successor streams and Step fields, engine.h) makes the ample decision a
// pure function of the state either way -- the probe is a conjunction over
// the streamed successors, so identical streams give identical ample sets.
#pragma once

#include <cstdint>
#include <functional>

#include "kernel/machine.h"

namespace pnp::codegen {
class Engine;
}

namespace pnp::explore {

using OnStackFn = std::function<bool(const kernel::State&)>;

/// Decides the ample set for `s`: the pid of an ample process, or -1 for
/// full expansion. `on_stack` implements the cycle proviso (C3); pass
/// nullptr to skip it (BFS, where C3 is not needed for safety-only checking
/// of our invisible-transition ample sets). The decision is a function of
/// (state, stack) and must be recorded by the caller so that regenerating a
/// frame's successors reproduces the exact same list. Candidates are
/// probed by mutate-and-revert in `scratch` (no state copies).
int por_choose(const kernel::Machine& m, const kernel::State& s,
               const OnStackFn* on_stack, kernel::SuccScratch& scratch,
               const codegen::Engine* engine = nullptr);

/// Streams the successors of `s` per a recorded choice (-1 = all
/// processes, otherwise only that pid's) to `sink` one at a time (see
/// Machine::visit_successors). With an engine, `skip` and `resume` carry
/// the pass-based DFS's native candidate suppression and fast-forward
/// token through to the backend (engine.h); the interpreter path ignores
/// both and keeps the historical sink-side skip, so interpreter callers
/// must pass 0 / nullptr.
void por_visit(const kernel::Machine& m, const kernel::State& s, int choice,
               kernel::SuccScratch& scratch, kernel::SuccSink& sink,
               const codegen::Engine* engine = nullptr, std::uint32_t skip = 0,
               std::uint64_t* resume = nullptr);

}  // namespace pnp::explore
