// Explicit-state reachability exploration with safety checking.
//
// Checks, in one pass over the reachable state space:
//   * assertion violations (assert statements in the model),
//   * invalid end states (deadlock: no successor and some process not at a
//     valid end-state control point),
//   * a global state invariant (a closed expression over globals/channels
//     that must hold in every reachable state).
//
// DFS is the default; BFS yields shortest counterexamples. Optional
// partial-order reduction (safe ample sets over purely-local transitions)
// and double-bit bitstate hashing for very large spaces.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernel/machine.h"
#include "obs/obs.h"
#include "trace/trace.h"

namespace pnp::codegen {
class Engine;
}

namespace pnp::explore {

struct Options {
  std::uint64_t max_states = 20'000'000;
  int max_depth = 1'000'000;
  bool check_deadlock = true;
  expr::Ref invariant = expr::kNoExpr;  // closed over globals/channels
  std::string invariant_name;
  /// Must hold in every TERMINAL state (state without successors). Useful
  /// for "when the system finishes, X has happened" claims that would need
  /// fairness as LTL liveness.
  expr::Ref end_invariant = expr::kNoExpr;
  std::string end_invariant_name;
  bool por = false;       // partial-order reduction
  bool bfs = false;       // breadth-first (shortest counterexamples)
  bool bitstate = false;  // Bloom-filter visited set (approximate)
  std::uint64_t bitstate_bytes = std::uint64_t{1} << 24;
  bool want_trace = true;
  /// Wall-clock budget for the search; 0 disables. When exceeded, the
  /// search stops early and returns a partial result with
  /// `Stats::truncation == TruncationReason::Deadline`.
  double deadline_seconds = 0.0;
  /// Approximate cap on search memory (visited set + frontier); 0 disables.
  std::uint64_t memory_budget_bytes = 0;
  /// Worker threads for the search. 1 (the default) runs the sequential
  /// engine, bit-for-bit identical to prior behavior; 0 means hardware
  /// concurrency. With more than one thread, exact mode uses a sharded
  /// visited set (lock-free duplicate hits) with a work-stealing frontier --
  /// verdicts and, for complete runs, reached-state counts are independent
  /// of the thread count (counterexample trails may differ). Bitstate mode
  /// becomes swarm search: N independently seeded bitstate searches run
  /// concurrently and their verdicts are merged.
  int threads = 1;
  /// Observability context: engines publish counters into per-run blocks
  /// (opened on obs->recorder()), emit rate-limited Progress heartbeats,
  /// an 80% BudgetWarning per budget, and set store/frontier gauges. Null
  /// (the default) disables all of it at the cost of one branch per
  /// budget-check stride. The recorder's own footprint is charged against
  /// memory_budget_bytes, keeping the budget honest.
  obs::Observer* obs = nullptr;

  /// Compiled successor engine (codegen::make_engine). Null runs the
  /// interpreted Machine::visit_successors -- the historical path. Engines
  /// are drop-in equivalent (same successors, same order, same verdicts)
  /// and serve every search mode, including the POR ample probe and chosen
  /// expansion; engines with encode_support() additionally serve the
  /// COLLAPSE delta store path. Not owned; must outlive the exploration.
  const codegen::Engine* engine = nullptr;

  // -- durability (see DESIGN.md section 13) -------------------------------

  /// Directory for mmap'd spill files. When set, an exact engine that
  /// reaches the memory budget attaches disk-backed storage to its
  /// visited-key arena and compressor intern pools and keeps exploring
  /// (complete, exact) instead of truncating with MemoryBudget. The budget
  /// then governs the resident set; spilled pages are clean-evictable.
  std::string spill_dir;
  /// pnp.ckpt.v1 snapshot file. When set, exact engines write an
  /// atomically-committed checkpoint every `checkpoint_every` stored states
  /// and a final one on interrupt/deadline/truncation. Requires exact mode
  /// (not bitstate) and, for DFS, no partial-order reduction (the sequential
  /// ample-set proviso depends on the search stack, which a resumed run
  /// cannot reconstruct; BFS and parallel POR are stack-free and fine).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  /// Stamped into checkpoint headers and validated on resume, so a
  /// checkpoint can never silently continue under a different config.
  std::string config_digest;
  /// Seed the search from a previously read checkpoint instead of the
  /// machine's initial state. Not owned; must outlive the call.
  const struct Checkpoint* resume_from = nullptr;
  /// Cooperative interrupt (SIGINT/SIGTERM): engines write a final
  /// checkpoint (if configured) and stop with TruncationReason::Interrupted.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Why an exploration stopped before covering the full state space.
enum class TruncationReason : std::uint8_t {
  None,           // search ran to completion
  MaxStates,      // Options::max_states reached
  MaxDepth,       // Options::max_depth reached (DFS only)
  Deadline,       // Options::deadline_seconds exceeded
  MemoryBudget,   // Options::memory_budget_bytes exceeded
  BitstateApprox, // bitstate hashing: coverage is probabilistic
  MemorySpilled,  // informational: budget hit, stores spilled, search went on
  Interrupted,    // SIGINT/SIGTERM: stopped after a final checkpoint
};

const char* truncation_reason_name(TruncationReason r);

enum class ViolationKind : std::uint8_t {
  AssertFailed,
  Deadlock,
  InvariantViolated,
  EndInvariantViolated,
  AcceptanceCycle,  // produced by the LTL product search
};

struct Violation {
  ViolationKind kind{};
  std::string message;
  trace::Trace trace;
};

/// One worker's slice of the merged totals in `Stats` (parallel/swarm runs).
struct WorkerStats {
  std::uint64_t states_stored = 0;  // fresh states this worker inserted
  std::uint64_t states_matched = 0;
  std::uint64_t transitions = 0;
  int max_depth_reached = 0;
  double seconds = 0.0;
};

struct Stats {
  std::uint64_t states_stored = 0;
  std::uint64_t states_matched = 0;
  std::uint64_t transitions = 0;
  int max_depth_reached = 0;
  double seconds = 0.0;
  /// False when a limit (max_states / max_depth / deadline / memory)
  /// truncated the search or bitstate hashing made it approximate.
  bool complete = true;
  /// Structured explanation for `complete == false`.
  TruncationReason truncation = TruncationReason::None;
  /// Rough bytes held by the visited set and frontier at the end of the run.
  std::uint64_t approx_memory_bytes = 0;
  /// Peak bytes held by the visited store alone: probe tables + key arenas +
  /// component intern tables in exact mode, the Bloom filter in bitstate
  /// mode. This is the denominator-quality number for bytes/state; the
  /// store only grows, so its final size is its peak.
  std::uint64_t store_bytes = 0;
  /// Worker threads the search actually used.
  int threads = 1;
  /// True when the memory budget was reached and the stores switched to
  /// disk-backed (mmap) storage instead of truncating. A spilled run can
  /// still be complete -- that is the point.
  bool spilled = false;
  /// Disk-backed store bytes at the end of a spilled run (excluded from
  /// store_bytes, which reports the resident footprint).
  std::uint64_t spill_bytes = 0;
  /// Checkpoints committed during this run (periodic + final).
  std::uint64_t checkpoints_written = 0;
  /// True when the search was seeded from a checkpoint. states_stored then
  /// includes the states restored from it.
  bool resumed = false;
  /// Per-worker breakdown; empty for single-threaded runs. The totals above
  /// are the merged view (states_stored is the deduplicated global count in
  /// exact mode and the per-filter sum in swarm mode).
  std::vector<WorkerStats> workers;

  /// Stored states per wall-clock second. Runs under 1ms report 0: the
  /// steady-clock quantum makes such quotients garbage (a 40-state toy
  /// "exploring" at 10^8 st/s), and 0 is an honest "too fast to time".
  double states_per_second() const {
    return seconds >= 1e-3 ? static_cast<double>(states_stored) / seconds
                           : 0.0;
  }
  /// Visited-store bytes per stored state.
  double store_bytes_per_state() const {
    return states_stored > 0
               ? static_cast<double>(store_bytes) /
                     static_cast<double>(states_stored)
               : 0.0;
  }
};

struct Result {
  std::optional<Violation> violation;
  Stats stats;

  bool ok() const { return !violation.has_value(); }
};

const char* violation_kind_name(ViolationKind k);

Result explore(const kernel::Machine& m, const Options& opt = {});

/// Resolves an `Options::threads`-style request: 0 = hardware concurrency,
/// anything else clamped to >= 1.
int resolve_threads(int requested);

namespace detail {

/// Visited-table pre-size for an exact search, shared by the sequential
/// and parallel engines: honors a caller-set max_states bound exactly but
/// caps the speculative up-front allocation -- the tables double cheaply
/// past the cap. Under a memory budget the pre-sized table takes at most a
/// quarter of it: a table for n keys at <= 0.7 load has fewer than
/// 2n / 0.7 slots of 8 bytes, under 23 bytes per key.
std::uint64_t expected_states(const Options& opt);

/// The sequential engine, also run by every swarm worker: `perm_seed != 0`
/// permutes every state's successor order with a deterministic per-state
/// shuffle (bitstate mode only), `bitstate_seed` perturbs the Bloom hash
/// functions, and a set `stop` flag aborts the search cooperatively. Every
/// other Options field, budgets and interrupt included, applies as in a
/// sequential search. explore() uses (0, 0, nullptr), which is exactly the
/// historical sequential search.
Result run_single(const kernel::Machine& m, const Options& opt,
                  std::uint64_t perm_seed, std::uint64_t bitstate_seed,
                  const std::atomic<bool>* stop);

/// Exact parallel reachability: sharded visited set + work-stealing frontier.
Result run_parallel(const kernel::Machine& m, const Options& opt, int threads);

/// Swarm mode: N independently seeded bitstate searches run concurrently;
/// a violation found by any worker stops the swarm, otherwise every filter
/// runs to completion and coverage is the union.
Result run_swarm(const kernel::Machine& m, const Options& opt, int threads);

}  // namespace detail

}  // namespace pnp::explore
