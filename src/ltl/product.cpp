#include "ltl/product.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/crew.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/shuffle.h"

namespace pnp::ltl {

namespace {

using kernel::Machine;
using kernel::State;
using kernel::Step;

struct ProdSucc {
  State state;
  int q;
  int copy;
  Step step;
  bool stutter{false};
};

// The product automaton of system x Buchi automaton, optionally unfolded
// into #processes + 2 copies for weak fairness (Choueka construction,
// as in SPIN's -f):
//   copy 0:       edges from a state whose Buchi component is accepting
//                 lead to copy 1, others stay in copy 0;
//   copy i (1..N): edges lead to copy i+1 when process i-1 just moved or is
//                 disabled in the source state, else stay in copy i;
//   copy N+1:     edges lead back to copy 0; these states are the accepting
//                 set -- a cycle through copy N+1 is exactly a fair
//                 accepting cycle.
class ProductSearch {
 public:
  ProductSearch(const Machine& m, const PropertyContext& ctx,
                const BuchiAutomaton& ba, const CheckOptions& opt,
                const codegen::Engine* engine = nullptr,
                std::uint64_t perm_seed = 0,
                const std::atomic<bool>* stop = nullptr)
      : m_(m), ctx_(ctx), ba_(ba), opt_(opt), engine_(engine),
        perm_seed_(perm_seed), stop_(stop) {
    PNP_CHECK(ctx.size() <= 64, "at most 64 propositions supported");
    PNP_CHECK(!opt.weak_fairness || m.n_processes() <= 62,
              "weak fairness supports at most 62 processes");
    n_copies_ = opt.weak_fairness ? m.n_processes() + 2 : 1;
    if (opt.obs != nullptr) blk_ = opt.obs->recorder().open_block();
  }

  /// True when the run was cancelled by the shared stop flag (a sibling
  /// worker finished first); the result is then meaningless.
  bool aborted() const { return aborted_; }

  LtlResult run() {
    const auto t0 = std::chrono::steady_clock::now();
    LtlResult r;
    r.buchi_states = ba_.states.size();
    r.formula_text = ba_.formula_text;

    const State s0 = m_.initial();
    const std::uint64_t mask0 = props_mask(s0);
    bool found = false;
    for (std::size_t q = 0; q < ba_.states.size() && !found; ++q) {
      if (!ba_.states[q].initial) continue;
      if (!label_sat(ba_.states[q], mask0)) continue;
      found = dfs1(s0, static_cast<int>(q), r);
    }
    r.holds = !found;
    r.stats.states_stored = visited1_.size();
    r.stats.transitions = transitions_;
    r.stats.complete = complete_;
    if (!complete_) r.stats.truncation = explore::TruncationReason::MaxStates;
    r.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return r;
  }

  /// Publishes this search's tallies into its counter block. Called by
  /// check_ltl for the authoritative search only, so racing losers never
  /// inflate the merged totals.
  void publish_counters() {
    if (blk_ == nullptr) return;
    blk_->set(obs::Counter::StatesStored, visited1_.size() + visited2_.size());
    blk_->set(obs::Counter::Transitions, transitions_);
  }

 private:
  /// Allocation-free variant for the probe-per-transition hot path: `out`
  /// is replaced (capacity reused), so steady-state probes touch the
  /// allocator only when a state is actually new and copied into the set.
  void prod_key_into(std::string& out, const State& s, int q, int copy) const {
    kernel::encode_key_into(s, out);
    out.push_back(static_cast<char>(q & 0xff));
    out.push_back(static_cast<char>((q >> 8) & 0xff));
    out.push_back(static_cast<char>((q >> 16) & 0xff));
    out.push_back(static_cast<char>(copy & 0xff));
  }

  std::string prod_key(const State& s, int q, int copy) const {
    std::string key;
    prod_key_into(key, s, q, copy);
    return key;
  }

  std::uint64_t props_mask(const State& s) const {
    std::uint64_t mask = 0;
    for (int i = 0; i < ctx_.size(); ++i)
      if (m_.eval_global(ctx_.expr_of(i), s) != 0)
        mask |= std::uint64_t{1} << i;
    return mask;
  }

  static bool label_sat(const BuchiState& q, std::uint64_t mask) {
    for (const Literal& lit : q.label) {
      const bool v = (mask >> lit.prop) & 1;
      if (v == lit.negated) return false;
    }
    return true;
  }

  bool accepting(int q, int copy) const {
    if (!opt_.weak_fairness)
      return ba_.states[static_cast<std::size_t>(q)].accepting;
    return copy == n_copies_ - 1;  // copy N+1
  }

  /// Destination copy for a step executed by `moved_pid` (or a stutter /
  /// fully-blocked step when moved_pid < 0) out of (q, copy).
  int next_copy(int q, int copy, int moved_pid, int moved_partner,
                std::uint64_t enabled_pids) const {
    if (!opt_.weak_fairness) return 0;
    const int n = m_.n_processes();
    if (copy == 0)
      return ba_.states[static_cast<std::size_t>(q)].accepting ? 1 : 0;
    if (copy == n + 1) return 0;
    const int watched = copy - 1;  // process this copy waits on
    const bool moved = moved_pid == watched || moved_partner == watched;
    const bool disabled = ((enabled_pids >> watched) & 1) == 0;
    return (moved || disabled) ? copy + 1 : copy;
  }

  void prod_successors(const State& s, int q, int copy,
                       std::vector<ProdSucc>& out) {
    sys_succs_.clear();
    // System-side expansion is the hot inner loop of the product search; the
    // engine streams byte-identical successors in the same order, so the
    // product (keys, DFS order, trails) is unchanged.
    if (engine_ != nullptr)
      engine_->successors(s, sys_succs_);
    else
      m_.successors(s, sys_succs_);
    const BuchiState& bq = ba_.states[static_cast<std::size_t>(q)];

    std::uint64_t enabled_pids = 0;
    if (opt_.weak_fairness) {
      for (const kernel::Succ& succ : sys_succs_) {
        if (succ.second.pid >= 0 && succ.second.pid < 64)
          enabled_pids |= std::uint64_t{1} << succ.second.pid;
        if (succ.second.partner_pid >= 0 && succ.second.partner_pid < 64)
          enabled_pids |= std::uint64_t{1} << succ.second.partner_pid;
      }
    }

    if (sys_succs_.empty()) {
      // stutter extension: terminal system states loop on themselves
      const std::uint64_t mask = props_mask(s);
      const int c2 = next_copy(q, copy, -1, -1, 0);
      for (int q2 : bq.out)
        if (label_sat(ba_.states[static_cast<std::size_t>(q2)], mask))
          out.push_back({s, q2, c2, Step{}, true});
      permute(s, q, copy, out);
      return;
    }
    for (kernel::Succ& succ : sys_succs_) {
      const std::uint64_t mask = props_mask(succ.first);
      const int c2 = next_copy(q, copy, succ.second.pid,
                               succ.second.partner_pid, enabled_pids);
      // Copy the system state for all but the last satisfiable Buchi edge,
      // then move it into the final ProdSucc: sys_succs_ is scratch that is
      // cleared on the next expansion, and push order (ascending q2) is
      // preserved, so the DFS is byte-identical to the copying version.
      int pending = -1;
      for (int q2 : bq.out) {
        if (!label_sat(ba_.states[static_cast<std::size_t>(q2)], mask))
          continue;
        if (pending >= 0)
          out.push_back({succ.first, pending, c2, succ.second, false});
        pending = q2;
      }
      if (pending >= 0)
        out.push_back({std::move(succ.first), pending, c2, succ.second, false});
    }
    permute(s, q, copy, out);
  }

  /// Per-state permutation for racing workers: seeded by the worker seed
  /// mixed with the product state's own hash, so the order is a pure
  /// function of (state, seed) and survives frame regeneration.
  void permute(const State& s, int q, int copy, std::vector<ProdSucc>& out) {
    if (perm_seed_ == 0 || out.size() < 2) return;
    const std::string key = prod_key(s, q, copy);
    const std::uint64_t h = hash_bytes(
        {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()});
    seeded_shuffle(std::span(out), avalanche64(perm_seed_ ^ h));
  }

  bool stop_requested() {
    if (stop_ && stop_->load(std::memory_order_relaxed)) {
      aborted_ = true;
      complete_ = false;
      return true;
    }
    return false;
  }

  // As in the safety explorer, frames do not own successor lists: only the
  // top frame's successors are materialized, regenerated on resume
  // (prod_successors is deterministic, so indices stay valid).
  struct Frame {
    State state;
    int q;
    int copy;
    std::string key;
    Step in_step;
    bool in_stutter{false};
    std::uint32_t next = 0;
  };

  bool dfs1(const State& s0, int q0, LtlResult& r) {
    std::vector<Frame> stack;
    std::unordered_set<std::string> on_stack;

    Frame root;
    root.state = s0;
    root.q = q0;
    root.copy = 0;
    root.key = prod_key(s0, q0, 0);
    if (!visited1_.insert(root.key).second) return false;
    on_stack.insert(root.key);
    stack.push_back(std::move(root));

    std::vector<ProdSucc> succs;
    std::ptrdiff_t succs_for = -1;

    while (!stack.empty()) {
      if (stop_requested()) return false;
      observe();
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(stack.size()) - 1;
      Frame& f = stack[static_cast<std::size_t>(idx)];
      if (succs_for != idx) {
        succs.clear();
        prod_successors(f.state, f.q, f.copy, succs);
        if (f.next == 0) transitions_ += succs.size();  // first expansion
        succs_for = idx;
      }
      if (f.next < succs.size()) {
        ProdSucc& succ = succs[f.next++];
        // Probe with the reusable scratch key; the string is only copied
        // into the set (and the frame) when the state is genuinely new.
        prod_key_into(key_scratch_, succ.state, succ.q, succ.copy);
        if (visited1_.contains(key_scratch_)) continue;
        visited1_.insert(key_scratch_);
        if (visited1_.size() >= opt_.max_states) {
          complete_ = false;
          continue;
        }
        Frame nf;
        nf.state = std::move(succ.state);
        nf.q = succ.q;
        nf.copy = succ.copy;
        nf.key = key_scratch_;
        nf.in_step = succ.step;
        nf.in_stutter = succ.stutter;
        on_stack.insert(nf.key);
        stack.push_back(std::move(nf));
        succs_for = -1;
        continue;
      }
      // post-order: seed the inner search from accepting states
      if (accepting(f.q, f.copy)) {
        std::vector<std::pair<Step, bool>> cycle;
        if (dfs2(f.state, f.q, f.copy, on_stack, cycle)) {
          build_violation(stack, cycle, r);
          return true;
        }
        succs_for = -1;  // dfs2 clobbered nothing, but be conservative
      }
      on_stack.erase(f.key);
      stack.pop_back();
      succs_for = -1;
    }
    return false;
  }

  /// Inner DFS: from an accepting state, search for any state on the outer
  /// stack. Returns the cycle steps on success.
  bool dfs2(const State& seed, int q_seed, int copy_seed,
            const std::unordered_set<std::string>& on_stack1,
            std::vector<std::pair<Step, bool>>& cycle_out) {
    struct F2 {
      State state;
      int q;
      int copy;
      Step in_step;
      bool in_stutter{false};
      std::uint32_t next = 0;
    };
    std::vector<F2> stack;
    stack.push_back({seed, q_seed, copy_seed, Step{}, false, 0});
    if (!visited2_.insert(prod_key(seed, q_seed, copy_seed)).second)
      return false;

    std::vector<ProdSucc> succs;
    std::ptrdiff_t succs_for = -1;

    while (!stack.empty()) {
      if (stop_requested()) return false;
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(stack.size()) - 1;
      F2& f = stack[static_cast<std::size_t>(idx)];
      if (succs_for != idx) {
        succs.clear();
        prod_successors(f.state, f.q, f.copy, succs);
        if (f.next == 0) transitions_ += succs.size();  // first expansion
        succs_for = idx;
      }
      if (f.next >= succs.size()) {
        stack.pop_back();
        succs_for = -1;
        continue;
      }
      ProdSucc& succ = succs[f.next++];
      prod_key_into(key_scratch_, succ.state, succ.q, succ.copy);
      if (on_stack1.contains(key_scratch_)) {
        // cycle closes through the outer stack
        for (std::size_t i = 1; i < stack.size(); ++i)
          cycle_out.push_back({stack[i].in_step, stack[i].in_stutter});
        cycle_out.push_back({succ.step, succ.stutter});
        return true;
      }
      if (visited2_.contains(key_scratch_)) continue;
      visited2_.insert(key_scratch_);
      if (visited2_.size() >= opt_.max_states) {
        complete_ = false;
        continue;
      }
      stack.push_back({std::move(succ.state), succ.q, succ.copy, succ.step,
                       succ.stutter, 0});
      succs_for = -1;
    }
    return false;
  }

  void build_violation(const std::vector<Frame>& stack,
                       const std::vector<std::pair<Step, bool>>& cycle,
                       LtlResult& r) {
    explore::Violation v;
    v.kind = explore::ViolationKind::AcceptanceCycle;
    v.message = "acceptance cycle: an execution violates " + ba_.formula_text;
    if (opt_.weak_fairness) v.message += " (weak fairness enforced)";
    if (opt_.want_trace) {
      auto add = [&](const Step& st, bool stutter) {
        trace::TraceStep ts;
        ts.step = st;
        ts.description = stutter ? "(stutter: system terminated, state repeats)"
                                 : m_.describe_step(st);
        v.trace.steps.push_back(std::move(ts));
      };
      for (std::size_t i = 1; i < stack.size(); ++i)
        add(stack[i].in_step, stack[i].in_stutter);
      trace::TraceStep marker;
      marker.step = Step{};
      marker.description = "=== start of accepting cycle ===";
      v.trace.steps.push_back(std::move(marker));
      for (const auto& [st, stutter] : cycle) add(st, stutter);
      v.trace.final_state = m_.format_state(stack.back().state);
    }
    r.violation = std::move(v);
  }

  const Machine& m_;
  const PropertyContext& ctx_;
  const BuchiAutomaton& ba_;
  const CheckOptions& opt_;
  const codegen::Engine* engine_{nullptr};
  std::uint64_t perm_seed_{0};
  const std::atomic<bool>* stop_{nullptr};
  int n_copies_{1};

  /// Amortized telemetry every kObsStride outer-DFS iterations: a
  /// rate-limited heartbeat always; counter publication only when this is
  /// the lone search (racing workers overlap, so their intermediate tallies
  /// would inflate the merged totals -- the winner publishes once at the
  /// end instead, via check_ltl).
  void observe() {
    if (blk_ == nullptr) return;
    if (++obs_tick_ % kObsStride != 0) return;
    if (stop_ == nullptr) publish_counters();
    opt_.obs->progress(visited1_.size() + visited2_.size(), opt_.max_states);
  }

  static constexpr std::uint64_t kObsStride = 1024;

  std::unordered_set<std::string> visited1_;
  std::unordered_set<std::string> visited2_;
  std::vector<kernel::Succ> sys_succs_;
  std::string key_scratch_;
  std::uint64_t transitions_ = 0;
  bool complete_ = true;
  bool aborted_ = false;
  obs::CounterBlock* blk_ = nullptr;
  std::uint64_t obs_tick_ = 0;
};

}  // namespace

LtlResult check_ltl(const kernel::Machine& m, FormulaPool& pool,
                    const PropertyContext& ctx, FRef phi,
                    const CheckOptions& opt) {
  const FRef neg = pool.negate(phi);
  const BuchiAutomaton ba = build_buchi(pool, neg, &ctx);
  const int threads = explore::resolve_threads(opt.threads);

  // One engine serves every worker: engines are immutable after construction
  // and all mutable search state (scratch, visited sets) is per-worker.
  // Non-strict: an unavailable AOT toolchain degrades to bytecode with the
  // reason captured in `engine_note` rather than failing the check.
  std::unique_ptr<codegen::Engine> engine;
  std::string engine_note;
  if (opt.engine != codegen::EngineKind::Interp) {
    codegen::EngineOptions ecfg;
    ecfg.kind = opt.engine;
    ecfg.cache_dir = opt.engine_cache_dir;
    ecfg.strict = false;
    ecfg.obs = opt.obs;
    engine = codegen::make_engine(m, ecfg, &engine_note);
  }

  std::size_t phase = 0;
  if (opt.obs != nullptr)
    phase = opt.obs->begin_phase(
        threads <= 1 ? "ltl-product" : "ltl-product-racing", opt.max_states);
  LtlResult r;
  if (threads <= 1) {
    ProductSearch search(m, ctx, ba, opt, engine.get());
    r = search.run();
    search.publish_counters();
  } else {
    // Racing workers over the shared read-only (machine, automaton): worker
    // 0 runs the canonical order, the rest follow independently permuted
    // DFS orders. The first to finish posts its result and cancels the
    // rest -- sound because every worker's search is exact.
    std::atomic<bool> stop{false};
    std::atomic<int> winner{-1};
    std::vector<std::optional<LtlResult>> results(
        static_cast<std::size_t>(threads));
    run_crew(threads, stop, [&](int w) {
      const std::uint64_t seed =
          w == 0 ? 0
                 : avalanche64(0x17e1'0ba5'e11eull +
                               static_cast<std::uint64_t>(w));
      ProductSearch search(m, ctx, ba, opt, engine.get(), seed, &stop);
      LtlResult wr = search.run();
      if (search.aborted()) return;
      int expected = -1;
      if (winner.compare_exchange_strong(expected, w)) {
        search.publish_counters();  // only the authoritative search counts
        results[static_cast<std::size_t>(w)] = std::move(wr);
        stop.store(true, std::memory_order_relaxed);
      }
    });
    const int w = winner.load();
    PNP_CHECK(w >= 0, "check_ltl: no racing worker finished");
    r = std::move(*results[static_cast<std::size_t>(w)]);
    r.stats.threads = threads;
  }
  r.formula_text = pool.to_string(phi, &ctx);
  r.engine_requested = opt.engine;
  r.engine_actual = engine ? engine->kind() : codegen::EngineKind::Interp;
  r.engine_note = std::move(engine_note);
  if (opt.obs != nullptr) {
    opt.obs->end_phase(phase, r.stats.states_stored, r.stats.seconds,
                       r.stats.complete ? std::string()
                                        : explore::truncation_reason_name(
                                              r.stats.truncation));
    if (!r.holds && r.violation)
      opt.obs->counterexample(r.formula_text, "acceptance cycle");
  }
  return r;
}

LtlResult check_ltl(const kernel::Machine& m, const PropertyContext& ctx,
                    const std::string& formula, const CheckOptions& opt) {
  FormulaPool pool;
  const FRef phi = parse_ltl(pool, ctx, formula);
  return check_ltl(m, pool, ctx, phi, opt);
}

}  // namespace pnp::ltl
