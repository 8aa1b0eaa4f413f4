// Parallel-exploration determinism: the multi-threaded engines must return
// the same verdict as the sequential one at every thread count, and -- for
// complete exact runs -- the same reached-state count, across the deadlock,
// invariant, and LTL suites. Trail contents may differ; verdicts may not,
// and every trail must be a real path that replays on the interpreter.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>

#include "adl/adl.h"
#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "explore/trail.h"
#include "kernel/machine.h"
#include "ltl/product.h"
#include "model/builder.h"
#include "model_file.h"
#include "obs/obs.h"
#include "pml/parser.h"
#include "pnp/pnp.h"

namespace pnp::explore {
namespace {

using namespace model;

const int kThreadCounts[] = {1, 2, 8};

/// Producer/consumer family with a tunable invariant: `slack` >= 0 makes the
/// bound hold, negative slack forces a violation partway through the run.
struct Flow {
  std::unique_ptr<SystemSpec> sys;
  expr::Ref invariant{expr::kNoExpr};

  kernel::Machine machine() const { return kernel::Machine(*sys); }
};

Flow make_flow(int workers, int per, int slack) {
  Flow f;
  f.sys = std::make_unique<SystemSpec>();
  SystemSpec& sys = *f.sys;
  const int ch = sys.add_channel("c", 2, 1);
  const int total = sys.add_global("total");
  for (int w = 0; w < workers; ++w) {
    ProcBuilder p(sys, "W" + std::to_string(w));
    const LVar i = p.local("i");
    const LVar scratch = p.local("s");
    p.finish(seq(do_(
        alt(seq(guard(p.l(i) < p.k(per)),
                assign(scratch, p.l(i) * p.k(3)),
                assign(scratch, p.l(scratch) + p.k(1)),
                send(p.c(Chan{ch}), {p.k(1)}),
                assign(i, p.l(i) + p.k(1)))),
        alt(seq(guard(p.l(i) == p.k(per)), break_())))));
    sys.spawn("w" + std::to_string(w), w, {});
  }
  ProcBuilder q(sys, "Collector");
  const LVar v = q.local("v");
  const LVar n = q.local("n");
  const int want = workers * per;
  q.finish(seq(do_(
      alt(seq(guard(q.l(n) < q.k(want)), recv(q.c(Chan{ch}), {bind(v)}),
              assign(GVar{total}, q.g(GVar{total}) + q.l(v)),
              assign(n, q.l(n) + q.k(1)))),
      alt(seq(guard(q.l(n) == q.k(want)), break_())))));
  sys.spawn("collector", workers, {});
  f.invariant = sys.exprs.binary(expr::Op::Le, sys.exprs.global(total),
                                 sys.exprs.konst(want + slack));
  return f;
}

/// A producer pushing `sent` messages through a capacity-1 channel to a
/// consumer that stops after `taken`: with taken < sent the producer blocks
/// forever mid-body -- a genuine multi-step deadlock.
std::unique_ptr<SystemSpec> make_pipeline(int sent, int taken) {
  auto sys = std::make_unique<SystemSpec>();
  const int ch = sys->add_channel("c", 1, 1);
  ProcBuilder p(*sys, "Producer");
  const LVar i = p.local("i");
  p.finish(seq(do_(
      alt(seq(guard(p.l(i) < p.k(sent)), send(p.c(Chan{ch}), {p.l(i)}),
              assign(i, p.l(i) + p.k(1)))),
      alt(seq(guard(p.l(i) == p.k(sent)), break_())))));
  sys->spawn("producer", 0, {});
  ProcBuilder q(*sys, "Consumer");
  const LVar v = q.local("v");
  const LVar n = q.local("n");
  q.finish(seq(do_(
      alt(seq(guard(q.l(n) < q.k(taken)), recv(q.c(Chan{ch}), {bind(v)}),
              assign(n, q.l(n) + q.k(1)))),
      alt(seq(guard(q.l(n) == q.k(taken)), break_())))));
  sys->spawn("consumer", 1, {});
  return sys;
}

Result explore_at(const kernel::Machine& m, Options opt, int threads) {
  opt.threads = threads;
  return explore(m, opt);
}

// -- invariant suite ----------------------------------------------------------

TEST(ParallelExact, InvariantVerdictAndCountsMatchAcrossThreadCounts) {
  for (const int slack : {0, -1}) {
    const Flow f = make_flow(3, 2, slack);
    const kernel::Machine m = f.machine();
    Options opt;
    opt.invariant = f.invariant;

    const Result seq = explore_at(m, opt, 1);
    EXPECT_EQ(seq.violation.has_value(), slack < 0);
    for (const int t : kThreadCounts) {
      const Result par = explore_at(m, opt, t);
      EXPECT_EQ(par.violation.has_value(), seq.violation.has_value())
          << "threads=" << t << " slack=" << slack;
      if (par.violation && seq.violation) {
        EXPECT_EQ(par.violation->kind, seq.violation->kind);
      }
      if (!seq.violation) {
        // complete exact runs must agree on the reached-state count
        EXPECT_TRUE(par.stats.complete);
        EXPECT_EQ(par.stats.states_stored, seq.stats.states_stored)
            << "threads=" << t;
      }
    }
  }
}

TEST(ParallelExact, PerWorkerCountersSumToMergedTotals) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  obs::Observer ob;
  opt.obs = &ob;
  const Result r = explore_at(m, opt, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.stats.threads, 4);
  ASSERT_EQ(r.stats.workers.size(), 4u);
  std::uint64_t stored = 0, matched = 0, transitions = 0;
  for (const WorkerStats& w : r.stats.workers) {
    stored += w.states_stored;
    matched += w.states_matched;
    transitions += w.transitions;
  }
  // root is inserted by the seeder, not a worker
  EXPECT_EQ(stored + 1, r.stats.states_stored);
  EXPECT_EQ(matched, r.stats.states_matched);
  EXPECT_EQ(transitions, r.stats.transitions);
  // the workers' counter blocks merge to the same totals, and the key path
  // is published like the sequential engine's: the root is compressed in
  // full, every successor (the model has no assertions) by delta
  const obs::Recorder& rec = ob.recorder();
  EXPECT_EQ(rec.total(obs::Counter::StatesStored), r.stats.states_stored);
  EXPECT_EQ(rec.total(obs::Counter::StatesMatched), r.stats.states_matched);
  EXPECT_EQ(rec.total(obs::Counter::Transitions), r.stats.transitions);
  EXPECT_EQ(rec.total(obs::Counter::CompressFull), 1u);
  EXPECT_EQ(rec.total(obs::Counter::CompressDelta), r.stats.transitions);
}

// -- deadlock suite -----------------------------------------------------------

TEST(ParallelExact, DeadlockVerdictMatchesAcrossThreadCounts) {
  // blocked producer -> deadlock; balanced pipeline -> clean termination
  for (const bool deadlocks : {true, false}) {
    // taken = sent - 2: the producer buffers one message into the cap-1
    // channel after the consumer stops, then blocks on the next forever.
    const auto sys = make_pipeline(3, deadlocks ? 1 : 3);
    const kernel::Machine m(*sys);
    Options opt;
    const Result seq = explore_at(m, opt, 1);
    ASSERT_EQ(seq.violation.has_value(), deadlocks);
    if (deadlocks) {
      EXPECT_EQ(seq.violation->kind, ViolationKind::Deadlock);
    }
    for (const int t : kThreadCounts) {
      const Result par = explore_at(m, opt, t);
      EXPECT_EQ(par.violation.has_value(), deadlocks) << "threads=" << t;
      if (deadlocks) {
        EXPECT_EQ(par.violation->kind, ViolationKind::Deadlock);
        EXPECT_FALSE(par.violation->trace.steps.empty());
        EXPECT_FALSE(par.violation->trace.final_state.empty());
      } else {
        EXPECT_EQ(par.stats.states_stored, seq.stats.states_stored);
      }
    }
  }
}

bool same_step(const kernel::Step& a, const kernel::Step& b) {
  return a.pid == b.pid && a.trans == b.trans &&
         a.partner_pid == b.partner_pid && a.partner_trans == b.partner_trans &&
         a.event.kind == b.event.kind && a.event.chan == b.event.chan &&
         a.event.msg == b.event.msg && a.assert_failed == b.assert_failed;
}

/// Replays `t` from `start` on the interpreter: every step must equal, in
/// every Step field, a successor of the state reached so far, and carry
/// that step's description; the trail must end in its reported final
/// state. Returns the state reached, or nullopt when the trail is not a
/// path from `start`.
std::optional<kernel::State> replay_on_interpreter(const kernel::Machine& m,
                                                   kernel::State start,
                                                   const trace::Trace& t) {
  kernel::State s = std::move(start);
  std::vector<kernel::Succ> succs;
  for (const trace::TraceStep& ts : t.steps) {
    succs.clear();
    m.successors(s, succs);
    const auto it = std::find_if(succs.begin(), succs.end(), [&](const auto& c) {
      return same_step(c.second, ts.step);
    });
    if (it == succs.end() || ts.description != m.describe_step(ts.step))
      return std::nullopt;
    s = it->first;
  }
  if (m.format_state(s) != t.final_state) return std::nullopt;
  return s;
}

TEST(ParallelExact, CounterexampleTraceReplaysToViolation) {
  // The parallel trail is rebuilt from ordinal trail edges; stepping it
  // through the interpreter from the initial state must reproduce a real
  // path.
  const auto sys = make_pipeline(3, 1);
  const kernel::Machine m(*sys);
  Options opt;
  const Result r = explore_at(m, opt, 4);
  ASSERT_TRUE(r.violation.has_value());
  const auto s = replay_on_interpreter(m, m.initial(), r.violation->trace);
  ASSERT_TRUE(s.has_value());
  // the final state of the trail is the deadlock state: no successors
  std::vector<kernel::Succ> succs;
  m.successors(*s, succs);
  EXPECT_TRUE(succs.empty());
  EXPECT_FALSE(m.is_valid_end(*s));
}

// -- end-invariant, BFS, POR, budgets -----------------------------------------

TEST(ParallelExact, EndInvariantAndBfsAgreeAcrossThreadCounts) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  SystemSpec& sys = *f.sys;
  Options opt;
  opt.end_invariant = sys.exprs.binary(
      expr::Op::Eq, sys.exprs.global(0), sys.exprs.konst(4));
  const Result seq = explore_at(m, opt, 1);
  for (const int t : kThreadCounts) {
    for (const bool bfs : {false, true}) {
      Options o = opt;
      o.bfs = bfs;
      const Result r = explore_at(m, o, t);
      EXPECT_EQ(r.violation.has_value(), seq.violation.has_value())
          << "threads=" << t << " bfs=" << bfs;
      if (!seq.violation) {
        EXPECT_EQ(r.stats.states_stored, seq.stats.states_stored);
      }
    }
  }
}

TEST(ParallelExact, PorReducedCountsAreThreadCountInvariant) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  opt.por = true;
  // The parallel engine uses the proviso-free (BFS-style) ample rule -- a
  // pure function of the state -- so all parallel runs agree with each
  // other and with sequential BFS+POR.
  Options bfs_por = opt;
  bfs_por.bfs = true;
  const Result reference = explore_at(m, bfs_por, 1);
  ASSERT_TRUE(reference.ok());
  for (const int t : {2, 8}) {
    const Result r = explore_at(m, opt, t);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.stats.states_stored, reference.stats.states_stored)
        << "threads=" << t;
  }
  // and POR still never grows the space
  Options full;
  full.invariant = f.invariant;
  const Result unreduced = explore_at(m, full, 4);
  EXPECT_LE(reference.stats.states_stored, unreduced.stats.states_stored);
}

TEST(ParallelExact, DeadlineTruncationReportsStructuredReason) {
  const Flow f = make_flow(3, 3, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.deadline_seconds = 1e-9;  // expires immediately
  const Result r = explore_at(m, opt, 2);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, TruncationReason::Deadline);
}

TEST(ParallelExact, MaxStatesTruncationIsReported) {
  const Flow f = make_flow(3, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.max_states = 50;
  const Result r = explore_at(m, opt, 4);
  if (!r.violation) {
    EXPECT_FALSE(r.stats.complete);
    EXPECT_EQ(r.stats.truncation, TruncationReason::MaxStates);
  }
}

// -- channel-heavy model: engines, search order, resume ------------------------

/// Two relay pipelines over buffered two-field channels plus a rendezvous
/// hand-off into a shared tally: most steps move a message, so successors
/// dirty channel regions as well as process frames. 34,749 states.
constexpr const char* kChannelModel = R"(
chan a1 = [2] of { byte, byte };
chan a2 = [2] of { byte, byte };
chan b1 = [1] of { byte, byte };
chan r = [0] of { byte };
byte tally;

active proctype SourceA() {
  byte i = 0;
  do
  :: i < 3 -> a1!i,i+1; i++
  :: i >= 3 -> break
  od
}

active proctype RelayA() {
  byte v; byte w;
  end: do
  :: a1?v,w -> a2!w,v
  od
}

active proctype SinkA() {
  byte v; byte w; byte n = 0;
  do
  :: n < 3 -> a2?v,w; assert(w + 1 == v); n++; tally++
  :: n >= 3 -> break
  od
}

active proctype SourceB() {
  byte i = 0;
  do
  :: i < 2 -> b1!i,0; i++
  :: i >= 2 -> break
  od
}

active proctype RelayB() {
  byte v; byte w; byte n = 0;
  do
  :: n < 2 -> b1?v,w; r!v; n++
  :: n >= 2 -> break
  od
}

active proctype Taker() {
  byte v;
  end: do
  :: r?v -> tally++
  od
}
)";

struct ChannelModel {
  SystemSpec sys = pml::parse(kChannelModel);
  expr::Ref invariant = pml::parse_global_expr(sys, "tally <= 5");
  kernel::Machine m{sys};
};

/// Complete exact runs agree on every total: each reachable state is stored
/// once and expanded once, whatever the engine, search order or threads.
void expect_same_totals(const Result& r, const Result& ref,
                        const std::string& what) {
  EXPECT_TRUE(r.ok()) << what;
  EXPECT_TRUE(r.stats.complete) << what;
  EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
  EXPECT_EQ(r.stats.states_matched, ref.stats.states_matched) << what;
  EXPECT_EQ(r.stats.transitions, ref.stats.transitions) << what;
}

TEST(ParallelExact, ChannelModelTotalsMatchAcrossEnginesThreadsAndOrder) {
  const ChannelModel cm;
  codegen::EngineOptions eo;
  eo.kind = codegen::EngineKind::Bytecode;
  const auto bytecode = codegen::make_engine(cm.m, eo);
  ASSERT_NE(bytecode, nullptr);
  Options opt;
  opt.invariant = cm.invariant;
  const Result ref = explore_at(cm.m, opt, 1);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref.stats.states_stored, 34749u);
  for (const codegen::Engine* engine :
       {static_cast<const codegen::Engine*>(nullptr),
        static_cast<const codegen::Engine*>(bytecode.get())}) {
    for (const bool bfs : {false, true}) {
      for (const int t : {1, 2, 4}) {
        Options o = opt;
        o.engine = engine;
        o.bfs = bfs;
        const std::string what =
            std::string(engine ? "bytecode" : "interp") +
            (bfs ? " bfs" : " dfs") + " threads=" + std::to_string(t);
        expect_same_totals(explore_at(cm.m, o, t), ref, what);
      }
    }
  }
}

TEST(ParallelExact, ResumedChannelModelMatchesAtEveryThreadCount) {
  // Cut at a stored-state limit with one thread count, resume with another:
  // the resumed frontier is keyed in full, then searched by delta like any
  // other item, and the totals still equal one uninterrupted search.
  const ChannelModel cm;
  Options opt;
  opt.invariant = cm.invariant;
  const Result ref = explore_at(cm.m, opt, 1);
  ASSERT_TRUE(ref.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pnp_parallel_resume_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  for (const bool bfs : {false, true}) {
    for (const int cut_threads : {1, 4}) {
      for (const int t : {1, 2, 4}) {
        Options o = opt;
        o.bfs = bfs;
        o.checkpoint_path = path;
        o.config_digest = "channel-model";
        Options cut = o;
        cut.max_states = 5000;
        const Result first = explore_at(cm.m, cut, cut_threads);
        ASSERT_FALSE(first.stats.complete);
        const Checkpoint c = read_checkpoint(path);
        ASSERT_FALSE(c.frontier.empty());
        o.resume_from = &c;
        const Result r = explore_at(cm.m, o, t);
        EXPECT_TRUE(r.stats.resumed);
        const std::string what = std::string(bfs ? "bfs" : "dfs") +
                                 " cut at threads=" +
                                 std::to_string(cut_threads) +
                                 ", resumed at threads=" + std::to_string(t);
        EXPECT_TRUE(r.ok()) << what;
        EXPECT_TRUE(r.stats.complete) << what;
        EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored) << what;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(ParallelExact, ApproxMemoryCoversParentEdgesAndFrontier) {
  // Every stored state but the root keeps a trail edge: the edges must be
  // in the memory estimate the budget reads.
  constexpr const char* kMessages = R"(
chan c1 = [4] of { byte, byte, byte };
chan c2 = [4] of { byte, byte, byte };
chan c3 = [4] of { byte, byte, byte };
active proctype P1() { end: do :: c1!1,2,3 od }
active proctype Q1() { byte a, b, d; end: do :: c1?a,b,d od }
active proctype P2() { end: do :: c2!1,2,3 od }
active proctype Q2() { byte a, b, d; end: do :: c2?a,b,d od }
active proctype P3() { end: do :: c3!1,2,3 od }
active proctype Q3() { byte a, b, d; end: do :: c3?a,b,d od }
)";
  SystemSpec sys = pml::parse(kMessages);
  const kernel::Machine m(sys);
  Options opt;
  const Result r = explore_at(m, opt, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.stats.complete);
  ASSERT_GT(r.stats.states_stored, 100u);
  static_assert(sizeof(TrailEdge) <= 16);
  EXPECT_GE(r.stats.approx_memory_bytes,
            r.stats.store_bytes +
                (r.stats.states_stored - 1) * sizeof(TrailEdge));

  // A checkpointing run interrupted at once keeps its root item queued for
  // the final checkpoint: the queued item counts.
  std::atomic<bool> interrupt{true};
  Options stopped;
  stopped.want_trace = false;
  stopped.interrupt = &interrupt;
  stopped.checkpoint_path =
      (std::filesystem::temp_directory_path() /
       ("pnp_parallel_memory_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  const Result cut = explore_at(m, stopped, 4);
  std::filesystem::remove(stopped.checkpoint_path);
  EXPECT_EQ(cut.stats.truncation, TruncationReason::Interrupted);
  EXPECT_GT(cut.stats.approx_memory_bytes, cut.stats.store_bytes);
}

// -- trail coverage -------------------------------------------------------------

/// The channel model with its assertion replaced by one SinkA breaks on its
/// third message: the failing step receives a two-field message, so the
/// trail ends in an assert step beyond the last stored state.
std::string assert_model_text() {
  std::string text = kChannelModel;
  const std::string from = "assert(w + 1 == v)";
  text.replace(text.find(from), from.size(), "assert(n < 2)");
  return text;
}

TEST(ParallelExact, TrailsReplayOnInterpreterForEveryEngineAndReduction) {
  // Deadlock, invariant and assert trails from the parallel engine (4
  // threads) and from sequential BFS, under both engines, with and without
  // POR: each replays on the interpreter from the initial state, step for
  // step with every Step field, and ends in the violating state.
  const auto pipeline = make_pipeline(3, 1);
  const kernel::Machine deadlock_m(*pipeline);
  SystemSpec channel_sys = pml::parse(kChannelModel);
  const expr::Ref over3 = pml::parse_global_expr(channel_sys, "tally <= 3");
  const kernel::Machine channel_m(channel_sys);
  const SystemSpec assert_sys = pml::parse(assert_model_text());
  const kernel::Machine assert_m(assert_sys);
  struct Case {
    const char* kind;
    const kernel::Machine* m;
    expr::Ref invariant;
    ViolationKind want;
  };
  const Case cases[] = {
      {"deadlock", &deadlock_m, expr::kNoExpr, ViolationKind::Deadlock},
      {"invariant", &channel_m, over3, ViolationKind::InvariantViolated},
      {"assert", &assert_m, expr::kNoExpr, ViolationKind::AssertFailed},
  };
  for (const Case& c : cases) {
    codegen::EngineOptions eo;
    eo.kind = codegen::EngineKind::Bytecode;
    const auto bytecode = codegen::make_engine(*c.m, eo);
    ASSERT_NE(bytecode, nullptr);
    for (const codegen::Engine* engine :
         {static_cast<const codegen::Engine*>(nullptr),
          static_cast<const codegen::Engine*>(bytecode.get())}) {
      for (const bool por : {false, true}) {
        const auto check = [&](const Result& r, const std::string& what) {
          ASSERT_TRUE(r.violation.has_value()) << what;
          EXPECT_EQ(r.violation->kind, c.want) << what;
          const trace::Trace& trail = r.violation->trace;
          ASSERT_FALSE(trail.steps.empty()) << what;
          const auto end = replay_on_interpreter(*c.m, c.m->initial(), trail);
          ASSERT_TRUE(end.has_value()) << what;
          if (c.want == ViolationKind::AssertFailed) {
            EXPECT_TRUE(trail.steps.back().step.assert_failed) << what;
          } else if (c.want == ViolationKind::InvariantViolated) {
            EXPECT_EQ(c.m->eval_global(c.invariant, *end), 0) << what;
          } else {
            std::vector<kernel::Succ> succs;
            c.m->successors(*end, succs);
            EXPECT_TRUE(succs.empty()) << what;
          }
        };
        Options o;
        o.invariant = c.invariant;
        o.engine = engine;
        o.por = por;
        const std::string what = std::string(c.kind) +
                                 (engine ? " bytecode" : " interp") +
                                 (por ? " por" : "");
        for (const int t : {4, 1}) {
          o.bfs = t == 1;  // sequential BFS keeps ordinal edges too
          check(explore_at(*c.m, o, t), what + " threads=" + std::to_string(t));
        }
        // A swarm worker's permuted successor order: BFS edges record the
        // unpermuted ordinal, DFS frames their steps.
        Options permuted = o;
        permuted.bitstate = true;
        permuted.bitstate_bytes = 1u << 22;
        for (const bool bfs : {true, false}) {
          permuted.bfs = bfs;
          check(detail::run_single(*c.m, permuted, 0x5eed, 0x5eed, nullptr),
                what + (bfs ? " permuted bfs" : " permuted dfs"));
        }
      }
    }
  }
}

TEST(ParallelExact, TrailPastCheckpointCutStartsAtResumedFrontierState) {
  // A shallow breadth-first cut stops before the invariant breaks; the
  // 4-thread resume finds the violation, and its trail replays on the
  // interpreter from one of the checkpoint's frontier states to a state
  // that violates the invariant.
  SystemSpec sys = pml::parse(kChannelModel);
  const expr::Ref over3 = pml::parse_global_expr(sys, "tally <= 3");
  const kernel::Machine m(sys);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pnp_parallel_trail_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  Options o;
  o.invariant = over3;
  o.checkpoint_path = path;
  o.config_digest = "trail-resume";
  for (const bool por : {false, true}) {
    Options cut = o;
    cut.por = por;
    cut.bfs = true;
    cut.max_states = 2000;
    const Result first = explore_at(m, cut, 1);
    ASSERT_TRUE(first.ok()) << "the cut must stop short of the violation";
    ASSERT_FALSE(first.stats.complete);
    const Checkpoint c = read_checkpoint(path);
    ASSERT_FALSE(c.frontier.empty());
    Options resumed = o;
    resumed.por = por;
    resumed.resume_from = &c;
    const Result r = explore_at(m, resumed, 4);
    ASSERT_TRUE(r.violation.has_value()) << "por=" << por;
    EXPECT_EQ(r.violation->kind, ViolationKind::InvariantViolated);
    const bool replays = std::any_of(
        c.frontier.begin(), c.frontier.end(),
        [&](const Checkpoint::Pending& p) {
          const auto end =
              replay_on_interpreter(m, p.state, r.violation->trace);
          return end.has_value() && m.eval_global(over3, *end) == 0;
        });
    EXPECT_TRUE(replays) << "por=" << por;
    EXPECT_FALSE(replay_on_interpreter(m, m.initial(), r.violation->trace)
                     .has_value())
        << "the trail starts past the cut, not at the initial state";
  }
  std::filesystem::remove(path);
}

// -- swarm (bitstate) suite ---------------------------------------------------

TEST(Swarm, VerdictMatchesExactOnPassAndFail) {
  for (const int slack : {0, -1}) {
    const Flow f = make_flow(2, 2, slack);
    const kernel::Machine m = f.machine();
    Options opt;
    opt.invariant = f.invariant;
    Options swarm = opt;
    swarm.bitstate = true;
    swarm.bitstate_bytes = 1u << 22;  // roomy filter: collisions ~ 0
    for (const int t : {2, 4}) {
      const Result r = explore_at(m, swarm, t);
      EXPECT_EQ(r.violation.has_value(), slack < 0) << "threads=" << t;
      EXPECT_FALSE(r.stats.complete);
      EXPECT_EQ(r.stats.truncation, TruncationReason::BitstateApprox);
      EXPECT_EQ(r.stats.threads, t);
      EXPECT_EQ(r.stats.workers.size(), static_cast<std::size_t>(t));
    }
  }
}

TEST(Swarm, WorkersExploreIndependentlySeededSearches) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  Options opt;
  opt.invariant = f.invariant;
  opt.bitstate = true;
  opt.bitstate_bytes = 1u << 22;
  const Result exact = explore_at(m, opt, 1);
  const Result swarm = explore_at(m, opt, 3);
  // every worker covers (approximately) the whole space on its own filter
  for (const WorkerStats& w : swarm.stats.workers)
    EXPECT_GE(w.states_stored, exact.stats.states_stored * 9 / 10);
  // merged totals are the per-filter sum
  std::uint64_t sum = 0;
  for (const WorkerStats& w : swarm.stats.workers) sum += w.states_stored;
  EXPECT_EQ(swarm.stats.states_stored, sum);
}

TEST(Swarm, InterruptStopsEveryWorker) {
  // Every swarm worker runs the sequential engine's governor, so a raised
  // interrupt stops each of them at its first expansion.
  SystemSpec sys = pml::parse(kChannelModel);
  const kernel::Machine m(sys);
  std::atomic<bool> interrupt{true};
  for (const bool bfs : {false, true}) {
    Options opt;
    opt.bitstate = true;
    opt.bitstate_bytes = 1u << 20;
    opt.bfs = bfs;
    opt.interrupt = &interrupt;
    const Result r = explore_at(m, opt, 4);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.stats.truncation, TruncationReason::Interrupted)
        << "bfs=" << bfs;
    ASSERT_EQ(r.stats.workers.size(), 4u);
    for (const WorkerStats& w : r.stats.workers)
      EXPECT_LE(w.states_stored, 1024u) << "bfs=" << bfs;  // one stride
  }
}

TEST(Swarm, PerWorkerCountsMatchTheCopyEngine) {
  // Per-worker counts of a 4-worker swarm over the channel model, pinned
  // from the copy-based engine that ran workers 1..3 before they moved
  // onto the streaming one. The 8 KiB filter is small enough that hash
  // omissions make every count depend on the exact successor order and
  // filter seed of its worker.
  SystemSpec sys = pml::parse(kChannelModel);
  const kernel::Machine m(sys);
  codegen::EngineOptions eo;
  eo.kind = codegen::EngineKind::Bytecode;
  const auto bytecode = codegen::make_engine(m, eo);
  ASSERT_NE(bytecode, nullptr);
  struct Counts {
    std::uint64_t stored, matched, transitions;
    int depth;
  };
  struct Pin {
    bool bfs, por;
    Counts w[4];
  };
  const Pin pins[] = {
      {false, false, {{27694, 91937, 119630, 54}, {27431, 91787, 119217, 54},
                      {27598, 92053, 119650, 54}, {27037, 90591, 117627, 54}}},
      {false, true, {{2309, 935, 3243, 54}, {2328, 937, 3264, 54},
                     {2326, 937, 3262, 54}, {2327, 937, 3263, 54}}},
      {true, false, {{28275, 95320, 123594, 0}, {28362, 95578, 123939, 0},
                     {28220, 95238, 123457, 0}, {28236, 95131, 123366, 0}}},
      {true, true, {{2326, 937, 3262, 0}, {2326, 937, 3262, 0},
                    {2331, 937, 3267, 0}, {2322, 936, 3257, 0}}},
  };
  for (const Pin& pin : pins) {
    for (const codegen::Engine* engine :
         {static_cast<const codegen::Engine*>(nullptr),
          static_cast<const codegen::Engine*>(bytecode.get())}) {
      Options o;
      o.bitstate = true;
      o.bitstate_bytes = 1u << 13;
      o.bfs = pin.bfs;
      o.por = pin.por;
      o.engine = engine;
      const Result r = explore_at(m, o, 4);
      ASSERT_EQ(r.stats.workers.size(), 4u);
      for (std::size_t w = 0; w < 4; ++w) {
        const std::string what = std::string(pin.bfs ? "bfs" : "dfs") +
                                 (pin.por ? " por" : "") +
                                 (engine ? " bytecode" : " interp") +
                                 " worker " + std::to_string(w);
        const WorkerStats& got = r.stats.workers[w];
        EXPECT_EQ(got.states_stored, pin.w[w].stored) << what;
        EXPECT_EQ(got.states_matched, pin.w[w].matched) << what;
        EXPECT_EQ(got.transitions, pin.w[w].transitions) << what;
        EXPECT_EQ(got.max_depth_reached, pin.w[w].depth) << what;
      }
    }
  }
}

// -- LTL suite ----------------------------------------------------------------

TEST(ParallelLtl, VerdictMatchesAcrossThreadCounts) {
  const Flow f = make_flow(2, 2, 0);
  const kernel::Machine m = f.machine();
  ltl::PropertyContext props;
  props.add("bounded", f.invariant);
  props.add("over", f.sys->exprs.binary(expr::Op::Gt, f.sys->exprs.global(0),
                                        f.sys->exprs.konst(100)));
  for (const std::string& formula : {std::string("G bounded"),
                                     std::string("F over")}) {
    ltl::CheckOptions seq_opt;
    const ltl::LtlResult seq = ltl::check_ltl(m, props, formula, seq_opt);
    for (const int t : kThreadCounts) {
      ltl::CheckOptions opt;
      opt.threads = t;
      const ltl::LtlResult r = ltl::check_ltl(m, props, formula, opt);
      EXPECT_EQ(r.holds, seq.holds) << formula << " threads=" << t;
      EXPECT_EQ(r.violation.has_value(), seq.violation.has_value());
    }
  }
}

// -- verifier ladder + resilience stress --------------------------------------

TEST(ParallelVerifier, LadderDegradesToSwarmBitstate) {
  const Flow f = make_flow(3, 3, 0);
  const kernel::Machine m = f.machine();
  VerifyOptions opt;
  opt.threads = 2;
  opt.max_states = 200;  // force exact truncation
  opt.bitstate_bytes = 1u << 22;
  const SafetyOutcome out = check_safety(m, opt);
  ASSERT_TRUE(out.degraded());
  ASSERT_EQ(out.stages.size(), 2u);
  EXPECT_EQ(out.stages[0].name, "exact-parallel");
  EXPECT_EQ(out.stages[1].name, "swarm-bitstate");
  EXPECT_EQ(out.result.stats.threads, 2);
}

TEST(ParallelResilience, FaultSuiteStressUnderFourJobs) {
  // The counting receiver is vulnerable to duplication, the idempotent one
  // tolerates the full suite; concurrent variant verification (4 jobs, one
  // shared ModelGenerator) must reproduce exactly the sequential verdicts.
  const auto arch_text = [](const std::string& update) {
    return "architecture counter {\n"
           "  global received = 0;\n"
           "  component Sender {\n"
           "    behavior { out_data!7,0,0,0,0,0; out_sig?SEND_SUCC,_; }\n"
           "  }\n"
           "  component Receiver {\n"
           "    behavior {\n"
           "      byte v;\n"
           "      do\n"
           "      :: in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
           "         in_data?v,_,_,_,_,_; " + update + "\n"
           "      od\n"
           "    }\n"
           "  }\n"
           "  connector Link : fifo(2) {\n"
           "    sender Sender.out via asyn_blocking;\n"
           "    receiver Receiver.in via blocking;\n"
           "  }\n"
           "}\n";
  };
  for (const bool idempotent : {true, false}) {
    Architecture arch = adl::parse_architecture(
        arch_text(idempotent ? "received = 1" : "received++"));
    const std::vector<FaultSpec> suite = default_fault_suite(arch);
    ASSERT_GE(suite.size(), 5u);

    ResilienceOptions sequential;
    sequential.invariant_text = "received <= 1";
    ResilienceOptions concurrent = sequential;
    concurrent.jobs = 4;

    const ResilienceReport seq = check_resilience(arch, suite, sequential);
    const ResilienceReport par = check_resilience(arch, suite, concurrent);

    ASSERT_EQ(par.faults.size(), seq.faults.size());
    EXPECT_TRUE(par.baseline_passed());
    EXPECT_EQ(par.baseline_passed(), seq.baseline_passed());
    EXPECT_EQ(par.all_tolerated(), seq.all_tolerated());
    // the counting receiver must flunk duplication either way
    if (!idempotent) {
      EXPECT_FALSE(par.all_tolerated());
    }
    for (std::size_t i = 0; i < seq.faults.size(); ++i) {
      EXPECT_EQ(par.faults[i].description, seq.faults[i].description);
      EXPECT_EQ(par.faults[i].tolerated(), seq.faults[i].tolerated())
          << par.faults[i].description;
    }
  }
}

// -- worker errors ------------------------------------------------------------
//
// A ModelError raised inside any search worker (here: a division by zero
// the model reaches after a few steps) reaches the caller as the same
// ModelError at every thread count, instead of ending the process.

SystemSpec divide_by_zero() {
  return pml::parse(read_repo_file("tests/models/divide_by_zero.pml"));
}

constexpr const char* kDivideByZeroMessage =
    "division by zero in model expression";

/// The message of the ModelError `f` throws; empty when it throws none.
template <class F>
std::string model_error_of(F&& f) {
  try {
    f();
  } catch (const ModelError& e) {
    return e.what();
  }
  return {};
}

TEST(ParallelExact, WorkerModelErrorIsRethrownAtEveryThreadCount) {
  const SystemSpec sys = divide_by_zero();
  const kernel::Machine m(sys);
  for (const bool bfs : {false, true}) {
    for (const int t : {1, 2, 4}) {
      Options opt;
      opt.bfs = bfs;
      EXPECT_EQ(model_error_of([&] { explore_at(m, opt, t); }),
                kDivideByZeroMessage)
          << (bfs ? "bfs" : "dfs") << " threads=" << t;
    }
  }
}

TEST(Swarm, WorkerModelErrorIsRethrownAtEveryThreadCount) {
  const SystemSpec sys = divide_by_zero();
  const kernel::Machine m(sys);
  for (const int t : {1, 2, 4}) {
    Options opt;
    opt.bitstate = true;
    EXPECT_EQ(model_error_of([&] { explore_at(m, opt, t); }),
              kDivideByZeroMessage)
        << "threads=" << t;
  }
  // A worker that rejects its options up front: swarm workers run the
  // sequential engine, which refuses to checkpoint a bitstate search.
  const ChannelModel cm;
  for (const int t : {1, 2}) {
    Options opt;
    opt.bitstate = true;
    opt.checkpoint_path = "unused.ckpt";
    const std::string msg = model_error_of([&] { explore_at(cm.m, opt, t); });
    EXPECT_NE(msg.find("checkpointing requires exact mode"), std::string::npos)
        << "threads=" << t << ": " << msg;
  }
}

TEST(ParallelLtl, WorkerModelErrorIsRethrownAtEveryThreadCount) {
  SystemSpec sys = divide_by_zero();
  ltl::PropertyContext props;
  props.add("p", pml::parse_global_expr(sys, "x < 10"));
  const kernel::Machine m(sys);
  for (const int t : {1, 2, 4}) {
    ltl::CheckOptions opt;
    opt.threads = t;
    EXPECT_EQ(model_error_of([&] { ltl::check_ltl(m, props, "G p", opt); }),
              kDivideByZeroMessage)
        << "threads=" << t;
  }
}

TEST(ParallelResilience, VariantModelErrorIsRethrownAtEveryJobCount) {
  // The receiver divides by the count it has not yet raised.
  const Architecture arch = adl::parse_architecture(
      "architecture counter {\n"
      "  global received = 0;\n"
      "  component Sender {\n"
      "    behavior { out_data!7,0,0,0,0,0; out_sig?SEND_SUCC,_; }\n"
      "  }\n"
      "  component Receiver {\n"
      "    behavior {\n"
      "      byte v;\n"
      "      do\n"
      "      :: in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_;\n"
      "         in_data?v,_,_,_,_,_; received = 1 / received\n"
      "      od\n"
      "    }\n"
      "  }\n"
      "  connector Link : fifo(2) {\n"
      "    sender Sender.out via asyn_blocking;\n"
      "    receiver Receiver.in via blocking;\n"
      "  }\n"
      "}\n");
  const std::vector<FaultSpec> suite = default_fault_suite(arch);
  for (const int jobs : {1, 2, 4}) {
    ResilienceOptions opts;
    opts.invariant_text = "received <= 1";
    opts.jobs = jobs;
    EXPECT_EQ(model_error_of([&] { check_resilience(arch, suite, opts); }),
              kDivideByZeroMessage)
        << "jobs=" << jobs;
  }
}

// -- memory budget ------------------------------------------------------------

TEST(ParallelExact, MemoryBudgetedSearchStoresAsMuchAsTheSequentialOne) {
  // Under a budget both engines pre-size their store from it, and an empty
  // sharded store is small: the parallel search spends the budget on
  // states, not on up-front tables and slabs.
  SystemSpec sys =
      pml::parse(read_repo_file("examples/models/relay_mesh.pml"));
  Options opt;
  opt.invariant = pml::parse_global_expr(sys, "tally <= 10");
  opt.memory_budget_bytes = std::uint64_t{4} << 20;
  const kernel::Machine m(sys);
  const Result seq = explore_at(m, opt, 1);
  ASSERT_EQ(seq.stats.truncation, TruncationReason::MemoryBudget);
  for (const int t : {2, 4}) {
    const Result r = explore_at(m, opt, t);
    EXPECT_EQ(r.stats.truncation, TruncationReason::MemoryBudget);
    EXPECT_GE(r.stats.states_stored * 2, seq.stats.states_stored)
        << "threads=" << t << ": " << r.stats.states_stored << " vs "
        << seq.stats.states_stored;
  }
}

}  // namespace
}  // namespace pnp::explore
