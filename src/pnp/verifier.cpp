#include "pnp/verifier.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>

#include "explore/checkpoint.h"
#include "support/crew.h"
#include "support/hash.h"
#include "support/panic.h"

namespace pnp {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void append_stats(std::ostringstream& os, const explore::Stats& st) {
  os << "  states stored: " << st.states_stored
     << ", matched: " << st.states_matched
     << ", transitions: " << st.transitions << ", " << st.seconds * 1e3
     << " ms";
  if (!st.complete)
    os << "  [truncated: " << explore::truncation_reason_name(st.truncation)
       << "]";
  os << "\n";
  if (st.states_per_second() > 0.0 || st.store_bytes > 0) {
    os << "  throughput: "
       << static_cast<std::uint64_t>(st.states_per_second()) << " states/s, "
       << st.store_bytes_per_state() << " B/state ("
       << st.store_bytes / 1024.0 / 1024.0 << " MiB store)\n";
  }
}

explore::Options to_explore_options(const VerifyOptions& opt) {
  explore::Options eopt;
  eopt.max_states = opt.max_states;
  eopt.check_deadlock = opt.check_deadlock;
  eopt.por = opt.por;
  eopt.bfs = opt.bfs;
  eopt.deadline_seconds = opt.deadline_seconds;
  eopt.memory_budget_bytes = opt.memory_budget_bytes;
  eopt.threads = opt.threads;
  eopt.obs = opt.obs;
  eopt.spill_dir = opt.spill_dir;
  eopt.interrupt = opt.interrupt;
  return eopt;
}

/// Smallest bitstate filter the ladder runs. Under a memory budget the
/// filters (one per swarm worker) are capped at half of what the budget
/// leaves after the observer, the other half staying for the search's
/// frontier; a cap below this skips the rung.
constexpr std::uint64_t kMinBitstateBytes = std::uint64_t{1} << 16;

/// The degradation ladder. Stage 1 is the exact search. When it is
/// truncated (max_states / deadline / memory budget) without reaching a
/// verdict, stage 2 reruns with bitstate hashing and a widened filter: the
/// per-state cost collapses to two Bloom-filter bits, so the same budget
/// covers orders of magnitude more states. A violation found by either
/// stage is a real counterexample; only "pass" verdicts lose certainty
/// going down the ladder, and the recorded stages say exactly what ran.
void run_ladder(const kernel::Machine& m, explore::Options eopt,
                const VerifyOptions& opt, SafetyOutcome& out) {
  const bool parallel = explore::resolve_threads(opt.threads) > 1;
  obs::Observer* ob = opt.obs;
  // Minimized rungs: quotient every proctype, then explore the product of
  // the quotients. The reduced machine shares m's SystemSpec, so invariant
  // expression refs and trace rendering carry over unchanged.
  const kernel::Machine* target = &m;
  std::optional<reduce::ReducedMachine> reduced;
  std::string prefix;
  if (opt.minimize != MinimizeMode::Off) {
    std::size_t ph = 0;
    if (ob != nullptr) ph = ob->begin_phase("minimize", 0);
    reduced.emplace(m, opt.minimize == MinimizeMode::Weak
                           ? reduce::Equivalence::Weak
                           : reduce::Equivalence::Strong);
    out.reduction = reduced->stats();
    target = &reduced->machine();
    prefix = "minimized-";
    if (ob != nullptr) {
      obs::Recorder& rec = ob->recorder();
      rec.max_gauge(obs::Gauge::MinimizeStatesBefore,
                    static_cast<std::uint64_t>(
                        out.reduction->total_states_before()));
      rec.max_gauge(obs::Gauge::MinimizeStatesAfter,
                    static_cast<std::uint64_t>(
                        out.reduction->total_states_after()));
      ob->end_phase(ph, 0, 0.0);
    }
  }
  // Successor engine over the (possibly minimized) target machine, built
  // once and shared by both rungs. AOT artifacts are content-addressed by
  // the machine digest, so repeated runs over an unchanged machine reuse
  // the cached .so. On an AOT resume the bytecode fallback is disabled
  // (strict): silently continuing a resumed search under a different
  // engine than requested is exactly the configuration drift that resume
  // exists to reject loudly.
  std::unique_ptr<codegen::Engine> engine;
  out.engine_requested = opt.engine;
  if (opt.engine != codegen::EngineKind::Interp) {
    codegen::EngineOptions ecfg;
    ecfg.kind = opt.engine;
    ecfg.cache_dir = opt.engine_cache_dir;
    ecfg.strict = opt.resume && opt.engine == codegen::EngineKind::Aot;
    ecfg.obs = ob;
    engine = codegen::make_engine(*target, ecfg, &out.engine_note);
    eopt.engine = engine.get();
  }
  out.engine_actual =
      engine != nullptr ? engine->kind() : codegen::EngineKind::Interp;
  // Durable-run identity: one checkpoint file per property, addressed by
  // the property name; the configuration digest travels INSIDE the file
  // (pnp.ckpt.v1 header), so resuming under an edited configuration finds
  // the same path but a mismatched digest and is rejected -- never a
  // silent splice of incompatible state spaces.
  std::optional<explore::Checkpoint> resume_ckpt;
  if (!opt.checkpoint_dir.empty()) {
    std::string cfg = opt.config_digest;
    if (cfg.empty()) {
      std::ostringstream ds;
      ds << "max_states=" << opt.max_states << ";deadlock="
         << opt.check_deadlock << ";por=" << opt.por << ";bfs=" << opt.bfs
         << ";deadline=" << opt.deadline_seconds
         << ";mem=" << opt.memory_budget_bytes
         << ";minimize=" << to_string(opt.minimize);
      cfg = hex64(stable_hash64(ds.str()));
    }
    eopt.config_digest = cfg + ":" + hex64(stable_hash64(out.property_name));
    eopt.checkpoint_every = opt.checkpoint_every;
    std::error_code ec;
    std::filesystem::create_directories(opt.checkpoint_dir, ec);
    eopt.checkpoint_path =
        (std::filesystem::path(opt.checkpoint_dir) /
         ("ckpt-" + hex64(stable_hash64(out.property_name)) + ".pnp.ckpt"))
            .string();
    if (opt.resume && std::filesystem::exists(eopt.checkpoint_path, ec)) {
      resume_ckpt = explore::read_checkpoint(eopt.checkpoint_path);
      PNP_CHECK(resume_ckpt->meta.config_digest == eopt.config_digest,
                "checkpoint " + eopt.checkpoint_path +
                    " was written under a different configuration "
                    "(digest mismatch); refusing to resume");
      eopt.resume_from = &*resume_ckpt;
    }
  }
  /// One ladder rung with its phase bracket and incident events.
  auto run_rung = [&](const std::string& name) {
    std::size_t ph = 0;
    if (ob != nullptr) ph = ob->begin_phase(name, eopt.max_states);
    out.result = explore::explore(*target, eopt);
    const explore::Stats& st = out.result.stats;
    // A rung that outgrew its memory budget but finished exactly on
    // disk-backed stores is its own ladder stage: still an exact verdict,
    // but the stage name records that durability did the saving.
    out.stages.push_back({st.spilled ? name + "-spill" : name, st, {}});
    if (ob == nullptr) return;
    const std::string trunc =
        st.complete ? std::string()
                    : explore::truncation_reason_name(st.truncation);
    ob->end_phase(ph, st.states_stored, st.seconds, trunc);
    if (!st.complete && st.truncation != explore::TruncationReason::None &&
        st.truncation != explore::TruncationReason::BitstateApprox &&
        !out.result.violation)
      ob->truncated(trunc);
    if (out.result.violation)
      ob->counterexample(out.property_name,
                         explore::violation_kind_name(
                             out.result.violation->kind));
  };
  run_rung(prefix + (parallel ? "exact-parallel" : "exact"));
  if (opt.degrade && !out.result.stats.complete && !out.result.violation &&
      out.result.stats.truncation != explore::TruncationReason::Interrupted) {
    // The bitstate rung stores hashes, not states: nothing to checkpoint,
    // and the exact rung's snapshot must not leak into it. (An interrupted
    // exact rung skips the ladder entirely -- the user asked to stop, and
    // the final checkpoint is the artifact they want.)
    eopt.checkpoint_path.clear();
    eopt.config_digest.clear();
    eopt.resume_from = nullptr;
    eopt.bitstate = true;
    eopt.bitstate_bytes = opt.bitstate_bytes;
    const std::string name = prefix + (parallel ? "swarm-bitstate" : "bitstate");
    std::string note;
    if (opt.memory_budget_bytes > 0) {
      const std::uint64_t held = ob != nullptr ? ob->approx_bytes() : 0;
      const std::uint64_t left = opt.memory_budget_bytes > held
                                     ? opt.memory_budget_bytes - held
                                     : 0;
      const std::uint64_t filters =
          static_cast<std::uint64_t>(explore::resolve_threads(opt.threads));
      const std::uint64_t cap = left / 2 / filters;
      if (cap < kMinBitstateBytes) {
        VerifyStage skipped{name + "-skipped", {},
                            "the memory budget leaves " + std::to_string(cap) +
                                " bytes per filter, under the " +
                                std::to_string(kMinBitstateBytes) +
                                "-byte minimum"};
        skipped.stats.complete = false;
        skipped.stats.truncation = explore::TruncationReason::MemoryBudget;
        out.stages.push_back(std::move(skipped));
        return;
      }
      if (cap < eopt.bitstate_bytes) {
        eopt.bitstate_bytes = cap;
        note = "filter capped at " + std::to_string(cap) +
               " bytes by the memory budget";
      }
    }
    run_rung(name);
    out.stages.back().note = std::move(note);
  }
}

}  // namespace

const char* to_string(MinimizeMode m) {
  switch (m) {
    case MinimizeMode::Off: return "off";
    case MinimizeMode::Strong: return "strong";
    case MinimizeMode::Weak: return "weak";
  }
  return "?";
}

std::string SafetyOutcome::report() const {
  std::ostringstream os;
  os << "[" << (passed() ? "PASS" : "FAIL") << "] " << property_name << "\n";
  append_stats(os, result.stats);
  if (engine_requested != codegen::EngineKind::Interp) {
    os << "  engine: " << codegen::engine_kind_name(engine_actual);
    if (engine_actual != engine_requested)
      os << " (requested " << codegen::engine_kind_name(engine_requested)
         << "; " << engine_note << ")";
    os << "\n";
  }
  if (reduction) os << "  " << reduction->summary() << "\n";
  if (degraded()) {
    os << "  degradation ladder:\n";
    for (const VerifyStage& st : stages) {
      os << "    stage " << st.name << ":";
      os << " stored " << st.stats.states_stored << ", "
         << st.stats.seconds * 1e3 << " ms";
      if (!st.stats.complete)
        os << " [truncated: "
           << explore::truncation_reason_name(st.stats.truncation) << "]";
      if (!st.note.empty()) os << " (" << st.note << ")";
      os << "\n";
    }
  }
  if (result.violation) {
    os << "  violation: "
       << explore::violation_kind_name(result.violation->kind) << " -- "
       << result.violation->message << "\n";
    os << "  counterexample (" << result.violation->trace.size()
       << " steps):\n";
    os << trace::to_string(result.violation->trace);
  }
  return os.str();
}

SafetyOutcome check_safety(const kernel::Machine& m, VerifyOptions opt) {
  SafetyOutcome out;
  out.property_name = "safety (assertions + no invalid end states)";
  run_ladder(m, to_explore_options(opt), opt, out);
  return out;
}

SafetyOutcome check_invariant(const kernel::Machine& m, expr::Ex invariant,
                              std::string name, VerifyOptions opt) {
  explore::Options eopt = to_explore_options(opt);
  eopt.invariant = invariant.ref;
  eopt.invariant_name = name;
  SafetyOutcome out;
  out.property_name = "invariant: " + name;
  run_ladder(m, eopt, opt, out);
  return out;
}

std::string LtlOutcome::report() const {
  std::ostringstream os;
  os << "[" << (passed() ? "PASS" : "FAIL") << "] LTL: " << result.formula_text
     << "  (Buchi states: " << result.buchi_states << ")\n";
  append_stats(os, result.stats);
  if (result.engine_requested != codegen::EngineKind::Interp) {
    os << "  engine: " << codegen::engine_kind_name(result.engine_actual);
    if (result.engine_actual != result.engine_requested)
      os << " (requested "
         << codegen::engine_kind_name(result.engine_requested) << "; "
         << result.engine_note << ")";
    os << "\n";
  }
  if (result.violation) {
    os << "  " << result.violation->message << "\n";
    os << trace::to_string(result.violation->trace);
  }
  return os.str();
}

SafetyOutcome check_end_invariant(const kernel::Machine& m, expr::Ex inv,
                                  std::string name, VerifyOptions opt) {
  explore::Options eopt = to_explore_options(opt);
  eopt.end_invariant = inv.ref;
  eopt.end_invariant_name = name;
  SafetyOutcome out;
  out.property_name = "end invariant: " + name;
  run_ladder(m, eopt, opt, out);
  return out;
}

SafetyOutcome check_machine(const kernel::Machine& m, const SafetyProps& props,
                            VerifyOptions opt) {
  explore::Options eopt = to_explore_options(opt);
  std::string name = "safety (assertions + no invalid end states";
  if (props.invariant != expr::kNoExpr) {
    eopt.invariant = props.invariant;
    eopt.invariant_name = props.invariant_name;
    name += " + invariant: " + props.invariant_name;
  }
  if (props.end_invariant != expr::kNoExpr) {
    eopt.end_invariant = props.end_invariant;
    eopt.end_invariant_name = props.end_invariant_name;
    name += " + end invariant: " + props.end_invariant_name;
  }
  name += ")";
  SafetyOutcome out;
  out.property_name = std::move(name);
  run_ladder(m, eopt, opt, out);
  return out;
}

LtlOutcome check_ltl_formula(const kernel::Machine& m,
                             const ltl::PropertyContext& props,
                             const std::string& formula,
                             ltl::CheckOptions opt) {
  LtlOutcome out;
  out.result = ltl::check_ltl(m, props, formula, opt);
  return out;
}

// -- cached obligation-suite verification --------------------------------------

namespace {

/// Canonical text of every option that can change an obligation's verdict
/// or its confidence. `threads` is deliberately excluded: the parallel
/// engines are verdict-equivalent to the sequential ones by construction,
/// so a cache written with -j1 stays valid with -j8 (and vice versa). The
/// durability fields (spill/checkpoint/resume, see ExecBudget) are
/// excluded for the same reason: a spilled or resumed run reaches the
/// verdict the uninterrupted in-RAM run would have. The successor engine
/// (interp/bytecode/aot) is excluded too -- engines are successor-set
/// equivalent, so a verdict cached under one answers for all three.
std::string options_text(const VerifyOptions& v, const GenOptions& g) {
  std::ostringstream os;
  os << "max_states=" << v.max_states << ";deadlock=" << v.check_deadlock
     << ";por=" << v.por << ";bfs=" << v.bfs
     << ";deadline=" << v.deadline_seconds << ";mem=" << v.memory_budget_bytes
     << ";degrade=" << v.degrade << ";bitstate=" << v.bitstate_bytes
     << ";minimize=" << to_string(v.minimize)
     << ";optimize=" << g.optimize_connectors;
  return os.str();
}

/// Sender driver for the port-protocol harness: pumps `n` tagged messages
/// and terminates at a valid end state. Tolerant of SEND_FAIL (the status
/// is consumed with a wildcard), so it composes with every send-port kind.
ComponentModelFn protocol_sender(int n) {
  return [n](ComponentContext& ctx) {
    using namespace model;
    ProcBuilder& b = ctx.builder();
    const PortEndpoint out = ctx.port("out");
    const LVar i = b.local("i", 1);
    iface::SendMeta meta;
    meta.tag = 1;  // satisfies selective receivers on the same connector
    return seq(do_(alt(seq(guard(b.l(i) <= b.k(n)),
                           iface::send_msg(b, out, b.l(i), meta),
                           assign(i, b.l(i) + b.k(1)))),
                   alt(seq(guard(b.l(i) > b.k(n)), break_()))),
               end_label());
  };
}

/// Receiver driver: consumes forever from a valid-end loop head. RECV_FAIL
/// stubs from nonblocking ports are simply absorbed by the next iteration.
ComponentModelFn protocol_receiver(bool selective) {
  return [selective](ComponentContext& ctx) {
    using namespace model;
    ProcBuilder& b = ctx.builder();
    const PortEndpoint in = ctx.port("in");
    const LVar v = b.local("v");
    iface::RecvMeta meta;
    if (selective) meta.tag = 1;
    return seq(do_(alt(seq(end_label(), iface::recv_msg(b, in, v, meta)))));
  };
}

/// The isolation harness for one connector: the connector verbatim, with
/// every real attachment replaced by a canonical driver in the same port
/// configuration. Its state space depends only on the connector slice, so
/// the verdict can be cached under the slice digest alone.
Architecture make_protocol_harness(const Architecture& arch, int ci) {
  const ConnectorDecl& conn =
      arch.connectors()[static_cast<std::size_t>(ci)];
  Architecture h("protocol:" + conn.name);
  const int hc = h.add_connector(conn.name, conn.channel);
  for (const Attachment* a : arch.attachments_of(ci)) {
    // driver names mirror the real attachment so reports read naturally
    const std::string dname =
        arch.components()[static_cast<std::size_t>(a->component)].name + "." +
        a->port_name;
    if (a->is_sender) {
      const int d = h.add_component(dname, protocol_sender(2));
      h.attach_sender(d, "out", hc, a->send_kind);
      if (a->send_kind == SendPortKind::TimeoutRetry)
        h.set_send_port(d, "out", a->send_kind, a->send_retries);
    } else {
      const int d =
          h.add_component(dname, protocol_receiver(a->recv_opts.selective));
      h.attach_receiver(d, "in", hc, a->recv_kind, a->recv_opts);
    }
  }
  return h;
}

ObligationResult from_cache_hit(const reduce::ObligationKey& key,
                                const reduce::CacheEntry& e) {
  ObligationResult r;
  r.kind = key.kind;
  r.label = key.label;
  r.digest = key.digest();
  r.passed = e.passed;
  r.from_cache = true;
  r.stage = e.stage;
  r.states_stored = e.states_stored;
  r.seconds = e.seconds;
  return r;
}

ObligationResult from_safety(const reduce::ObligationKey& key,
                             const SafetyOutcome& so,
                             reduce::VerificationCache& cache) {
  ObligationResult r;
  r.kind = key.kind;
  r.label = key.label;
  r.digest = key.digest();
  r.passed = so.passed();
  r.stage = so.stages.empty() ? "exact" : so.stages.back().name;
  r.states_stored = so.result.stats.states_stored;
  r.seconds = so.result.stats.seconds;
  r.detail = so.report();
  r.engine = codegen::engine_kind_name(so.engine_actual);
  r.engine_note = so.engine_note;
  cache.record(key, {"", key.kind, key.label, r.passed, r.stage,
                     r.states_stored, r.seconds});
  return r;
}

}  // namespace

int SuiteReport::cache_hits() const {
  int n = 0;
  for (const ObligationResult& o : obligations) n += o.from_cache ? 1 : 0;
  return n;
}

int SuiteReport::recomputed() const {
  return static_cast<int>(obligations.size()) - cache_hits();
}

bool SuiteReport::all_passed() const {
  for (const ObligationResult& o : obligations)
    if (!o.passed) return false;
  return true;
}

std::string SuiteReport::report() const {
  std::ostringstream os;
  os << "obligation suite for architecture '" << architecture << "'\n";
  for (const ObligationResult& o : obligations) {
    os << "  [" << (o.passed ? "PASS" : "FAIL") << "] " << o.kind << " '"
       << o.label << "'";
    if (o.from_cache)
      os << "  (cached: " << o.stage << ", " << o.states_stored
         << " states, " << o.seconds * 1e3 << " ms when verified)";
    else
      os << "  (" << o.stage << ", " << o.states_stored << " states, "
         << o.seconds * 1e3 << " ms)";
    os << "\n";
  }
  os << "  obligations: " << obligations.size() << " total, " << cache_hits()
     << " from cache, " << recomputed() << " verified this run\n";
  {
    std::uint64_t states = 0;
    double secs = 0.0;
    for (const ObligationResult& o : obligations)
      if (!o.from_cache) {
        states += o.states_stored;
        secs += o.seconds;
      }
    if (secs > 0.0)
      os << "  throughput: "
         << static_cast<std::uint64_t>(static_cast<double>(states) / secs)
         << " states/s over " << states << " states verified this run\n";
  }
  if (reduction) os << "  " << reduction->summary() << "\n";
  os << "  verdict: " << (all_passed() ? "all obligations hold"
                                       : "OBLIGATIONS FAILED")
     << "\n";
  os << "  model generation: " << gen_stats.summary() << "\n";
  return os.str();
}

namespace {

/// Per-invocation generation stats when the ModelGenerator is shared across
/// suites (pnp::Session): the generator's totals are cumulative, so one
/// suite's share is the difference against the entry snapshot.
GenStats stats_since(const GenStats& total, const GenStats& before) {
  GenStats d = total;
  d.component_models_built -= before.component_models_built;
  d.component_models_reused -= before.component_models_reused;
  d.block_models_built -= before.block_models_built;
  d.block_models_reused -= before.block_models_reused;
  d.channels_declared -= before.channels_declared;
  d.channels_reused -= before.channels_reused;
  d.proctypes_compiled -= before.proctypes_compiled;
  d.connectors_optimized -= before.connectors_optimized;
  d.seconds -= before.seconds;
  return d;
}

/// Cold-path telemetry for one settled obligation: the per-obligation
/// counters plus an ObligationFinished event with kind/stage/cache attrs.
void note_obligation(obs::Observer* ob, const ObligationResult& r) {
  if (ob == nullptr) return;
  obs::Recorder& rec = ob->recorder();
  rec.add(r.from_cache ? obs::Counter::ObligationsFromCache
                       : obs::Counter::ObligationsVerified,
          1);
  rec.add(r.from_cache ? obs::Counter::CacheHits : obs::Counter::CacheMisses,
          1);
  obs::Event e;
  e.kind = obs::EventKind::ObligationFinished;
  e.label = r.label;
  e.passed = r.passed;
  e.states = r.states_stored;
  e.seconds = r.seconds;
  e.attrs.emplace_back("kind", r.kind);
  e.attrs.emplace_back("stage", r.stage);
  e.attrs.emplace_back("cache", r.from_cache ? "hit" : "miss");
  ob->emit(e);
}

}  // namespace

SuiteReport verify_obligations(const Architecture& arch,
                               const SuiteOptions& opts, ModelGenerator* gen_in) {
  arch.validate();
  SuiteReport rep;
  rep.architecture = arch.name();
  obs::Observer* ob = opts.verify.obs;
  reduce::VerificationCache local_cache =
      opts.cache == nullptr && !opts.cache_dir.empty()
          ? reduce::VerificationCache(opts.cache_dir)
          : reduce::VerificationCache();
  reduce::VerificationCache& cache =
      opts.cache != nullptr ? *opts.cache : local_cache;
  ModelGenerator own_gen;
  ModelGenerator& gen = gen_in != nullptr ? *gen_in : own_gen;
  const GenStats gen_before = gen.total_stats();

  // Local obligations first: every harness generate() invalidates the
  // previous borrowed Machine, so the main model must be generated last.
  if (opts.connector_protocols) {
    VerifyOptions popt = opts.verify;
    popt.check_deadlock = true;  // the obligation IS deadlock freedom
    // No durability for the harnesses: every protocol obligation shares
    // one property name, so a single checkpoint identity would alias
    // across connectors -- and the driver state spaces are tiny anyway.
    popt.checkpoint_dir.clear();
    popt.resume = false;
    const std::uint64_t popt_hash =
        stable_hash64(options_text(popt, GenOptions{}));
    for (int ci = 0; ci < static_cast<int>(arch.connectors().size()); ++ci) {
      reduce::ObligationKey key;
      key.kind = "connector-protocol";
      key.label = arch.connectors()[static_cast<std::size_t>(ci)].name;
      key.slice_hash = stable_hash64(connector_slice_text(arch, ci));
      key.property_hash = stable_hash64("port-protocol deadlock freedom v1");
      key.options_hash = popt_hash;
      if (auto hit = cache.lookup(key)) {
        rep.obligations.push_back(from_cache_hit(key, *hit));
        continue;
      }
      // Faithful building blocks on purpose: the optimized (section 6)
      // receive ports block on empty queues, which would quiesce the
      // harness mid-protocol and read as a spurious deadlock.
      kernel::Machine hm = gen.generate(make_protocol_harness(arch, ci));
      rep.obligations.push_back(
          from_safety(key, check_safety(hm, popt), cache));
    }
  }

  // Global obligations, all keyed by the whole-design slice.
  kernel::Machine m = gen.generate(arch, opts.gen);
  const std::uint64_t slice = stable_hash64(architecture_slice_text(arch));
  const std::uint64_t ohash =
      stable_hash64(options_text(opts.verify, opts.gen));
  auto global_key = [&](const std::string& kind, const std::string& label,
                        const std::string& property) {
    reduce::ObligationKey key;
    key.kind = kind;
    key.label = label;
    key.slice_hash = slice;
    key.property_hash = stable_hash64(property);
    key.options_hash = ohash;
    return key;
  };

  {
    const reduce::ObligationKey key = global_key(
        "safety", "assertions + deadlock", "assertions+invalid-end v1");
    if (auto hit = cache.lookup(key)) {
      rep.obligations.push_back(from_cache_hit(key, *hit));
    } else {
      SafetyOutcome so = check_safety(m, opts.verify);
      if (so.reduction) rep.reduction = so.reduction;
      rep.obligations.push_back(from_safety(key, so, cache));
    }
  }
  if (!opts.invariant_text.empty()) {
    const reduce::ObligationKey key = global_key(
        "invariant", opts.invariant_text, "invariant:" + opts.invariant_text);
    if (auto hit = cache.lookup(key)) {
      rep.obligations.push_back(from_cache_hit(key, *hit));
    } else {
      SafetyOutcome so =
          check_invariant(m, gen.parse_expr_text(opts.invariant_text),
                          opts.invariant_text, opts.verify);
      rep.obligations.push_back(from_safety(key, so, cache));
    }
  }
  if (!opts.end_invariant_text.empty()) {
    const reduce::ObligationKey key =
        global_key("end-invariant", opts.end_invariant_text,
                   "end-invariant:" + opts.end_invariant_text);
    if (auto hit = cache.lookup(key)) {
      rep.obligations.push_back(from_cache_hit(key, *hit));
    } else {
      SafetyOutcome so = check_end_invariant(
          m, gen.parse_expr_text(opts.end_invariant_text),
          opts.end_invariant_text, opts.verify);
      rep.obligations.push_back(from_safety(key, so, cache));
    }
  }

  if (!opts.ltl.empty()) {
    // The proposition definitions are part of every formula's property
    // text: renaming or re-pointing a prop must miss the cache.
    std::string prop_defs;
    for (const auto& [name, text] : opts.props) {
      gen.add_prop(name, gen.parse_expr_text(text));
      prop_defs += name + "=" + text + ";";
    }
    // Weak tau-contraction is stutter-unsound; LTL always quotients by
    // strong bisimulation when minimization is requested.
    std::optional<reduce::ReducedMachine> strong;
    const kernel::Machine* lm = &m;
    std::string stage = "ltl-nested-dfs";
    if (opts.verify.minimize != MinimizeMode::Off) {
      strong.emplace(m, reduce::Equivalence::Strong);
      lm = &strong->machine();
      stage = "minimized-ltl-nested-dfs";
    }
    ltl::CheckOptions copt;
    static_cast<ExecBudget&>(copt) = static_cast<const ExecBudget&>(opts.verify);
    copt.weak_fairness = opts.ltl_weak_fairness;
    copt.obs = ob;
    copt.engine = opts.verify.engine;
    copt.engine_cache_dir = opts.verify.engine_cache_dir;
    for (const std::string& formula : opts.ltl) {
      const reduce::ObligationKey key = global_key(
          "ltl", formula,
          "ltl:" + formula + "|props:" + prop_defs +
              "|fair=" + (opts.ltl_weak_fairness ? "1" : "0"));
      if (auto hit = cache.lookup(key)) {
        rep.obligations.push_back(from_cache_hit(key, *hit));
        continue;
      }
      LtlOutcome lo = check_ltl_formula(*lm, gen.props(), formula, copt);
      ObligationResult r;
      r.kind = key.kind;
      r.label = key.label;
      r.digest = key.digest();
      r.passed = lo.passed();
      r.stage = stage;
      r.states_stored = lo.result.stats.states_stored;
      r.seconds = lo.result.stats.seconds;
      r.detail = lo.report();
      r.engine = codegen::engine_kind_name(lo.result.engine_actual);
      r.engine_note = lo.result.engine_note;
      cache.record(key, {"", key.kind, key.label, r.passed, r.stage,
                         r.states_stored, r.seconds});
      rep.obligations.push_back(std::move(r));
    }
  }

  if (!cache.flush() && ob != nullptr)
    // Degraded to uncached (disk full / short write, retries exhausted):
    // this run's verdicts stand but will be recomputed next time. The
    // warning lands in the ledger's incident list.
    ob->budget_warning("verdict-cache-io", cache.size(), 0);
  rep.gen_stats = stats_since(gen.total_stats(), gen_before);
  if (ob != nullptr)
    for (const ObligationResult& o : rep.obligations) note_obligation(ob, o);
  return rep;
}

// -- resilience checking -------------------------------------------------------

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::MessageLoss: return "message-loss";
    case FaultKind::MessageDuplication: return "message-duplication";
    case FaultKind::MessageReorder: return "message-reorder";
    case FaultKind::SendTimeout: return "send-timeout";
    case FaultKind::CrashRestart: return "crash-restart";
  }
  return "?";
}

namespace {

ChannelKind fault_channel_kind(FaultKind k) {
  switch (k) {
    case FaultKind::MessageLoss: return ChannelKind::DroppingFifo;
    case FaultKind::MessageDuplication: return ChannelKind::DuplicatingFifo;
    case FaultKind::MessageReorder: return ChannelKind::ReorderingFifo;
    default: raise_model_error("fault_channel_kind: not a channel fault");
  }
}

/// Applies one fault as a plug-and-play connector/component edit on a copy
/// of the design; returns the human-readable description for the report.
std::string apply_fault(Architecture& arch, const FaultSpec& f) {
  std::ostringstream os;
  switch (f.kind) {
    case FaultKind::MessageLoss:
    case FaultKind::MessageDuplication:
    case FaultKind::MessageReorder: {
      const int c = arch.find_connector(f.target);
      PNP_CHECK(c >= 0,
                "check_resilience: unknown connector '" + f.target + "'");
      ChannelSpec spec = arch.connectors()[static_cast<std::size_t>(c)].channel;
      PNP_CHECK(spec.kind != ChannelKind::EventPool,
                "check_resilience: channel faults do not apply to event-pool "
                "connector '" + f.target + "'");
      spec.kind = fault_channel_kind(f.kind);
      if (spec.capacity < 1) spec.capacity = 1;
      // A capacity-1 duplicating channel never has room for the duplicate;
      // widen so the fault is actually exercisable.
      if (f.kind == FaultKind::MessageDuplication && spec.capacity < 2)
        spec.capacity = 2;
      arch.set_channel(c, spec);
      os << to_string(f.kind) << " on connector '" << f.target << "'";
      break;
    }
    case FaultKind::SendTimeout: {
      const std::size_t dot = f.target.find('.');
      PNP_CHECK(dot != std::string::npos,
                "check_resilience: SendTimeout target must be "
                "'component.port', got '" + f.target + "'");
      const int comp = arch.find_component(f.target.substr(0, dot));
      PNP_CHECK(comp >= 0, "check_resilience: unknown component in '" +
                               f.target + "'");
      const int retries = f.budget > 0 ? f.budget : 2;
      arch.set_send_port(comp, f.target.substr(dot + 1),
                         SendPortKind::TimeoutRetry, retries);
      os << "send-timeout (" << retries << " retries) on '" << f.target
         << "'";
      break;
    }
    case FaultKind::CrashRestart: {
      const int comp = arch.find_component(f.target);
      PNP_CHECK(comp >= 0,
                "check_resilience: unknown component '" + f.target + "'");
      const int crashes = f.budget > 0 ? f.budget : 1;
      arch.set_crash_restart(comp, crashes);
      os << "crash-restart (<= " << crashes << ") of component '" << f.target
         << "'";
      break;
    }
  }
  return os.str();
}

SafetyOutcome verify_variant(ModelGenerator& gen, const Architecture& arch,
                             const ResilienceOptions& opts,
                             const std::string& label) {
  kernel::Machine m = gen.generate(arch, opts.gen);
  SafetyOutcome out;
  if (!opts.invariant_text.empty()) {
    expr::Ex inv = gen.parse_expr_text(opts.invariant_text);
    out = check_invariant(m, inv, opts.invariant_text, opts.verify);
  } else {
    out = check_safety(m, opts.verify);
  }
  out.property_name += "  [" + label + "]";
  return out;
}

/// verify_variant on an owned snapshot (parallel resilience path): the
/// invariant was parsed at snapshot time, so no generator access happens
/// here and the call is safe on a worker thread.
SafetyOutcome verify_owned(ModelGenerator::OwnedModel& model,
                           const ResilienceOptions& opts,
                           const std::string& label) {
  SafetyOutcome out;
  if (model.invariant != expr::kNoExpr) {
    out = check_invariant(*model.machine,
                          expr::wrap(model.sys->exprs, model.invariant),
                          opts.invariant_text, opts.verify);
  } else {
    out = check_safety(*model.machine, opts.verify);
  }
  out.property_name += "  [" + label + "]";
  return out;
}

}  // namespace

bool ResilienceReport::all_tolerated() const {
  for (const FaultOutcome& f : faults)
    if (!f.tolerated()) return false;
  return true;
}

std::string ResilienceReport::report() const {
  std::ostringstream os;
  os << "resilience report for architecture '" << architecture << "'\n";
  if (baseline) {
    os << "  baseline (no faults): " << (baseline->passed() ? "PASS" : "FAIL");
    if (baseline->degraded()) os << "  (degraded to bitstate)";
    os << "\n";
    if (!baseline->passed())
      os << "  note: fault verdicts below are not meaningful while the "
            "baseline fails\n";
  }
  for (const FaultOutcome& f : faults) {
    os << "  " << (f.tolerated() ? "tolerated " : "VULNERABLE") << "  "
       << f.description;
    if (f.outcome.degraded()) os << "  (degraded to bitstate)";
    if (!f.tolerated() && f.outcome.result.violation)
      os << "  -- "
         << explore::violation_kind_name(f.outcome.result.violation->kind);
    os << "\n";
  }
  os << "  verdict: "
     << (all_tolerated() ? "all injected faults tolerated"
                         : "architecture is fault-intolerant")
     << "\n";
  os << "  model generation (all variants): " << gen_stats.summary() << "\n";
  return os.str();
}

std::vector<FaultSpec> default_fault_suite(const Architecture& arch) {
  std::vector<FaultSpec> out;
  for (const ConnectorDecl& c : arch.connectors()) {
    if (c.channel.kind == ChannelKind::EventPool) continue;
    out.push_back({FaultKind::MessageLoss, c.name, 0});
    out.push_back({FaultKind::MessageDuplication, c.name, 0});
    out.push_back({FaultKind::MessageReorder, c.name, 0});
  }
  for (const Attachment& a : arch.attachments()) {
    if (!a.is_sender) continue;
    // Event pools only accept asynchronous send ports (validate() enforces
    // it), so the TimeoutRetry wrapper cannot be injected there.
    if (arch.connectors()[static_cast<std::size_t>(a.connector)].channel.kind ==
        ChannelKind::EventPool)
      continue;
    out.push_back(
        {FaultKind::SendTimeout,
         arch.components()[static_cast<std::size_t>(a.component)].name + "." +
             a.port_name,
         2});
  }
  for (const ComponentDecl& c : arch.components())
    out.push_back({FaultKind::CrashRestart, c.name, 1});
  return out;
}

ResilienceReport check_resilience(const Architecture& arch,
                                  const std::vector<FaultSpec>& faults,
                                  ResilienceOptions opts,
                                  ModelGenerator* gen_in) {
  ResilienceReport rep;
  rep.architecture = arch.name();
  // Fault variants share property names, so one checkpoint identity would
  // alias across variants (and concurrently, on the parallel path).
  // Durability is for long single searches, not fault sweeps.
  opts.verify.checkpoint_dir.clear();
  opts.verify.resume = false;
  // One generator across baseline + every fault variant: component models
  // and unchanged blocks are built once and reused, exactly the paper's
  // design-iteration loop applied to fault injection. A caller-owned
  // generator (pnp::Session) extends that reuse across whole suites.
  ModelGenerator own_gen;
  ModelGenerator& gen = gen_in != nullptr ? *gen_in : own_gen;
  const GenStats gen_before = gen.total_stats();
  const int jobs = explore::resolve_threads(opts.jobs);
  if (jobs <= 1) {
    if (opts.include_baseline)
      rep.baseline = verify_variant(gen, arch, opts, "baseline: no faults");
    for (const FaultSpec& f : faults) {
      Architecture variant = arch;  // the caller's design stays untouched
      FaultOutcome fo;
      fo.fault = f;
      fo.description = apply_fault(variant, f);
      fo.outcome = verify_variant(gen, variant, opts, fo.description);
      rep.faults.push_back(std::move(fo));
    }
    rep.gen_stats = stats_since(gen.total_stats(), gen_before);
    return rep;
  }

  // Parallel path. Phase 1, sequential: generate every variant through the
  // shared generator (keeping the build-once/reuse accounting exact) and
  // snapshot each into an owned model. Phase 2, concurrent: verify the
  // snapshots -- the expensive part -- on `jobs` workers. Per-variant
  // verdicts are independent, so the report is bit-identical to the
  // sequential one regardless of scheduling.
  struct Variant {
    std::string label;
    ModelGenerator::OwnedModel model;
    SafetyOutcome outcome;
  };
  std::vector<Variant> variants;
  variants.reserve(faults.size() + 1);
  if (opts.include_baseline)
    variants.push_back({"baseline: no faults",
                        gen.generate_owned(arch, opts.invariant_text, opts.gen),
                        {}});
  for (const FaultSpec& f : faults) {
    Architecture variant = arch;
    std::string desc = apply_fault(variant, f);
    variants.push_back(
        {std::move(desc),
         gen.generate_owned(variant, opts.invariant_text, opts.gen), {}});
  }
  rep.gen_stats = stats_since(gen.total_stats(), gen_before);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};  // a variant threw: start no more
  const int n_workers = static_cast<int>(
      std::min(static_cast<std::size_t>(jobs), variants.size()));
  run_crew(n_workers, stop, [&](int) {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= variants.size()) return;
      variants[i].outcome =
          verify_owned(variants[i].model, opts, variants[i].label);
    }
  });

  std::size_t idx = 0;
  if (opts.include_baseline)
    rep.baseline = std::move(variants[idx++].outcome);
  for (const FaultSpec& f : faults) {
    FaultOutcome fo;
    fo.fault = f;
    fo.description = std::move(variants[idx].label);
    fo.outcome = std::move(variants[idx].outcome);
    rep.faults.push_back(std::move(fo));
    ++idx;
  }
  return rep;
}

}  // namespace pnp
