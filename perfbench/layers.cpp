// The traced run's per-layer probes. Every layer is measured from outside,
// through its public functions: the front-end and set-up layers on
// relay_mesh, reference searches whose Stats give exact work counts, a
// fixed relay_mesh state corpus replayed through the kernel and explore
// stores, and one design pass through the ADL, generator, cache and daemon
// layers.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "adl/adl.h"
#include "compile/compiler.h"
#include "explore/explorer.h"
#include "explore/visited.h"
#include "kernel/compress.h"
#include "kernel/machine.h"
#include "ltl/buchi.h"
#include "ltl/formula.h"
#include "ltl/product.h"
#include "obs/obs.h"
#include "pml/parser.h"
#include "pnp/generator.h"
#include "reduce/cache.h"
#include "workloads.h"

namespace pnpbench {

using namespace pnp;

namespace {

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Median over `reps` timed runs of `f`, in nanoseconds per op.
double ns_per_op(int reps, std::uint64_t ops, const std::function<void()>& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    f();
    v.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(v);
}

/// Runs `f(begin, end)` over [0, n) split into `threads` slices, one thread
/// per slice.
void parallel_slices(int threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& f) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    const std::size_t b = n * static_cast<std::size_t>(t) / threads;
    const std::size_t e = n * static_cast<std::size_t>(t + 1) / threads;
    pool.emplace_back(f, b, e);
  }
  for (std::thread& t : pool) t.join();
}

template <class F>
class FnSink final : public kernel::SuccSink {
 public:
  explicit FnSink(F f) : f_(std::move(f)) {}
  bool on_successor(const kernel::State& ns, const kernel::Step& step) override {
    return f_(ns, step);
  }

 private:
  F f_;
};
template <class F>
FnSink(F) -> FnSink<F>;

/// Compressed keys of a corpus, packed back to back.
struct Keys {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> off{0};
  std::size_t size() const { return off.size() - 1; }
  std::span<const std::uint8_t> at(std::size_t i) const {
    return {bytes.data() + off[i], off[i + 1] - off[i]};
  }
};

}  // namespace

void run_layers(DesignRunner& runner, const Config& cfg, Result& r) {
  tracer().enable();
  auto root_span = tracer().span("layers");
  const std::string text = read_file(cfg.root + "/" + kRelayModel);
  const int n = cfg.threads_n;
  const int reps = 3;

  // -- pml / compile / kernel set-up / ltl Buchi --------------------------------
  {
    std::vector<double> parse_ms, compile_ms, machine_ms, buchi_ms;
    for (int i = 0; i < 15; ++i) {
      Clock::time_point t0 = Clock::now();
      model::SystemSpec sys;
      {
        auto s = tracer().span("pml.parse");
        sys = pml::parse(text);
      }
      parse_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      std::vector<compile::CompiledProc> procs;
      {
        auto s = tracer().span("compile.compile");
        procs = compile::compile(sys);
      }
      compile_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      {
        auto s = tracer().span("kernel.Machine");
        const kernel::Machine m(sys, std::move(procs));
      }
      machine_ms.push_back(ms_since(t0));
      ltl::PropertyContext ctx;
      ctx.add("p", pml::parse_global_expr(sys, kRelayInvariant));
      t0 = Clock::now();
      {
        auto s = tracer().span("ltl.parse_ltl+build_buchi");
        ltl::FormulaPool pool;
        const ltl::FRef phi = ltl::parse_ltl(pool, ctx, kRelayLtl);
        r.check(!ltl::build_buchi(pool, pool.negate(phi), &ctx).states.empty(),
                "Buchi automaton of !([] p) is empty");
      }
      buchi_ms.push_back(ms_since(t0));
    }
    r.set("pml.parse_ms", median(parse_ms), "ms");
    r.set("compile.compile_ms", median(compile_ms), "ms");
    r.set("kernel.machine_ms", median(machine_ms), "ms");
    r.set("ltl.buchi_ms", median(buchi_ms), "ms");
  }

  model::SystemSpec sys = pml::parse(text);
  const kernel::Machine m(sys);
  const expr::Ref inv = pml::parse_global_expr(sys, kRelayInvariant);

  // -- reference searches: exact work counts for the ratios below -------------------
  explore::Options eo;
  eo.invariant = inv;
  eo.invariant_name = kRelayInvariant;
  eo.want_trace = false;
  auto search = [&](const char* span, int threads, obs::Observer* o) {
    eo.threads = threads;
    eo.obs = o;
    explore::Result res;
    malloc_trim(0);  // each search starts from the same returned heap
    {
      auto s = tracer().span(span);
      res = explore::explore(m, eo);
    }
    r.check(res.ok() && res.stats.complete &&
                res.stats.states_stored == cfg.expect_states,
            std::string(span) + ": states " +
                std::to_string(res.stats.states_stored));
    return res.stats;
  };
  // The 1-thread search without and with an Observer, in alternating pairs
  // so a drift of the host falls on both sides alike. The medians give
  // obs.overhead_pct and the search time the ratios below divide by.
  constexpr int kObsPairs = 3;
  explore::Stats seq;
  std::optional<obs::Observer> observer;  // the last one: its counts are exact
  std::vector<double> plain_s, obs_s;
  for (int i = 0; i < kObsPairs; ++i) {
    seq = search("explore.explore.t1", 1, nullptr);
    plain_s.push_back(seq.seconds);
    observer.emplace();
    obs_s.push_back(search("explore.explore.t1+obs", 1, &*observer).seconds);
  }
  const double seq_seconds = median(plain_s);
  const explore::Stats par = search("explore.explore.tN", n, nullptr);
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  r.set("explore.matched_per_stored",
        ratio(seq.states_matched, seq.states_stored), "ratio");
  r.set("explore.matched_per_stored.tN",
        ratio(par.states_matched, par.states_stored), "ratio");
  {
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const explore::WorkerStats& w : par.workers) {
      lo = std::min(lo, w.states_stored);
      hi = std::max(hi, w.states_stored);
    }
    r.set("explore.worker_skew", par.workers.empty() ? 1.0 : ratio(hi, lo),
          "ratio");
  }
  r.set("obs.overhead_pct", (median(obs_s) / seq_seconds - 1.0) * 100.0, "%");
  r.notes.push_back("obs.overhead_pct: median of " + std::to_string(kObsPairs) +
                    " searches with an Observer vs " +
                    std::to_string(kObsPairs) + " without, alternating");
  {
    ltl::PropertyContext ctx;
    ctx.add("p", inv);
    ltl::CheckOptions copt;
    copt.threads = 1;
    ltl::LtlResult lr;
    malloc_trim(0);
    {
      auto s = tracer().span("ltl.check_ltl");
      lr = ltl::check_ltl(m, ctx, kRelayLtl, copt);
    }
    r.check(lr.holds && lr.stats.complete &&
                lr.stats.states_stored == cfg.expect_states,
            "check_ltl: product states " +
                std::to_string(lr.stats.states_stored));
    r.set("ltl.product_vs_reach", lr.stats.seconds / seq_seconds, "ratio");
    // The product search counts no matches; every transition that did not
    // store a fresh product state was one (the first state is the root).
    r.set("ltl.matched_per_stored",
          ratio(lr.stats.transitions - (lr.stats.states_stored - 1),
                lr.stats.states_stored),
          "ratio");
  }

  // -- the corpus: the first states of a BFS over relay_mesh ------------------------
  const std::size_t corpus_n = cfg.smoke ? 5000 : 100000;
  std::vector<kernel::State> corpus;
  corpus.reserve(corpus_n);  // the BFS reads corpus[i] while appending
  {
    auto s = tracer().span("replay.build_corpus");
    kernel::StateCompressor comp(m.layout(), 1);
    explore::VisitedSet seen(false, 0);
    std::vector<std::uint8_t> key;
    kernel::SuccScratch scratch;
    corpus.push_back(m.initial());
    comp.compress(corpus[0], key);
    seen.insert(key);
    FnSink sink([&](const kernel::State& ns, const kernel::Step&) {
      comp.compress(ns, key);
      if (seen.insert(key)) corpus.push_back(ns);
      return corpus.size() < corpus_n;
    });
    for (std::size_t i = 0; i < corpus.size() && corpus.size() < corpus_n; ++i)
      m.visit_successors(corpus[i], scratch, sink);
  }
  const std::size_t cn = corpus.size();
  r.check(cn == corpus_n, "corpus has " + std::to_string(cn) + " states");

  // -- kernel: successor generation -------------------------------------------------
  {
    auto s = tracer().span("replay.kernel.visit_successors");
    kernel::SuccScratch scratch;
    std::uint64_t count = 0;
    FnSink sink([&](const kernel::State&, const kernel::Step&) {
      ++count;
      return true;
    });
    r.set("kernel.succ_ns", ns_per_op(reps, cn, [&] {
            count = 0;
            for (const kernel::State& st : corpus)
              m.visit_successors(st, scratch, sink);
          }),
          "ns");
    r.set("kernel.succ_per_state", ratio(count, cn), "count");
  }

  // -- kernel: COLLAPSE compression ---------------------------------------------------
  kernel::StateCompressor comp(m.layout(), 1);
  Keys keys;
  {
    auto s = tracer().span("replay.kernel.compress");
    std::vector<std::uint8_t> key;
    for (const kernel::State& st : corpus) {  // cold pass: interns, keeps keys
      comp.compress(st, key);
      keys.bytes.insert(keys.bytes.end(), key.begin(), key.end());
      keys.off.push_back(keys.bytes.size());
    }
    r.set("kernel.compress_ns", ns_per_op(reps, cn, [&] {
            for (const kernel::State& st : corpus) comp.compress(st, key);
          }),
          "ns");
    r.set("kernel.key_bytes", static_cast<double>(keys.bytes.size()) / cn, "B");
  }
  {
    // Successors of the first parents with their dirty-region masks, taken
    // from the generator's undo log exactly as the DFS engine does.
    auto s = tracer().span("replay.kernel.compress_delta");
    const std::size_t parents = std::min<std::size_t>(cn, 25000);
    const int nr = comp.n_regions();
    const std::vector<int>& region_of = comp.region_of_slot();
    std::vector<std::uint32_t> parent_ids(parents * nr);
    std::vector<kernel::State> succs;
    std::vector<std::uint8_t> dirty;
    std::vector<std::size_t> parent_of;
    std::vector<std::uint8_t> key;
    kernel::SuccScratch scratch;
    for (std::size_t p = 0; p < parents; ++p) {
      comp.compress_full(corpus[p], key, &parent_ids[p * nr]);
      FnSink sink([&](const kernel::State& ns, const kernel::Step&) {
        succs.push_back(ns);
        parent_of.push_back(p);
        const std::size_t base = dirty.size();
        dirty.resize(base + nr, 0);
        for (const auto& [slot, old] : scratch.undo)
          dirty[base + static_cast<std::size_t>(region_of[slot])] = 1;
        return true;
      });
      m.visit_successors(corpus[p], scratch, sink);
    }
    std::vector<std::uint32_t> ids(nr);
    std::vector<std::uint8_t> full;
    bool same = true;
    for (std::size_t i = 0; i < succs.size(); ++i) {  // warm-up + exactness
      comp.compress_delta(succs[i], &parent_ids[parent_of[i] * nr],
                          &dirty[i * nr], key, ids.data());
      comp.compress(succs[i], full);
      same = same && key == full;
    }
    r.check(same, "compress_delta bytes differ from compress");
    r.set("kernel.compress_delta_ns", ns_per_op(reps, succs.size(), [&] {
            for (std::size_t i = 0; i < succs.size(); ++i)
              comp.compress_delta(succs[i], &parent_ids[parent_of[i] * nr],
                                  &dirty[i * nr], key, ids.data());
          }),
          "ns");
  }
  {
    // 16 stripes, as the parallel engine runs it, from 1 and from N threads.
    // ns/op is wall time over all ops, so t1/tN is the scaling factor.
    auto s = tracer().span("replay.kernel.compress_striped");
    auto striped = [&](int threads) {
      kernel::StateCompressor sc(m.layout(), 16);
      auto pass = [&] {
        parallel_slices(threads, cn, [&](std::size_t b, std::size_t e) {
          std::vector<std::uint8_t> key;
          for (std::size_t i = b; i < e; ++i) sc.compress(corpus[i], key);
        });
      };
      pass();  // cold: interns
      return ns_per_op(reps, cn, pass);
    };
    r.set("kernel.compress_ns.t1", striped(1), "ns");
    r.set("kernel.compress_ns.tN", striped(n), "ns");
  }

  // -- explore: visited stores ----------------------------------------------------------
  {
    auto s = tracer().span("replay.explore.visited");
    std::vector<double> ins, dup;
    double bytes_per_key = 0.0;
    for (int i = 0; i < reps; ++i) {
      explore::VisitedSet vs(false, 0);
      Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < cn; ++k) vs.insert(keys.at(k));
      ins.push_back(seconds_since(t0) * 1e9 / cn);
      t0 = Clock::now();
      std::size_t again = 0;
      for (std::size_t k = 0; k < cn; ++k) again += vs.insert(keys.at(k));
      dup.push_back(seconds_since(t0) * 1e9 / cn);
      r.check(vs.size() == cn && again == 0, "VisitedSet lost or duplicated keys");
      bytes_per_key = static_cast<double>(vs.approx_bytes()) / vs.size();
    }
    r.set("explore.visited_insert_ns", median(ins), "ns");
    r.set("explore.visited_dup_ns", median(dup), "ns");
    r.set("explore.store_bytes_per_key", bytes_per_key, "B");
  }
  {
    auto s = tracer().span("replay.explore.sharded");
    auto sharded = [&](int threads) {
      std::vector<double> v;
      for (int i = 0; i < reps; ++i) {
        explore::ShardedVisitedSet ss;
        const Clock::time_point t0 = Clock::now();
        parallel_slices(threads, cn, [&](std::size_t b, std::size_t e) {
          for (std::size_t k = b; k < e; ++k)
            ss.insert(keys.at(k), explore::ShardedVisitedSet::hash_key(keys.at(k)));
        });
        v.push_back(seconds_since(t0) * 1e9 / cn);
        r.check(ss.size() == cn, "ShardedVisitedSet lost keys");
      }
      return median(v);
    };
    r.set("explore.sharded_insert_ns.t1", sharded(1), "ns");
    r.set("explore.sharded_insert_ns.tN", sharded(n), "ns");
  }

  // -- cross-layer: do the layers add up to the search? ---------------------------------
  {
    const auto& rec = observer->recorder();
    const double deltas =
        static_cast<double>(rec.total(obs::Counter::CompressDelta));
    const double fulls = static_cast<double>(rec.total(obs::Counter::CompressFull));
    const double stored = static_cast<double>(seq.states_stored);
    const double matched = static_cast<double>(seq.states_matched);
    const auto& mm = r.metrics;
    const double explained_ns =
        mm.at("kernel.succ_ns").value * stored +
        mm.at("kernel.compress_delta_ns").value * deltas +
        mm.at("kernel.compress_ns").value * fulls +
        mm.at("explore.visited_insert_ns").value * stored +
        mm.at("explore.visited_dup_ns").value * matched;
    const double frac = explained_ns / (seq_seconds * 1e9);
    r.set("layers.accounted_frac", frac, "share");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "layers: succ x %.0f + compress_delta x %.0f + compress x %.0f"
                  " + insert x %.0f + dup x %.0f explain %.1f%% of the %.3f s"
                  " 1-thread relay_mesh search%s",
                  stored, deltas, fulls, stored, matched, frac * 100.0,
                  seq_seconds,
                  frac < 0.8 ? "; the rest is not attributed to any measured"
                               " layer (DFS stack, property checks, engine"
                               " bookkeeping)"
                             : "");
    r.notes.push_back(buf);
  }

  // -- adl / pnp / reduce / serve over one design pass ---------------------------------
  {
    auto s = tracer().span("design.layers");
    std::vector<double> parse_ms, gen_ms;
    pnp::ModelGenerator gen;
    double reused = 0.0, built = 0.0;
    for (const std::string& t : runner.texts()) {
      Clock::time_point t0 = Clock::now();
      std::optional<pnp::Architecture> arch;
      {
        auto s2 = tracer().span("adl.parse_architecture");
        arch.emplace(pnp::adl::parse_architecture(t));
      }
      parse_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      {
        auto s2 = tracer().span("pnp.ModelGenerator.generate");
        const kernel::Machine gm = gen.generate(*arch);
      }
      gen_ms.push_back(ms_since(t0));
      const pnp::GenStats& g = gen.last_stats();
      reused += g.component_models_reused + g.block_models_reused;
      built += g.component_models_built + g.block_models_built;
    }
    r.set("adl.parse_ms", median(parse_ms), "ms");
    r.set("pnp.generate_ms", median(gen_ms), "ms");
    r.set("pnp.reuse_frac", reused / (reused + built), "share");

    const DesignPass p = runner.pass();
    r.set("reduce.cache_hit_rate",
          ratio(p.cache_hits, p.cache_hits + p.recomputed), "share");
    r.set("serve.overhead_ms", median(p.overhead_ms), "ms");
    {
      reduce::VerificationCache cache(p.state_dir + "/cache");
      std::vector<double> flush_ms;
      for (int i = 0; i < 10; ++i) {
        const Clock::time_point t0 = Clock::now();
        auto s2 = tracer().span("reduce.VerificationCache.flush");
        r.check(cache.flush(), "VerificationCache::flush failed");
        flush_ms.push_back(ms_since(t0));
      }
      r.set("reduce.flush_ms", median(flush_ms), "ms");
    }
    std::filesystem::remove_all(p.state_dir);
  }
}

}  // namespace pnpbench
