// Parallel-exploration throughput: states/second and visited-store
// bytes/state of the exact engines across a thread sweep, plus the seeded
// bitstate swarm, on the optimized v1 bridge and on the relay_mesh model
// (examples/models/relay_mesh.pml), and a bounded sweep on the
// polling-heavy v2 bridge (paper Fig. 14). Doubles as an end-to-end
// determinism check: every complete exact run must store exactly the same
// number of states.
//
//   bench_parallel [--quick] [--json]
//
// --quick shrinks the instances for CI smoke runs; --json emits the rows as
// a JSON array ({bench, threads, hw_threads, states, states_per_sec,
// bytes_per_state, wall_seconds}) consumed by scripts/bench.sh (which gates
// bytes_per_state against the committed baseline, and the relay_exact
// 4-thread vs 1-thread speedup on machines with 4 or more hardware
// threads) and uploaded as the CI bench artifact. hw_threads, the
// machine's hardware thread count, is in every row.
// The serve_rtt row measures the warm-cache round-trip latency of an
// in-process pnpd (scripts/bench.sh gates its warm_hit_rate).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bridge/bridge.h"
#include "common.h"
#include "explore/explorer.h"
#include "obs/obs.h"
#include "pml/parser.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace pnp;
using namespace pnp::benchutil;
using namespace pnp::bridge;

namespace {

struct Row {
  std::string bench;
  int threads{1};
  std::uint64_t states{0};
  std::uint64_t store_bytes{0};
  double wall{0.0};

  double states_per_sec() const {
    return static_cast<double>(states) / std::max(wall, 1e-9);
  }
  double bytes_per_state() const {
    return states > 0 ? static_cast<double>(store_bytes) /
                            static_cast<double>(states)
                      : 0.0;
  }
};

// The shipped demo design, inlined so the bench binary runs from any cwd:
// two components, one fifo connector, three checks with the end-invariant
// (connector protocol + global safety + end-invariant).
constexpr const char* kServeArch = R"(
architecture demo {
  global delivered = 0;
  component Producer {
    behavior {
      byte i = 1;
      do
      :: i <= 3 -> out_data!i,0,0,0,0,0; out_sig?SEND_SUCC,_; i++
      :: i > 3 -> break
      od
    }
  }
  component Consumer {
    behavior {
      byte j = 1;
      byte v;
      do
      :: j <= 3 ->
         in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_; in_data?v,_,_,_,_,_;
         assert(v == j); delivered++; j++
      :: j > 3 -> break
      od
    }
  }
  connector Link : fifo(2) {
    sender Producer.out via asyn_blocking;
    receiver Consumer.in via blocking;
  }
}
)";

/// examples/models/relay_mesh.pml with `n` messages per pipeline (the file
/// has n = 5: 1,188,100 states), inlined like kServeArch.
std::string relay_text(int n) {
  // One pipeline: $P names its processes, $c its channels, $N the count.
  constexpr std::string_view kPipeline = R"(
active proctype Source$P() {
  byte i = 0;
  do
  :: i < $N -> $c1!i; i++
  :: i >= $N -> break
  od
}
active proctype Relay$P() {
  byte v;
  end: do
  :: $c1?v -> $c2!v
  od
}
active proctype Sink$P() {
  byte v;
  byte expect = 0;
  do
  :: expect < $N -> $c2?v; assert(v == expect); expect++; tally++
  :: expect >= $N -> break
  od
}
)";
  std::string text =
      "chan a1 = [3] of { byte };\nchan a2 = [3] of { byte };\n"
      "chan b1 = [3] of { byte };\nchan b2 = [3] of { byte };\n"
      "byte tally;\n";
  for (const auto& [proc, chan] : {std::pair{"A", "a"}, std::pair{"B", "b"}}) {
    for (std::size_t i = 0; i < kPipeline.size(); ++i) {
      if (kPipeline[i] != '$') {
        text += kPipeline[i];
        continue;
      }
      const char var = kPipeline[++i];
      text += var == 'P' ? proc : var == 'c' ? chan : std::to_string(n);
    }
  }
  return text;
}

explore::Result run(const kernel::Machine& m, expr::Ref inv, int threads,
                    bool bitstate, std::uint64_t max_states = 0) {
  explore::Options opt;
  opt.want_trace = false;
  opt.invariant = inv;
  opt.invariant_name = "safety";
  opt.threads = threads;
  opt.bitstate = bitstate;
  if (max_states > 0) opt.max_states = max_states;
  if (bitstate) opt.bitstate_bytes = std::uint64_t{1} << 24;
  return explore::explore(m, opt);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--json") == 0) json = true;
    else {
      std::fprintf(stderr, "usage: bench_parallel [--quick] [--json]\n");
      return 2;
    }
  }

  BridgeConfig cfg;
  cfg.cars_per_side = quick ? 1 : 2;
  cfg.batch_n = 1;
  ModelGenerator gen;
  Architecture arch = make_v1(cfg);
  const kernel::Machine m =
      gen.generate(arch, {.optimize_connectors = true});
  const expr::Ref inv = safety_invariant(gen).ref;

  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep{1};
  if (hw >= 2) sweep.push_back(2);
  if (hw > 2) sweep.push_back(hw);
  // relay_exact also runs at 4 threads when there are more, for the
  // 4-vs-1 speedup gate in scripts/bench.sh
  std::vector<int> relay_sweep = sweep;
  if (hw > 4) relay_sweep.insert(relay_sweep.end() - 1, 4);

  std::vector<Row> rows;
  bool ok = true;
  std::uint64_t seq_states = 0;
  // Quick (CI) runs take the best of 3 for the exact rows: scripts/bench.sh
  // gates their states_per_sec against the committed baseline, and best-of
  // is robust against load spikes on shared runners the way a single sample
  // is not. Full runs are minutes long and not wall-clock gated, so one
  // sample suffices there.
  const int timing_reps = quick ? 3 : 1;
  for (const int t : sweep) {
    explore::Result r;
    for (int rep = 0; rep < timing_reps; ++rep) {
      explore::Result attempt = run(m, inv, t, false);
      ok = ok && attempt.ok() && attempt.stats.complete;
      if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
        r = std::move(attempt);
    }
    if (t == 1) seq_states = r.stats.states_stored;
    else ok = ok && r.stats.states_stored == seq_states;
    rows.push_back({"bridge_exact", t, r.stats.states_stored,
                    r.stats.store_bytes, r.stats.seconds});
  }
  // relay_mesh: the benchmark's whole-model search, where every step moves
  // a message through a buffered channel. Same timing policy as above.
  {
    const int n = quick ? 3 : 5;
    model::SystemSpec sys = pml::parse(relay_text(n));
    const expr::Ref relay_inv =
        pml::parse_global_expr(sys, "tally <= " + std::to_string(2 * n));
    const kernel::Machine rm(sys);
    std::uint64_t relay_states = 0;
    for (const int t : relay_sweep) {
      explore::Result r;
      for (int rep = 0; rep < timing_reps; ++rep) {
        explore::Result attempt = run(rm, relay_inv, t, false);
        ok = ok && attempt.ok() && attempt.stats.complete;
        if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
          r = std::move(attempt);
      }
      if (t == 1) relay_states = r.stats.states_stored;
      else ok = ok && r.stats.states_stored == relay_states;
      rows.push_back({"relay_exact", t, r.stats.states_stored,
                      r.stats.store_bytes, r.stats.seconds});
    }
    if (!quick) ok = ok && relay_states == 1'188'100;
  }
  {
    const int t = quick ? 2 : std::min(hw, 4);
    const explore::Result r = run(m, inv, t, true);
    ok = ok && r.ok();
    rows.push_back({"bridge_swarm", t, r.stats.states_stored,
                    r.stats.store_bytes, r.stats.seconds});
  }

  // The polling-heavy v2 bridge (paper Fig. 14): its interleaving space is
  // too large to exhaust, so these are BOUNDED rows -- "no violation within
  // N states" -- and truncated runs explore thread-dependent subsets, so no
  // cross-thread state-count assertion here (the full-space guarantee is
  // covered by the v1 rows and the store-equivalence tests).
  {
    BridgeConfig v2cfg;
    v2cfg.cars_per_side = 1;
    v2cfg.batch_n = 1;
    v2cfg.enter_queue_capacity = 1;
    Architecture v2arch = make_v2(v2cfg);
    ModelGenerator v2gen;
    const kernel::Machine m2 = v2gen.generate(v2arch);
    const expr::Ref inv2 = safety_invariant(v2gen).ref;
    const std::uint64_t bound = quick ? 150'000 : 2'000'000;
    for (const int t : sweep) {
      explore::Result r;
      for (int rep = 0; rep < timing_reps; ++rep) {
        explore::Result attempt = run(m2, inv2, t, false, bound);
        ok = ok && attempt.ok();
        if (rep == 0 || attempt.stats.seconds < r.stats.seconds)
          r = std::move(attempt);
      }
      rows.push_back({"bridge_v2_exact", t, r.stats.states_stored,
                      r.stats.store_bytes, r.stats.seconds});
    }
  }

  // Observability overhead on the fig13 full space: best-of-N wall time
  // with no observer vs with a Recorder attached (no sinks -- the hot-path
  // cost is the counter publishing, events are cold-path). The base and
  // instrumented reps are INTERLEAVED: shared runners drift by several
  // percent over the ~minute this pair takes, and grouping all base reps
  // ahead of all instrumented ones was measured to charge that drift to
  // whichever side ran in the slow window (a ~10% phantom overhead on a
  // quiet-morning baseline). Alternating cancels the drift; best-of-N then
  // suppresses the symmetric noise. The acceptance bar is <= 3% (see
  // obs.h); scripts/bench.sh gates this row.
  double obs_base_s = 0.0, obs_instr_s = 0.0, obs_overhead_pct = 0.0;
  std::uint64_t obs_states = 0;
  {
    const int reps = quick ? 5 : 3;
    obs::Observer ob;
    auto once = [&](obs::Observer* o, double& best_s, std::uint64_t& states) {
      explore::Options opt;
      opt.want_trace = false;
      opt.invariant = inv;
      opt.invariant_name = "safety";
      opt.obs = o;
      const explore::Result r = explore::explore(m, opt);
      ok = ok && r.ok() && r.stats.complete;
      best_s = std::min(best_s, r.stats.seconds);
      states = r.stats.states_stored;
    };
    double base_s = 1e99, instr_s = 1e99;
    std::uint64_t base_states = 0, instr_states = 0;
    for (int i = 0; i < reps; ++i) {
      once(nullptr, base_s, base_states);
      once(&ob, instr_s, instr_states);
    }
    ok = ok && base_states == instr_states;
    // each run publishes absolute tallies into a fresh block, so the merged
    // total must be exactly reps x the per-run count
    ok = ok && ob.recorder().total(obs::Counter::StatesStored) ==
                   static_cast<std::uint64_t>(reps) * instr_states;
    obs_base_s = base_s;
    obs_instr_s = instr_s;
    obs_states = instr_states;
    obs_overhead_pct = std::max(0.0, (instr_s / std::max(base_s, 1e-9) - 1.0) *
                                         100.0);
  }

  // Spill overhead on the fig13 full space: best-of-N wall time of the
  // in-RAM exact run vs the same search forced through the mmap spill path
  // (memory budget far below the footprint, so the visited-key arena and
  // intern pools go disk-backed early). State counts must be identical --
  // spill is an exact mode, not an approximation. The acceptance bar is
  // <= 15% (scripts/bench.sh gates this row).
  double spill_base_s = 0.0, spill_s = 0.0, spill_overhead_pct = 0.0;
  std::uint64_t spill_states = 0;
  {
    const int reps = 3;
    const std::string spill_dir =
        (std::filesystem::temp_directory_path() / "pnp_bench_spill").string();
    auto best = [&](bool spill) {
      double best_s = 1e99;
      std::uint64_t states = 0;
      for (int i = 0; i < reps; ++i) {
        explore::Options opt;
        opt.want_trace = false;
        opt.invariant = inv;
        opt.invariant_name = "safety";
        if (spill) {
          opt.spill_dir = spill_dir;
          opt.memory_budget_bytes = std::uint64_t{1} << 18;
        }
        const explore::Result r = explore::explore(m, opt);
        ok = ok && r.ok() && r.stats.complete;
        if (spill) ok = ok && r.stats.spilled;
        best_s = std::min(best_s, r.stats.seconds);
        states = r.stats.states_stored;
      }
      return std::make_pair(best_s, states);
    };
    const auto [base_s, base_states] = best(false);
    const auto [disk_s, disk_states] = best(true);
    ok = ok && base_states == disk_states;
    spill_base_s = base_s;
    spill_s = disk_s;
    spill_states = disk_states;
    spill_overhead_pct =
        std::max(0.0, (disk_s / std::max(base_s, 1e-9) - 1.0) * 100.0);
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }

  // Service round-trip latency: an in-process pnpd on a temp Unix socket,
  // one cold submit of the demo architecture to fill the shared verdict
  // cache, then N warm submits (fresh connection each, like distinct
  // clients) timing the full protocol round-trip: submit -> accepted ->
  // events -> report. Every warm check must come out of the cache --
  // warm_hit_rate is deterministic and scripts/bench.sh gates it > 0;
  // rtt_ms is wall-clock and therefore informational only.
  double serve_cold_ms = 0.0, serve_rtt_ms = 0.0, serve_warm_hit_rate = 0.0;
  const int serve_jobs = quick ? 8 : 32;
  {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "pnp_bench_serve";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);

    serve::ServerOptions sopts;
    sopts.socket_path = (dir / "pnpd.sock").string();
    sopts.workers = 2;
    sopts.state_dir = (dir / "state").string();
    serve::Server server(sopts);
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "serve_rtt: server start failed: %s\n",
                   err.c_str());
      ok = false;
    } else {
      std::thread srv([&server] { server.run(); });
      auto submit = [&](const std::string& id, double* rtt_ms,
                        serve::Client::Outcome* out) {
        serve::JobRequest req;
        req.id = id;
        req.model_text = kServeArch;
        req.kind = Session::SourceKind::Arch;
        req.config.end_invariant_text = "delivered == 3";
        serve::Client c;
        std::string cerr;
        const auto t0 = std::chrono::steady_clock::now();
        const bool good = c.connect_unix(sopts.socket_path, &cerr) &&
                          c.submit_and_wait(req, out, &cerr);
        const auto t1 = std::chrono::steady_clock::now();
        *rtt_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (!good || !out->accepted || !out->passed) {
          std::fprintf(stderr, "serve_rtt: job %s failed: %s%s\n", id.c_str(),
                       cerr.c_str(), out->reject_reason.c_str());
          return false;
        }
        return true;
      };

      serve::Client::Outcome cold;
      ok = ok && submit("cold", &serve_cold_ms, &cold);
      ok = ok && cold.recomputed > 0;

      std::vector<double> rtts;
      std::uint64_t hits = 0, recomputed = 0;
      for (int i = 0; i < serve_jobs; ++i) {
        serve::Client::Outcome warm;
        double ms = 0.0;
        ok = ok && submit("warm-" + std::to_string(i), &ms, &warm);
        rtts.push_back(ms);
        hits += static_cast<std::uint64_t>(warm.cache_hits);
        recomputed += static_cast<std::uint64_t>(warm.recomputed);
      }
      std::sort(rtts.begin(), rtts.end());
      serve_rtt_ms = rtts[rtts.size() / 2];
      serve_warm_hit_rate =
          hits + recomputed > 0
              ? static_cast<double>(hits) /
                    static_cast<double>(hits + recomputed)
              : 0.0;
      // warm jobs resubmit the identical model and config, so anything
      // short of a full cache hit is a determinism bug, not noise
      ok = ok && hits > 0 && recomputed == 0;

      server.request_stop();
      srv.join();
    }
    fs::remove_all(dir, ec);
  }

  if (json) {
    std::printf("[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("  {\"bench\": \"%s\", \"threads\": %d, "
                  "\"hw_threads\": %d, \"states\": %llu, "
                  "\"states_per_sec\": %.1f, \"bytes_per_state\": %.1f, "
                  "\"wall_seconds\": %.6f}%s\n",
                  r.bench.c_str(), r.threads, hw,
                  static_cast<unsigned long long>(r.states),
                  r.states_per_sec(), r.bytes_per_state(), r.wall,
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ,{\"bench\": \"obs_overhead\", \"threads\": 1, "
                "\"hw_threads\": %d, \"states\": %llu, "
                "\"base_seconds\": %.6f, \"obs_seconds\": %.6f, "
                "\"overhead_pct\": %.2f}\n",
                hw, static_cast<unsigned long long>(obs_states), obs_base_s,
                obs_instr_s, obs_overhead_pct);
    std::printf("  ,{\"bench\": \"spill_overhead\", \"threads\": 1, "
                "\"hw_threads\": %d, \"states\": %llu, "
                "\"base_seconds\": %.6f, \"spill_seconds\": %.6f, "
                "\"overhead_pct\": %.2f}\n",
                hw, static_cast<unsigned long long>(spill_states), spill_base_s,
                spill_s, spill_overhead_pct);
    std::printf("  ,{\"bench\": \"serve_rtt\", \"threads\": 2, "
                "\"hw_threads\": %d, \"jobs\": %d, \"cold_ms\": %.3f, "
                "\"rtt_ms\": %.3f, \"warm_hit_rate\": %.4f}\n",
                hw, serve_jobs, serve_cold_ms, serve_rtt_ms,
                serve_warm_hit_rate);
    std::printf("]\n");
  } else {
    std::printf("parallel exploration throughput (v1 bridge, %d car(s)/side, "
                "optimized blocks; relay_mesh; %d hardware threads)\n\n",
                cfg.cars_per_side, hw);
    print_header({"bench", "threads", "states", "states/sec", "B/state",
                  "time"},
                 {16, 9, 12, 14, 10, 12});
    for (const Row& r : rows) {
      print_cell(r.bench, 16);
      print_cell(std::to_string(r.threads), 9);
      print_cell(std::to_string(r.states), 12);
      print_cell(std::to_string(static_cast<long long>(r.states_per_sec())),
                 14);
      print_cell(std::to_string(static_cast<long long>(r.bytes_per_state())),
                 10);
      print_cell(fmt_ms(r.wall) + " ms", 12);
      std::printf("\n");
    }
    std::printf("\nobservability overhead (recorder attached, best of N): "
                "%.3fs -> %.3fs = %.2f%%\n",
                obs_base_s, obs_instr_s, obs_overhead_pct);
    std::printf("spill overhead (mmap disk-backed stores, best of N): "
                "%.3fs -> %.3fs = %.2f%%\n",
                spill_base_s, spill_s, spill_overhead_pct);
    std::printf("pnpd round-trip (%d warm jobs): cold %.1f ms, warm median "
                "%.1f ms, warm hit rate %.0f%%\n",
                serve_jobs, serve_cold_ms, serve_rtt_ms,
                serve_warm_hit_rate * 100.0);
    std::printf("exact runs stored identical state counts at every thread "
                "count: %s\n",
                verdict(ok).c_str());
  }
  return ok ? 0 : 1;
}
