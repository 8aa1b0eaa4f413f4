// pnpbench: the repository benchmark. One invocation runs one workload for
// --seconds, checks every verdict against its known answer, and prints one
// JSON result line last: the end-to-end metrics (--trace 0) or the
// per-layer metrics of the traced run (--trace 1). perfbench/run.py builds
// this program and is the command to use; see perfbench/NOTES.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

namespace pnpbench {
namespace {

// The metric names BENCHMARK.json declares, in its order.
const char* const kEndToEnd[] = {
    "verdict_s",  "setup_s",     "states_per_s", "bytes_per_state",
    "peak_rss_mb", "job_p50_ms", "job_tail_ms",  "jobs_per_s",
};
const char* const kPerLayer[] = {
    "pml.parse_ms",
    "compile.compile_ms",
    "kernel.machine_ms",
    "ltl.buchi_ms",
    "kernel.succ_ns",
    "kernel.succ_per_state",
    "kernel.compress_ns",
    "kernel.compress_delta_ns",
    "kernel.key_bytes",
    "kernel.compress_ns.t1",
    "kernel.compress_ns.tN",
    "explore.visited_insert_ns",
    "explore.visited_dup_ns",
    "explore.store_bytes_per_key",
    "explore.sharded_insert_ns.t1",
    "explore.sharded_insert_ns.tN",
    "explore.matched_per_stored",
    "explore.matched_per_stored.tN",
    "explore.worker_skew",
    "ltl.product_vs_reach",
    "ltl.matched_per_stored",
    "adl.parse_ms",
    "pnp.generate_ms",
    "pnp.reuse_frac",
    "reduce.cache_hit_rate",
    "reduce.flush_ms",
    "serve.overhead_ms",
    "obs.overhead_pct",
    "layers.accounted_frac",
    "trace.overhead_pct",
    "failed_frac",
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "pnpbench: %s\n"
               "usage: pnpbench --workload relay_par|design_par "
               "--seed N --seconds S --trace 0|1\n"
               "                --root DIR --work-dir DIR [--source-id ID]\n"
               "                [--expect-states N] [--smoke]\n",
               msg);
  return 2;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

}  // namespace
}  // namespace pnpbench

int main(int argc, char** argv) {
  using namespace pnpbench;
  Config cfg;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = val();
      else if (a == "--seed") cfg.seed = std::stoull(val());
      else if (a == "--seconds") cfg.seconds = std::stod(val());
      else if (a == "--trace") cfg.trace = val() == "1";
      else if (a == "--root") cfg.root = val();
      else if (a == "--work-dir") cfg.work_dir = val();
      else if (a == "--source-id") source_id = val();
      else if (a == "--expect-states") cfg.expect_states = std::stoull(val());
      else if (a == "--smoke") cfg.smoke = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  const std::set<std::string> workloads = {"relay_par", "design_par"};
  if (workloads.count(cfg.workload) == 0) return usage("unknown workload");
  if (cfg.work_dir.empty()) return usage("--work-dir is required");
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cfg.threads_n = std::min(4, nproc);
  // Daemon sockets and state live in a directory of this process's own, so
  // overlapping runs never share a socket path.
  const std::string work_root = cfg.work_dir;
  cfg.work_dir = work_root + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(cfg.work_dir);

  std::printf(
      "{\"machine\": {\"nproc\": %d, \"threads\": %d, "
      "\"compiler\": %s, \"build_type\": %s, \"source\": %s, "
      "\"workload\": %s, \"seed\": %llu}}\n",
      nproc, cfg.threads_n, json_str(PNPBENCH_COMPILER).c_str(),
      json_str(PNPBENCH_BUILD_TYPE).c_str(), json_str(source_id).c_str(),
      json_str(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed));
  std::fflush(stdout);

  Result r;
  try {
    run_verify(cfg, r);
    if (cfg.trace) {
      DesignRunner design(cfg, r);
      run_layers(design, cfg, r);
    }
  } catch (const std::exception& e) {
    // An input the benchmark cannot read is a set-up error, not a result.
    std::fprintf(stderr, "pnpbench: %s\n", e.what());
    std::filesystem::remove_all(cfg.work_dir);
    return 2;
  }
  std::filesystem::remove_all(cfg.work_dir);

  // Exactly the declared metric set, each finite.
  std::map<std::string, Metric> out;
  bool complete = true;
  if (cfg.trace)
    r.set("failed_frac",
          r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / r.attempted,
          "share");
  auto take = [&](const char* name) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end() || !std::isfinite(it->second.value)) {
      r.notes.push_back(std::string("metric missing or not finite: ") + name);
      complete = false;
      return;
    }
    out[name] = it->second;
  };
  if (cfg.trace)
    for (const char* n : kPerLayer) take(n);
  else
    for (const char* n : kEndToEnd) take(n);

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  if (cfg.trace) {
    std::fputs(tracer().self_time_table().c_str(), stdout);
    const std::string path = work_root + "/spans-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    if (tracer().write(path)) std::printf("# spans written to %s\n", path.c_str());
  }

  const bool correct = complete && r.failed == 0 && r.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    line += (first ? "" : ", ") + json_str(name) + ": {\"value\": " + buf +
            ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
