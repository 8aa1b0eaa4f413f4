// The benchmark workloads and the per-layer probe suite.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace pnpbench {

/// One verification job: a source text handed to Session::verify_source.
struct JobSample {
  double seconds = 0.0;         // text handed in -> verdict back
  double search_seconds = 0.0;  // summed over the checks
  std::uint64_t states = 0;     // stored states, summed over the checks
  std::uint64_t states_peak = 0;  // largest single search in the job
  std::uint64_t mem_growth = 0;   // peak RSS growth over the job, bytes
  std::uint64_t peak_rss = 0;     // process peak RSS during the job, bytes
};

inline constexpr const char* kRelayModel = "examples/models/relay_mesh.pml";
inline constexpr const char* kRelayInvariant = "tally <= 10";
/// The one check a relay_mesh verification reports.
inline constexpr const char* kRelayCheck =
    "safety[safety (assertions + no invalid end states + invariant: "
    "tally <= 10)]";
/// The LTL property the traced run's ltl.* probes check, p := the invariant.
inline constexpr const char* kRelayLtl = "[] p";

/// The workload's source text verified job after job for --seconds:
/// relay_mesh (relay_par) or a two-pair ADL design (design_par), each
/// through Session::verify_source at min(4, nproc) threads.
void run_verify(const Config& cfg, Result& r);

// -- the design sequence of the traced run ----------------------------------------

struct DesignPass {
  std::uint64_t cache_hits = 0, recomputed = 0;
  std::vector<double> overhead_ms;  // client round-trip minus server time
  std::string state_dir;            // the daemon's; the caller removes it
};

/// Runs the seed's design-iterate-verify sequence (swap one connector
/// block, resubmit unchanged designs) against an in-process daemon.
/// Construction computes the known answers: every distinct design verified
/// once by an uncached in-process Session, the direct path pnpd must agree
/// with.
class DesignRunner {
 public:
  DesignRunner(const Config& cfg, Result& r);
  /// One pass of the sequence against a fresh in-process daemon.
  DesignPass pass();
  const std::vector<std::string>& texts() const { return texts_; }

 private:
  const Config& cfg_;
  Result& r_;
  std::vector<std::string> texts_;  // per step
  std::map<std::string, std::string> known_;  // design text -> verdict line
};

// -- traced run -----------------------------------------------------------------

/// The per-layer probe suite: set-up layers, reference searches, corpus
/// replays over relay_mesh, and the ADL/generator/cache/daemon layers over
/// one pass of `runner`'s sequence.
void run_layers(DesignRunner& runner, const Config& cfg, Result& r);

}  // namespace pnpbench
