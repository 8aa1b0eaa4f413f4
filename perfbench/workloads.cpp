#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "adl/adl.h"
#include "kernel/machine.h"
#include "pml/parser.h"
#include "pnp/generator.h"
#include "pnp/session.h"
#include "serve/client.h"
#include "serve/server.h"

namespace pnpbench {

using namespace pnp;

namespace fs = std::filesystem;

namespace {

/// Fills every end-to-end metric from a workload's jobs and its set-up
/// samples. Timings are medians, so a burst of host contention over a few
/// jobs does not move them.
void report_end_to_end(const std::vector<JobSample>& jobs,
                       const std::vector<double>& setup_seconds, Result& r) {
  std::vector<double> verdict_s, job_ms, rates, job_rates;
  double growth = 0.0, grown_states = 0.0;
  std::uint64_t peak_rss = 0;
  for (const JobSample& j : jobs) {
    verdict_s.push_back(j.seconds);
    job_ms.push_back(j.seconds * 1e3);
    job_rates.push_back(1.0 / j.seconds);
    peak_rss = std::max(peak_rss, j.peak_rss);
    if (j.search_seconds > 0.0)
      rates.push_back(static_cast<double>(j.states) / j.search_seconds);
    growth += static_cast<double>(j.mem_growth);
    grown_states += static_cast<double>(j.states_peak);
  }
  const Tail t = tail(job_ms);
  std::string list = "job ms:";
  for (double ms : job_ms) list += " " + std::to_string(static_cast<long>(ms));
  r.notes.push_back(list);
  r.set("verdict_s", median(verdict_s), "s");
  r.set("setup_s", median(setup_seconds), "s");
  r.set("states_per_s", median(rates), "states/s");
  r.set("bytes_per_state", grown_states > 0.0 ? growth / grown_states : 0.0,
        "B");
  r.set("peak_rss_mb", static_cast<double>(peak_rss) / (1024.0 * 1024.0),
        "MiB");
  r.set("job_p50_ms", median(job_ms), "ms");
  r.set("job_tail_ms", t.value, "ms");
  r.set("jobs_per_s", median(job_rates), "jobs/s");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "job_tail_ms is p%.1f of %zu jobs, %zu beyond it",
                t.percentile, t.samples, t.beyond);
  r.notes.push_back(buf);
}

/// trace.overhead_pct of a traced run whose jobs alternate spans off and
/// on, so a slow drift of the host falls on both sides alike: the median
/// job with spans on against the median job with spans off.
void report_trace_overhead(const std::vector<double>& on_s,
                           const std::vector<double>& off_s, Result& r) {
  r.set("trace.overhead_pct", (median(on_s) / median(off_s) - 1.0) * 100.0,
        "%");
  r.notes.push_back("trace.overhead_pct: median of " +
                    std::to_string(on_s.size()) + " jobs with spans on vs " +
                    std::to_string(off_s.size()) +
                    " with spans off, alternating");
}

// -- ADL designs from the Fig. 1 connector library ---------------------------------

constexpr const char* kChannels[] = {"single_slot", "fifo(2)", "priority(2)",
                                     "lossy_fifo(2)"};
constexpr const char* kSends[] = {"asyn_nonblocking", "asyn_blocking",
                                  "asyn_checking", "syn_blocking",
                                  "syn_checking"};
constexpr const char* kRecvs[] = {"blocking", "nonblocking"};
constexpr int kNChan = 4, kNSend = 5, kNRecv = 2;
constexpr int kSizes[3] = {kNChan, kNSend, kNRecv};  // per block category
constexpr int kPairs = 2;

/// One connector's blocks: indices into the library above.
struct Connector {
  int chan = 0, send = 0, recv = 0;
  int& block(int cat) { return cat == 0 ? chan : cat == 1 ? send : recv; }
};

/// Producer k sends `msgs` messages, waiting for each send's status.
std::string producer(int k, int msgs) {
  const std::string p = "P" + std::to_string(k), n = std::to_string(msgs);
  return "  component " + p +
         " { behavior {\n"
         "      byte i = 1; byte st;\n"
         "      do :: i <= " + n + " -> out_data!i,0,0,0,0,0; out_sig?st,_; i++\n"
         "         :: i > " + n + " -> break\n"
         "      od } }\n";
}

/// Consumer k receives `msgs` messages, retrying on RECV_FAIL.
std::string consumer(int k, int msgs) {
  const std::string c = "C" + std::to_string(k), n = std::to_string(msgs);
  return "  component " + c +
         " { behavior {\n"
         "      byte got = 0; byte v; byte st;\n"
         "      end: do\n"
         "      :: got < " + n + " -> in_data!0,0,0,0,0,0; in_sig?st,_;\n"
         "         in_data?v,_,_,_,_,_;\n"
         "         if :: st == RECV_SUCC -> got++; delivered++\n"
         "            :: else -> skip fi\n"
         "      :: got >= " + n + " -> break\n"
         "      od } }\n";
}

/// Producer/consumer pairs, pair k wired by connectors[k - 1].
std::string design_text(const std::vector<Connector>& connectors, int msgs) {
  std::string t = "architecture design {\n  global delivered = 0;\n";
  for (std::size_t k = 1; k <= connectors.size(); ++k)
    t += producer(static_cast<int>(k), msgs) +
         consumer(static_cast<int>(k), msgs);
  for (std::size_t k = 1; k <= connectors.size(); ++k) {
    const Connector& c = connectors[k - 1];
    const std::string n = std::to_string(k);
    t += "  connector L" + n + " : " + kChannels[c.chan] + " {\n    sender P" +
         n + ".out via " + kSends[c.send] + ";\n    receiver C" + n +
         ".in via " + kRecvs[c.recv] + ";\n  }\n";
  }
  return t + "}\n";
}

// -- whole-model verification workloads (relay_par, design_par) --------------------

/// Set-ups timed before every job. Spread over the run, they see the same
/// host as the jobs do; one burst at the start would see only its own
/// moment.
constexpr int kSetupsPerJob = 100;

/// One source text verified per job through Session::verify_source at
/// min(4, nproc) threads, with its known answer.
struct Verify {
  std::string file;  // name the report carries
  std::string text;
  pnp::Session::SourceKind kind = pnp::Session::SourceKind::Pml;
  std::string invariant;
  std::vector<std::string> checks;  // "kind[label]" of every check, in order
  std::uint64_t states = 0;         // stored states of the last check
  /// Everything a job does before its search starts.
  double (*setup_once)(const std::string& text) = nullptr;
};

/// PML parse, compile and Machine construction.
double pml_setup_once(const std::string& text) {
  const Clock::time_point t0 = Clock::now();
  model::SystemSpec sys = pml::parse(text);
  const kernel::Machine m(sys);
  return seconds_since(t0);
}

/// ADL parse and model generation (which builds the Machine).
double adl_setup_once(const std::string& text) {
  const Clock::time_point t0 = Clock::now();
  const pnp::Architecture arch = pnp::adl::parse_architecture(text);
  pnp::ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch);
  return seconds_since(t0);
}

/// design_par's design: two pairs, three messages each, wired by
/// fifo(2) + asyn_blocking + blocking and by single_slot + syn_blocking +
/// blocking, one asynchronous and one synchronous send. Its search is the
/// size of relay_mesh's, so at min(4, nproc) threads its store holds a few
/// hundred MiB, a working set whose timing stays steady on a shared VM
/// where cache-sized ones do not (see NOTES.md). The seed picks which pair
/// takes which connector; both give the same state space.
constexpr Connector kDesignParConnectors[2] = {{1, 1, 0}, {0, 3, 0}};
constexpr int kDesignParMessages = 3;
constexpr std::uint64_t kDesignParStates = 934105;

Verify make_verify(const Config& cfg) {
  Verify w;
  if (cfg.workload == "relay_par") {
    w.file = "relay_mesh.pml";
    w.text = read_file(cfg.root + "/" + kRelayModel);
    w.invariant = kRelayInvariant;
    w.checks = {kRelayCheck};
    w.states = cfg.expect_states;
    w.setup_once = pml_setup_once;
  } else {
    std::vector<Connector> c(std::begin(kDesignParConnectors),
                             std::end(kDesignParConnectors));
    if (cfg.seed % 2 == 1) std::reverse(c.begin(), c.end());
    w.file = "design.arch";
    w.text = design_text(c, kDesignParMessages);
    w.kind = pnp::Session::SourceKind::Arch;
    w.checks = {"connector-protocol[L1]", "connector-protocol[L2]",
                "safety[assertions + deadlock]"};
    w.states = kDesignParStates;
    w.setup_once = adl_setup_once;
  }
  return w;
}

/// One verification job, checked against the known answer: a PASS from
/// complete exact searches, the expected checks in order, and the expected
/// state count of the last (whole-model) check.
JobSample verify_job(const Verify& w, const Config& cfg, Result& r) {
  JobSample j;
  MemoryProbe mem;
  mem.begin();
  auto job_span = tracer().span("job");
  const Clock::time_point t0 = Clock::now();
  pnp::RunConfig rc;
  rc.heartbeat = false;
  rc.invariant_text = w.invariant;
  rc.threads = cfg.threads_n;
  pnp::Session session(rc);
  pnp::RunReport rep;
  {
    auto s = tracer().span("pnp.Session.verify_source");
    rep = session.verify_source(w.file, w.text, w.kind);
  }
  j.seconds = seconds_since(t0);
  bool ok = rep.passed && rep.checks.size() == w.checks.size();
  std::string got;
  for (std::size_t i = 0; i < rep.checks.size(); ++i) {
    const pnp::RunCheck& c = rep.checks[i];
    const std::string name = c.kind + "[" + c.label + "]";
    ok = ok && c.passed && c.stage.rfind("exact", 0) == 0 &&
         i < w.checks.size() && name == w.checks[i];
    got += " " + name + "=" + (c.passed ? "ok" : "fail") + "/" + c.stage +
           "/" + std::to_string(c.states_stored);
    j.states += c.states_stored;
    j.states_peak = std::max(j.states_peak, c.states_stored);
    j.search_seconds += c.seconds;
  }
  ok = ok && !rep.checks.empty() && rep.checks.back().states_stored == w.states;
  j.mem_growth = mem.growth();
  j.peak_rss = hwm_bytes();
  r.check(ok, cfg.workload + ": passed=" + (rep.passed ? "yes" : "no") + got +
                  " (expected " + std::to_string(w.checks.size()) +
                  " checks, last with " + std::to_string(w.states) +
                  " states)");
  return j;
}

}  // namespace

void run_verify(const Config& cfg, Result& r) {
  const Verify w = make_verify(cfg);
  std::vector<double> setup;
  std::vector<JobSample> jobs;
  std::vector<double> on_s, off_s;
  const Clock::time_point t0 = Clock::now();
  tracer().enable(cfg.trace);
  {
    auto s = tracer().span("workload");
    // Whole jobs only; stop when one more would overrun the window by more
    // than half a job, so runs average --seconds. A traced run traces every
    // second job, the others being its baseline.
    do {
      const bool traced = cfg.trace && jobs.size() % 2 == 1;
      tracer().enable(traced);
      for (int i = 0; i < kSetupsPerJob; ++i)
        setup.push_back(w.setup_once(w.text));
      jobs.push_back(verify_job(w, cfg, r));
      (traced ? on_s : off_s).push_back(jobs.back().seconds);
    } while (seconds_since(t0) + 0.5 * jobs.back().seconds < cfg.seconds);
    tracer().enable(cfg.trace);
  }
  report_end_to_end(jobs, setup, r);
  if (cfg.trace) report_trace_overhead(on_s, off_s, r);
}

// -- the design sequence of the traced run's adl/pnp/reduce/serve probes -----------

namespace {

struct DesignStep {
  std::vector<Connector> connectors;
  bool resubmit = false;  // unchanged design sent again
};

/// splitmix64: a fixed, platform-independent generator, so the walk is the
/// same with every standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

/// The design-iterate-verify walk: a fixed closed walk through the design
/// space, entered at a point the seed picks. Every step swaps one block of
/// one connector, and an unchanged resubmit follows every second swap.
///
/// The walk is built from a fixed generator, not from the seed. In each of
/// `rounds` rounds every (connector, block category) runs once through a
/// fresh permutation of its whole category and back to where it started,
/// the 22 swaps of a round interleaved in a fresh order. So the walk ends
/// where it began, every block of the library is swapped in equally often,
/// and every rotation of it visits the same designs. The seed picks the
/// rotation and which pair takes which connector: seeds change the order
/// in which designs arrive, and with it which jobs hit the cache, but not
/// the mix of search sizes.
std::vector<DesignStep> design_sequence(std::uint64_t seed, int rounds) {
  Rng rng{0x5eed5eed5eed5eedULL};
  std::vector<Connector> cur(kPairs);  // all blocks start at index 0
  std::vector<std::vector<Connector>> walk{cur};
  for (int round = 0; round < rounds; ++round) {
    // Per (connector, category): the other values in a fresh order, then
    // back to the current one.
    std::vector<std::vector<int>> todo;
    std::vector<int> order;  // which (connector, category) swaps next
    for (int p = 0; p < kPairs; ++p) {
      for (int cat = 0; cat < 3; ++cat) {
        const int start = cur[static_cast<std::size_t>(p)].block(cat);
        std::vector<int> vals;
        for (int v = 0; v < kSizes[cat]; ++v)
          if (v != start) vals.push_back(v);
        for (int i = static_cast<int>(vals.size()) - 1; i > 0; --i)
          std::swap(vals[static_cast<std::size_t>(i)],
                    vals[static_cast<std::size_t>(rng.below(i + 1))]);
        vals.push_back(start);
        order.insert(order.end(), vals.size(),
                     static_cast<int>(todo.size()));
        todo.push_back(std::move(vals));
      }
    }
    for (int i = static_cast<int>(order.size()) - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.below(i + 1))]);
    std::vector<std::size_t> next(todo.size(), 0);
    for (const int t : order) {
      cur[static_cast<std::size_t>(t / 3)].block(t % 3) =
          todo[static_cast<std::size_t>(t)][next[static_cast<std::size_t>(t)]++];
      walk.push_back(cur);
    }
  }
  // walk.back() == walk.front(): a closed walk of walk.size() - 1 swaps.
  const std::size_t swaps = walk.size() - 1;
  const std::size_t start = seed % swaps;
  const bool mirror = (seed / swaps) % 2 == 1;
  auto at = [&](std::size_t i) {
    std::vector<Connector> d = walk[(start + i) % swaps];
    if (mirror) std::reverse(d.begin(), d.end());
    return d;
  };
  std::vector<DesignStep> seq{DesignStep{at(0), false}};
  for (std::size_t k = 1; k <= swaps; ++k) {
    seq.push_back(DesignStep{at(k), false});
    if (k % 2 == 0) seq.push_back(DesignStep{at(k), true});
  }
  return seq;
}

/// Rounds of the walk per pass (22 swaps each).
int design_rounds(const Config& cfg) { return cfg.smoke ? 1 : 2; }

/// The config every design job runs under, on both paths. pnpd caps a job
/// that names no memory budget at its default job memory; the direct path
/// gets the same budget so the two config digests agree.
pnp::RunConfig design_config() {
  pnp::RunConfig rc;
  rc.heartbeat = false;
  rc.memory_budget_bytes = serve::ServerOptions{}.default_job_memory;
  return rc;
}

/// The overall verdict and every check's verdict, in report order: what a
/// pnpd answer must match on the direct path.
std::string verdict_head(bool passed) { return passed ? "PASS:" : "FAIL:"; }
void add_check(std::string& v, const std::string& kind,
               const std::string& label, bool passed) {
  v += " " + kind + "[" + label + "]=" + (passed ? "ok" : "fail");
}

}  // namespace

DesignRunner::DesignRunner(const Config& cfg, Result& r) : cfg_(cfg), r_(r) {
  for (const DesignStep& s : design_sequence(cfg.seed, design_rounds(cfg)))
    texts_.push_back(design_text(s.connectors, 1));
  std::vector<std::string> distinct;
  for (const std::string& t : texts_)
    if (known_.emplace(t, "").second) distinct.push_back(t);

  // Known answers: every distinct design verified once, uncached, spread
  // over the benchmark's threads.
  std::vector<std::string> out(distinct.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < distinct.size();) {
      try {
        pnp::Session session(design_config());
        const pnp::RunReport rep = session.verify_source(
            "design.arch", distinct[i], pnp::Session::SourceKind::Arch);
        out[i] = verdict_head(rep.passed);
        for (const pnp::RunCheck& c : rep.checks)
          add_check(out[i], c.kind, c.label, c.passed);
      } catch (const std::exception& e) {
        out[i] = std::string("error: ") + e.what();  // matches no answer
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < cfg.threads_n; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < distinct.size(); ++i) known_[distinct[i]] = out[i];
}

namespace {

/// An in-process pnpd with one worker, its state under `state_dir`.
class Daemon {
 public:
  Daemon(const std::string& work_dir, const std::string& state_dir) {
    opts_.socket_path = work_dir + "/pnpd.sock";
    opts_.workers = 1;
    opts_.state_dir = state_dir;
    server_ = std::make_unique<serve::Server>(opts_);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Start, connect, ping: the daemon's set-up as a client sees it.
  bool start(serve::Client& c, std::string* err) {
    if (!server_->start(err)) return false;
    thread_ = std::thread([this] { server_->run(); });
    return c.connect_unix(opts_.socket_path, err) && c.ping(err);
  }
  void stop() {
    if (!thread_.joinable()) return;
    server_->request_stop();
    thread_.join();
  }

 private:
  serve::ServerOptions opts_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

}  // namespace

DesignPass DesignRunner::pass() {
  DesignPass p;
  p.state_dir = cfg_.work_dir + "/state-pass";
  fs::remove_all(p.state_dir);
  serve::Client c;
  std::string err;
  Daemon d(cfg_.work_dir, p.state_dir);
  bool up = false;
  {
    auto s = tracer().span("serve.start_connect_ping");
    up = d.start(c, &err);
  }
  r_.check(up, "pnpd start: " + err);
  if (!up) return p;

  for (std::size_t i = 0; i < texts_.size(); ++i) {
    serve::JobRequest req;
    req.id = "j" + std::to_string(i);
    req.model_text = texts_[i];
    req.kind = pnp::Session::SourceKind::Arch;
    req.config = design_config();
    req.explicit_memory = false;
    serve::Client::Outcome out;
    const Clock::time_point j0 = Clock::now();
    bool sent = false;
    {
      auto s = tracer().span("serve.Client.submit_and_wait");
      sent = c.submit_and_wait(req, &out, &err);
    }
    const double seconds = seconds_since(j0);

    std::string got = verdict_head(out.passed);
    if (const json::Value* checks = out.report.get("checks"))
      for (const json::Value& ch : checks->arr)
        add_check(got, ch.str_or("kind"), ch.str_or("label"),
                  ch.bool_or("passed"));
    const std::string& want = known_.at(texts_[i]);
    r_.check(sent && out.accepted && out.error.empty() && !out.interrupted &&
                 got == want,
             "design job " + req.id + ": got '" + got + "' want '" + want +
                 "'" + (sent ? "" : " transport: " + err) +
                 out.reject_reason + out.error);
    p.cache_hits += static_cast<std::uint64_t>(out.cache_hits);
    p.recomputed += static_cast<std::uint64_t>(out.recomputed);
    p.overhead_ms.push_back((seconds - out.seconds) * 1e3);
  }
  c.close();
  return p;
}

}  // namespace pnpbench
