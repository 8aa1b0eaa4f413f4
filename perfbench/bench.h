// Shared plumbing for the pnpbench benchmark: clocks, sample statistics,
// process-memory probes, the in-memory span tracer, and the result record
// every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pnpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- sample statistics --------------------------------------------------------

double median(std::vector<double> v);

/// The tail of a sample: the highest percentile with at least `beyond`
/// samples above it. With 2 * beyond samples or fewer no percentile above
/// the median has that many beyond it, and the median is returned: a
/// run's dozen or so verification jobs resolve no tail.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  // nominal percentile of `value`
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples above `value`
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

// -- process memory -------------------------------------------------------------

/// Peak resident set size of this process (VmHWM), in bytes.
std::uint64_t hwm_bytes();

/// Measures how much resident memory one piece of work adds: free heap pages
/// are returned to the kernel and the peak-RSS mark is reset to the current
/// RSS before the work, and the new peak is read after it.
class MemoryProbe {
 public:
  void begin();
  /// Peak RSS growth since begin(), in bytes.
  std::uint64_t growth() const;

 private:
  std::uint64_t base_ = 0;
};

// -- tracing ---------------------------------------------------------------------

/// A span recorded around one call into a layer's public functions.
struct Span {
  std::string name;
  double start_ms = 0.0;  // since the tracer was created
  double end_ms = 0.0;
  int parent = -1;        // index of the enclosing span, -1 at the root
};

/// Keeps spans in memory; written out once when the benchmark ends. When
/// disabled, Scope costs one branch and no clock reads. Spans are opened
/// from the benchmark's main thread only (a multi-threaded replay loop is
/// one span around the whole loop).
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  void enable(bool on = true) { on_ = on; }
  Scope span(const char* name) { return Scope(on_ ? this : nullptr, name); }

  /// Writes every span as one JSON document.
  bool write(const std::string& path) const;
  /// Per span name: count, total and self milliseconds (self = duration
  /// minus the part covered by child spans), one line each.
  std::string self_time_table() const;

 private:
  double now_ms() const;
  bool on_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer& tracer();

// -- results --------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked outcome; a mismatch is noted with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("MISMATCH: " + what);
    }
  }
};

// -- configuration shared by the workloads ------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";      // checkout root (models are read from here)
  std::string work_dir;        // scratch directory inside the checkout
  int threads_n = 1;           // min(4, nproc): the N of the .tN variants
  std::uint64_t expect_states = 1188100;  // relay_mesh known answer
  bool smoke = false;          // smaller corpus and design sequence
};

std::string read_file(const std::string& path);

}  // namespace pnpbench
