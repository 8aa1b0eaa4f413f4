#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace pnpbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 2 * beyond) {  // no percentile above the median has enough beyond
    t.value = median(v);
    t.percentile = 50.0;
    t.beyond = n / 2;
    return t;
  }
  t.beyond = beyond;
  const std::size_t idx = n - beyond - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

namespace {

std::uint64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0)
      return std::stoull(line.substr(k.size()));
  }
  return 0;
}

std::uint64_t rss_bytes() { return status_kb("VmRSS") * 1024; }

}  // namespace

std::uint64_t hwm_bytes() { return status_kb("VmHWM") * 1024; }

void MemoryProbe::begin() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  base_ = rss_bytes();
}

std::uint64_t MemoryProbe::growth() const {
  const std::uint64_t hwm = hwm_bytes();
  return hwm > base_ ? hwm - base_ : 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  id_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(Span{name, t_->now_ms(), 0.0, t_->current_});
  t_->current_ = id_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(id_)];
  s.end_ms = t_->now_ms();
  t_->current_ = s.parent;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"id\":%zu,\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d}",
                  i, s.start_ms, s.end_ms, s.parent);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\"," << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::self_time_table() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  struct Agg {
    std::size_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    Agg& a = by_name[spans_[i].name];
    ++a.count;
    a.total += d;
    a.self += d - child_ms[i];
  }
  std::ostringstream os;
  for (const auto& [name, a] : by_name) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " count=%zu total_ms=%.3f self_ms=%.3f",
                  a.count, a.total, a.self);
    os << "span " << name << buf << "\n";
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace pnpbench
