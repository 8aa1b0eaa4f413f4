// The worker crew shared by every multi-threaded search: the parallel
// exact engine and swarm (explore/parallel.cpp), the racing LTL workers
// (ltl/product.cpp) and the resilience jobs (pnp/verifier.cpp).
#pragma once

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pnp {

/// Runs body(0) .. body(n - 1) on n threads and joins them all. The first
/// exception a worker throws (a ModelError from the model, say) is kept,
/// `stop` is raised so the other workers wind down, and once every worker
/// has joined it is rethrown on the calling thread -- the same error a
/// single-threaded run would report, where an escaped exception would
/// otherwise end the process.
template <class Body>
void run_crew(int n, std::atomic<bool>& stop, Body&& body) {
  std::mutex mu;
  std::exception_ptr first;
  const auto fail = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) first = std::current_exception();
    }
    stop.store(true, std::memory_order_release);
  };
  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(n));
  try {
    for (int w = 0; w < n; ++w)
      crew.emplace_back([&, w] {
        try {
          body(w);
        } catch (...) {
          fail();
        }
      });
  } catch (...) {  // a thread could not be started
    fail();
  }
  for (std::thread& t : crew) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace pnp
