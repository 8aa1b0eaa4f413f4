#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/check.sh               # plain RelWithDebInfo build + ctest
#   scripts/check.sh --sanitize    # additional ASan+UBSan build + ctest
#   scripts/check.sh --tsan        # additional TSan build running the
#                                  # multi-threaded exploration tests
#
# Each sanitized pass uses its own build tree (build-asan / build-tsan) so
# it never perturbs the primary build/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "${1:-}" == "--sanitize" ]]; then
  cmake -B build-asan -S . -DPNP_SANITIZE=ON
  cmake --build build-asan -j
  UBSAN_OPTIONS=print_stacktrace=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # Race detection focused on the code that actually runs threads: the
  # parallel explorer suite, the explorer regression suite, the threaded
  # pnpv smoke runs, the pnpd server (reader threads + worker pool +
  # shared cache/ledger -- see src/serve/), and the engine-backed searches
  # that share one immutable Engine across workers (EnginePor runs the
  # parallel POR sweep at threads 2/8 through bytecode and AOT backends;
  # EngineExplore covers the plain parallel sweep; EngineLtl the racing
  # nested-DFS workers), plus the shared stores' lock-free read paths
  # (ConcurrentStore: the sharded visited set and the striped compressor
  # hammered from several threads through table growth).
  cmake -B build-tsan -S . -DPNP_SANITIZE=thread
  cmake --build build-tsan -j --target test_parallel test_explore test_serve \
    test_codegen test_compress pnpv
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
      -R 'Parallel|Swarm|Explore|Serve|pnpv\.threads|EnginePor|EngineExplore|EngineLtl|ConcurrentStore'
fi
