// COLLAPSE compression + flat visited-store tests.
//
// Three layers: (1) unit tests for the KeyArena / FlatKeySet storage and
// the StateCompressor (round-trip exactness and injectivity over reachable
// AND adversarially random states -- injectivity is the property that lets
// the exact visited set key on compressed bytes); (2) concurrency: the
// lock-striped compressor must stay exact under parallel interning;
// (3) store equivalence: the rewritten engines must reproduce the
// copy-based engine's verdicts and stats on the paper's bridge models --
// bit-identical at thread count 1 (checked against an in-test replica of
// the historical frame-by-frame DFS) and count-identical at 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bridge/bridge.h"
#include "explore/explorer.h"
#include "explore/flat_store.h"
#include "explore/visited.h"
#include "kernel/compress.h"
#include "kernel/machine.h"
#include "pnp/generator.h"
#include "support/hash.h"

namespace pnp {
namespace {

using kernel::Machine;
using kernel::State;
using kernel::StateCompressor;

// -- model helpers -----------------------------------------------------------

struct BridgeModel {
  pnp::ModelGenerator gen;
  std::unique_ptr<Machine> m;
  expr::Ref invariant{expr::kNoExpr};
};

BridgeModel make_bridge(bool v2) {
  BridgeModel b;
  bridge::BridgeConfig cfg;
  cfg.cars_per_side = 1;
  cfg.batch_n = 1;
  if (v2) cfg.enter_queue_capacity = 1;
  Architecture arch = v2 ? bridge::make_v2(cfg) : bridge::make_v1(cfg);
  b.m = std::make_unique<Machine>(
      b.gen.generate(arch, {.optimize_connectors = !v2}));
  b.invariant = bridge::safety_invariant(b.gen).ref;
  return b;
}

/// Collects up to `limit` distinct reachable states, breadth-first.
std::vector<State> reachable_states(const Machine& m, std::size_t limit) {
  std::vector<State> out;
  std::unordered_set<std::string> seen;
  std::vector<kernel::Succ> succs;
  out.push_back(m.initial());
  seen.insert(kernel::encode_key(out.back()));
  for (std::size_t head = 0; head < out.size() && out.size() < limit; ++head) {
    succs.clear();
    m.successors(out[head], succs);
    for (kernel::Succ& sc : succs) {
      if (out.size() >= limit) break;
      if (seen.insert(kernel::encode_key(sc.first)).second)
        out.push_back(std::move(sc.first));
    }
  }
  return out;
}

void expect_round_trip(StateCompressor& c, const std::vector<State>& states) {
  std::map<std::vector<std::uint8_t>, std::string> by_key;
  std::vector<std::uint8_t> key;
  for (const State& s : states) {
    c.compress(s, key);
    const State back = c.decompress(key);
    EXPECT_EQ(back.mem, s.mem);
    EXPECT_EQ(back.atomic_pid, s.atomic_pid);
    // injectivity: one compressed key never names two distinct states
    const std::string enc = kernel::encode_key(s);
    auto [it, fresh] = by_key.emplace(key, enc);
    if (!fresh) {
      EXPECT_EQ(it->second, enc);
    }
  }
}

// -- compressor --------------------------------------------------------------

TEST(Compress, RoundTripReachableStates) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const std::vector<State> states = reachable_states(*b.m, 5000);
  ASSERT_GT(states.size(), 1000u);
  StateCompressor c(b.m->layout());
  expect_round_trip(c, states);
  EXPECT_GT(c.n_regions(), 1);
  EXPECT_GT(c.components(), 0u);
  EXPECT_GT(c.approx_bytes(), 0u);
}

TEST(Compress, RoundTripRandomStates) {
  // Adversarial slot values (full Value range, including negatives and the
  // multi-byte encode_key escape range) and every atomic_pid, none of which
  // a reachable-state walk would cover.
  const BridgeModel b = make_bridge(/*v2=*/false);
  const kernel::Layout& lay = b.m->layout();
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<kernel::Value> val(
      std::numeric_limits<kernel::Value>::min(),
      std::numeric_limits<kernel::Value>::max());
  std::vector<State> states;
  for (int i = 0; i < 2000; ++i) {
    State s;
    s.mem.resize(static_cast<std::size_t>(lay.size()));
    for (kernel::Value& v : s.mem) v = val(rng);
    s.atomic_pid = static_cast<int>(rng() % 5) - 1;
    states.push_back(std::move(s));
  }
  StateCompressor c(lay);
  expect_round_trip(c, states);
}

namespace {

/// Checks, for every successor streamed out of the kernel, that
/// compress_delta() fed by the real undo log produces byte-identical keys to
/// a from-scratch compress() -- the property FlatRun's visited inserts rely
/// on. Also BFS-extends the frontier so deltas chain across generations.
struct DeltaCheckSink final : kernel::SuccSink {
  const Machine& m;
  StateCompressor& c;
  kernel::SuccScratch& scratch;
  const std::vector<std::uint32_t>& parent_ids;
  std::vector<std::pair<State, std::vector<std::uint32_t>>>& frontier;
  std::unordered_set<std::string>& seen;
  std::size_t& checked;

  std::vector<std::uint8_t> delta_key, full_key, dirty;
  std::vector<std::uint32_t> ids;

  DeltaCheckSink(const Machine& m, StateCompressor& c,
                 kernel::SuccScratch& scratch,
                 const std::vector<std::uint32_t>& parent_ids,
                 std::vector<std::pair<State, std::vector<std::uint32_t>>>& f,
                 std::unordered_set<std::string>& seen, std::size_t& checked)
      : m(m), c(c), scratch(scratch), parent_ids(parent_ids), frontier(f),
        seen(seen), checked(checked),
        dirty(static_cast<std::size_t>(c.n_regions())),
        ids(static_cast<std::size_t>(c.n_regions())) {}

  bool on_successor(const State& ns, const kernel::Step&) override {
    const std::vector<int>& reg = c.region_of_slot();
    std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
    for (const auto& [slot, old] : scratch.undo)
      dirty[static_cast<std::size_t>(reg[static_cast<std::size_t>(slot)])] = 1;
    c.compress_delta(ns, parent_ids.data(), dirty.data(), delta_key,
                     ids.data());
    c.compress(ns, full_key);
    EXPECT_EQ(delta_key, full_key);
    ++checked;
    if (frontier.size() < 4000 && seen.insert(kernel::encode_key(ns)).second)
      frontier.emplace_back(ns, ids);
    return true;
  }
};

}  // namespace

TEST(Compress, DeltaMatchesFullOnRealSuccessors) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const Machine& m = *b.m;
  StateCompressor c(m.layout());

  std::vector<std::pair<State, std::vector<std::uint32_t>>> frontier;
  std::unordered_set<std::string> seen;
  std::size_t checked = 0;

  std::vector<std::uint8_t> root_key;
  std::vector<std::uint32_t> root_ids(static_cast<std::size_t>(c.n_regions()));
  State root = m.initial();
  c.compress_full(root, root_key, root_ids.data());
  seen.insert(kernel::encode_key(root));
  frontier.emplace_back(std::move(root), std::move(root_ids));

  kernel::SuccScratch scratch;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    // Copy out: the sink may grow `frontier`, invalidating references.
    const State parent = frontier[head].first;
    const std::vector<std::uint32_t> parent_ids = frontier[head].second;
    DeltaCheckSink sink(m, c, scratch, parent_ids, frontier, seen, checked);
    m.visit_successors(parent, scratch, sink);
  }
  EXPECT_GT(checked, 5000u);
  EXPECT_GT(frontier.size(), 1000u);
}

TEST(Compress, ConcurrentInterningStaysExact) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const std::vector<State> states = reachable_states(*b.m, 2000);
  StateCompressor c(b.m->layout(), /*stripes=*/16);
  // 4 workers intern an interleaved mix of shared and private states.
  std::vector<std::vector<std::vector<std::uint8_t>>> keys(4);
  {
    std::vector<std::thread> ts;
    for (int w = 0; w < 4; ++w) {
      ts.emplace_back([&, w] {
        std::vector<std::uint8_t> key;
        for (std::size_t i = 0; i < states.size(); ++i) {
          if (i % 2 == 0 && static_cast<int>(i % 4) != w) continue;
          c.compress(states[i], key);
          keys[static_cast<std::size_t>(w)].push_back(key);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  // Every key decompresses to a state whose re-compression is identical,
  // and distinct states got distinct keys across all workers.
  std::set<std::vector<std::uint8_t>> distinct;
  std::vector<std::uint8_t> rekey;
  for (const auto& worker : keys)
    for (const auto& key : worker) {
      const State s = c.decompress(key);
      c.compress(s, rekey);
      EXPECT_EQ(rekey, key);
      distinct.insert(key);
    }
  EXPECT_EQ(distinct.size(), states.size());
}

// -- concurrent stores --------------------------------------------------------
//
// The parallel engine's two shared structures find what they hold without a
// lock and take one only to add. These run from several threads through
// table growth and are part of the TSan lane (scripts/check.sh --tsan).

TEST(ConcurrentStore, ShardedSetInsertsEachKeyOnceAcrossGrowth) {
  // Distinct keys 0..kKeys-1; thread t inserts the keys k with k % 4 != t
  // (so every key races three inserters) in its own order. Every fourth key
  // takes a caller-supplied hash that shares its low 32 bits -- the stored
  // fingerprint and the probe start -- with all the others, so those keys
  // are told apart only by their bytes.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kKeys = 40'000;
  auto key_of = [](std::uint32_t k) {
    std::vector<std::uint8_t> key(4 + k % 9);
    for (std::size_t j = 0; j < key.size(); ++j)
      key[j] = static_cast<std::uint8_t>((k >> (8 * (j % 4))) + j * 7);
    return key;
  };
  auto hash_of = [](std::uint32_t k, std::span<const std::uint8_t> key) {
    const std::uint64_t h = explore::ShardedVisitedSet::hash_key(key);
    return k % 4 == 0 ? (h & ~std::uint64_t{0xffffffff}) | 0x5eed : h;
  };
  explore::ShardedVisitedSet set;  // default-constructed: grows many times
  std::vector<std::vector<std::uint32_t>> won(kThreads);
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        std::mt19937 rng(static_cast<unsigned>(t) + 1);
        std::vector<std::uint32_t> mine;
        for (std::uint32_t k = 0; k < kKeys; ++k)
          if (static_cast<int>(k % kThreads) != t) mine.push_back(k);
        std::shuffle(mine.begin(), mine.end(), rng);
        for (const std::uint32_t k : mine) {
          const auto key = key_of(k);
          if (set.insert(key, hash_of(k, key)))
            won[static_cast<std::size_t>(t)].push_back(k);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  std::vector<int> wins(kKeys, 0);
  for (const auto& w : won)
    for (const std::uint32_t k : w) ++wins[k];
  for (std::uint32_t k = 0; k < kKeys; ++k)
    ASSERT_EQ(wins[k], 1) << "key " << k;
  EXPECT_EQ(set.size(), kKeys);
  std::map<std::string, int> seen;
  set.for_each_key([&](std::span<const std::uint8_t> key) {
    ++seen[std::string(key.begin(), key.end())];
  });
  EXPECT_EQ(seen.size(), kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const auto key = key_of(k);
    EXPECT_EQ(seen[std::string(key.begin(), key.end())], 1);
  }
  // a second pass from one thread finds everything
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const auto key = key_of(k);
    EXPECT_FALSE(set.insert(key, hash_of(k, key)));
  }
  EXPECT_GT(set.approx_bytes(), 0u);
}

TEST(ConcurrentStore, StripedCompressorRoundTripsFromManyThreads) {
  // Random states over a narrow value range, so components recur across
  // threads and every stripe's table grows while others read it. Each
  // thread decompresses its keys as it goes -- the lock-free read path --
  // and re-compresses the result.
  const BridgeModel b = make_bridge(/*v2=*/false);
  const kernel::Layout& lay = b.m->layout();
  constexpr int kThreads = 4;
  constexpr int kStates = 3000;
  std::vector<State> states;
  std::mt19937_64 rng(23);
  for (int i = 0; i < kStates; ++i) {
    State s;
    s.mem.resize(static_cast<std::size_t>(lay.size()));
    for (kernel::Value& v : s.mem) v = static_cast<kernel::Value>(rng() % 3);
    s.atomic_pid = static_cast<int>(rng() % 3) - 1;
    states.push_back(std::move(s));
  }
  StateCompressor c(lay, /*stripes=*/16, /*expected_components=*/0);
  std::vector<std::vector<std::vector<std::uint8_t>>> keys(
      kThreads, std::vector<std::vector<std::uint8_t>>(kStates));
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        std::vector<std::uint8_t> rekey;
        State back;
        std::vector<std::uint32_t> ids(static_cast<std::size_t>(c.n_regions()));
        for (int j = 0; j < kStates; ++j) {
          // each thread walks the states from a different offset
          const std::size_t i =
              static_cast<std::size_t>((j + t * kStates / kThreads) % kStates);
          auto& key = keys[static_cast<std::size_t>(t)][i];
          c.compress(states[i], key);
          c.decompress(key, back, ids.data());
          EXPECT_EQ(back, states[i]);
          c.compress(back, rekey);
          EXPECT_EQ(rekey, key);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  // every thread got the same key for a state, and keys are equal exactly
  // when states are
  std::map<std::string, std::size_t> owner;
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(keys[static_cast<std::size_t>(t)][i], keys[0][i]);
    auto [it, fresh] =
        owner.emplace(std::string(keys[0][i].begin(), keys[0][i].end()), i);
    if (!fresh) {
      EXPECT_EQ(states[it->second], states[i]);
    }
  }
  std::set<State, bool (*)(const State&, const State&)> distinct(
      [](const State& x, const State& y) {
        return std::tie(x.mem, x.atomic_pid) < std::tie(y.mem, y.atomic_pid);
      });
  for (const State& s : states) distinct.insert(s);
  EXPECT_EQ(owner.size(), distinct.size());
}

// -- flat stores -------------------------------------------------------------

std::vector<std::uint8_t> random_key(std::mt19937_64& rng) {
  std::vector<std::uint8_t> key(rng() % 300);
  for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng());
  return key;
}

TEST(FlatStore, KeyArenaRoundTripsAcrossSlabs) {
  explore::KeyArena arena;
  std::mt19937_64 rng(11);
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> recs;
  // ~3000 * ~150 B spans the first slabs (64, 128 and 256 KiB).
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> key = random_key(rng);
    recs.emplace_back(arena.append(key), std::move(key));
  }
  for (const auto& [off, key] : recs) {
    EXPECT_TRUE(arena.equals(off, key));
    const auto rec = arena.at(off);
    EXPECT_EQ(std::vector<std::uint8_t>(rec.begin(), rec.end()), key);
  }
  EXPECT_GE(arena.bytes(), std::uint64_t{1} << 18);
}

TEST(FlatStore, FlatKeySetMatchesReferenceSet) {
  explore::FlatKeySet set;  // expected=0: starts tiny, must grow many times
  std::set<std::vector<std::uint8_t>> ref;
  std::mt19937_64 rng(13);
  for (int i = 0; i < 50000; ++i) {
    // draw from a narrow space so duplicates actually occur
    std::vector<std::uint8_t> key((rng() % 6) + 1);
    for (std::uint8_t& byte : key) byte = static_cast<std::uint8_t>(rng() % 8);
    const bool fresh_ref = ref.insert(key).second;
    const bool fresh = set.insert(key, hash_bytes(key));
    EXPECT_EQ(fresh, fresh_ref);
  }
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_GT(set.approx_bytes(), 0u);
}

TEST(FlatStore, ReserveDoesNotDisturbMembership) {
  explore::FlatKeySet set;
  std::mt19937_64 rng(17);
  std::vector<std::vector<std::uint8_t>> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(random_key(rng));
  for (const auto& k : keys) set.insert(k, hash_bytes(k));
  const std::uint64_t n = set.size();
  set.reserve(100000);
  for (const auto& k : keys) EXPECT_FALSE(set.insert(k, hash_bytes(k)));
  EXPECT_EQ(set.size(), n);
}

// -- store equivalence -------------------------------------------------------

/// In-test replica of the historical copy-based DFS engine (frame stack,
/// one successor at a time, full successor lists): the reference for
/// stored/matched/transitions, including under max_states truncation,
/// where the totals depend on the traversal order.
struct OracleStats {
  std::uint64_t stored = 0;
  std::uint64_t matched = 0;
  std::uint64_t transitions = 0;
};

OracleStats oracle_dfs(const Machine& m, std::uint64_t max_states) {
  OracleStats st;
  struct Frame {
    State state;
    std::vector<kernel::Succ> succs;
    std::size_t next = 0;
    bool generated = false;
  };
  std::unordered_set<std::string> visited;
  std::vector<Frame> stack;
  stack.push_back({m.initial(), {}, 0, false});
  visited.insert(kernel::encode_key(stack.back().state));
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.generated) {
      f.generated = true;
      m.successors(f.state, f.succs);
      st.transitions += f.succs.size();
    }
    if (f.next >= f.succs.size()) {
      stack.pop_back();
      continue;
    }
    kernel::Succ& sc = f.succs[f.next++];
    if (!visited.insert(kernel::encode_key(sc.first)).second) {
      ++st.matched;
      continue;
    }
    if (visited.size() >= max_states) continue;  // stored, not expanded
    stack.push_back({std::move(sc.first), {}, 0, false});
  }
  st.stored = visited.size();
  return st;
}

explore::Result run_bridge(const BridgeModel& b, int threads, bool por,
                           bool bitstate, std::uint64_t max_states = 0) {
  explore::Options opt;
  opt.invariant = b.invariant;
  opt.invariant_name = "safety";
  opt.want_trace = false;
  opt.threads = threads;
  opt.por = por;
  opt.bitstate = bitstate;
  if (max_states > 0) opt.max_states = max_states;
  return explore::explore(*b.m, opt);
}

TEST(StoreEquivalence, Fig13FullSpaceAllThreadCounts) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const OracleStats oracle = oracle_dfs(*b.m, ~std::uint64_t{0});
  ASSERT_GT(oracle.stored, 10000u);

  const explore::Result seq = run_bridge(b, 1, false, false);
  EXPECT_TRUE(seq.ok());
  EXPECT_TRUE(seq.stats.complete);
  // thread count 1: bit-identical to the historical engine, all stats
  EXPECT_EQ(seq.stats.states_stored, oracle.stored);
  EXPECT_EQ(seq.stats.states_matched, oracle.matched);
  EXPECT_EQ(seq.stats.transitions, oracle.transitions);
  EXPECT_GT(seq.stats.store_bytes, 0u);

  for (const int t : {2, 8}) {
    const explore::Result r = run_bridge(b, t, false, false);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.complete);
    EXPECT_EQ(r.stats.states_stored, oracle.stored) << "threads=" << t;
    EXPECT_EQ(r.stats.states_matched, oracle.matched) << "threads=" << t;
    EXPECT_EQ(r.stats.transitions, oracle.transitions) << "threads=" << t;
  }
}

TEST(StoreEquivalence, Fig13PartialOrderReduction) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  // Sequential POR uses the cycle proviso, the parallel engine the
  // proviso-free choice, so the two reduced graphs differ; verdicts and
  // cross-thread parallel counts may not.
  const explore::Result seq = run_bridge(b, 1, true, false);
  EXPECT_TRUE(seq.ok());
  EXPECT_TRUE(seq.stats.complete);
  const explore::Result p2 = run_bridge(b, 2, true, false);
  const explore::Result p8 = run_bridge(b, 8, true, false);
  EXPECT_TRUE(p2.ok());
  EXPECT_TRUE(p8.ok());
  EXPECT_EQ(p2.stats.states_stored, p8.stats.states_stored);
  EXPECT_EQ(p2.stats.states_matched, p8.stats.states_matched);
  EXPECT_EQ(p2.stats.transitions, p8.stats.transitions);
}

TEST(StoreEquivalence, Fig13BitstateMatchesExact) {
  const BridgeModel b = make_bridge(/*v2=*/false);
  const explore::Result exact = run_bridge(b, 1, false, false);
  const explore::Result bits = run_bridge(b, 1, false, true);
  EXPECT_TRUE(bits.ok());
  // 28k states in a 2^24-byte double-bit filter: collision-free in
  // practice, so the stored count must match the exact engine's.
  EXPECT_EQ(bits.stats.states_stored, exact.stats.states_stored);
  EXPECT_FALSE(bits.stats.complete);
  EXPECT_EQ(bits.stats.truncation, explore::TruncationReason::BitstateApprox);
}

TEST(StoreEquivalence, Fig14BoundedSearchMatchesOracle) {
  // The v2 bridge's full interleaving space is ~20M states, so the oracle
  // equivalence runs under a max_states bound -- which makes the totals
  // traversal-order-dependent and therefore a sharper test of the streaming
  // engine's pass structure.
  const BridgeModel b = make_bridge(/*v2=*/true);
  const std::uint64_t bound = 150000;
  const OracleStats oracle = oracle_dfs(*b.m, bound);
  // fresh states found after the bound trips are still stored (just not
  // expanded), so the final count sits at or slightly above the bound
  EXPECT_GE(oracle.stored, bound);

  const explore::Result seq = run_bridge(b, 1, false, false, bound);
  EXPECT_TRUE(seq.ok());
  EXPECT_FALSE(seq.stats.complete);
  EXPECT_EQ(seq.stats.truncation, explore::TruncationReason::MaxStates);
  EXPECT_EQ(seq.stats.states_stored, oracle.stored);
  EXPECT_EQ(seq.stats.states_matched, oracle.matched);
  EXPECT_EQ(seq.stats.transitions, oracle.transitions);

  for (const int t : {2, 8}) {
    const explore::Result r = run_bridge(b, t, false, false, bound);
    EXPECT_TRUE(r.ok()) << "threads=" << t;
    EXPECT_FALSE(r.stats.complete) << "threads=" << t;
    EXPECT_GE(r.stats.states_stored, bound) << "threads=" << t;
  }
}

}  // namespace
}  // namespace pnp
