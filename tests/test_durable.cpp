// Durable exploration: mmap spill-to-disk, pnp.ckpt.v1 checkpoint/resume,
// and crash-safe run recovery.
//
// The load-bearing property throughout is resume equivalence: a run cut at
// an arbitrary point (state-count stride or interrupt) and resumed from its
// checkpoint must reach the same verdict and -- for complete exact runs --
// the same stored-state count as the uninterrupted search. Spill
// equivalence is the same claim for the disk-backed stores: a memory
// budget below the search's footprint must complete exactly via spill, not
// truncate into the bitstate rung.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bridge/bridge.h"
#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "explore/flat_store.h"
#include "obs/obs.h"
#include "pnp/session.h"
#include "reduce/cache.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/spill.h"

namespace pnp {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp root.
class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* ti =
        ::testing::UnitTest::GetInstance()->current_test_info();
    // Process-unique so two build trees running this suite concurrently
    // (e.g. plain + sanitizer) never share scratch state.
    path_ = fs::temp_directory_path() /
            ("pnp_durable_" + std::to_string(::getpid()) + "_" +
             std::string(ti->test_suite_name()) + "_" +
             std::string(ti->name()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

constexpr GenOptions kOpt{.optimize_connectors = true};

/// The fig. 13 bridge (fixed v1 by default): ~28k states, completes in
/// ~0.1 s -- big enough for meaningful cuts, small enough for a stride
/// sweep. `buggy` builds the paper's initial async-enter design, whose
/// safety violation sits ~600 states into the space.
struct BridgeFixture {
  ModelGenerator gen;
  std::optional<kernel::Machine> m;
  expr::Ex invariant;

  explicit BridgeFixture(bool buggy = false) {
    bridge::BridgeConfig cfg;
    cfg.buggy_async_enter = buggy;
    Architecture arch = bridge::make_v1(cfg);
    m = gen.generate(arch, kOpt);
    invariant = bridge::safety_invariant(gen);
  }

  explore::Options opts(int threads) const {
    explore::Options o;
    o.invariant = invariant.ref;
    o.invariant_name = "one direction at a time";
    o.threads = threads;
    return o;
  }
};

// -- spill-to-disk ------------------------------------------------------------

TEST(Spill, PoolAllocatesDiskBackedBlocks) {
  TempDir dir;
  support::SpillPool pool(dir.str());
  auto* a = static_cast<std::uint8_t*>(pool.alloc(1 << 16));
  auto* b = static_cast<std::uint8_t*>(pool.alloc(1 << 16));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a[0] = 0x5a;
  a[(1 << 16) - 1] = 0xa5;
  b[123] = 7;
  EXPECT_EQ(a[0], 0x5a);
  EXPECT_EQ(a[(1 << 16) - 1], 0xa5);
  EXPECT_EQ(b[123], 7);
  EXPECT_EQ(pool.blocks(), 2u);
  EXPECT_GE(pool.disk_bytes(), std::uint64_t{2} << 16);
  pool.free(a);
  EXPECT_EQ(pool.blocks(), 1u);
}

TEST(Spill, PoolRejectsUnusableDirectory) {
  TempDir dir;
  // a plain file where the spill directory should go
  const std::string f = (dir.path() / "not_a_dir").string();
  std::ofstream(f) << "x";
  EXPECT_THROW(support::SpillPool pool(f), ModelError);
}

TEST(Spill, FlatKeySetKeepsAllKeysAcrossTheSpillBoundary) {
  TempDir dir;
  support::SpillPool pool(dir.str());
  explore::FlatKeySet set;
  auto key = [](std::uint32_t i) {
    std::vector<std::uint8_t> k(37);  // odd size: records straddle slabs
    for (std::size_t j = 0; j < k.size(); ++j)
      k[j] = static_cast<std::uint8_t>((i >> (8 * (j % 4))) ^ j);
    return k;
  };
  constexpr std::uint32_t kHalf = 20'000;
  for (std::uint32_t i = 0; i < kHalf; ++i) {
    const auto k = key(i);
    ASSERT_TRUE(set.insert(k, hash_bytes(k)));
  }
  set.attach_spill(&pool);  // everything after this lands on disk
  for (std::uint32_t i = kHalf; i < 2 * kHalf; ++i) {
    const auto k = key(i);
    ASSERT_TRUE(set.insert(k, hash_bytes(k)));
  }
  EXPECT_TRUE(set.spilling());
  EXPECT_GT(set.spill_bytes(), 0u);
  // every key -- pre- and post-spill -- is still present and readable
  for (std::uint32_t i = 0; i < 2 * kHalf; ++i) {
    const auto k = key(i);
    EXPECT_FALSE(set.insert(k, hash_bytes(k)));
  }
  std::uint64_t enumerated = 0;
  set.for_each_key([&](std::span<const std::uint8_t> k) {
    EXPECT_EQ(k.size(), 37u);
    ++enumerated;
  });
  EXPECT_EQ(enumerated, set.size());
  EXPECT_EQ(set.size(), 2 * kHalf);
}

/// A memory budget far below the search footprint must complete EXACTLY via
/// spill: same state count, no truncation, no bitstate degradation.
TEST(Spill, ExplorationBelowBudgetCompletesExactly) {
  BridgeFixture fx;
  const explore::Result ref = explore::explore(*fx.m, fx.opts(1));
  ASSERT_TRUE(ref.stats.complete);
  ASSERT_GT(ref.stats.store_bytes, std::uint64_t{1} << 20);

  for (const int threads : {1, 2}) {
    TempDir dir;
    explore::Options o = fx.opts(threads);
    // well below the ~3 MB footprint, and small enough that the stores
    // spill while most of their slabs are still unallocated
    o.memory_budget_bytes = std::uint64_t{1} << 18;
    o.spill_dir = dir.str();
    const explore::Result r = explore::explore(*fx.m, o);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.complete) << "threads=" << threads;
    EXPECT_EQ(r.stats.truncation, explore::TruncationReason::None);
    EXPECT_TRUE(r.stats.spilled);
    // spill_bytes counts whole post-spill slabs; the parallel store's
    // per-stripe arenas may legitimately never need a second slab on a
    // model this small, so the byte assertion is sequential-only
    if (threads == 1) {
      EXPECT_GT(r.stats.spill_bytes, 0u);
    }
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored)
        << "threads=" << threads;
  }
}

/// Without a spill dir the same budget truncates -- the historical rung.
TEST(Spill, SameBudgetWithoutSpillDirStillTruncates) {
  BridgeFixture fx;
  explore::Options o = fx.opts(1);
  o.memory_budget_bytes = std::uint64_t{1} << 20;
  const explore::Result r = explore::explore(*fx.m, o);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.truncation, explore::TruncationReason::MemoryBudget);
  EXPECT_FALSE(r.stats.spilled);
}

/// The ladder names a spilled exact rung "exact-spill" and does not
/// degrade it to bitstate: the verdict is exact.
TEST(Spill, VerifierReportsExactSpillStage) {
  BridgeFixture fx;
  TempDir dir;
  VerifyOptions vopt;
  vopt.memory_budget_bytes = std::uint64_t{1} << 20;
  vopt.spill_dir = dir.str();
  const SafetyOutcome out =
      check_invariant(*fx.m, fx.invariant, "one direction at a time", vopt);
  EXPECT_TRUE(out.passed()) << out.report();
  ASSERT_EQ(out.stages.size(), 1u);
  EXPECT_EQ(out.stages[0].name, "exact-spill");
  EXPECT_TRUE(out.result.stats.complete);
  EXPECT_TRUE(out.result.stats.spilled);
}

// -- checkpoint format --------------------------------------------------------

explore::Checkpoint sample_checkpoint(const std::string& path) {
  explore::CheckpointMeta meta;
  meta.config_digest = "cfg-digest-1";
  meta.state_size = 3;
  meta.states_matched = 41;
  meta.transitions = 99;
  meta.seq = 2;
  meta.counters = {7, 8, 9};
  std::vector<kernel::State> visited;
  for (int i = 0; i < 5; ++i) {
    kernel::State s;
    s.mem = {i, i * 10, -i};
    s.atomic_pid = (i == 3) ? 1 : -1;
    visited.push_back(std::move(s));
  }
  kernel::State f;
  f.mem = {5, 50, -5};
  explore::write_checkpoint(
      path, meta,
      [&](const explore::StateSink& sink) {
        for (const kernel::State& s : visited) sink(s, 0);
      },
      [&](const explore::StateSink& sink) { sink(f, 12); });
  return explore::read_checkpoint(path);
}

TEST(Checkpoint, RoundTripPreservesEverySection) {
  TempDir dir;
  const std::string path = (dir.path() / "rt.pnp.ckpt").string();
  const explore::Checkpoint c = sample_checkpoint(path);
  EXPECT_EQ(c.meta.config_digest, "cfg-digest-1");
  EXPECT_EQ(c.meta.state_size, 3u);
  EXPECT_EQ(c.meta.states_matched, 41u);
  EXPECT_EQ(c.meta.transitions, 99u);
  EXPECT_EQ(c.meta.seq, 2u);
  EXPECT_EQ(c.meta.counters, (std::vector<std::uint64_t>{7, 8, 9}));
  ASSERT_EQ(c.visited.size(), 5u);
  EXPECT_EQ(c.visited[2].mem, (std::vector<expr::Value>{2, 20, -2}));
  EXPECT_EQ(c.visited[3].atomic_pid, 1);
  EXPECT_EQ(c.visited[4].atomic_pid, -1);
  ASSERT_EQ(c.frontier.size(), 1u);
  EXPECT_EQ(c.frontier[0].depth, 12u);
  EXPECT_EQ(c.frontier[0].state.mem, (std::vector<expr::Value>{5, 50, -5}));
  // atomic commit: no temp file left behind
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Checkpoint, CorruptedAndTruncatedFilesAreRejected) {
  TempDir dir;
  const std::string path = (dir.path() / "c.pnp.ckpt").string();
  sample_checkpoint(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  auto rewrite = [&](const std::string& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };
  // flipped payload byte: section checksum mismatch
  {
    std::string bad = bytes;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0xff);
    rewrite(bad);
    EXPECT_THROW(explore::read_checkpoint(path), ModelError);
  }
  // torn write: file cut mid-section
  rewrite(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(explore::read_checkpoint(path), ModelError);
  // not a checkpoint at all
  rewrite("definitely not a pnp.ckpt.v1 file");
  EXPECT_THROW(explore::read_checkpoint(path), ModelError);
  // trailing garbage after the END section
  rewrite(bytes + "x");
  EXPECT_THROW(explore::read_checkpoint(path), ModelError);
  // missing entirely
  EXPECT_THROW(explore::read_checkpoint(path + ".nope"), ModelError);
  // intact bytes still parse (the helpers above did not mask a real break)
  rewrite(bytes);
  EXPECT_NO_THROW(explore::read_checkpoint(path));
}

// -- checkpoint/resume equivalence --------------------------------------------

/// Cuts the search at `stride` stored states, then repeatedly resumes from
/// the committed checkpoint with a geometrically growing cap (so multi-hop
/// chains stay short) until the search completes or finds a violation.
explore::Result cut_and_resume(const kernel::Machine& m,
                               const explore::Options& base,
                               const std::string& ckpt_path,
                               std::uint64_t stride) {
  explore::Options opt = base;
  opt.checkpoint_path = ckpt_path;
  opt.config_digest = "test-digest";
  explore::Options cut = opt;
  cut.max_states = stride;
  explore::Result r = explore::explore(m, cut);
  int hops = 0;
  std::optional<explore::Checkpoint> c;
  while (!r.stats.complete && !r.violation.has_value()) {
    if (++hops > 64) {
      ADD_FAILURE() << "resume chain does not converge";
      break;
    }
    c = explore::read_checkpoint(ckpt_path);
    EXPECT_EQ(c->meta.config_digest, "test-digest");
    explore::Options ro = opt;
    ro.max_states = r.stats.states_stored * 2 + 16;
    ro.resume_from = &*c;
    r = explore::explore(m, ro);
    EXPECT_TRUE(r.stats.resumed);
  }
  return r;
}

TEST(Resume, Fig13EquivalentAtEveryThreadCountAndStride) {
  BridgeFixture fx;
  for (const int threads : {1, 2, 8}) {
    const explore::Result ref = explore::explore(*fx.m, fx.opts(threads));
    ASSERT_TRUE(ref.stats.complete);
    ASSERT_TRUE(ref.ok());
    // fixed pseudo-random strides: 1 cuts at the root, the rest land
    // mid-wave at assorted depths
    for (const std::uint64_t stride :
         {std::uint64_t{1}, std::uint64_t{97}, std::uint64_t{1871},
          std::uint64_t{9043}}) {
      TempDir dir;
      const std::string path = (dir.path() / "fig13.pnp.ckpt").string();
      const explore::Result r =
          cut_and_resume(*fx.m, fx.opts(threads), path, stride);
      EXPECT_TRUE(r.ok());
      EXPECT_TRUE(r.stats.complete)
          << "threads=" << threads << " stride=" << stride;
      EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored)
          << "threads=" << threads << " stride=" << stride;
    }
  }
}

TEST(Resume, Fig13BfsEquivalent) {
  BridgeFixture fx;
  explore::Options base = fx.opts(1);
  base.bfs = true;
  const explore::Result ref = explore::explore(*fx.m, base);
  ASSERT_TRUE(ref.stats.complete);
  for (const std::uint64_t stride : {std::uint64_t{113}, std::uint64_t{4099}}) {
    TempDir dir;
    const std::string path = (dir.path() / "fig13-bfs.pnp.ckpt").string();
    const explore::Result r = cut_and_resume(*fx.m, base, path, stride);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.complete) << "stride=" << stride;
    EXPECT_EQ(r.stats.states_stored, ref.stats.states_stored)
        << "stride=" << stride;
  }
}

/// A violation reachable only past the cut must still be found after
/// resume: the checkpointed frontier covers every unexpanded state.
TEST(Resume, ViolationFoundAfterResume) {
  BridgeFixture fx(/*buggy=*/true);
  for (const int threads : {1, 2}) {
    const explore::Result ref = explore::explore(*fx.m, fx.opts(threads));
    ASSERT_TRUE(ref.violation.has_value());
    TempDir dir;
    const std::string path = (dir.path() / "buggy.pnp.ckpt").string();
    const explore::Result r =
        cut_and_resume(*fx.m, fx.opts(threads), path, 50);
    ASSERT_TRUE(r.violation.has_value()) << "threads=" << threads;
    EXPECT_EQ(r.violation->kind, ref.violation->kind);
  }
}

/// Fig. 14 (v2) is beyond exhaustive search at test time, so this is a
/// bounded smoke: cut at 20k stored states, resume, and require the
/// resumed search to verifiably continue past the cut without a verdict
/// flip. (Full-space durability soaks run via scripts/soak_resume.sh.)
TEST(Resume, Fig14BoundedSmoke) {
  bridge::BridgeConfig cfg;
  cfg.enter_queue_capacity = 1;
  Architecture arch = bridge::make_v2(cfg);
  ModelGenerator gen;
  const kernel::Machine m = gen.generate(arch, kOpt);
  const expr::Ex inv = bridge::safety_invariant(gen);
  TempDir dir;
  const std::string path = (dir.path() / "fig14.pnp.ckpt").string();
  explore::Options o;
  o.invariant = inv.ref;
  o.invariant_name = "one direction at a time";
  o.checkpoint_path = path;
  o.config_digest = "v2";
  o.max_states = 20'000;
  const explore::Result cut = explore::explore(m, o);
  ASSERT_TRUE(cut.ok());
  ASSERT_FALSE(cut.stats.complete);
  const explore::Checkpoint c = explore::read_checkpoint(path);
  explore::Options ro = o;
  ro.max_states = 60'000;
  ro.resume_from = &c;
  const explore::Result r = explore::explore(m, ro);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.stats.resumed);
  EXPECT_GT(r.stats.states_stored, cut.stats.states_stored);
}

TEST(Resume, PeriodicStrideWritesCheckpoints) {
  BridgeFixture fx;
  TempDir dir;
  const std::string path = (dir.path() / "periodic.pnp.ckpt").string();
  explore::Options o = fx.opts(1);
  o.checkpoint_path = path;
  o.config_digest = "d";
  o.checkpoint_every = 5'000;
  const explore::Result r = explore::explore(*fx.m, o);
  ASSERT_TRUE(r.stats.complete);
  // ~28k states / 5k stride = 5 periodic + 1 final
  EXPECT_GE(r.stats.checkpoints_written, 5u);
  // the final snapshot of a complete run has an empty frontier: resuming
  // it returns immediately with the full state count
  const explore::Checkpoint c = explore::read_checkpoint(path);
  EXPECT_TRUE(c.frontier.empty());
  EXPECT_EQ(c.visited.size(), r.stats.states_stored);
}

TEST(Resume, StateSizeMismatchIsRejected) {
  BridgeFixture fx;
  TempDir dir;
  const std::string path = (dir.path() / "alien.pnp.ckpt").string();
  const explore::Checkpoint c = sample_checkpoint(path);  // state_size 3
  explore::Options o = fx.opts(1);
  o.checkpoint_path = path;
  o.resume_from = &c;
  EXPECT_THROW(explore::explore(*fx.m, o), ModelError);
}

// -- verifier / Session integration -------------------------------------------

/// An interrupt stops the search almost immediately (final checkpoint
/// written, no bitstate degradation); a resume with the same config then
/// finishes the job with the uninterrupted state count.
TEST(Resume, VerifierInterruptThenResumeMatchesReference) {
  BridgeFixture fx;
  const SafetyOutcome ref =
      check_invariant(*fx.m, fx.invariant, "bridge safety");
  ASSERT_TRUE(ref.passed());

  TempDir dir;
  VerifyOptions vopt;
  vopt.checkpoint_dir = dir.str();
  std::atomic<bool> stop{true};
  vopt.interrupt = &stop;
  const SafetyOutcome cut =
      check_invariant(*fx.m, fx.invariant, "bridge safety", vopt);
  ASSERT_EQ(cut.stages.size(), 1u);  // interrupted: the ladder must NOT fire
  EXPECT_EQ(cut.result.stats.truncation,
            explore::TruncationReason::Interrupted);
  EXPECT_GT(cut.result.stats.checkpoints_written, 0u);

  VerifyOptions ropt;
  ropt.checkpoint_dir = dir.str();
  ropt.resume = true;
  const SafetyOutcome res =
      check_invariant(*fx.m, fx.invariant, "bridge safety", ropt);
  EXPECT_TRUE(res.passed());
  EXPECT_TRUE(res.result.stats.complete);
  EXPECT_TRUE(res.result.stats.resumed);
  EXPECT_EQ(res.result.stats.states_stored, ref.result.stats.states_stored);
}

TEST(Resume, VerifierRejectsConfigDigestMismatch) {
  BridgeFixture fx;
  TempDir dir;
  VerifyOptions vopt;
  vopt.checkpoint_dir = dir.str();
  ASSERT_TRUE(
      check_invariant(*fx.m, fx.invariant, "bridge safety", vopt).passed());

  VerifyOptions changed;
  changed.checkpoint_dir = dir.str();
  changed.resume = true;
  changed.max_states = 12'345;  // different config, same checkpoint path
  EXPECT_THROW(check_invariant(*fx.m, fx.invariant, "bridge safety", changed),
               ModelError);

  // unchanged config: the resume is accepted (and instant -- the final
  // snapshot of a complete run has an empty frontier)
  VerifyOptions same;
  same.checkpoint_dir = dir.str();
  same.resume = true;
  const SafetyOutcome res =
      check_invariant(*fx.m, fx.invariant, "bridge safety", same);
  EXPECT_TRUE(res.passed());
  EXPECT_TRUE(res.result.stats.resumed);
}

TEST(Resume, SessionResumeRequiresCheckpointDirAndFlowsToLedger) {
  BridgeFixture fx;
  TempDir dir;
  auto no_parse = [](const std::string&) -> expr::Ref {
    return expr::kNoExpr;
  };
  {
    RunConfig bare_cfg;
    bare_cfg.heartbeat = false;
    Session bare(bare_cfg);
    EXPECT_THROW(bare.resume_machine(*fx.m, "fig13", no_parse), ModelError);
  }

  RunConfig cfg;
  cfg.heartbeat = false;
  cfg.checkpoint_dir = (dir.path() / "ckpt").string();
  cfg.ledger_dir = (dir.path() / "ledger").string();
  Session session(cfg);
  const RunReport first = session.verify_machine(*fx.m, "fig13", no_parse);
  EXPECT_TRUE(first.passed);
  const RunReport again = session.resume_machine(*fx.m, "fig13", no_parse);
  EXPECT_TRUE(again.passed);

  // both runs landed in the ledger; the resumed one records the Resumed
  // incident (schema-validated lines)
  std::ifstream in(session.ledger_path());
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    std::string err;
    EXPECT_TRUE(obs::validate_ledger_record(l, &err)) << err;
  }
  EXPECT_NE(lines[1].find("\"resumed\""), std::string::npos);
}

TEST(Resume, InterruptedRunIsStampedInTheLedger) {
  BridgeFixture fx;
  TempDir dir;
  auto no_parse = [](const std::string&) -> expr::Ref {
    return expr::kNoExpr;
  };
  std::atomic<bool> stop{true};  // already raised: cut at the first check
  RunConfig cfg;
  cfg.heartbeat = false;
  cfg.interrupt = &stop;
  cfg.checkpoint_dir = (dir.path() / "ckpt").string();
  cfg.ledger_dir = (dir.path() / "ledger").string();
  Session session(cfg);
  const RunReport rep = session.verify_machine(*fx.m, "fig13", no_parse);
  EXPECT_TRUE(rep.passed);  // partial verdict: no violation in the cut

  std::ifstream in(session.ledger_path());
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  std::string err;
  EXPECT_TRUE(obs::validate_ledger_record(line, &err)) << err;
  EXPECT_NE(line.find("\"interrupted\":true"), std::string::npos);
}

// -- crash-safe ledger --------------------------------------------------------

TEST(Ledger, TornFinalLineIsRecoveredOnReopen) {
  TempDir dir;
  const std::string path = (dir.path() / "ledger.jsonl").string();
  const std::string good = "{\"schema\": \"pnp.run.v1\", \"fake\": 1}\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << good << "{\"schema\": \"pnp.run.v1\", \"torn";  // no newline
  }
  obs::LedgerSink sink(dir.str());
  EXPECT_TRUE(sink.recovered_torn_line());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, good);  // intact record untouched, torn tail gone
}

TEST(Ledger, CleanFileIsNotFlaggedAsTorn) {
  TempDir dir;
  {
    std::ofstream out((dir.path() / "ledger.jsonl").string(),
                      std::ios::binary);
    out << "{\"schema\": \"pnp.run.v1\", \"fake\": 1}\n";
  }
  obs::LedgerSink sink(dir.str());
  EXPECT_FALSE(sink.recovered_torn_line());
  obs::LedgerSink fresh_dir_sink(
      (dir.path() / "empty").string());  // no file at all
  EXPECT_FALSE(fresh_dir_sink.recovered_torn_line());
}

// -- verdict-cache degradation ------------------------------------------------

TEST(Cache, FlushRetriesThenDegradesToUncached) {
  TempDir dir;
  reduce::VerificationCache cache(dir.str());
  reduce::ObligationKey key;
  key.kind = "safety";
  key.label = "x";
  key.slice_hash = 1;
  cache.record(key, {"", "safety", "x", true, "exact", 10, 0.1});
  ASSERT_TRUE(cache.flush());
  EXPECT_FALSE(cache.persist_failed());

  // force every attempt to fail: a NON-EMPTY directory squats on the temp
  // path (the retry loop's cleanup removes an empty one and recovers)
  fs::create_directories(cache.path() + ".tmp/squatter");
  cache.record(key, {"", "safety", "x", false, "exact", 11, 0.1});
  EXPECT_FALSE(cache.flush());
  EXPECT_TRUE(cache.persist_failed());
  EXPECT_FALSE(cache.flush());  // degraded: later flushes are skipped

  // in-memory entries still serve lookups after degradation
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->passed);

  // the previously persisted file was never clobbered by the failed flush
  fs::remove_all(cache.path() + ".tmp");
  reduce::VerificationCache reread(dir.str());
  const auto old = reread.lookup(key);
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->passed);
}

}  // namespace
}  // namespace pnp
