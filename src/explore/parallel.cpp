// Multi-core exploration engines.
//
// Exact mode (run_parallel): every worker owns a deque of pending states
// and steals from its peers when it runs dry; the visited set is the
// ShardedVisitedSet, keyed by the COLLAPSE-compressed state encoding (a
// shared 16-stripe StateCompressor interns the components), so the
// reached-state set -- and therefore the verdict and the stored-state
// count of a complete run -- is identical at every thread count. Both
// shared structures find what they already hold without a lock; only new
// keys and new components take a shard or stripe lock. Successors are
// streamed from per-worker mutate-and-revert scratch and keyed by delta
// compression against their parent's region ids (SuccKeyer, the same path
// the sequential engine takes). A whole expansion's keys are staged before
// any is looked up, so the store's cache misses overlap instead of queuing
// one behind the other (see settle()). A queued state is just its
// compressed key -- its region ids and atomic pid -- decompressed when it
// is popped.
// With traces on, every stored state keeps one 16-byte trail edge (parent
// id, successor ordinal) in its worker's EdgeLog; after a violation the
// trail is replayed from its chain's start state (explore/trail.h), so it
// is exactly the path the search took (its shape may differ run to run;
// the verdict may not).
//
// Atomic regions and rendezvous handshakes never interleave across workers
// by construction: Machine::visit_successors() expands a whole state at a
// time -- an atomic region is carried IN the state (atomic_pid) and a
// handshake is a single composite step -- so one worker always computes the
// complete successor bundle of the state it popped.
//
// Swarm mode (run_swarm): N fully independent bitstate searches, each with
// its own Bloom filter seed and a deterministic per-state successor
// shuffle, each run by the sequential engine (detail::run_single). A
// violation found by any worker stops the swarm; otherwise every filter
// runs to completion and coverage is the union of the filters.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "codegen/engine.h"
#include "explore/checkpoint.h"
#include "explore/explorer.h"
#include "explore/succ_key.h"
#include "explore/trail.h"
#include "explore/visited.h"
#include "kernel/compress.h"
#include "support/crew.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/spill.h"

namespace pnp::explore {
namespace detail {

namespace {

using kernel::Machine;
using kernel::State;
using kernel::Step;

constexpr std::uint64_t kNoGid = ~std::uint64_t{0};

class ParallelRun {
 public:
  ParallelRun(const Machine& m, const Options& opt, int threads)
      : m_(m),
        opt_(opt),
        n_(threads),
        workers_(static_cast<std::size_t>(threads)),
        visited_(expected_states(opt)),
        compressor_(m.layout(), /*stripes=*/16) {
    for (Worker& w : workers_) {
      w.keyer.emplace(compressor_, opt.engine);
      w.ids.resize(static_cast<std::size_t>(compressor_.n_regions()));
      if (opt.obs != nullptr) w.blk = opt.obs->recorder().open_block();
    }
    if (opt.resume_from != nullptr) {
      PNP_CHECK(opt.resume_from->meta.state_size ==
                    static_cast<std::uint32_t>(m.layout().size()),
                "checkpoint state size does not match this machine");
    }
  }

  Result go() {
    start_ = std::chrono::steady_clock::now();
    active_ = n_;
    busy_.store(n_, std::memory_order_relaxed);
    if (opt_.resume_from != nullptr)
      seed_resume();
    else
      seed_root();
    run_crew(n_, stop_, [this](int w) { work(w); });
    return finish();
  }

 private:
  /// A pending state, held as its compressed key: the varint region ids
  /// plus the atomic pid, which decompress() turns back into the state and
  /// the ids its successors delta against. Keys of up to 15 bytes live
  /// inline in the string. `gid` names its trail edge, or its chain start
  /// for the root and resumed frontier states (kNoGid when traces are
  /// off); `depth` is the BFS/DFS depth for max_depth accounting.
  struct Item {
    std::string key;
    std::uint64_t gid = kNoGid;
    std::uint32_t depth = 0;
  };

  /// One staged successor: its key is staged_keys[at, at + len).
  struct Staged {
    std::uint64_t hash;
    std::uint32_t at;
    std::uint32_t len;
    std::uint32_t ordinal;
  };

  struct alignas(64) Worker {
    std::mutex mu;
    std::deque<Item> queue;
    std::atomic<std::size_t> queued{0};  // queue.size(), readable unlocked
    EdgeLog edges;  // trail edges: owner-written, read after the join
    WorkerStats stats;
    std::uint64_t budget_tick = 0;
    kernel::SuccScratch scratch;         // mutate-and-revert workspace
    State state;                         // the expanding item, decompressed
    std::vector<std::uint32_t> ids;      // ... and its per-region ids
    std::optional<SuccKeyer> keyer;      // successor -> key (own buffers)
    obs::CounterBlock* blk = nullptr;    // this worker's telemetry slice
    std::uint64_t obs_tick = 0;
    std::uint64_t por_ample = 0;
    std::uint64_t unpublished = 0;  // fresh stores not yet in stored_floor_
    // edges.bytes(): owner-written as chunks are added, read by the
    // memory-budget check on any worker.
    std::atomic<std::uint64_t> edge_bytes{0};
    // Stored-but-never-queued states (max_states/max_depth), kept so a
    // final checkpoint's frontier is exactly where this run stopped.
    std::vector<Item> overflow;
    // The expansion in progress: its successors' keys, back to back in
    // staged_keys, awaiting settle() (see par_candidate).
    std::vector<std::uint8_t> staged_keys;
    std::vector<Staged> staged;
  };

  /// First violation wins; everything needed to rebuild the trail after the
  /// workers joined.
  struct Win {
    Violation violation;
    std::uint64_t gid = kNoGid;  // the state being expanded
    std::optional<std::uint32_t> extra;  // ordinal of an assert step beyond
  };

  /// Trail ids: (owner << 40) | index, where owners 0..n-1 are the workers'
  /// edge logs and owner n is the chain-start list starts_.
  static std::uint64_t make_gid(int owner, std::uint64_t index) {
    return (static_cast<std::uint64_t>(owner) << 40) | index;
  }
  static int gid_owner(std::uint64_t gid) { return static_cast<int>(gid >> 40); }
  static std::uint64_t gid_index(std::uint64_t gid) {
    return gid & ((std::uint64_t{1} << 40) - 1);
  }

  /// Registers a parentless state as a trail chain start; returns its gid,
  /// or kNoGid when traces are off.
  std::uint64_t add_start(const std::string& key) {
    if (!opt_.want_trace) return kNoGid;
    starts_.push_back(key);
    start_bytes_ += sizeof(std::string) +
                    (key.size() > std::string().capacity() ? key.size() + 1 : 0);
    return make_gid(n_, starts_.size() - 1);
  }

  static std::string key_string(std::span<const std::uint8_t> key) {
    return {reinterpret_cast<const char*>(key.data()), key.size()};
  }

  void seed_root() {
    Worker& w0 = workers_[0];
    const auto key = w0.keyer->full(m_.initial());
    visited_.insert(key, ShardedVisitedSet::hash_key(key));
    // The root insert is nobody's WorkerStats; charge it to the recorder's
    // base block so the merged StatesStored total matches visited_.size().
    if (opt_.obs != nullptr)
      opt_.obs->recorder().add(obs::Counter::StatesStored, 1);
    stored_floor_.store(1, std::memory_order_relaxed);
    std::string k = key_string(key);
    const std::uint64_t gid = add_start(k);
    push(w0, {std::move(k), gid, 0});
  }

  /// Re-seeds the shared store from a checkpoint and deals the frontier
  /// round-robin across the workers' queues. Frontier items are chain
  /// starts: a trail found after resume starts at a checkpointed frontier
  /// state. Their keys come from full compression -- there are no
  /// parent ids to delta against -- and once popped they delta like any
  /// other item.
  void seed_resume() {
    const Checkpoint& c = *opt_.resume_from;
    SuccKeyer& keyer = *workers_[0].keyer;
    for (const State& s : c.visited) {
      const auto key = keyer.full(s);
      visited_.insert(key, ShardedVisitedSet::hash_key(key));
    }
    base_matched_ = c.meta.states_matched;
    base_transitions_ = c.meta.transitions;
    ckpt_seq_ = c.meta.seq;
    stored_floor_.store(visited_.size(), std::memory_order_relaxed);
    last_ckpt_states_.store(visited_.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < c.frontier.size(); ++i) {
      std::string k = key_string(keyer.full(c.frontier[i].state));
      const std::uint64_t gid = add_start(k);
      push(workers_[i % static_cast<std::size_t>(n_)],
           {std::move(k), gid, c.frontier[i].depth});
    }
    if (opt_.obs != nullptr) {
      // Restored states are nobody's WorkerStats; charge them to the base
      // block so the merged StatesStored total matches visited_.size().
      opt_.obs->recorder().add(obs::Counter::StatesStored, visited_.size());
      opt_.obs->resumed(opt_.checkpoint_path, visited_.size());
    }
  }

  /// Commits a consistent cut. Callers must have quiesced the workers (the
  /// barrier during the run, or joined threads afterwards). I/O failure
  /// disables further checkpoints rather than aborting the verification.
  void commit_checkpoint() {
    CheckpointMeta meta;
    meta.config_digest = opt_.config_digest;
    meta.state_size = static_cast<std::uint32_t>(m_.layout().size());
    meta.states_matched = base_matched_;
    meta.transitions = base_transitions_;
    for (Worker& w : workers_) {
      meta.states_matched += w.stats.states_matched;
      meta.transitions += w.stats.transitions;
    }
    meta.seq = ckpt_seq_ + 1;
    try {
      write_checkpoint(
          opt_.checkpoint_path, meta,
          [&](const StateSink& sink) {
            visited_.for_each_key([&](std::span<const std::uint8_t> key) {
              sink(compressor_.decompress(key), 0);
            });
          },
          [&](const StateSink& sink) {
            for (Worker& w : workers_) {
              std::lock_guard<std::mutex> lock(w.mu);
              for (const Item& it : w.queue)
                sink(compressor_.decompress(byte_span(it.key)), it.depth);
              for (const Item& it : w.overflow)
                sink(compressor_.decompress(byte_span(it.key)), it.depth);
            }
          });
    } catch (const ModelError&) {
      ckpt_failed_ = true;
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("checkpoint-io", ckpt_seq_ + 1, 0);
      return;
    }
    ++ckpt_seq_;
    ++ckpt_written_;
    last_ckpt_states_.store(visited_.size(), std::memory_order_relaxed);
    if (opt_.obs != nullptr)
      opt_.obs->checkpointed(opt_.checkpoint_path, visited_.size(),
                             ckpt_seq_);
  }

  // -- work-stealing deques and termination ---------------------------------
  //
  // A worker pops its own deque and, when that is empty, steals the oldest
  // item of a peer's. Termination needs no per-item counter: busy_ counts
  // the workers that may hold an item. A worker leaves it only when its own
  // deque is empty and a steal found nothing, and an idle worker re-enters
  // it before it tries to steal. Only an owner pushes onto its deque, and
  // only while busy, so busy_ == 0 means every deque is empty and no item
  // is held anywhere: the search is complete.

  bool pop_own(Worker& me, Item& out) {
    std::lock_guard<std::mutex> lock(me.mu);
    if (me.queue.empty()) return false;
    if (opt_.bfs) {
      out = std::move(me.queue.front());
      me.queue.pop_front();
    } else {
      out = std::move(me.queue.back());
      me.queue.pop_back();
    }
    me.queued.store(me.queue.size(), std::memory_order_relaxed);
    return true;
  }

  bool steal(int w, Item& out) {
    for (int i = 1; i < n_; ++i) {
      Worker& victim = workers_[static_cast<std::size_t>((w + i) % n_)];
      // peek first: an idle thief must not hammer a busy owner's lock
      if (victim.queued.load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<std::mutex> lock(victim.mu);
      if (victim.queue.empty()) continue;
      // steal the oldest item: closest to the root, largest subtree
      out = std::move(victim.queue.front());
      victim.queue.pop_front();
      victim.queued.store(victim.queue.size(), std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void push(Worker& me, Item item) {
    std::lock_guard<std::mutex> lock(me.mu);
    me.queue.push_back(std::move(item));
    me.queued.store(me.queue.size(), std::memory_order_relaxed);
  }

  /// Idle wait once a worker's own deque and one steal pass came up empty.
  /// Returns true with a stolen item; false when every worker is idle (the
  /// search is complete) or the run stops.
  bool await_work(int w, Worker& me, Item& out) {
    busy_.fetch_sub(1, std::memory_order_acq_rel);
    while (!stop_.load(std::memory_order_relaxed)) {
      ckpt_point(me);
      if (busy_.load(std::memory_order_acquire) == 0) return false;
      busy_.fetch_add(1, std::memory_order_acq_rel);
      if (steal(w, out)) return true;
      busy_.fetch_sub(1, std::memory_order_acq_rel);
      std::this_thread::yield();
    }
    return false;
  }

  void work(int w) {
    Worker& me = workers_[static_cast<std::size_t>(w)];
    const auto t0 = std::chrono::steady_clock::now();
    // Retire from the checkpoint barrier on every exit, a thrown ModelError
    // included, so a coordinator never waits for a worker that is gone. A
    // throwing worker also stops the run before the wakeup, so a worker
    // parked behind a checkpoint it was coordinating sees the stop.
    struct Retire {
      ParallelRun& run;
      ~Retire() {
        {
          std::lock_guard<std::mutex> lock(run.park_mu_);
          --run.active_;
          if (std::uncaught_exceptions() > 0)
            run.stop_.store(true, std::memory_order_relaxed);
        }
        run.park_cv_.notify_all();
      }
    } retire{*this};
    Item item;
    while (!stop_.load(std::memory_order_relaxed)) {
      ckpt_point(me);
      if (!pop_own(me, item) && !steal(w, item) && !await_work(w, me, item))
        break;
      expand(w, me, item);
      observe(me);
    }
    me.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // -- checkpoint barrier ----------------------------------------------------
  //
  // Periodic checkpoints need a consistent cut of a mutating shared store.
  // The worker that notices the stride elapsed elects itself coordinator
  // (CAS on ckpt_request_); everyone else parks at the top of their work
  // loop. When parked_ == active_ the world is quiesced -- no in-flight
  // expansions, every queued item unexpanded -- and the coordinator commits
  // the snapshot single-threadedly, then releases the barrier. Interrupts
  // skip the barrier entirely: they stop the run and the final checkpoint is
  // written after the workers joined.

  bool interrupt_requested() const {
    return opt_.interrupt != nullptr &&
           opt_.interrupt->load(std::memory_order_relaxed);
  }

  bool ckpt_enabled() const {
    return !opt_.checkpoint_path.empty() && !ckpt_failed_;
  }

  void ckpt_point(Worker& me) {
    if (interrupt_requested()) {
      truncate(TruncationReason::Interrupted);  // stops every worker
      return;
    }
    if (ckpt_request_.load(std::memory_order_acquire)) {
      park(me);
      return;
    }
    if (!ckpt_enabled() || opt_.checkpoint_every == 0) return;
    if (!stored_reaches(last_ckpt_states_.load(std::memory_order_relaxed) +
                        opt_.checkpoint_every))
      return;
    bool expected = false;
    if (!ckpt_request_.compare_exchange_strong(expected, true))
      return;  // lost the election; next loop iteration parks
    coordinate();
  }

  void park(Worker&) {
    std::unique_lock<std::mutex> lock(park_mu_);
    ++parked_;
    park_cv_.notify_all();
    park_cv_.wait(lock, [&] {
      return !ckpt_request_.load(std::memory_order_acquire) ||
             stop_.load(std::memory_order_relaxed);
    });
    --parked_;
  }

  void coordinate() {
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      ++parked_;  // count self
      park_cv_.wait(lock, [&] {
        return parked_ == active_ || stop_.load(std::memory_order_relaxed);
      });
      if (!stop_.load(std::memory_order_relaxed)) commit_checkpoint();
      --parked_;
      ckpt_request_.store(false, std::memory_order_release);
    }
    park_cv_.notify_all();
  }

  /// Deadline / memory check, amortized per worker.
  bool over_budget(Worker& me) {
    if (opt_.deadline_seconds <= 0.0 && opt_.memory_budget_bytes == 0)
      return false;
    if (++me.budget_tick % kBudgetCheckStride != 0) return false;
    if (opt_.deadline_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      if (elapsed >= opt_.deadline_seconds) {
        truncate(TruncationReason::Deadline);
        return true;
      }
    }
    if (opt_.memory_budget_bytes > 0 &&
        !spilled_.load(std::memory_order_relaxed)) {
      const std::uint64_t used = approx_memory();
      // Spill ahead of exhaustion (80%) so the resident probe arrays and
      // pre-spill slabs stay under the budget; once spilled the budget
      // governs residency, not growth, and never truncates.
      if (!opt_.spill_dir.empty() &&
          used >= opt_.memory_budget_bytes - opt_.memory_budget_bytes / 5) {
        begin_spill(used);
        if (spilled_.load(std::memory_order_relaxed)) return false;
      }
      if (used >= opt_.memory_budget_bytes) {
        truncate(TruncationReason::MemoryBudget);
        return true;
      }
    }
    return false;
  }

  /// Switches the sharded visited set and compressor to disk-backed slab
  /// allocation; both attach under their own locks, so racing workers keep
  /// inserting throughout. Failure falls back to in-RAM truncation.
  void begin_spill(std::uint64_t used) {
    std::lock_guard<std::mutex> lock(spill_mu_);
    if (spilled_.load(std::memory_order_relaxed) || spill_failed_) return;
    try {
      spill_pool_ = std::make_unique<support::SpillPool>(opt_.spill_dir);
      visited_.attach_spill(spill_pool_.get());
      compressor_.attach_spill(spill_pool_.get());
      spilled_.store(true, std::memory_order_release);
      if (opt_.obs != nullptr)
        opt_.obs->budget_warning("memory-spill", used,
                                 opt_.memory_budget_bytes);
    } catch (const ModelError&) {
      spill_pool_.reset();
      spill_failed_ = true;
    }
  }

  /// Per-worker telemetry tick (amortized like over_budget): publish this
  /// worker's tallies into its own counter block, offer the shared
  /// rate-limited heartbeat, and raise the one-shot 80% budget warnings.
  void observe(Worker& me) {
    if (me.blk == nullptr) return;
    if (++me.obs_tick % kBudgetCheckStride != 0) return;
    publish_worker(me);
    const std::uint64_t stored = visited_.size();
    opt_.obs->progress(stored, opt_.max_states);
    if (opt_.max_states > 0 &&
        stored >= opt_.max_states - opt_.max_states / 5 &&
        !warned_states_.exchange(true, std::memory_order_relaxed))
      opt_.obs->budget_warning("max-states", stored, opt_.max_states);
    if (opt_.memory_budget_bytes > 0) {
      const std::uint64_t used = approx_memory();
      if (used >=
              opt_.memory_budget_bytes - opt_.memory_budget_bytes / 5 &&
          !warned_memory_.exchange(true, std::memory_order_relaxed))
        opt_.obs->budget_warning("memory", used, opt_.memory_budget_bytes);
    }
  }

  void publish_worker(Worker& me) {
    me.blk->set(obs::Counter::StatesStored, me.stats.states_stored);
    me.blk->set(obs::Counter::StatesMatched, me.stats.states_matched);
    me.blk->set(obs::Counter::Transitions, me.stats.transitions);
    me.blk->set(obs::Counter::PorAmpleSets, me.por_ample);
    me.blk->set(obs::Counter::CompressFull, me.keyer->fulls());
    me.blk->set(obs::Counter::CompressDelta, me.keyer->deltas());
  }

  // -- stored-state count ---------------------------------------------------
  //
  // visited_.size() sums 64 shard counters, too dear for every fresh store.
  // Each worker instead adds its fresh stores to stored_floor_ in batches of
  // kCountBatch, so stored_floor_ <= size() < stored_floor_ + n * kCountBatch,
  // and the exact sum is taken only when that bound reaches a limit.

  static constexpr std::uint64_t kCountBatch = 256;

  void count_fresh(Worker& me) {
    if (++me.unpublished < kCountBatch) return;
    stored_floor_.fetch_add(me.unpublished, std::memory_order_relaxed);
    me.unpublished = 0;
  }

  /// visited_.size() >= limit, without the shard sum while clearly below.
  bool stored_reaches(std::uint64_t limit) const {
    if (stored_floor_.load(std::memory_order_relaxed) +
            static_cast<std::uint64_t>(n_) * kCountBatch <
        limit)
      return false;
    return visited_.size() >= limit;
  }

  std::uint64_t store_bytes() const {
    return visited_.approx_bytes() + compressor_.approx_bytes();
  }

  /// Bytes one queued item holds: the item, plus its key when the key is
  /// too long for the string's inline buffer.
  std::uint64_t item_bytes() const {
    const std::size_t key_max =
        static_cast<std::size_t>(compressor_.n_regions()) * 5 + 1;
    return sizeof(Item) +
           (key_max > std::string().capacity() ? key_max + 1 : 0);
  }

  std::uint64_t approx_memory() const {
    // Store + frontier + trail edges and chain starts, estimated from
    // atomic counters only (per-worker containers are not safely readable
    // cross-thread).
    std::uint64_t bytes = store_bytes() + start_bytes_;
    for (const Worker& w : workers_)
      bytes += w.queued.load(std::memory_order_relaxed) * item_bytes() +
               w.edge_bytes.load(std::memory_order_relaxed);
    if (opt_.obs != nullptr) bytes += opt_.obs->approx_bytes();
    return bytes;
  }

  void truncate(TruncationReason why) {
    {
      std::lock_guard<std::mutex> lock(trunc_mu_);
      complete_ = false;
      if (truncation_ == TruncationReason::None) truncation_ = why;
      if (why == TruncationReason::Deadline ||
          why == TruncationReason::MemoryBudget ||
          why == TruncationReason::Interrupted)
        stop_.store(true, std::memory_order_relaxed);  // hard stop: all workers
    }
    // Wake anyone parked at the checkpoint barrier. Taking park_mu_ first
    // closes the pred-check/sleep race against the lock-free stop_ store.
    { std::lock_guard<std::mutex> lock(park_mu_); }
    park_cv_.notify_all();
  }

  std::optional<Violation> invariant_violation(const State& s) const {
    if (opt_.invariant != expr::kNoExpr &&
        m_.eval_global(opt_.invariant, s) == 0) {
      Violation v;
      v.kind = ViolationKind::InvariantViolated;
      v.message = "invariant violated" +
                  (opt_.invariant_name.empty() ? std::string()
                                               : ": " + opt_.invariant_name);
      return v;
    }
    return std::nullopt;
  }

  std::optional<Violation> terminal_violation(const State& s) const {
    if (opt_.check_deadlock && !m_.is_valid_end(s)) {
      Violation v;
      v.kind = ViolationKind::Deadlock;
      v.message = "no executable transition and not all processes at a "
                  "valid end state";
      return v;
    }
    if (opt_.end_invariant != expr::kNoExpr &&
        m_.eval_global(opt_.end_invariant, s) == 0) {
      Violation v;
      v.kind = ViolationKind::EndInvariantViolated;
      v.message =
          "terminal state violates end invariant" +
          (opt_.end_invariant_name.empty()
               ? std::string()
               : ": " + opt_.end_invariant_name);
      return v;
    }
    return std::nullopt;
  }

  void record_violation(Violation v, std::uint64_t gid,
                        std::optional<std::uint32_t> extra) {
    {
      std::lock_guard<std::mutex> lock(win_mu_);
      if (winner_) return;  // first worker wins; verdict is the same either way
      winner_ = Win{std::move(v), gid, extra};
    }
    stop_.store(true, std::memory_order_release);
  }

  /// Streams one popped item's successors into the worker's staged batch
  /// and flags assertion violations. Aborts the pass on a violation or when
  /// the run-wide stop flag goes up.
  class ParSink final : public kernel::SuccSink {
   public:
    ParSink(ParallelRun& run, Worker& me, const Item& item)
        : run_(run), me_(me), item_(item) {}

    bool on_successor(const State& ns, const Step& step) override {
      if (run_.stop_.load(std::memory_order_relaxed)) {
        aborted = true;
        return false;
      }
      ++me_.stats.transitions;
      return run_.par_candidate(ns, step, produced++, me_, item_, *this);
    }

    std::uint32_t produced = 0;
    bool aborted = false;  // stopped early; successor count is partial

   private:
    ParallelRun& run_;
    Worker& me_;
    const Item& item_;
  };

  /// Keys one successor and stages its visited probe; settle() resolves
  /// the whole expansion's probes once generation is done. The key must be
  /// built now (delta COLLAPSE reads the undo log, live only during this
  /// callback); the store is not touched yet beyond a prefetch of the
  /// key's slot, so the slot misses of all the expansion's successors
  /// overlap with generating the rest of them.
  bool par_candidate(const State& ns, const Step& step, std::uint32_t ordinal,
                     Worker& me, const Item& item, ParSink& sink) {
    if (step.assert_failed) {
      Violation v;
      v.kind = ViolationKind::AssertFailed;
      v.message = "assertion failed: " + m_.describe_step(step);
      record_violation(std::move(v), item.gid, ordinal);
      sink.aborted = true;
      return false;
    }
    const auto key = me.keyer->delta(ns, me.scratch.undo, me.ids.data());
    const std::uint64_t h = ShardedVisitedSet::hash_key(key);
    visited_.prefetch(h);
    me.staged.push_back({h, static_cast<std::uint32_t>(me.staged_keys.size()),
                         static_cast<std::uint32_t>(key.size()), ordinal});
    me.staged_keys.insert(me.staged_keys.end(), key.begin(), key.end());
    return true;
  }

  /// Resolves the staged probes of one expansion, emptying the batch: the
  /// probe slots were prefetched while the successors were generated, and
  /// the inserts run in stream order, with the same outcome, counts and
  /// trail edges as inserting each successor as it was generated.
  void settle(int w, Worker& me, const Item& item) {
    for (const Staged& st : me.staged) {
      const std::span<const std::uint8_t> key(me.staged_keys.data() + st.at,
                                              st.len);
      if (!visited_.insert(key, st.hash)) {
        ++me.stats.states_matched;
        continue;
      }
      ++me.stats.states_stored;
      count_fresh(me);
      if (stored_reaches(opt_.max_states)) {
        truncate(TruncationReason::MaxStates);
        // stored, but not expanded: same as the sequential engine;
        // remembered so the final checkpoint's frontier is exactly where
        // this run stopped
        if (ckpt_enabled())
          me.overflow.push_back({key_string(key), kNoGid, item.depth + 1});
        continue;
      }
      if (item.depth + 1 > static_cast<std::uint32_t>(opt_.max_depth)) {
        truncate(TruncationReason::MaxDepth);
        if (ckpt_enabled())
          me.overflow.push_back({key_string(key), kNoGid, item.depth + 1});
        continue;
      }
      Item next{key_string(key), kNoGid, item.depth + 1};
      if (opt_.want_trace) {
        const std::uint64_t index = me.edges.push({item.gid, st.ordinal});
        next.gid = make_gid(w, index);
        if (index % EdgeLog::kChunkEdges == 0)
          me.edge_bytes.store(me.edges.bytes(), std::memory_order_relaxed);
      }
      push(me, std::move(next));
    }
    me.staged.clear();
    me.staged_keys.clear();
  }

  void expand(int w, Worker& me, Item& item) {
    if (over_budget(me)) {
      // The item was popped but not expanded; requeue it so a final
      // checkpoint's frontier still covers its subtree.
      if (ckpt_enabled()) push(me, std::move(item));
      return;
    }
    compressor_.decompress(byte_span(item.key), me.state, me.ids.data());
    const State& s = me.state;
    me.stats.max_depth_reached =
        std::max(me.stats.max_depth_reached, static_cast<int>(item.depth));
    // Invariant first: generation has no side effects and the check reads
    // only the state, so the verdict matches the materializing engine's.
    if (auto v = invariant_violation(s)) {
      record_violation(std::move(*v), item.gid, std::nullopt);
      return;
    }
    ParSink sink(*this, me, item);
    // Under POR, the BFS-style ample choice (no cycle proviso): a pure
    // function of the state, so the reduced graph -- and the reached-state
    // count -- does not depend on thread count or interleaving, and a trail
    // replay regenerates the same successor stream.
    if (visit_expansion(m_, opt_, s, me.scratch, sink) >= 0) ++me.por_ample;
    // An aborted pass settles too: the successors it staged were generated
    // and count as explored, as if each had been inserted on the spot.
    settle(w, me, item);
    // Zero successors means a terminal state -- unless the pass was cut
    // short by a stop flag, in which case the count is not trustworthy.
    if (sink.produced == 0 && !sink.aborted) {
      if (auto v = terminal_violation(s))
        record_violation(std::move(*v), item.gid, std::nullopt);
    }
    // An aborted pass left successors ungenerated: requeue the item so the
    // final checkpoint re-expands it on resume (idempotent -- its explored
    // successors dedup against the visited set).
    if (sink.aborted && ckpt_enabled()) push(me, std::move(item));
  }

  /// Follows the winner's trail edges back to its chain start, then
  /// replays the ordinals forward from the start's state.
  trace::Trace rebuild_trace(const Win& win) const {
    if (!opt_.want_trace) return {};
    std::vector<std::uint32_t> ordinals;
    if (win.extra) ordinals.push_back(*win.extra);
    std::uint64_t gid = win.gid;
    while (gid_owner(gid) != n_) {
      const TrailEdge& e =
          workers_[static_cast<std::size_t>(gid_owner(gid))].edges[gid_index(gid)];
      ordinals.push_back(e.ordinal);
      gid = e.parent;
    }
    std::reverse(ordinals.begin(), ordinals.end());
    return replay_trail(
        m_, opt_,
        compressor_.decompress(
            byte_span(starts_[static_cast<std::size_t>(gid_index(gid))])),
        ordinals);
  }

  Result finish() {
    // Final checkpoint: all workers joined, so the queues + overflow lists
    // are the exact unexpanded frontier of wherever the run stopped.
    if (ckpt_enabled() && !winner_) commit_checkpoint();
    Result r;
    Stats& st = r.stats;
    st.threads = n_;
    st.states_stored = visited_.size();
    st.states_matched = base_matched_;
    st.transitions = base_transitions_;
    std::uint64_t edge_bytes = 0;
    std::uint64_t queued = 0;
    for (Worker& w : workers_) {
      st.states_matched += w.stats.states_matched;
      st.transitions += w.stats.transitions;
      st.max_depth_reached =
          std::max(st.max_depth_reached, w.stats.max_depth_reached);
      st.workers.push_back(w.stats);
      edge_bytes += w.edges.bytes();
      queued += w.queue.size();
    }
    const std::uint64_t frontier_bytes = queued * item_bytes();
    st.store_bytes = store_bytes();
    st.approx_memory_bytes =
        st.store_bytes + edge_bytes + start_bytes_ + frontier_bytes;
    st.complete = complete_;
    st.truncation = truncation_;
    st.spilled = spilled_.load(std::memory_order_relaxed);
    if (st.spilled)
      st.spill_bytes = visited_.spill_bytes() + compressor_.spill_bytes();
    st.checkpoints_written = ckpt_written_;
    st.resumed = opt_.resume_from != nullptr;
    if (opt_.obs != nullptr) {
      for (Worker& w : workers_)
        if (w.blk != nullptr) publish_worker(w);
      obs::Recorder& rec = opt_.obs->recorder();
      rec.max_gauge(obs::Gauge::StoreBytes, st.store_bytes);
      rec.max_gauge(obs::Gauge::FrontierBytes, frontier_bytes);
      rec.max_gauge(obs::Gauge::InternedComponents, compressor_.components());
      rec.max_gauge(obs::Gauge::CompressorBytes, compressor_.approx_bytes());
      rec.max_gauge(obs::Gauge::MaxDepthReached,
                    static_cast<std::uint64_t>(st.max_depth_reached));
      st.approx_memory_bytes += opt_.obs->approx_bytes();
    }
    if (winner_) {
      r.violation = std::move(winner_->violation);
      r.violation->trace = rebuild_trace(*winner_);
    }
    st.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    return r;
  }

  static constexpr std::uint64_t kBudgetCheckStride = 1024;

  const Machine& m_;
  const Options& opt_;
  const int n_;
  std::deque<Worker> workers_;

  ShardedVisitedSet visited_;
  kernel::StateCompressor compressor_;
  // One line each: stop_ is read for every successor, stored_floor_ for
  // every fresh store; busy_ changes as workers go idle.
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) std::atomic<std::uint64_t> stored_floor_{0};  // count_fresh()
  alignas(64) std::atomic<int> busy_{0};  // see await_work()
  alignas(64) std::mutex trunc_mu_;

  bool complete_ = true;
  TruncationReason truncation_ = TruncationReason::None;

  std::atomic<bool> warned_states_{false};
  std::atomic<bool> warned_memory_{false};

  std::mutex win_mu_;
  std::optional<Win> winner_;

  // Trail chain starts (the root, resumed frontier states) as compressed
  // keys; written before the workers start, read-only after.
  std::vector<std::string> starts_;
  std::uint64_t start_bytes_ = 0;

  // -- durability state ------------------------------------------------------
  std::mutex spill_mu_;
  std::unique_ptr<support::SpillPool> spill_pool_;
  std::atomic<bool> spilled_{false};
  bool spill_failed_ = false;  // guarded by spill_mu_

  std::atomic<bool> ckpt_request_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  int parked_ = 0;   // guarded by park_mu_
  int active_ = 0;   // guarded by park_mu_; workers retire on exit
  bool ckpt_failed_ = false;             // coordinator/finish only
  std::uint64_t ckpt_seq_ = 0;           // coordinator/finish only
  std::uint64_t ckpt_written_ = 0;       // coordinator/finish only
  std::atomic<std::uint64_t> last_ckpt_states_{0};
  std::uint64_t base_matched_ = 0;       // resume baselines
  std::uint64_t base_transitions_ = 0;

  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

Result run_parallel(const kernel::Machine& m, const Options& opt,
                    int threads) {
  ParallelRun run(m, opt, threads);
  return run.go();
}

Result run_swarm(const kernel::Machine& m, const Options& opt, int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::vector<Result> results(static_cast<std::size_t>(threads));
  run_crew(threads, stop, [&](int w) {
    Options o = opt;
    o.threads = 1;
    // Worker 0 keeps the canonical order and hash functions, so the
    // sequential bitstate verdict is always among the merged ones.
    const std::uint64_t seed =
        w == 0 ? 0
               : avalanche64(0x5eed5eed5eedull + static_cast<std::uint64_t>(w));
    Result r = run_single(m, o, seed, seed, &stop);
    if (r.violation) stop.store(true, std::memory_order_release);
    results[static_cast<std::size_t>(w)] = std::move(r);
  });

  // Merge: a violation found by any worker is a real counterexample (the
  // first one encountered wins); otherwise the verdict is the union of N
  // probabilistic passes.
  Result merged;
  Stats& st = merged.stats;
  st.threads = threads;
  for (Result& r : results) {
    if (r.violation && !merged.violation)
      merged.violation = std::move(r.violation);
    st.states_stored += r.stats.states_stored;
    st.states_matched += r.stats.states_matched;
    st.transitions += r.stats.transitions;
    st.max_depth_reached =
        std::max(st.max_depth_reached, r.stats.max_depth_reached);
    st.approx_memory_bytes += r.stats.approx_memory_bytes;
    st.store_bytes += r.stats.store_bytes;
    st.workers.push_back({r.stats.states_stored, r.stats.states_matched,
                          r.stats.transitions, r.stats.max_depth_reached,
                          r.stats.seconds});
    // A hard truncation in any worker outranks the ambient bitstate
    // approximation, mirroring the sequential precedence.
    if (r.stats.truncation != TruncationReason::None &&
        r.stats.truncation != TruncationReason::BitstateApprox &&
        st.truncation == TruncationReason::None)
      st.truncation = r.stats.truncation;
  }
  st.complete = false;
  if (st.truncation == TruncationReason::None)
    st.truncation = TruncationReason::BitstateApprox;
  st.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return merged;
}

}  // namespace detail
}  // namespace pnp::explore
