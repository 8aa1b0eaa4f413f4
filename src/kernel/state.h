// Kernel state: the global state vector of a compiled system.
//
// A state is ONE flat vector<Value> (plus the atomic-holder pid). The
// Layout, computed once per system, assigns every variable a fixed slot:
//
//   [ globals | proc0: pc, frame... | proc1: ... | chan0: len, slots... | ... ]
//
// Rendezvous channels (capacity 0) never store messages and get no slots.
// Buffered channels get 1 + capacity*arity slots. This makes copying a
// state a single allocation and makes the vector itself the canonical
// encoding used for hashing/deduplication.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "model/system.h"
#include "support/panic.h"

namespace pnp::kernel {

using expr::Value;

struct State {
  std::vector<Value> mem;
  /// Process currently holding atomic execution rights, or -1.
  int atomic_pid{-1};

  friend bool operator==(const State&, const State&) = default;
};

/// Slot assignment for a specific system (spec + process instances).
class Layout {
 public:
  Layout() = default;
  explicit Layout(const model::SystemSpec& sys);

  int size() const { return total_; }
  int n_globals() const { return n_globals_; }

  /// COLLAPSE compression regions: {begin, count} slot ranges covering every
  /// state slot exactly once, split along the natural component boundaries
  /// (globals | one range per process frame | one range per buffered
  /// channel). Empty ranges (no globals, rendezvous channels) are omitted.
  std::vector<std::pair<int, int>> regions() const;

  // -- accessors ---------------------------------------------------------------
  Value global(const State& s, int slot) const {
    return s.mem[static_cast<std::size_t>(slot)];
  }
  void set_global(State& s, int slot, Value v) const {
    s.mem[static_cast<std::size_t>(slot)] = v;
  }
  int pc(const State& s, int pid) const {
    return s.mem[static_cast<std::size_t>(procs_[static_cast<std::size_t>(pid)].base)];
  }
  void set_pc(State& s, int pid, int pc) const {
    s.mem[static_cast<std::size_t>(procs_[static_cast<std::size_t>(pid)].base)] =
        pc;
  }
  /// Mutable locals only; spawn parameters live in the instance table.
  std::span<const Value> locals(const State& s, int pid) const {
    const ProcSlot& p = procs_[static_cast<std::size_t>(pid)];
    return {s.mem.data() + p.base + 1, static_cast<std::size_t>(p.n_locals)};
  }
  int n_params(int pid) const {
    return procs_[static_cast<std::size_t>(pid)].n_params;
  }
  /// `slot` is a frame slot (params + locals); writing a parameter slot is
  /// a model error (parameters are immutable).
  void set_frame_slot(State& s, int pid, int slot, Value v) const {
    s.mem[static_cast<std::size_t>(frame_slot(pid, slot))] = v;
  }
  std::span<const Value> globals(const State& s) const {
    return {s.mem.data(), static_cast<std::size_t>(n_globals_)};
  }

  // -- raw slot indices (undo-log successor generation) ------------------------
  /// Slot index of process `pid`'s program counter.
  int pc_slot(int pid) const {
    return procs_[static_cast<std::size_t>(pid)].base;
  }
  /// Slot index of frame slot `slot` (params + locals); writing a parameter
  /// slot is a model error (parameters are immutable).
  int frame_slot(int pid, int slot) const {
    const ProcSlot& p = procs_[static_cast<std::size_t>(pid)];
    PNP_CHECK(slot >= p.n_params, "write to immutable parameter slot");
    return p.base + 1 + slot - p.n_params;
  }
  /// {begin, count} of channel `c`'s slots (len + message buffer);
  /// {-1, 0} for rendezvous channels, which have no storage.
  std::pair<int, int> chan_region(int c) const {
    const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
    if (ch.base < 0) return {-1, 0};
    return {ch.base, 1 + ch.capacity * ch.arity};
  }

  // -- channels ----------------------------------------------------------------
  int chan_capacity(int c) const {
    return chans_[static_cast<std::size_t>(c)].capacity;
  }
  int chan_arity(int c) const {
    return chans_[static_cast<std::size_t>(c)].arity;
  }
  bool chan_lossy(int c) const {
    return chans_[static_cast<std::size_t>(c)].lossy;
  }
  int chan_len(const State& s, int c) const {
    const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
    return ch.base < 0 ? 0 : s.mem[static_cast<std::size_t>(ch.base)];
  }
  /// Pointer to message i's fields (valid for i < len).
  const Value* chan_msg(const State& s, int c, int i) const {
    const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
    return s.mem.data() + ch.base + 1 + i * ch.arity;
  }
  /// Appends a message (fields has arity values). Precondition: not full.
  void chan_push(State& s, int c, const Value* fields) const;
  /// Inserts in sorted (lexicographic) position. Precondition: not full.
  void chan_push_sorted(State& s, int c, const Value* fields) const;
  /// Removes message i, shifting later messages forward.
  void chan_erase(State& s, int c, int i) const;

  /// Initial state (globals/frames initialized, channels empty).
  State initial(const model::SystemSpec& sys,
                const std::vector<int>& frame_bases_hint = {}) const;

 private:
  struct ProcSlot {
    int base{0};
    int n_params{0};
    int n_locals{0};
  };
  struct ChanSlot {
    int base{-1};  // -1 for rendezvous channels (no storage)
    int capacity{0};
    int arity{1};
    bool lossy{false};
  };
  int n_globals_{0};
  std::vector<ProcSlot> procs_;
  std::vector<ChanSlot> chans_;
  int total_{0};
};

/// Canonical byte string of `s` for hash containers.
std::string encode_key(const State& s);

/// Allocation-free variant for hot paths: replaces `out` with the canonical
/// encoding, reusing its capacity.
void encode_key_into(const State& s, std::string& out);

/// Inverse of encode_key_into: replaces `out` with the state `key` encodes,
/// reusing its capacity.
void decode_key_into(std::span<const std::uint8_t> key, State& out);

}  // namespace pnp::kernel
