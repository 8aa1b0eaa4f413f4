#include "kernel/state.h"

#include <cstring>

#include "support/panic.h"

namespace pnp::kernel {

Layout::Layout(const model::SystemSpec& sys) {
  n_globals_ = static_cast<int>(sys.globals.size());
  int at = n_globals_;
  procs_.reserve(sys.processes.size());
  for (const model::ProcessInst& inst : sys.processes) {
    const model::ProcType& pt =
        sys.proctypes[static_cast<std::size_t>(inst.proctype)];
    ProcSlot p;
    p.base = at;
    p.n_params = static_cast<int>(pt.params.size());
    p.n_locals = static_cast<int>(pt.locals.size());
    at += 1 + p.n_locals;  // pc + mutable locals (params stay out of state)
    procs_.push_back(p);
  }
  chans_.reserve(sys.channels.size());
  for (const model::ChannelDecl& cd : sys.channels) {
    ChanSlot c;
    c.capacity = cd.capacity;
    c.arity = cd.arity;
    c.lossy = cd.lossy;
    if (cd.capacity > 0) {
      c.base = at;
      at += 1 + cd.capacity * cd.arity;  // len + slots
    }
    chans_.push_back(c);
  }
  total_ = at;
}

std::vector<std::pair<int, int>> Layout::regions() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(1 + procs_.size() + chans_.size());
  if (n_globals_ > 0) out.emplace_back(0, n_globals_);
  for (const ProcSlot& p : procs_) out.emplace_back(p.base, 1 + p.n_locals);
  for (const ChanSlot& c : chans_)
    if (c.base >= 0) out.emplace_back(c.base, 1 + c.capacity * c.arity);
  return out;
}

void Layout::chan_push(State& s, int c, const Value* fields) const {
  const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
  PNP_CHECK(ch.base >= 0, "push on rendezvous channel");
  Value& len = s.mem[static_cast<std::size_t>(ch.base)];
  PNP_CHECK(len < ch.capacity, "push on full channel");
  const std::size_t arity = static_cast<std::size_t>(ch.arity);
  Value* dst = s.mem.data() + static_cast<std::size_t>(ch.base) + 1 +
               static_cast<std::size_t>(len) * arity;
  std::memcpy(dst, fields, sizeof(Value) * arity);
  ++len;
}

void Layout::chan_push_sorted(State& s, int c, const Value* fields) const {
  const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
  PNP_CHECK(ch.base >= 0, "push on rendezvous channel");
  Value& len = s.mem[static_cast<std::size_t>(ch.base)];
  PNP_CHECK(len < ch.capacity, "push on full channel");
  const std::size_t arity = static_cast<std::size_t>(ch.arity);
  Value* base = s.mem.data() + static_cast<std::size_t>(ch.base) + 1;
  // find first message lexicographically greater than `fields`; all index
  // math in std::size_t so `pos * arity` can never wrap through int
  std::size_t pos = 0;
  const std::size_t n = static_cast<std::size_t>(len);
  while (pos < n) {
    const Value* m = base + pos * arity;
    bool greater = false;
    for (std::size_t f = 0; f < arity; ++f) {
      if (m[f] != fields[f]) {
        greater = m[f] > fields[f];
        break;
      }
    }
    if (greater) break;
    ++pos;
  }
  // shift tail back one slot
  std::memmove(base + (pos + 1) * arity, base + pos * arity,
               sizeof(Value) * ((n - pos) * arity));
  std::memcpy(base + pos * arity, fields, sizeof(Value) * arity);
  ++len;
}

void Layout::chan_erase(State& s, int c, int i) const {
  const ChanSlot& ch = chans_[static_cast<std::size_t>(c)];
  PNP_CHECK(ch.base >= 0, "erase on rendezvous channel");
  Value& len = s.mem[static_cast<std::size_t>(ch.base)];
  PNP_CHECK(i >= 0 && i < len, "erase out of range");
  const std::size_t arity = static_cast<std::size_t>(ch.arity);
  const std::size_t at = static_cast<std::size_t>(i);
  const std::size_t n = static_cast<std::size_t>(len);
  Value* base = s.mem.data() + static_cast<std::size_t>(ch.base) + 1;
  std::memmove(base + at * arity, base + (at + 1) * arity,
               sizeof(Value) * ((n - at - 1) * arity));
  // zero the freed slot so equal queue contents encode identically
  std::memset(base + (n - 1) * arity, 0, sizeof(Value) * arity);
  --len;
}

State Layout::initial(const model::SystemSpec& sys,
                      const std::vector<int>&) const {
  State s;
  s.mem.assign(static_cast<std::size_t>(total_), 0);
  for (std::size_t g = 0; g < sys.globals.size(); ++g)
    s.mem[g] = sys.globals[g].init;
  // pcs and frames are filled by the Machine (it knows compiled entries)
  return s;
}

std::string encode_key(const State& s) {
  std::string key;
  encode_key_into(s, key);
  return key;
}

void encode_key_into(const State& s, std::string& key) {
  // Byte-compressed canonical encoding: almost every slot holds a tiny
  // value (pc, signal, pid, counter), so values in [-126, 127] take one
  // byte; 0xFE escapes to a full 4-byte little-endian word. The mapping is
  // injective per position, so equal keys imply equal states.
  key.clear();
  key.reserve(s.mem.size() + 8);
  for (Value v : s.mem) {
    if (v >= -126 && v <= 127) {
      key.push_back(static_cast<char>(static_cast<unsigned char>(v + 126)));
    } else {
      key.push_back(static_cast<char>(0xFE));
      const auto u = static_cast<std::uint32_t>(v);
      key.push_back(static_cast<char>(u & 0xff));
      key.push_back(static_cast<char>((u >> 8) & 0xff));
      key.push_back(static_cast<char>((u >> 16) & 0xff));
      key.push_back(static_cast<char>((u >> 24) & 0xff));
    }
  }
  key.push_back(static_cast<char>(s.atomic_pid & 0xff));
}

void decode_key_into(std::span<const std::uint8_t> key, State& out) {
  PNP_CHECK(!key.empty(), "empty state encoding");
  out.mem.clear();
  std::size_t i = 0;
  while (i + 1 < key.size()) {
    if (key[i] != 0xFE) {
      out.mem.push_back(static_cast<Value>(key[i]) - 126);
      ++i;
      continue;
    }
    PNP_CHECK(i + 5 < key.size(), "truncated state encoding");
    const std::uint32_t u = static_cast<std::uint32_t>(key[i + 1]) |
                            (static_cast<std::uint32_t>(key[i + 2]) << 8) |
                            (static_cast<std::uint32_t>(key[i + 3]) << 16) |
                            (static_cast<std::uint32_t>(key[i + 4]) << 24);
    out.mem.push_back(static_cast<Value>(u));
    i += 5;
  }
  out.atomic_pid = key.back() == 0xFF ? -1 : key.back();
}

}  // namespace pnp::kernel
