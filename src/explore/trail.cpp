#include "explore/trail.h"

#include <string>

#include "codegen/engine.h"
#include "explore/por.h"
#include "support/panic.h"

namespace pnp::explore {

namespace {

/// Keeps the ordinal-th successor of one expansion and stops it there.
class NthSink final : public kernel::SuccSink {
 public:
  explicit NthSink(std::uint32_t want) : want_(want) {}

  bool on_successor(const kernel::State& ns,
                    const kernel::Step& step) override {
    if (seen_++ != want_) return true;
    state = ns;
    this->step = step;
    found = true;
    return false;
  }

  kernel::State state;
  kernel::Step step;
  bool found = false;

 private:
  const std::uint32_t want_;
  std::uint32_t seen_ = 0;
};

}  // namespace

int visit_expansion(const kernel::Machine& m, const Options& opt,
                    const kernel::State& s, kernel::SuccScratch& scratch,
                    kernel::SuccSink& sink) {
  if (opt.por) {
    const int choice = por_choose(m, s, nullptr, scratch, opt.engine);
    por_visit(m, s, choice, scratch, sink, opt.engine);
    return choice;
  }
  if (opt.engine != nullptr)
    opt.engine->visit_successors(s, scratch, sink);
  else
    m.visit_successors(s, scratch, sink);
  return -1;
}

trace::Trace replay_trail(const kernel::Machine& m, const Options& opt,
                          kernel::State start,
                          std::span<const std::uint32_t> ordinals) {
  trace::Trace t;
  kernel::SuccScratch scratch;
  kernel::State s = std::move(start);
  for (const std::uint32_t ordinal : ordinals) {
    NthSink sink(ordinal);
    visit_expansion(m, opt, s, scratch, sink);
    PNP_CHECK(sink.found, "counterexample replay diverged from the search: "
                          "successor " +
                              std::to_string(ordinal) + " of step " +
                              std::to_string(t.steps.size()) + " is missing");
    t.steps.push_back({sink.step, m.describe_step(sink.step)});
    s = std::move(sink.state);
  }
  t.final_state = m.format_state(s);
  return t;
}

}  // namespace pnp::explore
