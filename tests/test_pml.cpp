// PML (Promela-subset) front-end tests: lexer diagnostics, parsing of every
// supported construct, semantic checks, and end-to-end verification of
// textual models -- including the paper's producer/consumer shape.
#include <gtest/gtest.h>

#include "explore/explorer.h"
#include "kernel/machine.h"
#include "ltl/product.h"
#include "pml/lexer.h"
#include "pml/parser.h"
#include "support/panic.h"

namespace pnp::pml {
namespace {

explore::Result verify(const std::string& src, explore::Options opt = {}) {
  model::SystemSpec sys = parse(src);
  kernel::Machine m(sys);
  return explore::explore(m, opt);
}

// -- lexer ------------------------------------------------------------------------

TEST(PmlLexer, TokenizesOperatorsAndComments) {
  const auto toks = lex("a!!1 ?? ?< -> :: /* x */ // y\n<=");
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  const std::vector<Tok> expect = {Tok::Ident,   Tok::DoubleBang, Tok::Number,
                                   Tok::DoubleQuery, Tok::QueryLess,
                                   Tok::Arrow,   Tok::DoubleColon, Tok::LessEq,
                                   Tok::End};
  EXPECT_EQ(kinds, expect);
}

TEST(PmlLexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].col, 3);
}

TEST(PmlLexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("a $ b"), ModelError);
  EXPECT_THROW(lex("/* unterminated"), ModelError);
}

// -- parser: declarations -----------------------------------------------------------

TEST(PmlParse, MtypeChanGlobalsProctype) {
  model::SystemSpec sys = parse(R"(
    mtype = { PING, PONG };
    chan c = [2] of { mtype, byte };
    int counter = 5;
    bool flag;
    active proctype P() { skip }
  )");
  EXPECT_EQ(sys.mtypes.size(), 2u);
  EXPECT_EQ(sys.mtype_name(1), "PING");
  ASSERT_TRUE(sys.find_channel("c").has_value());
  EXPECT_EQ(sys.channels[0].capacity, 2);
  EXPECT_EQ(sys.channels[0].arity, 2);
  ASSERT_TRUE(sys.find_global("counter").has_value());
  EXPECT_EQ(sys.globals[0].init, 5);
  EXPECT_EQ(sys.processes.size(), 1u);
}

TEST(PmlParse, ActiveCountSpawnsInstances) {
  model::SystemSpec sys = parse("active [3] proctype W() { skip }");
  EXPECT_EQ(sys.processes.size(), 3u);
  EXPECT_EQ(sys.processes[1].name, "W1");
}

TEST(PmlParse, InitRunSpawnsWithArguments) {
  model::SystemSpec sys = parse(R"(
    chan q = [1] of { byte };
    proctype P(chan c; byte x) { c!x }
    init { run P(q, 7); run P(q, 8) }
  )");
  ASSERT_EQ(sys.processes.size(), 2u);
  EXPECT_EQ(sys.processes[0].args, (std::vector<model::Value>{0, 7}));
  EXPECT_EQ(sys.processes[1].args, (std::vector<model::Value>{0, 8}));
}

TEST(PmlParse, RejectsUnknownIdentifier) {
  EXPECT_THROW(parse("active proctype P() { x = 1 }"), ModelError);
}

TEST(PmlParse, RejectsActiveProctypeWithParams) {
  EXPECT_THROW(parse("active proctype P(byte x) { skip }"), ModelError);
}

TEST(PmlParse, RejectsGoto) {
  EXPECT_THROW(parse("active proctype P() { goto done }"), ModelError);
}

// -- end-to-end: executable semantics ------------------------------------------------

TEST(PmlRun, ProducerConsumerVerifies) {
  const auto r = verify(R"(
    chan box = [2] of { byte };
    byte received;
    active proctype Producer() {
      byte i = 1;
      do
      :: i <= 3 -> box!i; i++
      :: i > 3 -> break
      od
    }
    active proctype Consumer() {
      byte j = 1; byte v;
      do
      :: j <= 3 -> box?v; assert(v == j); received = v; j++
      :: j > 3 -> break
      od
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
  EXPECT_TRUE(r.stats.complete);
}

TEST(PmlRun, AssertionViolationIsFound) {
  const auto r = verify(R"(
    byte x;
    active proctype P() { x = 3; assert(x == 4) }
  )");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, explore::ViolationKind::AssertFailed);
}

TEST(PmlRun, RendezvousAndMtypeMatching) {
  const auto r = verify(R"(
    mtype = { REQ, ACK };
    chan c = [0] of { mtype, byte };
    byte got;
    active proctype Client() { c!REQ,42 }
    active proctype Server() {
      byte v;
      c?REQ,v;      /* mtype constant matches, v binds */
      got = v;
      assert(got == 42)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, EndLabelAcceptsIdleServer) {
  const auto r = verify(R"(
    chan c = [1] of { byte };
    active proctype Server() {
      byte v;
      end: do
      :: c?v
      od
    }
    active proctype Client() { c!5 }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, DeadlockDetectedWithoutEndLabel) {
  const auto r = verify(R"(
    chan c = [1] of { byte };
    active proctype Server() { byte v; do :: c?v od }
    active proctype Client() { c!5 }
  )");
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, explore::ViolationKind::Deadlock);
}

TEST(PmlRun, ElseBranchAndIncrementDecrement) {
  const auto r = verify(R"(
    chan c = [1] of { byte };
    byte hits;
    active proctype P() {
      byte v;
      if
      :: c?v -> assert(false)   /* channel empty: must not fire */
      :: else -> hits++
      fi;
      hits--;
      assert(hits == 0)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, SortedSendAndRandomReceive) {
  const auto r = verify(R"(
    chan pq = [3] of { byte, byte };
    active proctype P() {
      byte v;
      pq!!2,20; pq!!1,10; pq!!3,30;
      pq?1,v; assert(v == 10);
      pq??3,v; assert(v == 30);   /* skips over the 2 at the head */
      pq?2,v; assert(v == 20)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, CopyReceiveKeepsMessage) {
  const auto r = verify(R"(
    chan c = [1] of { byte };
    active proctype P() {
      byte v;
      c!9;
      c?<v>; assert(v == 9);
      c?v; assert(v == 9)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, AtomicReducesInterleavings) {
  auto states = [](const char* src) {
    model::SystemSpec sys = parse(src);
    kernel::Machine m(sys);
    explore::Options opt;
    opt.want_trace = false;
    return explore::explore(m, opt).stats.states_stored;
  };
  const auto plain = states(R"(
    byte x;
    active [2] proctype P() { x = x + 1; x = x + 1 }
  )");
  const auto atomic = states(R"(
    byte x;
    active [2] proctype P() { atomic { x = x + 1; x = x + 1 } }
  )");
  EXPECT_LT(atomic, plain);
}

TEST(PmlRun, EvalMatch) {
  const auto r = verify(R"(
    chan c = [2] of { byte, byte };
    active proctype P() {
      byte want = 7; byte v;
      c!5,50; c!7,70;
      c??eval(want),v;
      assert(v == 70)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, GuardExpressionsBlock) {
  const auto r = verify(R"(
    byte x;
    active proctype A() { x == 1; x = 2 }  /* waits for B */
    active proctype B() { x = 1 }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlRun, LtlOverParsedModel) {
  model::SystemSpec sys = parse(R"(
    byte x;
    active proctype P() { x = 1; x = 2 }
  )");
  kernel::Machine m(sys);
  ltl::PropertyContext props;
  props.add("x2", parse_global_expr(sys, "x == 2"));
  props.add("x0", parse_global_expr(sys, "x == 0"));
  EXPECT_TRUE(ltl::check_ltl(m, props, "F x2").holds);
  EXPECT_TRUE(ltl::check_ltl(m, props, "x0 U (x2 || x0)").holds);
  EXPECT_FALSE(ltl::check_ltl(m, props, "G x0").holds);
}

TEST(PmlRun, GlobalExprParserSupportsChannelQueries) {
  model::SystemSpec sys = parse(R"(
    chan c = [2] of { byte };
    active proctype P() { c!1 }
  )");
  const expr::Ref e = parse_global_expr(sys, "len(c) <= 2 && !full(c) || empty(c)");
  kernel::Machine m(sys);
  EXPECT_EQ(m.eval_global(e, m.initial()), 1);
}

}  // namespace
}  // namespace pnp::pml

// -- the shipped example models parse and verify -----------------------------------

#include "model_file.h"

namespace pnp::pml {
namespace {

std::string read_model(const std::string& name) {
  return read_repo_file("examples/models/" + name);
}

TEST(PmlModels, PaperBlocksCompositionVerifies) {
  const std::string src = read_model("paper_blocks.pml");
  if (src.empty()) return;
  model::SystemSpec sys = parse(src);
  EXPECT_EQ(sys.processes.size(), 5u);  // 2 components, 2 ports, 1 channel
  kernel::Machine m(sys);
  explore::Options opt;
  opt.end_invariant = parse_global_expr(sys, "delivered == 2");
  opt.end_invariant_name = "both messages delivered";
  const auto r = explore::explore(m, opt);
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
  EXPECT_TRUE(r.stats.complete);
}

TEST(PmlModels, ProducerConsumerVerifies) {
  const std::string src = read_model("producer_consumer.pml");
  if (src.empty()) return;
  model::SystemSpec sys = parse(src);
  kernel::Machine m(sys);
  explore::Options opt;
  opt.invariant = parse_global_expr(sys, "received <= 3");
  const auto r = explore::explore(m, opt);
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlModels, FlawedMutexIsCaught) {
  const std::string src = read_model("mutex_flawed.pml");
  if (src.empty()) return;
  model::SystemSpec sys = parse(src);
  kernel::Machine m(sys);
  explore::Options opt;
  opt.invariant = parse_global_expr(sys, "critical <= 1");
  const auto r = explore::explore(m, opt);
  ASSERT_TRUE(r.violation.has_value());
}

TEST(PmlModels, ClientServerLivenessUnderFairness) {
  const std::string src = read_model("client_server.pml");
  if (src.empty()) return;
  model::SystemSpec sys = parse(src);
  kernel::Machine m(sys);
  EXPECT_TRUE(explore::explore(m, {}).ok());
  ltl::PropertyContext props;
  props.add("served", parse_global_expr(sys, "served == 2"));
  ltl::CheckOptions fair;
  fair.weak_fairness = true;
  EXPECT_TRUE(ltl::check_ltl(m, props, "F served", fair).holds);
}

}  // namespace
}  // namespace pnp::pml

// -- additional construct & diagnostic coverage ------------------------------------

namespace pnp::pml {
namespace {

TEST(PmlParse, OperatorPrecedence) {
  model::SystemSpec sys = parse(R"(
    byte ok;
    active proctype P() {
      /* 2+3*4 == 14, !(0) == 1, 1+1 < 3 && 4/2 == 2 */
      assert(2 + 3 * 4 == 14);
      assert(!false);
      assert(1 + 1 < 3 && 4 / 2 == 2);
      assert(10 % 4 == 2);
      assert(-3 + 5 == 2);
      ok = 1
    }
  )");
  kernel::Machine m(sys);
  EXPECT_TRUE(explore::explore(m, {}).ok());
}

TEST(PmlParse, NestedSelectionsAndBreak) {
  const auto r = verify(R"(
    byte phase;
    active proctype P() {
      do
      :: phase == 0 ->
         if
         :: true -> phase = 1
         fi
      :: phase == 1 ->
         do
         :: phase == 1 -> phase = 2
         :: phase == 2 -> break      /* inner break */
         od;
         phase = 3
      :: phase == 3 -> break          /* outer break */
      od;
      assert(phase == 3)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlParse, AtomicWithBreakInsideDo) {
  const auto r = verify(R"(
    byte n;
    active proctype P() {
      do
      :: n < 2 -> atomic { n = n + 1; skip }
      :: n == 2 -> break
      od;
      assert(n == 2)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlParse, DStepIsAtomic) {
  model::SystemSpec sys = parse(R"(
    byte x;
    active [2] proctype P() { d_step { x = x + 1; x = x + 1 } }
  )");
  kernel::Machine m(sys);
  explore::Options opt;
  opt.want_trace = false;
  const auto atomic_states = explore::explore(m, opt).stats.states_stored;
  model::SystemSpec sys2 = parse(R"(
    byte x;
    active [2] proctype P() { x = x + 1; x = x + 1 }
  )");
  kernel::Machine m2(sys2);
  const auto plain_states = explore::explore(m2, opt).stats.states_stored;
  EXPECT_LT(atomic_states, plain_states);
}

TEST(PmlParse, MultipleDeclaratorsAndInitializers) {
  model::SystemSpec sys = parse(R"(
    mtype = { A, B };
    int x = 3, y = -2, z;
    bool f = true, g = false;
    mtype tag = B;
    active proctype P() { skip }
  )");
  EXPECT_EQ(sys.globals[0].init, 3);
  EXPECT_EQ(sys.globals[1].init, -2);
  EXPECT_EQ(sys.globals[2].init, 0);
  EXPECT_EQ(sys.globals[3].init, 1);
  EXPECT_EQ(sys.globals[4].init, 0);
  EXPECT_EQ(sys.globals[5].init, 2);  // mtype B = 2
}

TEST(PmlParse, ErrorsCarryLineAndColumn) {
  try {
    parse("byte x;\n\nactive proctype P() { y = 1 }");
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("cannot assign to 'y'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PmlParse, ChannelQueriesInGuards) {
  const auto r = verify(R"(
    chan c = [2] of { byte };
    active proctype P() {
      assert(empty(c) && nfull(c) && len(c) == 0);
      c!1;
      assert(nempty(c) && len(c) == 1 && !full(c));
      c!2;
      assert(full(c))
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlParse, SelfPidDistinguishesInstances) {
  const auto r = verify(R"(
    chan c = [2] of { byte };
    byte sum;
    active [2] proctype W() { c!_pid }
    active proctype Collector() {
      byte a; byte b;
      c?a; c?b;
      sum = a + b;
      assert(sum == 1)   /* pids 0 and 1 */
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

TEST(PmlParse, ElseOnlyBranchInDo) {
  const auto r = verify(R"(
    chan c = [1] of { byte };
    byte polls;
    active proctype P() {
      byte v;
      do
      :: c?v -> break
      :: else ->
         polls = 1;
         c!7          /* make the receive possible next time around */
      od;
      assert(v == 7 && polls == 1)
    }
  )");
  EXPECT_TRUE(r.ok()) << (r.violation ? r.violation->message : "");
}

}  // namespace
}  // namespace pnp::pml
