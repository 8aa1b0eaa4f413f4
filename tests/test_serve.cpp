// pnpd end to end: the pnp.job.v1 protocol, the fair/admission-controlled
// job queue, and a live in-process server driven through serve::Client --
// including the failure paths the daemon has to survive (malformed frames,
// oversized requests, clients vanishing mid-job) and the behaviours that
// make it a daemon rather than N pnpv processes (a verdict cache shared
// across connections, graceful drain with interrupted partial reports).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/engine.h"
#include "serve/client.h"
#include "serve/proto.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "support/json.h"

namespace pnp::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// A fast architecture (the shipped demo design): two components, one
// connector, so a run produces one connector-protocol obligation plus any
// requested global property.
constexpr const char* kDemoArch = R"(
architecture demo {
  global delivered = 0;
  component Producer {
    behavior {
      byte i = 1;
      do
      :: i <= 3 -> out_data!i,0,0,0,0,0; out_sig?SEND_SUCC,_; i++
      :: i > 3 -> break
      od
    }
  }
  component Consumer {
    behavior {
      byte j = 1;
      byte v;
      do
      :: j <= 3 ->
         in_data!0,0,0,0,0,0; in_sig?RECV_SUCC,_; in_data?v,_,_,_,_,_;
         assert(v == j); delivered++; j++
      :: j > 3 -> break
      od
    }
  }
  connector Link : fifo(2) {
    sender Producer.out via asyn_blocking;
    receiver Consumer.in via blocking;
  }
}
)";

constexpr const char* kFastPml = R"(
chan box = [2] of { byte };
byte received;
active proctype Producer() {
  byte i = 1;
  do :: i <= 3 -> box!i; i++ :: i > 3 -> break od
}
active proctype Consumer() {
  byte j = 1;
  byte v;
  do :: j <= 3 -> box?v; received++; j++ :: j > 3 -> break od
}
)";

// ~13.8M reachable states (61^4): long enough that a job is reliably still
// running when a test cancels, disconnects, or drains it. Submitted with
// check_deadlock off (the all-counters-maxed deadlock would otherwise end
// the search in a few hundred steps of DFS).
constexpr const char* kSlowPml = R"(
byte a; byte b; byte c; byte d;
active proctype A() { do :: a < 60 -> a++ od }
active proctype B() { do :: b < 60 -> b++ od }
active proctype C() { do :: c < 60 -> c++ od }
active proctype D() { do :: d < 60 -> d++ od }
)";

JobRequest slow_request(const std::string& id) {
  JobRequest req;
  req.id = id;
  req.model_text = kSlowPml;
  req.kind = Session::SourceKind::Pml;
  req.config.check_deadlock = false;
  return req;
}

// -- protocol ----------------------------------------------------------------

TEST(ServeProto, SubmitRoundTrips) {
  JobRequest req;
  req.id = "job-1";
  req.model_text = "architecture a {}";
  req.kind = Session::SourceKind::Arch;
  req.resilience = true;
  req.checkpoint = true;
  req.explicit_memory = true;
  req.config.max_states = 1234;
  req.config.deadline_seconds = 2.5;
  req.config.memory_budget_bytes = 1 << 20;
  req.config.threads = 3;
  req.config.check_deadlock = false;
  req.config.por = true;
  req.config.invariant_text = "x <= 3";
  req.config.end_invariant_text = "x == 3";
  req.config.ltl = {"F done", "G safe"};
  req.config.props = {{"done", "x == 3"}, {"safe", "x <= 3"}};

  JobRequest back;
  std::string err;
  ASSERT_TRUE(parse_request(render_submit(req), back, &err)) << err;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.model_text, req.model_text);
  EXPECT_EQ(back.kind, Session::SourceKind::Arch);
  EXPECT_TRUE(back.resilience);
  EXPECT_TRUE(back.checkpoint);
  EXPECT_TRUE(back.explicit_memory);
  EXPECT_EQ(back.config.max_states, 1234u);
  EXPECT_DOUBLE_EQ(back.config.deadline_seconds, 2.5);
  EXPECT_EQ(back.config.memory_budget_bytes, std::uint64_t{1} << 20);
  EXPECT_EQ(back.config.threads, 3);
  EXPECT_FALSE(back.config.check_deadlock);
  EXPECT_TRUE(back.config.por);
  EXPECT_EQ(back.config.invariant_text, "x <= 3");
  EXPECT_EQ(back.config.end_invariant_text, "x == 3");
  EXPECT_EQ(back.config.ltl, req.config.ltl);
  EXPECT_EQ(back.config.props, req.config.props);
}

TEST(ServeProto, EngineKeyRoundTripsAndRejectsUnknown) {
  // Every named engine survives render -> parse; the default (interp) is
  // omitted from the frame and restored on parse.
  for (const auto kind :
       {codegen::EngineKind::Interp, codegen::EngineKind::Bytecode,
        codegen::EngineKind::Aot}) {
    JobRequest req;
    req.id = "job-e";
    req.model_text = "architecture a {}";
    req.config.engine = kind;
    const std::string frame = render_submit(req);
    if (kind == codegen::EngineKind::Interp) {
      EXPECT_EQ(frame.find("\"engine\""), std::string::npos) << frame;
    }
    JobRequest back;
    std::string err;
    ASSERT_TRUE(parse_request(frame, back, &err)) << err;
    EXPECT_EQ(back.config.engine, kind);
  }
  // An unknown engine is a structured request error naming the choices.
  JobRequest req;
  std::string err;
  EXPECT_FALSE(parse_request(
      "{\"pnp.job.v1\":\"submit\",\"id\":\"x\",\"model\":\"m\","
      "\"engine\":\"jit\"}",
      req, &err));
  EXPECT_NE(err.find("unknown engine"), std::string::npos) << err;
  EXPECT_NE(err.find("bytecode"), std::string::npos) << err;
}

TEST(ServeProto, MalformedFramesAreRejectedWithReasons) {
  const char* bad[] = {
      "this is not json",
      "[1,2,3]",                                       // not an object
      "{\"id\":\"x\"}",                                // no verb
      "{\"pnp.job.v1\":\"launch\",\"id\":\"x\"}",      // unknown verb
      "{\"pnp.job.v1\":\"submit\",\"model\":\"m\"}",   // submit without id
      "{\"pnp.job.v1\":\"submit\",\"id\":\"x\"}",      // submit without model
      "{\"pnp.job.v1\":\"cancel\"}",                   // cancel without id
      "{\"pnp.job.v1\":\"submit\",\"id\":\"x\",\"model\":\"m\","
      "\"kind\":\"spin\"}",                            // unknown kind
      "{\"pnp.job.v1\":\"submit\",\"id\":\"x\",\"model\":\"m\","
      "\"ltl\":\"F done\"}",                           // ltl not an array
  };
  for (const char* frame : bad) {
    JobRequest req;
    std::string err;
    EXPECT_FALSE(parse_request(frame, req, &err)) << frame;
    EXPECT_FALSE(err.empty()) << frame;
  }
}

TEST(ServeProto, ControlFrames) {
  JobRequest req;
  std::string err;
  ASSERT_TRUE(parse_request(render_ping(), req, &err)) << err;
  EXPECT_EQ(req.verb, Verb::Ping);
  ASSERT_TRUE(parse_request(render_cancel("j9"), req, &err)) << err;
  EXPECT_EQ(req.verb, Verb::Cancel);
  EXPECT_EQ(req.id, "j9");
}

// -- the job queue ------------------------------------------------------------

Job make_job(std::uint64_t client, const std::string& id) {
  Job job;
  job.client = client;
  job.req.id = id;
  job.req.model_text = "m";
  return job;
}

TEST(ServeQueue, RoundRobinAcrossClientsFifoWithin) {
  JobQueue q(/*memory_budget=*/0, /*default_charge=*/1,
             /*aging_seconds=*/3600.0);
  std::string reason;
  ASSERT_TRUE(q.submit(make_job(1, "a1"), &reason));
  ASSERT_TRUE(q.submit(make_job(1, "a2"), &reason));
  ASSERT_TRUE(q.submit(make_job(1, "a3"), &reason));
  ASSERT_TRUE(q.submit(make_job(2, "b1"), &reason));
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    auto job = q.pop();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->req.id);
    q.release(job->seq);
  }
  // Client 2's one job is served after client 1's first, not after its
  // third -- a bulk submitter cannot starve a light one.
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "a3"}));
}

TEST(ServeQueue, AgedJobsJumpTheRoundRobin) {
  // Aging threshold zero: every queued job is instantly "aged", so the
  // scheduler always picks the globally oldest -- strict arrival order.
  JobQueue q(0, 1, /*aging_seconds=*/0.0);
  std::string reason;
  ASSERT_TRUE(q.submit(make_job(1, "a1"), &reason));
  ASSERT_TRUE(q.submit(make_job(1, "a2"), &reason));
  ASSERT_TRUE(q.submit(make_job(2, "b1"), &reason));
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    auto job = q.pop();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->req.id);
    q.release(job->seq);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "b1"}));
}

TEST(ServeQueue, AdmissionControlRejectsOverBudgetWithReason) {
  JobQueue q(/*memory_budget=*/1000, /*default_charge=*/400, 3600.0);
  std::string reason;
  ASSERT_TRUE(q.submit(make_job(1, "a"), &reason));
  ASSERT_TRUE(q.submit(make_job(2, "b"), &reason));
  EXPECT_EQ(q.charged(), 800u);
  EXPECT_FALSE(q.submit(make_job(3, "c"), &reason));
  EXPECT_NE(reason.find("memory budget exceeded"), std::string::npos);
  // Finishing a job makes room again.
  auto job = q.pop();
  ASSERT_TRUE(job.has_value());
  q.release(job->seq);
  EXPECT_TRUE(q.submit(make_job(3, "c"), &reason)) << reason;
}

TEST(ServeQueue, IdleServerAdmitsOneOverBudgetJob) {
  JobQueue q(1000, 400, 3600.0);
  Job big = make_job(1, "big");
  big.req.explicit_memory = true;
  big.req.config.memory_budget_bytes = 5000;  // alone over the server cap
  std::string reason;
  ASSERT_TRUE(q.submit(std::move(big), &reason)) << reason;
  EXPECT_EQ(q.charged(), 5000u);
  // ...but nothing else fits beside it.
  EXPECT_FALSE(q.submit(make_job(2, "small"), &reason));
}

TEST(ServeQueue, CancelClientDropsQueuedAndFlagsRunning) {
  JobQueue q(0, 1, 3600.0);
  std::string reason;
  ASSERT_TRUE(q.submit(make_job(1, "running"), &reason));
  auto running = q.pop();
  ASSERT_TRUE(running.has_value());
  ASSERT_TRUE(q.submit(make_job(1, "queued"), &reason));
  ASSERT_TRUE(q.submit(make_job(2, "other"), &reason));

  EXPECT_EQ(q.cancel_client(1), 1u);  // one queued job dropped
  EXPECT_TRUE(running->cancel->load());
  EXPECT_EQ(q.depth(), 1u);  // client 2 untouched
  auto other = q.pop();
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->req.id, "other");
  EXPECT_FALSE(other->cancel->load());
}

TEST(ServeQueue, CloseReturnsPendingAndRejectsLaterSubmits) {
  JobQueue q(0, 1, 3600.0);
  std::string reason;
  ASSERT_TRUE(q.submit(make_job(1, "p1"), &reason));
  ASSERT_TRUE(q.submit(make_job(2, "p2"), &reason));
  std::vector<Job> pending = q.close();
  EXPECT_EQ(pending.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.charged(), 0u);
  EXPECT_FALSE(q.submit(make_job(3, "late"), &reason));
  EXPECT_NE(reason.find("draining"), std::string::npos);
  EXPECT_FALSE(q.pop().has_value());
}

// -- the live server -----------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("pnp_serve_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    StopServer();
    fs::remove_all(dir_);
  }

  void StartServer(int workers = 2,
                   std::uint64_t memory_budget = std::uint64_t{4} << 30,
                   std::uint64_t default_job_memory = std::uint64_t{256}
                                                      << 20) {
    ServerOptions o;
    o.socket_path = (dir_ / "pnpd.sock").string();
    o.workers = workers;
    o.memory_budget = memory_budget;
    o.default_job_memory = default_job_memory;
    o.state_dir = (dir_ / "state").string();
    server_ = std::make_unique<Server>(o);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
    run_thread_ = std::thread([this] { server_->run(); });
  }

  void StopServer() {
    if (server_ != nullptr && run_thread_.joinable()) {
      server_->request_stop();
      run_thread_.join();
    }
    server_.reset();
  }

  Client Connect() {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connect_unix((dir_ / "pnpd.sock").string(), &err)) << err;
    return c;
  }

  /// Polls `pred` (on the server stats) until it holds or 30s pass.
  bool WaitForStats(const std::function<bool(const ServerStats&)>& pred) {
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server_->stats())) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }

  std::string ReadLedger() {
    std::ifstream in(server_->ledger_path());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
  std::unique_ptr<Server> server_;
  std::thread run_thread_;
};

TEST_F(ServeTest, VerifiesInlineArchAndStreamsEvents) {
  StartServer();
  Client client = Connect();
  JobRequest req;
  req.id = "demo.arch";
  req.model_text = kDemoArch;
  req.config.end_invariant_text = "delivered == 3";

  Client::Outcome out;
  std::string err;
  std::vector<std::string> kinds;
  ASSERT_TRUE(client.submit_and_wait(req, &out, &err,
                                     [&kinds](const json::Value& ev) {
                                       kinds.push_back(ev.str_or("kind"));
                                     }))
      << err;
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.passed);
  EXPECT_FALSE(out.interrupted);
  EXPECT_GE(out.events, 2u);  // at least run-started + run-finished
  EXPECT_EQ(kinds.front(), "run_started");
  EXPECT_EQ(kinds.back(), "run_finished");
  const json::Value* checks = out.report.get("checks");
  ASSERT_NE(checks, nullptr);
  // Connector protocol + global safety + the requested end-invariant.
  EXPECT_EQ(checks->arr.size(), 3u);
  // The run landed in the shared ledger.
  EXPECT_NE(ReadLedger().find("pnp.run.v1"), std::string::npos);
}

TEST_F(ServeTest, VerifiesPmlSource) {
  StartServer();
  Client client = Connect();
  JobRequest req;
  req.id = "pc.pml";
  req.model_text = kFastPml;
  req.config.invariant_text = "received <= 3";

  Client::Outcome out;
  std::string err;
  ASSERT_TRUE(client.submit_and_wait(req, &out, &err)) << err;
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.passed);
}

TEST_F(ServeTest, SecondClientGetsCacheHits) {
  StartServer();
  JobRequest req;
  req.id = "demo.arch";
  req.model_text = kDemoArch;
  req.config.invariant_text = "delivered <= 3";

  Client first = Connect();
  Client::Outcome cold;
  std::string err;
  ASSERT_TRUE(first.submit_and_wait(req, &cold, &err)) << err;
  EXPECT_TRUE(cold.passed);
  EXPECT_GT(cold.recomputed, 0);
  first.close();

  // A different connection, same model: every obligation answers from the
  // daemon's shared cache.
  Client second = Connect();
  Client::Outcome warm;
  ASSERT_TRUE(second.submit_and_wait(req, &warm, &err)) << err;
  EXPECT_TRUE(warm.passed);
  EXPECT_EQ(warm.cache_hits, cold.recomputed);
  EXPECT_EQ(warm.recomputed, 0);
}

TEST_F(ServeTest, BadModelGetsErrorFrameNotAVerdict) {
  StartServer();
  Client client = Connect();
  JobRequest req;
  req.id = "broken";
  req.model_text = "architecture { this is not adl";
  req.kind = Session::SourceKind::Arch;

  Client::Outcome out;
  std::string err;
  ASSERT_TRUE(client.submit_and_wait(req, &out, &err)) << err;
  EXPECT_TRUE(out.accepted);
  EXPECT_FALSE(out.error.empty());
}

TEST_F(ServeTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  StartServer();
  Client client = Connect();
  std::string err;
  ASSERT_TRUE(client.send_line("this is not a frame", &err)) << err;
  std::string frame;
  ASSERT_TRUE(client.recv_line(&frame, &err)) << err;
  json::Value msg;
  ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
  EXPECT_EQ(msg.str_or(kSchema), "error");
  EXPECT_FALSE(msg.str_or("reason").empty());
  // JSONL framing survived the bad frame: the same connection still works.
  EXPECT_TRUE(client.ping(&err)) << err;
  EXPECT_TRUE(WaitForStats(
      [](const ServerStats& s) { return s.protocol_errors == 1; }));
}

TEST_F(ServeTest, CompiledEngineJobRunsAndUnknownEngineGetsErrorFrame) {
  StartServer();
  Client client = Connect();
  std::string err;
  // An unknown engine value comes back as an error frame and leaves the
  // connection usable (request error, not protocol error).
  ASSERT_TRUE(client.send_line(
                  "{\"pnp.job.v1\":\"submit\",\"id\":\"x\","
                  "\"model\":\"m\",\"engine\":\"jit\"}",
                  &err))
      << err;
  std::string frame;
  ASSERT_TRUE(client.recv_line(&frame, &err)) << err;
  json::Value msg;
  ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
  EXPECT_EQ(msg.str_or(kSchema), "error");
  EXPECT_NE(msg.str_or("reason").find("unknown engine"), std::string::npos)
      << msg.str_or("reason");
  // The same connection then runs a real job under the bytecode engine.
  JobRequest req;
  req.id = "demo.arch";
  req.model_text = kDemoArch;
  req.config.end_invariant_text = "delivered == 3";
  req.config.engine = codegen::EngineKind::Bytecode;
  Client::Outcome out;
  ASSERT_TRUE(client.submit_and_wait(req, &out, &err)) << err;
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.passed);
}

TEST_F(ServeTest, OversizedFrameClosesConnection) {
  StartServer();
  Client client = Connect();
  std::string err;
  // 9 MiB with no newline: past kMaxFrameBytes the server answers with an
  // error frame and hangs up (the framing cannot be resynchronized). The
  // send may also fail part-way once the server resets the connection.
  const std::string blob(std::size_t{9} << 20, 'x');
  (void)client.send_line(blob.substr(0, blob.size() - 1) + "x", &err);
  bool saw_error_frame = false;
  for (;;) {
    std::string frame;
    if (!client.recv_line(&frame, &err)) break;  // EOF: connection closed
    json::Value msg;
    if (json::parse(frame, msg, nullptr) && msg.str_or(kSchema) == "error")
      saw_error_frame = true;
  }
  EXPECT_TRUE(saw_error_frame);
  EXPECT_TRUE(WaitForStats(
      [](const ServerStats& s) { return s.protocol_errors == 1; }));
}

TEST_F(ServeTest, BudgetRejectionWhileBusy) {
  StartServer(/*workers=*/1, /*memory_budget=*/std::uint64_t{300} << 20,
              /*default_job_memory=*/std::uint64_t{256} << 20);
  Client busy = Connect();
  std::string err;
  ASSERT_TRUE(busy.send_line(render_submit(slow_request("slow")), &err))
      << err;
  std::string frame;
  ASSERT_TRUE(busy.recv_line(&frame, &err)) << err;  // accepted
  json::Value msg;
  ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
  ASSERT_EQ(msg.str_or(kSchema), "accepted");

  // 256M (running) + 100M (requested) > 300M: rejected with a reason.
  Client over = Connect();
  JobRequest req;
  req.id = "over";
  req.model_text = kFastPml;
  req.explicit_memory = true;
  req.config.memory_budget_bytes = std::uint64_t{100} << 20;
  Client::Outcome out;
  ASSERT_TRUE(over.submit_and_wait(req, &out, &err)) << err;
  EXPECT_FALSE(out.accepted);  // rejected at the door, never queued
  EXPECT_NE(out.reject_reason.find("memory budget exceeded"),
            std::string::npos)
      << out.reject_reason;
  busy.close();  // cancels the slow job; TearDown drains
}

TEST_F(ServeTest, ClientDisconnectCancelsRunningJob) {
  StartServer(/*workers=*/1);
  {
    Client client = Connect();
    std::string err;
    ASSERT_TRUE(client.send_line(render_submit(slow_request("doomed")), &err))
        << err;
    std::string frame;
    ASSERT_TRUE(client.recv_line(&frame, &err)) << err;  // accepted
    // Wait until the job is genuinely running (its first streamed event),
    // then vanish without saying goodbye.
    ASSERT_TRUE(client.recv_line(&frame, &err)) << err;
  }
  // The reader notices the hangup, flags the job, the engine parks, and
  // the job counts as interrupted -- with its ledger record stamped.
  EXPECT_TRUE(
      WaitForStats([](const ServerStats& s) { return s.interrupted == 1; }));
  EXPECT_NE(ReadLedger().find("interrupted"), std::string::npos);
}

TEST_F(ServeTest, CancelFrameInterruptsRunningJob) {
  StartServer(/*workers=*/1);
  Client client = Connect();
  std::string err;
  ASSERT_TRUE(client.send_line(render_submit(slow_request("target")), &err))
      << err;
  std::string frame;
  ASSERT_TRUE(client.recv_line(&frame, &err)) << err;  // accepted
  ASSERT_TRUE(client.recv_line(&frame, &err)) << err;  // running: first event
  ASSERT_TRUE(client.send_line(render_cancel("target"), &err)) << err;
  // Drain frames until the (interrupted) report for the job arrives.
  bool saw_interrupted_report = false;
  while (client.recv_line(&frame, &err)) {
    json::Value msg;
    ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
    if (msg.str_or(kSchema) == "report") {
      EXPECT_TRUE(msg.bool_or("interrupted"));
      saw_interrupted_report = true;
      break;
    }
  }
  EXPECT_TRUE(saw_interrupted_report);
}

TEST_F(ServeTest, GracefulDrainReportsInterruptedAndRejectsQueued) {
  StartServer(/*workers=*/1);
  Client client = Connect();
  std::string err;
  // Job 1 occupies the one worker; job 2 waits in the queue; job 3 asks
  // for a drain checkpoint.
  JobRequest slow = slow_request("in-flight");
  slow.checkpoint = true;
  ASSERT_TRUE(client.send_line(render_submit(slow), &err)) << err;
  ASSERT_TRUE(client.send_line(render_submit(slow_request("parked")), &err))
      << err;

  // Wait for both accepts and the first event of the running job.
  int accepted = 0;
  bool running = false;
  std::string frame;
  while ((accepted < 2 || !running) && client.recv_line(&frame, &err)) {
    json::Value msg;
    ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
    const std::string verb = msg.str_or(kSchema);
    if (verb == "accepted") ++accepted;
    if (verb == "event" && msg.str_or("id") == "in-flight") running = true;
  }
  ASSERT_EQ(accepted, 2);
  ASSERT_TRUE(running);

  server_->request_stop();

  // The drain must deliver exactly: a rejection for the queued job and an
  // interrupted partial report for the in-flight one -- before hangup.
  bool rejected_parked = false;
  bool interrupted_report = false;
  while (client.recv_line(&frame, &err)) {
    json::Value msg;
    ASSERT_TRUE(json::parse(frame, msg, &err)) << err;
    const std::string verb = msg.str_or(kSchema);
    if (verb == "rejected" && msg.str_or("id") == "parked") {
      EXPECT_NE(msg.str_or("reason").find("draining"), std::string::npos);
      rejected_parked = true;
    }
    if (verb == "report" && msg.str_or("id") == "in-flight") {
      EXPECT_TRUE(msg.bool_or("interrupted"));
      interrupted_report = true;
    }
  }
  EXPECT_TRUE(rejected_parked);
  EXPECT_TRUE(interrupted_report);

  run_thread_.join();
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.interrupted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  // checkpoint=true on the drained job: the engine wrote a pnp.ckpt.v1
  // snapshot under the server state dir on its way out.
  const fs::path ckpt = dir_ / "state" / "ckpt" / "in-flight";
  EXPECT_TRUE(fs::exists(ckpt) && !fs::is_empty(ckpt));
  // The interrupted run still produced a clean, complete ledger record.
  EXPECT_NE(ReadLedger().find("interrupted"), std::string::npos);
  server_.reset();
}

}  // namespace
}  // namespace pnp::serve
