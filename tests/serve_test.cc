/**
 * @file
 * Tests for the serving front-end: the line protocol (parse/render
 * round trips, malformed input), and the TCP server — N concurrent
 * clients receiving answers byte-identical to blocking ask() across
 * all three retrievers with the shared retrieval cache on, admission
 * control rejecting past capacity with a typed overloaded frame, a
 * deliberately slow consumer exercising channel backpressure without
 * stalling other sessions, and a mid-stream disconnect cancelling the
 * in-flight retrieval (TSan-covered). Also pins the engine-level
 * serving satellites: the persistent askStream worker pool and the
 * cooperative cancellation token.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/stopwatch.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "core/stream.hh"
#include "core/worker_pool.hh"
#include "db/builder.hh"
#include "obs/trace.hh"
#include "retrieval/context.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace cachemind;
using namespace cachemind::core;
using namespace cachemind::serve;

namespace {

const db::TraceDatabase &
sharedDb()
{
    static const db::TraceDatabase database = [] {
        db::BuildOptions options;
        options.workloads = {trace::WorkloadKind::Astar};
        options.policies = {policy::PolicyKind::Lru,
                            policy::PolicyKind::Belady};
        options.accesses_override = 30000;
        return db::buildDatabase(options);
    }();
    return database;
}

std::vector<std::string>
suiteQuestions()
{
    const auto *entry = sharedDb().find("astar_evictions_lru");
    const std::uint64_t pc = entry->table.pcAt(0);
    return {
        "What is the miss rate for PC " + str::hex(pc) +
            " in the astar workload with LRU?",
        "Which policy has the lowest miss rate in the astar workload?",
        "How many times did PC " + str::hex(pc) +
            " appear in the astar workload under LRU?",
        "Why does Belady outperform LRU in the astar workload?",
    };
}

/** Frames collected for one ask request. */
struct AskResult
{
    std::vector<std::string> kinds;
    std::string deltas;
    std::string answer;
    bool done = false;
};

/** Drive one ask over an open connection and collect its frames. */
AskResult
askOver(LineClient &client, const std::string &id,
        const std::string &question, const std::string &retriever)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = id;
    req.question = question;
    req.retriever = retriever;
    AskResult out;
    if (!client.sendLine(renderRequest(req)))
        return out;
    while (auto line = client.recvLine()) {
        const auto frame = parseJsonObject(*line);
        if (!frame.has_value())
            return out; // malformed frame: fail the assertions below
        const auto kind = frame->at("frame");
        out.kinds.push_back(kind);
        if (kind == "delta")
            out.deltas += frame->at("text");
        if (kind == "done") {
            out.answer = frame->at("answer");
            out.done = true;
            return out;
        }
        if (kind == "error" || kind == "overloaded")
            return out;
    }
    return out;
}

/** Read frames until (and including) the hello banner. */
bool
expectHello(LineClient &client)
{
    const auto line = client.recvLine();
    if (!line)
        return false;
    const auto frame = parseJsonObject(*line);
    return frame.has_value() && frame->at("frame") == "hello";
}

} // namespace

// --------------------------------------------------------------- protocol

TEST(ProtocolTest, RequestRoundTripsThroughRenderAndParse)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = "42";
    req.question = "Why \"quoted\"\nand newlined?";
    req.retriever = "ranger";
    req.backend = "o3";
    req.params["fidelity"] = "0.6";
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Ask);
    EXPECT_EQ(parsed->id, "42");
    EXPECT_EQ(parsed->question, req.question);
    EXPECT_EQ(parsed->retriever, "ranger");
    EXPECT_EQ(parsed->backend, "o3");
    ASSERT_EQ(parsed->params.size(), 1u);
    EXPECT_EQ(parsed->params.at("fidelity"), "0.6");
}

TEST(ProtocolTest, MalformedLinesAreRejectedWithAReason)
{
    for (const char *bad :
         {"", "not json", "{\"op\":\"ask\"", "{\"op\":\"launch\"}",
          "{\"op\":\"ask\"}", "{\"op\":\"ask\",\"question\":\"x\"} ho",
          "[1,2]", "{\"op\":\"ask\",\"q\":{\"deep\":{\"er\":1}}}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(ProtocolTest, DeadlineFieldRoundTripsAndRejectsGarbage)
{
    Request req;
    req.op = Request::Op::Ask;
    req.id = "9";
    req.question = "how slow?";
    req.deadline_ms = 250.0;
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->deadline_ms, 250.0);

    // Absent field = 0 (server default applies).
    const auto bare =
        parseRequest("{\"op\":\"ask\",\"question\":\"q\"}");
    ASSERT_TRUE(bare.has_value());
    EXPECT_DOUBLE_EQ(bare->deadline_ms, 0.0);

    // Non-numeric and negative deadlines are rejected, not ignored.
    for (const char *bad :
         {"{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":\"soon\"}",
          "{\"op\":\"ask\",\"question\":\"q\",\"deadline_ms\":-5}"}) {
        std::string why;
        EXPECT_FALSE(parseRequest(bad, &why).has_value()) << bad;
        EXPECT_NE(why.find("deadline_ms"), std::string::npos) << why;
    }
}

TEST(ProtocolTest, FailpointsRequestRoundTrips)
{
    Request req;
    req.op = Request::Op::Failpoints;
    req.id = "fp";
    req.failpoint_spec = "serve.read=drop@0.05,db.index_build=error#1";
    const auto parsed = parseRequest(renderRequest(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Failpoints);
    EXPECT_EQ(parsed->failpoint_spec, req.failpoint_spec);
}

TEST(ProtocolTest, RobustnessFramesParseBack)
{
    const auto cut = parseJsonObject(deadlineExceededFrame("3", 150.0));
    ASSERT_TRUE(cut.has_value());
    EXPECT_EQ(cut->at("frame"), "deadline_exceeded");
    EXPECT_EQ(cut->at("id"), "3");
    EXPECT_EQ(cut->at("deadline_ms"), "150");

    const auto armed = parseJsonObject(failpointsFrame("4", 2));
    ASSERT_TRUE(armed.has_value());
    EXPECT_EQ(armed->at("frame"), "failpoints");
    EXPECT_EQ(armed->at("armed"), "2");
}

TEST(ProtocolTest, EventFramesParseBackWithEscapedPayloads)
{
    StreamEvent event;
    event.kind = StreamEvent::Kind::EvidenceChunk;
    event.label = "slice";
    event.text = "line one\nline \"two\"\ttabbed\\end";
    const auto frame = parseJsonObject(eventFrame("7", event));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "evidence");
    EXPECT_EQ(frame->at("id"), "7");
    EXPECT_EQ(frame->at("label"), "slice");
    EXPECT_EQ(frame->at("text"), event.text);
}

// ------------------------------------------------------------ worker pool

TEST(WorkerPoolTest, RunsEveryJobIncludingQueuedAtDestruction)
{
    std::atomic<int> ran{0};
    {
        WorkerPool pool(2);
        EXPECT_EQ(pool.threadsStarted(), 0u); // lazy: no work yet
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ++ran; });
        EXPECT_LE(pool.threadsStarted(), 2u);
    } // destructor drains the queue
    EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPoolTest, ReusesAParkedThreadAcrossSequentialJobs)
{
    WorkerPool pool(4);
    for (int i = 0; i < 16; ++i) {
        std::atomic<bool> done{false};
        pool.submit([&] { done.store(true); });
        while (!done.load())
            std::this_thread::yield();
    }
    // Sequential jobs never overlap, so the lazy pool should have
    // parked and reused one thread instead of growing toward its cap.
    EXPECT_EQ(pool.threadsStarted(), 1u);
}

TEST(WorkerPoolTest, BurstAfterAParkedWorkerRunsEveryJobAtOnce)
{
    // One parked worker, then three jobs that can only finish
    // together. The parked worker takes one of them; the pool must
    // start threads for the other two even though that worker still
    // counts as idle until it wakes.
    WorkerPool pool(4);
    std::atomic<bool> warm{false};
    pool.submit([&] { warm.store(true); });
    while (!warm.load())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20)); // park
    ASSERT_EQ(pool.threadsStarted(), 1u);

    constexpr int kJobs = 3;
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0, met = 0, finished = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (int j = 0; j < kJobs; ++j) {
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            if (cv.wait_until(lock, deadline,
                              [&] { return arrived == kJobs; }))
                ++met;
            ++finished;
            cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return finished == kJobs; });
    EXPECT_EQ(met, kJobs);
}

TEST(WorkerPoolTest, ForEachRunsIndexZeroInlineAndRethrows)
{
    WorkerPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> hits(5, 0);
    pool.forEach(hits.size(), [&](std::size_t i) {
        if (i == 0) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
        }
        ++hits[i];
    });
    EXPECT_EQ(hits, std::vector<int>(5, 1));

    WorkerPool idle(2);
    idle.forEach(1, [](std::size_t) {}); // inline: starts no thread
    EXPECT_EQ(idle.threadsStarted(), 0u);

    // Every job finishes before the first exception is rethrown, and
    // the workers survive it.
    for (int round = 0; round < 2; ++round) {
        std::atomic<int> ran{0};
        EXPECT_THROW(pool.forEach(4,
                                  [&](std::size_t i) {
                                      ++ran;
                                      if (i == 2)
                                          throw std::runtime_error("job");
                                  }),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 4);
    }
}

TEST(AskStreamTest, SequentialStreamsReuseThePersistentWorker)
{
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("sieve")
                      .build()
                      .expect("engine");
    const auto questions = suiteQuestions();
    for (int round = 0; round < 3; ++round) {
        auto stream =
            engine.askStream(RequestContext(questions[0])).expect("stream");
        const Response r = stream.wait();
        EXPECT_FALSE(r.text.empty());
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.streams, 3u);
    // Warm-up ran exactly once and is reported separately from the
    // per-stream time-to-first-event percentiles.
    EXPECT_EQ(stats.stream.warmups, 1u);
    EXPECT_GE(stats.stream.warmup_ms_total, 0.0);
}

// -------------------------------------------------------- cancellation

namespace {

/** Sink whose cancellation token trips after N emitted sections. */
class TrippingSink final : public retrieval::EvidenceSink
{
  public:
    explicit TrippingSink(int allowed) : allowed_(allowed) {}

    void
    emit(const std::string &, const std::string &) override
    {
        ++emitted_;
    }

    bool
    cancelled() const override
    {
        return emitted_ >= allowed_;
    }

    int emitted() const { return emitted_; }

  private:
    int allowed_;
    int emitted_ = 0;
};

} // namespace

TEST(CancellationTest, RetrieversAbandonWorkWhenTheTokenTrips)
{
    // All three retrievers must poll the token between sections and
    // unwind with StreamCancelled instead of finishing the bundle.
    const auto questions = suiteQuestions();
    for (const char *name : {"sieve", "ranger", "llamaindex"}) {
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(name)
                          .build()
                          .expect(name);
        const auto parsed = engine.parser().parse(questions[0]);
        TrippingSink sink(1);
        EXPECT_THROW(engine.retriever().retrieveParsed(parsed, sink),
                     retrieval::StreamCancelled)
            << name;
        EXPECT_GE(sink.emitted(), 1) << name;
    }
}

TEST(CancellationTest, CancelledStreamIsCountedAndEngineStaysUsable)
{
    // A paced stream cancelled after its first delta must be recorded
    // as cancelled (no latency sample) and leave the engine healthy.
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("sieve")
                      .withStreamBuffer(1)
                      .withTokensPerSecond(50.0)
                      .build()
                      .expect("engine");
    const auto questions = suiteQuestions();
    {
        auto stream =
            engine.askStream(RequestContext(questions[3])).expect("stream");
        while (auto event = stream.next()) {
            if (event->kind == StreamEvent::Kind::AnswerDelta)
                break;
        }
        stream.cancel();
    }
    // cancel() waited for the pipeline job to retire, so the counter
    // is already final.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.cancelled, 1u);
    EXPECT_EQ(stats.questions, 0u); // no latency sample recorded
    auto result = engine.ask(RequestContext(questions[0]));
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().text.empty());
}

// ------------------------------------------------------------- pacing

TEST(PacingTest, TokensPerSecondPacesDeltasWithoutChangingBytes)
{
    const auto questions = suiteQuestions();
    auto unpaced = CacheMind::Builder(sharedDb())
                       .withRetriever("sieve")
                       .build()
                       .expect("unpaced");
    auto paced = CacheMind::Builder(sharedDb())
                     .withRetriever("sieve")
                     .withTokensPerSecond(2000.0)
                     .build()
                     .expect("paced");
    const std::string expected =
        unpaced.ask(RequestContext(questions[3])).expect("ask").text;

    auto stream =
        paced.askStream(RequestContext(questions[3])).expect("stream");
    std::string deltas;
    std::size_t delta_events = 0;
    Stopwatch timer;
    std::optional<Response> done;
    while (auto event = stream.next()) {
        if (event->kind == StreamEvent::Kind::AnswerDelta) {
            deltas += event->text;
            ++delta_events;
        }
        if (event->kind == StreamEvent::Kind::Done)
            done = *event->response;
    }
    ASSERT_TRUE(done.has_value());
    // Byte identity: pacing changes timing only.
    EXPECT_EQ(done->text, expected);
    EXPECT_EQ(deltas, expected);
    if (delta_events > 1) {
        // Lower bound on the pacing sleeps: every delta after the
        // first waits >= 1 token / 2000 tps = 0.5ms.
        const double floor_ms =
            0.5 * static_cast<double>(delta_events - 1);
        EXPECT_GE(timer.milliseconds(), floor_ms);
    }
}

// ------------------------------------------------------------- serving

TEST(ServerTest, PingStatsAndMalformedLines)
{
    ServeOptions opts;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\",\"id\":\"p1\"}"));
    auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "pong");
    EXPECT_EQ(frame->at("id"), "p1");

    ASSERT_TRUE(client.sendLine("this is not json"));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");

    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\",\"id\":\"s1\"}"));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "stats");
    EXPECT_EQ(frame->at("accepted"), "1");
    EXPECT_EQ(frame->at("malformed"), "1");

    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.malformed, 1u);
    server.stop();
}

TEST(ServerTest, ConcurrentClientsMatchBlockingAskAllRetrievers)
{
    // The acceptance bar: 32 concurrent clients, three retrievers,
    // shared retrieval cache on — every streamed answer (and the
    // concatenation of its deltas) byte-identical to blocking ask().
    constexpr std::size_t kClients = 32;
    const char *retrievers[] = {"sieve", "ranger", "llamaindex"};
    const auto questions = suiteQuestions();

    // Blocking references, one engine per retriever.
    std::map<std::string, std::vector<std::string>> expected;
    for (const char *name : retrievers) {
        auto engine = CacheMind::Builder(sharedDb())
                          .withRetriever(name)
                          .build()
                          .expect(name);
        for (const auto &q : questions)
            expected[name].push_back(
                engine.ask(RequestContext(q)).expect("ask").text);
    }

    ServeOptions opts;
    opts.max_sessions = kClients;
    opts.max_engines_per_key = 2;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const std::string retriever = retrievers[c % 3];
            LineClient client;
            if (!client.connect("127.0.0.1", server.port()) ||
                !expectHello(client)) {
                ++failures;
                return;
            }
            for (std::size_t q = 0; q < questions.size(); ++q) {
                const std::size_t qi = (c + q) % questions.size();
                const auto got =
                    askOver(client, std::to_string(c) + "-" +
                                        std::to_string(q),
                            questions[qi], retriever);
                if (!got.done) {
                    ++failures;
                    return;
                }
                if (got.answer != expected[retriever][qi] ||
                    got.deltas != expected[retriever][qi])
                    ++mismatches;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);

    // A session records completion after writing the done frame, so
    // clients can observe their answers slightly before the counter
    // settles — poll the snapshot.
    ServeStats stats = server.stats();
    for (int i = 0;
         i < 500 && stats.completed < kClients * questions.size();
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stats = server.stats();
    }
    EXPECT_EQ(stats.accepted, kClients);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, kClients * questions.size());
    // All three retrievers really served, with TTFE/TTLB recorded.
    for (const char *name : retrievers) {
        ASSERT_TRUE(stats.by_retriever.count(name)) << name;
        EXPECT_GT(stats.by_retriever.at(name).asks, 0u) << name;
        EXPECT_GE(stats.by_retriever.at(name).ttlb_p50_ms,
                  stats.by_retriever.at(name).ttfe_p50_ms)
            << name;
    }
    // The shared cache coalesced repeated questions across sessions.
    EXPECT_GT(stats.engine.cache.hits, 0u);
    server.stop();
}

TEST(ServerTest, LeaseReleasesWakeWaitersOnTheReleasedKey)
{
    // Regression: with one condvar shared across pool keys and
    // notify_one, a release on key A could wake a waiter queued on
    // key B, which re-checks its own predicate and sleeps again —
    // the waiter on key A then hangs forever beside a parked idle
    // engine. Per-key condvars must keep every session completing
    // with more waiters than engines on each of two distinct keys.
    ServeOptions opts;
    opts.max_engines_per_key = 1;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    constexpr int kClientsPerKey = 4;
    const char *retrievers[] = {"sieve", "ranger"};
    std::atomic<int> done_count{0};
    std::vector<std::thread> clients;
    for (const char *name : retrievers) {
        for (int c = 0; c < kClientsPerKey; ++c) {
            clients.emplace_back([&, name, c] {
                LineClient client;
                if (!client.connect("127.0.0.1", server.port()) ||
                    !expectHello(client))
                    return;
                for (int q = 0; q < 2; ++q) {
                    const auto got = askOver(
                        client,
                        std::string(name) + "-" + std::to_string(c) +
                            "-" + std::to_string(q),
                        questions[(c + q) % questions.size()], name);
                    if (!got.done)
                        return;
                }
                ++done_count;
            });
        }
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(done_count.load(), 2 * kClientsPerKey);
    server.stop();
}

TEST(ServerTest, OversizedRequestLineGetsErrorFrameAndClose)
{
    // A client that streams bytes past the request-line cap (newline
    // or not) must get a typed bad-request frame and a closed
    // connection, not an unboundedly growing session buffer.
    ServeOptions opts;
    opts.max_request_bytes = 4096;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    ASSERT_TRUE(client.sendLine(std::string(64 * 1024, 'a')));

    const auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "error");
    EXPECT_EQ(frame->at("code"), "bad-request");
    EXPECT_FALSE(client.recvLine().has_value()); // server closed it

    EXPECT_GE(server.stats().malformed, 1u);

    // The slot freed by the closed session is reusable.
    LineClient again;
    ASSERT_TRUE(again.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(again));
    const auto got = askOver(again, "ok", suiteQuestions()[0], "sieve");
    EXPECT_TRUE(got.done);
    server.stop();
}

TEST(ServerTest, AdmissionControlRejectsWithTypedOverloadedFrame)
{
    ServeOptions opts;
    opts.max_sessions = 2;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(a)); // hello => the session is admitted
    ASSERT_TRUE(b.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(b));

    LineClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(c));
    auto line = c.recvLine();
    ASSERT_TRUE(line.has_value());
    const auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "overloaded");
    EXPECT_EQ(frame->at("limit"), "2");
    EXPECT_FALSE(c.recvLine().has_value()); // server closed it

    // An admitted session still serves normally while the server is
    // at its limit.
    const auto got =
        askOver(a, "1", suiteQuestions()[0], "sieve");
    EXPECT_TRUE(got.done);

    // Capacity frees once a session disconnects.
    b.close();
    const auto stats_after = [&] {
        for (int i = 0; i < 200; ++i) {
            LineClient d;
            if (d.connect("127.0.0.1", server.port()) &&
                expectHello(d)) {
                Request ping;
                ping.op = Request::Op::Ping;
                ping.id = "again";
                if (d.sendLine(renderRequest(ping))) {
                    const auto pong = d.recvLine();
                    if (pong) {
                        const auto f = parseJsonObject(*pong);
                        if (f && f->at("frame") == "pong")
                            return true;
                    }
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }();
    EXPECT_TRUE(stats_after);

    EXPECT_GE(server.stats().rejected, 1u);
    server.stop();
}

TEST(ServerTest, SlowConsumerDoesNotStallOtherSessions)
{
    // The slow session's paced, tiny-buffered stream must stall only
    // its own pipeline worker: a concurrent fast session (separate
    // engine lease) completes while the slow one is still dribbling.
    ServeOptions opts;
    opts.stream_buffer = 1;
    opts.tokens_per_second = 150.0; // slow decode => long stream
    opts.session_send_buffer = 1024;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    LineClient slow;
    ASSERT_TRUE(slow.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(slow));
    Request req;
    req.op = Request::Op::Ask;
    req.id = "slow";
    req.question = questions[3];
    req.retriever = "sieve";
    ASSERT_TRUE(slow.sendLine(renderRequest(req)));
    // Do not read the slow stream yet: its channel and socket buffer
    // fill, and its pipeline worker parks on backpressure.

    std::atomic<bool> fast_done{false};
    std::thread fast([&] {
        LineClient client;
        if (!client.connect("127.0.0.1", server.port()) ||
            !expectHello(client))
            return;
        const auto got = askOver(client, "fast", questions[0], "sieve");
        fast_done.store(got.done);
    });
    fast.join();
    EXPECT_TRUE(fast_done.load());

    // The slow stream still delivers everything, in order, complete.
    AskResult slow_result;
    while (auto line = slow.recvLine()) {
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        if (frame->at("frame") == "delta")
            slow_result.deltas += frame->at("text");
        if (frame->at("frame") == "done") {
            slow_result.answer = frame->at("answer");
            slow_result.done = true;
            break;
        }
    }
    EXPECT_TRUE(slow_result.done);
    EXPECT_EQ(slow_result.deltas, slow_result.answer);
    server.stop();
}

TEST(ServerTest, MidStreamDisconnectCancelsRetrievalWork)
{
    ServeOptions opts;
    opts.stream_buffer = 1;
    opts.tokens_per_second = 100.0; // keep the stream alive for long
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());
    const auto questions = suiteQuestions();

    {
        LineClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_TRUE(expectHello(client));
        Request req;
        req.op = Request::Op::Ask;
        req.id = "gone";
        req.question = questions[3];
        req.retriever = "sieve";
        ASSERT_TRUE(client.sendLine(renderRequest(req)));
        // Read to the first answer delta, then vanish mid-stream.
        while (auto line = client.recvLine()) {
            const auto frame = parseJsonObject(*line);
            ASSERT_TRUE(frame.has_value());
            if (frame->at("frame") == "delta")
                break;
        }
        client.close();
    }

    // The dead client surfaces on the session's next write; the
    // session cancels the stream and the engine records it.
    bool cancelled = false;
    for (int i = 0; i < 500 && !cancelled; ++i) {
        const auto stats = server.stats();
        cancelled = stats.cancelled >= 1 &&
                    stats.engine.stream.cancelled >= 1;
        if (!cancelled)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(cancelled);

    // The server (and the now-released engine lease) stays healthy.
    LineClient again;
    ASSERT_TRUE(again.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(again));
    const auto got = askOver(again, "after", questions[0], "sieve");
    EXPECT_TRUE(got.done);
    server.stop();
}

// ------------------------------------------------- protocol v1.1

TEST(ProtocolTest, RequestIdAndTraceRequestsRoundTrip)
{
    // The hello banner advertises the request_id-capable protocol.
    EXPECT_NE(helloFrame().find("\"proto\":\"1.1\""),
              std::string::npos);

    Request ask;
    ask.op = Request::Op::Ask;
    ask.id = "7";
    ask.question = "why?";
    ask.request_id = "req \"42\"";
    auto parsed = parseRequest(renderRequest(ask));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Ask);
    EXPECT_EQ(parsed->request_id, "req \"42\"");

    Request by_id;
    by_id.op = Request::Op::Trace;
    by_id.id = "8";
    by_id.request_id = "req-42";
    parsed = parseRequest(renderRequest(by_id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, Request::Op::Trace);
    EXPECT_EQ(parsed->request_id, "req-42");

    Request recent;
    recent.op = Request::Op::Trace;
    recent.id = "9";
    recent.trace_last = 4;
    recent.trace_filter = "bad";
    parsed = parseRequest(renderRequest(recent));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->trace_last, 4u);
    EXPECT_EQ(parsed->trace_filter, "bad");

    // Garbage "last" values are rejected, not ignored.
    std::string why;
    EXPECT_FALSE(
        parseRequest("{\"op\":\"trace\",\"last\":\"many\"}", &why)
            .has_value());
    EXPECT_NE(why.find("last"), std::string::npos);
}

TEST(ProtocolTest, FramesEchoRequestIdOnlyWhenPresent)
{
    // v1.0 callers (empty request_id) get the historical wire format.
    EXPECT_EQ(errorFrame("1", "c", "m").find("request_id"),
              std::string::npos);
    core::StreamEvent delta;
    delta.kind = core::StreamEvent::Kind::AnswerDelta;
    delta.text = "x";
    EXPECT_EQ(eventFrame("1", delta).find("request_id"),
              std::string::npos);

    // v1.1 callers see it on every per-request frame.
    for (const std::string &frame :
         {eventFrame("1", delta, "req-1"),
          errorFrame("1", "c", "m", "req-1"),
          overloadedFrame("1", 4, "req-1"),
          deadlineExceededFrame("1", 50.0, "req-1")}) {
        const auto fields = parseJsonObject(frame);
        ASSERT_TRUE(fields.has_value()) << frame;
        EXPECT_EQ(fields->at("request_id"), "req-1") << frame;
    }

    const auto trace = parseJsonObject(traceFrame("2", 3, "a\nb"));
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->at("frame"), "trace");
    EXPECT_EQ(trace->at("found"), "3");
    EXPECT_EQ(trace->at("traces"), "a\nb");
}

TEST(ServerTest, RequestIdEchoedAndTraceVerbReturnsSpanTree)
{
    obs::TraceStore::instance().clear();
    ServeOptions opts;
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));

    // An ask carrying a request_id: every frame echoes it, and the
    // request is traced server-side.
    Request req;
    req.op = Request::Op::Ask;
    req.id = "1";
    req.question = suiteQuestions()[0];
    req.request_id = "req-e2e";
    ASSERT_TRUE(client.sendLine(renderRequest(req)));
    bool done = false;
    std::size_t frames = 0;
    while (!done) {
        const auto line = client.recvLine();
        ASSERT_TRUE(line.has_value());
        const auto frame = parseJsonObject(*line);
        ASSERT_TRUE(frame.has_value());
        ASSERT_EQ(frame->count("request_id"), 1u) << *line;
        EXPECT_EQ(frame->at("request_id"), "req-e2e");
        ++frames;
        done = frame->at("frame") == "done";
    }
    EXPECT_GE(frames, 3u); // parsed, planned, ..., done

    // The trace verb keyed by the same id returns the span tree:
    // serve-side spans wrapping the engine's pipeline stages.
    Request fetch;
    fetch.op = Request::Op::Trace;
    fetch.id = "2";
    fetch.request_id = "req-e2e";
    ASSERT_TRUE(client.sendLine(renderRequest(fetch)));
    auto line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    auto frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("frame"), "trace");
    EXPECT_EQ(frame->at("found"), "1");
    const std::string text = frame->at("traces");
    EXPECT_NE(text.find("[req-e2e outcome=done]"), std::string::npos);
    for (const char *span : {"serve.ask", "lease", "write", "ask",
                             "parse", "plan", "retrieve", "section:",
                             "generate"})
        EXPECT_NE(text.find(span), std::string::npos) << span;

    // An id the store has never seen: found=0, empty text.
    fetch.id = "3";
    fetch.request_id = "no-such-request";
    ASSERT_TRUE(client.sendLine(renderRequest(fetch)));
    line = client.recvLine();
    ASSERT_TRUE(line.has_value());
    frame = parseJsonObject(*line);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->at("found"), "0");

    // Untraced asks (no request_id, sampling off) echo nothing and
    // record nothing.
    const auto before = obs::TraceStore::instance().recorded();
    const auto got = askOver(client, "4", suiteQuestions()[1], "");
    EXPECT_TRUE(got.done);
    EXPECT_EQ(obs::TraceStore::instance().recorded(), before);
    server.stop();
}

TEST(ServerTest, TraceSamplingTracesUnlabelledAsks)
{
    obs::TraceStore::instance().clear();
    ServeOptions opts;
    opts.trace_sample_every = 2; // asks 0, 2, 4, ... are traced
    Server server(sharedDb(), opts);
    ASSERT_TRUE(server.start());

    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(expectHello(client));
    for (int i = 0; i < 4; ++i) {
        const auto got =
            askOver(client, std::to_string(i), suiteQuestions()[0], "");
        ASSERT_TRUE(got.done);
    }

    // Asks 0 and 2 were sampled under synthesized ids.
    const auto recent = obs::TraceStore::instance().recent(8);
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_EQ(recent[0]->requestId(), "sampled-2");
    EXPECT_EQ(recent[1]->requestId(), "sampled-0");
    EXPECT_EQ(recent[0]->outcome(), "done");
    server.stop();
}
