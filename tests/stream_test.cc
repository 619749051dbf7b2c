/**
 * @file
 * Tests for the async streaming answer subsystem: the bounded MPSC
 * StreamChannel (ordering, backpressure, cancellation, and a
 * TSan-covered many-producer hammer), delta splitting, and the
 * askStream/askBatchStream pipeline — event ordering, byte-identity
 * of the terminal Done answer with blocking ask() across all three
 * retrievers with the retrieval cache on and off, evidence streaming
 * on cache hits, the streaming statistics counters, and the one
 * worker pool askStream, askBatch and askBatchStream share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/failpoint.hh"
#include "base/str.hh"
#include "core/cachemind.hh"
#include "core/stream.hh"
#include "db/builder.hh"
#include "llm/generator.hh"
#include "retrieval/cache.hh"
#include "retrieval/registry.hh"

using namespace cachemind;
using namespace cachemind::core;

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

/** A spread of intents exercising retrieval, stats, and reasoning. */
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

/** The same questions as plain requests (no deadline, no trace). */
std::vector<RequestContext>
suiteRequests()
{
    const auto questions = suiteQuestions();
    return {questions.begin(), questions.end()};
}

CacheMind
engineWith(const std::string &retriever, std::size_t cache_capacity)
{
    return CacheMind::Builder(sharedDb())
        .withRetriever(retriever)
        .withRetrievalCacheCapacity(cache_capacity)
        .build()
        .expect("stream test engine");
}

/** Drain a stream, returning every event in arrival order. */
std::vector<StreamEvent>
drain(AnswerStream &stream)
{
    std::vector<StreamEvent> events;
    while (auto event = stream.next())
        events.push_back(std::move(*event));
    return events;
}

} // namespace

// ---------------------------------------------------------------- channel

TEST(StreamChannelTest, DeliversEventsInOrder)
{
    StreamChannel channel(8);
    channel.setProducers(1);
    for (std::size_t i = 0; i < 5; ++i) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::AnswerDelta;
        event.text = std::to_string(i);
        ASSERT_TRUE(channel.push(std::move(event)));
    }
    channel.producerDone();
    for (std::size_t i = 0; i < 5; ++i) {
        auto event = channel.pop();
        ASSERT_TRUE(event.has_value());
        EXPECT_EQ(event->text, std::to_string(i));
    }
    EXPECT_FALSE(channel.pop().has_value());
    EXPECT_TRUE(channel.closed());
}

TEST(StreamChannelTest, BackpressureBoundsTheBufferAndLosesNothing)
{
    constexpr std::size_t kEvents = 500;
    StreamChannel channel(2);
    channel.setProducers(1);
    std::thread producer([&] {
        for (std::size_t i = 0; i < kEvents; ++i) {
            StreamEvent event;
            event.kind = StreamEvent::Kind::AnswerDelta;
            event.question = i;
            ASSERT_TRUE(channel.push(std::move(event)));
        }
        channel.producerDone();
    });
    std::size_t received = 0;
    while (auto event = channel.pop()) {
        EXPECT_EQ(event->question, received);
        ++received;
    }
    producer.join();
    EXPECT_EQ(received, kEvents);
    EXPECT_EQ(channel.pushed(), kEvents);
}

TEST(StreamChannelTest, ManyProducerHammer)
{
    // TSan-covered: N producers racing into a tiny buffer against one
    // consumer — the askBatchStream topology at its most contended.
    constexpr std::size_t kProducers = 8;
    constexpr std::size_t kPerProducer = 200;
    StreamChannel channel(4);
    channel.setProducers(kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                StreamEvent event;
                event.kind = StreamEvent::Kind::EvidenceChunk;
                event.question = p;
                event.text = std::to_string(i);
                ASSERT_TRUE(channel.push(std::move(event)));
            }
            channel.producerDone();
        });
    }
    std::map<std::size_t, std::size_t> next_per_producer;
    std::size_t received = 0;
    while (auto event = channel.pop()) {
        // Per-producer FIFO: each producer's events arrive in the
        // order it pushed them, whatever the interleaving.
        EXPECT_EQ(std::stoul(event->text),
                  next_per_producer[event->question]++);
        ++received;
    }
    for (auto &t : producers)
        t.join();
    EXPECT_EQ(received, kProducers * kPerProducer);
    EXPECT_TRUE(channel.closed());
}

TEST(StreamChannelTest, TryPopNeverBlocks)
{
    StreamChannel channel(4);
    channel.setProducers(1);
    EXPECT_FALSE(channel.tryPop().has_value());
    StreamEvent event;
    event.kind = StreamEvent::Kind::Planned;
    event.cache_key = "k";
    ASSERT_TRUE(channel.push(std::move(event)));
    auto popped = channel.tryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->cache_key, "k");
    EXPECT_FALSE(channel.tryPop().has_value());
    channel.producerDone();
}

TEST(StreamChannelTest, ExplicitCloseDrainsThenRefusesPushes)
{
    StreamChannel channel(4);
    StreamEvent event;
    event.kind = StreamEvent::Kind::AnswerDelta;
    event.text = "buffered";
    ASSERT_TRUE(channel.push(std::move(event)));
    channel.close();
    EXPECT_TRUE(channel.closed());
    // Buffered events drain after close; new pushes are refused.
    EXPECT_FALSE(channel.push(StreamEvent{}));
    auto popped = channel.pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->text, "buffered");
    EXPECT_FALSE(channel.pop().has_value());
}

TEST(StreamChannelTest, KindNamesAreStable)
{
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Parsed),
                 "parsed");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Planned),
                 "planned");
    EXPECT_STREQ(
        streamEventKindName(StreamEvent::Kind::EvidenceChunk),
        "evidence");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::AnswerDelta),
                 "delta");
    EXPECT_STREQ(streamEventKindName(StreamEvent::Kind::Done),
                 "done");
}

TEST(StreamChannelTest, CancelUnblocksAndDropsProducers)
{
    StreamChannel channel(1);
    channel.setProducers(1);
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < 50; ++i) {
            StreamEvent event;
            if (channel.push(std::move(event)))
                ++accepted;
            else
                ++rejected;
        }
        channel.producerDone();
    });
    // Consume one event, then walk away: the producer must not block
    // on the full buffer forever.
    ASSERT_TRUE(channel.pop().has_value());
    channel.cancel();
    producer.join();
    EXPECT_GT(rejected.load(), 0);
    EXPECT_FALSE(channel.pop().has_value());
}

TEST(StreamDeltaTest, SplitAnswerDeltasIsLossless)
{
    const std::vector<std::string> cases = {
        "",
        "short",
        "A sentence that is longer than one fragment target and "
        "therefore must be split into several streamed deltas, each "
        "breaking after whitespace so words stay intact.",
        std::string(500, 'x'), // no break points at all
        "prefix " + std::string(150, 'y') + " suffix",
        "trailing space ",
    };
    for (const auto &text : cases) {
        const auto deltas = llm::splitAnswerDeltas(text);
        std::string joined;
        for (const auto &delta : deltas) {
            EXPECT_FALSE(delta.empty());
            // Fragments never exceed twice the target size, even
            // with no whitespace break points at all.
            EXPECT_LE(delta.size(), 96u);
            joined += delta;
        }
        EXPECT_EQ(joined, text);
        if (text.empty()) {
            EXPECT_TRUE(deltas.empty());
        }
    }
}

TEST(StreamCacheTest, PeekAndPublishPopulateWithoutBlocking)
{
    // The streaming pipeline's cache protocol: peek never waits on an
    // in-flight computation, publish inserts a finished bundle, and a
    // later peek serves it.
    retrieval::RetrievalCache cache(retrieval::RetrievalCache::Options{4});
    retrieval::RetrievalCache::Outcome outcome;
    EXPECT_EQ(cache.peek("k", &outcome), nullptr);
    EXPECT_FALSE(outcome.hit);

    auto bundle = std::make_shared<const retrieval::ContextBundle>();
    cache.publish("k", bundle, &outcome);
    EXPECT_EQ(outcome.evictions, 0u);
    EXPECT_EQ(cache.size(), 1u);

    auto hit = cache.peek("k", &outcome);
    EXPECT_EQ(hit, bundle);
    EXPECT_TRUE(outcome.hit);

    // Re-publishing an existing key is a no-op (first copy wins).
    cache.publish("k",
                  std::make_shared<const retrieval::ContextBundle>(),
                  &outcome);
    EXPECT_EQ(cache.peek("k", &outcome), bundle);

    // Publishing past capacity evicts via the hot tier's clock sweep
    // (with no secondary tier configured, displaced bundles are
    // dropped); the entry budget holds exactly.
    for (int i = 0; i < 8; ++i) {
        cache.publish("fill" + std::to_string(i),
                      std::make_shared<
                          const retrieval::ContextBundle>(),
                      &outcome);
    }
    EXPECT_LE(cache.size(), 4u);
    const auto counters = cache.counters();
    EXPECT_GT(counters.evictions, 0u);
}

// --------------------------------------------------------------- pipeline

TEST(AskStreamTest, EventsArriveInPipelineOrder)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();
    auto stream =
        engine.askStream(RequestContext(questions[0])).expect("stream");
    const auto events = drain(stream);

    ASSERT_GE(events.size(), 5u);
    EXPECT_EQ(events.front().kind, StreamEvent::Kind::Parsed);
    EXPECT_EQ(events.front().parsed.raw, questions[0]);
    EXPECT_EQ(events[1].kind, StreamEvent::Kind::Planned);
    EXPECT_FALSE(events[1].cache_key.empty());
    EXPECT_EQ(events.back().kind, StreamEvent::Kind::Done);
    ASSERT_NE(events.back().response, nullptr);

    // Phases are contiguous: evidence never arrives after the first
    // answer delta, and nothing follows Done.
    std::size_t first_delta = events.size();
    std::size_t last_chunk = 0;
    std::size_t chunks = 0;
    std::size_t deltas = 0;
    std::string joined_deltas;
    for (std::size_t i = 2; i + 1 < events.size(); ++i) {
        if (events[i].kind == StreamEvent::Kind::EvidenceChunk) {
            last_chunk = i;
            ++chunks;
        } else if (events[i].kind == StreamEvent::Kind::AnswerDelta) {
            first_delta = std::min(first_delta, i);
            ++deltas;
            joined_deltas += events[i].text;
        } else {
            FAIL() << "unexpected mid-stream event kind";
        }
    }
    EXPECT_GE(chunks, 1u);
    EXPECT_GE(deltas, 1u);
    EXPECT_LT(last_chunk, first_delta);
    // Streamed deltas reassemble into exactly the final answer text.
    EXPECT_EQ(joined_deltas, events.back().response->text);
}

TEST(AskStreamTest, DoneIsByteIdenticalToBlockingAsk)
{
    // The streaming pipeline must change *when* evidence and text
    // become visible, never *what* is answered: pinned across all
    // three retrievers, with the retrieval cache on and off.
    const auto questions = suiteQuestions();
    for (const std::string retriever :
         {"sieve", "ranger", "llamaindex"}) {
        for (const std::size_t capacity : {0, 1024}) {
            auto blocking = engineWith(retriever, capacity);
            auto streaming = engineWith(retriever, capacity);
            for (const auto &question : questions) {
                auto expected = blocking.ask(RequestContext(question));
                ASSERT_TRUE(expected.ok());
                auto stream = streaming.askStream(RequestContext(question))
                                  .expect("askStream");
                const Response got = stream.wait();
                const auto &want = expected.value();
                EXPECT_EQ(got.text, want.text)
                    << retriever << " cache=" << capacity << " "
                    << question;
                EXPECT_EQ(got.bundle.render(), want.bundle.render());
                EXPECT_EQ(got.answer.says_hit, want.answer.says_hit);
                EXPECT_EQ(got.answer.number, want.answer.number);
                EXPECT_EQ(got.answer.chosen_policy,
                          want.answer.chosen_policy);
                EXPECT_EQ(got.answer.listed_values,
                          want.answer.listed_values);
                EXPECT_EQ(got.answer.rejected_premise,
                          want.answer.rejected_premise);
            }
        }
    }
}

TEST(AskStreamTest, CacheHitStillStreamsEvidence)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();

    auto first =
        engine.askStream(RequestContext(questions[0])).expect("cold stream");
    const Response cold = first.wait();

    auto second =
        engine.askStream(RequestContext(questions[0])).expect("hot stream");
    std::size_t chunks = 0;
    bool saw_cached_label = false;
    Response hot;
    while (auto event = second.next()) {
        if (event->kind == StreamEvent::Kind::EvidenceChunk) {
            ++chunks;
            saw_cached_label |= event->label == "cached";
        }
        if (event->kind == StreamEvent::Kind::Done)
            hot = *event->response;
    }
    // The retriever never ran (shared-cache hit), yet evidence still
    // streamed — as the single pre-assembled bundle chunk.
    EXPECT_GE(chunks, 1u);
    EXPECT_TRUE(saw_cached_label);
    EXPECT_EQ(hot.text, cold.text);
    EXPECT_EQ(hot.bundle.render(), cold.bundle.render());
    const auto stats = engine.stats();
    EXPECT_GE(stats.cache.hits, 1u);
}

TEST(AskStreamTest, RejectsEmptyQuestion)
{
    auto engine = engineWith("sieve", 0);
    auto result = engine.askStream(RequestContext("   "));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
}

TEST(AskStreamTest, AbandoningAStreamMidFlightIsSafe)
{
    auto engine = engineWith("sieve", 0);
    const auto questions = suiteQuestions();
    {
        auto stream =
            engine.askStream(RequestContext(questions[0])).expect("abandoned");
        auto first = stream.next();
        ASSERT_TRUE(first.has_value());
        // Dropping the handle here cancels the channel and joins the
        // worker; a tiny buffer would otherwise leave it blocked.
    }
    // The engine remains fully usable afterwards.
    auto result = engine.ask(RequestContext(questions[0]));
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().text.empty());
}

TEST(AskStreamTest, WaitAfterNextReturnsTheSameResponse)
{
    auto engine = engineWith("sieve", 0);
    const auto questions = suiteQuestions();
    auto stream =
        engine.askStream(RequestContext(questions[1])).expect("stream");
    auto first = stream.next();
    ASSERT_TRUE(first.has_value());
    const Response r1 = stream.wait();
    EXPECT_TRUE(stream.done());
    const Response r2 = stream.wait();
    EXPECT_EQ(r1.text, r2.text);
}

TEST(AskStreamTest, StreamBufferKnobIsValidated)
{
    auto result =
        CacheMind::Builder(sharedDb()).withStreamBuffer(0).build();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::InvalidOptions);
}

TEST(AskStreamTest, WarmupPreBuildsEveryShardIndex)
{
    auto engine = engineWith("sieve", 0);
    engine.warmup();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.index.shards_indexed,
              sharedDb().shards().size());
}

// ------------------------------------------------------------ batch stream

TEST(AskBatchStreamTest, ResponsesMatchAskBatchAndEventsComplete)
{
    const auto questions = suiteQuestions();
    auto reference = engineWith("sieve", 1024);
    auto streaming = engineWith("sieve", 1024);

    auto expected = reference.askBatch(suiteRequests());
    ASSERT_TRUE(expected.ok());

    struct PerQuestion
    {
        std::vector<StreamEvent::Kind> kinds;
        std::string deltas;
    };
    std::map<std::size_t, PerQuestion> seen;
    auto got = streaming.askBatchStream(
        suiteRequests(), [&](const StreamEvent &event) {
            seen[event.question].kinds.push_back(event.kind);
            if (event.kind == StreamEvent::Kind::AnswerDelta)
                seen[event.question].deltas += event.text;
        });
    ASSERT_TRUE(got.ok());

    ASSERT_EQ(got.value().size(), expected.value().size());
    for (std::size_t i = 0; i < questions.size(); ++i) {
        EXPECT_EQ(got.value()[i].text, expected.value()[i].text) << i;
        EXPECT_EQ(got.value()[i].bundle.render(),
                  expected.value()[i].bundle.render());
    }

    ASSERT_EQ(seen.size(), questions.size());
    for (std::size_t i = 0; i < questions.size(); ++i) {
        const auto &kinds = seen[i].kinds;
        ASSERT_GE(kinds.size(), 5u) << "question " << i;
        EXPECT_EQ(kinds.front(), StreamEvent::Kind::Parsed);
        EXPECT_EQ(kinds[1], StreamEvent::Kind::Planned);
        EXPECT_EQ(kinds.back(), StreamEvent::Kind::Done);
        EXPECT_EQ(seen[i].deltas, got.value()[i].text);
    }
}

TEST(AskBatchStreamTest, RejectsEmptyQuestionBeforeStreaming)
{
    auto engine = engineWith("sieve", 0);
    std::size_t events = 0;
    auto result = engine.askBatchStream(
        {RequestContext("valid question"), RequestContext("  ")},
        [&](const StreamEvent &) { ++events; });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, EngineErrorCode::EmptyQuestion);
    EXPECT_EQ(events, 0u);
}

TEST(AskBatchStreamTest, ThrowingSinkCancelsAndPropagates)
{
    auto engine = engineWith("sieve", 0);
    const auto requests = suiteRequests();
    EXPECT_THROW(
        engine.askBatchStream(requests,
                              [](const StreamEvent &) {
                                  throw std::runtime_error("sink");
                              }),
        std::runtime_error);
    // The engine (and its worker pool) survives for the next call.
    auto result = engine.askBatch(requests);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().size(), requests.size());
}

TEST(AskBatchStreamTest, CarriesPerRequestDeadlinesAndTraces)
{
    // Every evidence section stalls 30 ms: the request with a 10 ms
    // budget degrades, the one without a deadline completes, and each
    // traced request records its own span tree and outcome.
    auto engine = engineWith("sieve", 0);
    const auto questions = suiteQuestions();
    std::vector<RequestContext> requests{RequestContext(questions[0]),
                                         RequestContext(questions[1])};
    requests[0].withDeadlineMs(10.0).withRequestId("bounded").traced();
    requests[1].withRequestId("unbounded").traced();

    ASSERT_TRUE(fail::armSpec("retrieve.section=delay:30"));
    auto result =
        engine.askBatchStream(requests, [](const StreamEvent &) {});
    fail::disarmAll();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().size(), 2u);
    EXPECT_TRUE(result.value()[0].bundle.degraded);
    EXPECT_FALSE(result.value()[1].bundle.degraded);
    EXPECT_EQ(requests[0].trace->outcome(), "degraded");
    EXPECT_EQ(requests[1].trace->outcome(), "done");
    for (const RequestContext &req : requests) {
        SCOPED_TRACE(req.request_id);
        const auto spans = req.trace->spans();
        const auto find = [&](const std::string &name) {
            const auto it = std::find_if(
                spans.begin(), spans.end(),
                [&](const obs::TraceSpan &s) { return s.name == name; });
            return it == spans.end() ? nullptr : &*it;
        };
        const obs::TraceSpan *ask = find("ask");
        ASSERT_NE(ask, nullptr);
        EXPECT_NE(ask->end_ns, 0u);
        for (const char *stage : {"parse", "retrieve", "generate"}) {
            const obs::TraceSpan *span = find(stage);
            ASSERT_NE(span, nullptr) << stage;
            EXPECT_EQ(span->parent, ask->id) << stage;
        }
    }
}

namespace {

/** A custom retriever whose retrieval always throws (error paths). */
class ThrowingRetriever final : public retrieval::Retriever
{
  public:
    const char *name() const override { return "thrower"; }

    retrieval::ContextBundle
    retrieve(const std::string &) override
    {
        throw std::runtime_error("retriever exploded");
    }
};

const bool thrower_registered =
    retrieval::RetrieverRegistry::instance().add(
        "stream-test-thrower", [](const db::ShardSet &) {
            return std::make_unique<ThrowingRetriever>();
        });

} // namespace

TEST(AskStreamTest, PipelineExceptionsPropagateLikeBlockingAsk)
{
    // A throwing custom retriever must surface its exception to the
    // caller on every entry point — never escape a worker thread
    // into std::terminate, never hang the consumer. Every entry point
    // runs twice: the second call must throw again rather than hang,
    // so the shared pool's workers survive a throwing job.
    ASSERT_TRUE(thrower_registered);
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("stream-test-thrower")
                      .build()
                      .expect("throwing engine");
    const std::vector<RequestContext> batch{
        RequestContext("a?"), RequestContext("b?"), RequestContext("c?")};

    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        EXPECT_THROW(engine.ask(RequestContext("boom?")),
                     std::runtime_error);
        EXPECT_THROW(engine.askBatch(batch), std::runtime_error);

        auto stream =
            engine.askStream(RequestContext("boom?")).expect("stream");
        EXPECT_THROW(stream.wait(), std::runtime_error);

        EXPECT_THROW(engine.askBatchStream(batch,
                                           [](const StreamEvent &) {}),
                     std::runtime_error);
    }
}

namespace {

/**
 * While armed, every retrieve() blocks until `target` retrievals are
 * in flight at once (or a 2 s deadline passes) and counts the calls
 * that met; unarmed, it returns at once.
 */
struct Rendezvous
{
    std::mutex mu;
    std::condition_variable cv;
    std::size_t target = 0;
    std::size_t arrived = 0;
    std::size_t met = 0;
    std::chrono::steady_clock::time_point deadline;

    void
    arm(std::size_t n)
    {
        std::lock_guard<std::mutex> lock(mu);
        target = n;
        arrived = met = 0;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::seconds(2);
    }
};

Rendezvous &
rendezvous()
{
    static Rendezvous r;
    return r;
}

class RendezvousRetriever final : public retrieval::Retriever
{
  public:
    const char *name() const override { return "rendezvous"; }

    retrieval::ContextBundle
    retrieve(const std::string &query) override
    {
        Rendezvous &r = rendezvous();
        std::unique_lock<std::mutex> lock(r.mu);
        if (r.target != 0) {
            ++r.arrived;
            r.cv.notify_all();
            if (r.cv.wait_until(lock, r.deadline,
                                [&] { return r.arrived >= r.target; }))
                ++r.met;
        }
        retrieval::ContextBundle bundle;
        bundle.retriever = name();
        bundle.result_text = query;
        return bundle;
    }
};

const bool rendezvous_registered =
    retrieval::RetrieverRegistry::instance().add(
        "stream-test-rendezvous", [](const db::ShardSet &) {
            return std::make_unique<RendezvousRetriever>();
        });

} // namespace

TEST(AskBatchTest, RunsFullWidthOnThePoolAskStreamWarmed)
{
    // askStream leaves one parked worker in the engine's pool; the
    // next askBatch must still run all batch_workers retrievals at
    // once (the caller plus three pool jobs), not queue some of them
    // behind the parked worker.
    ASSERT_TRUE(rendezvous_registered);
    constexpr std::size_t kWorkers = 4;
    auto engine = CacheMind::Builder(sharedDb())
                      .withRetriever("stream-test-rendezvous")
                      .withBatchWorkers(kWorkers)
                      .build()
                      .expect("rendezvous engine");
    const auto questions = suiteQuestions();
    ASSERT_EQ(questions.size(), kWorkers);
    engine.askStream(RequestContext(questions[0]))
        .expect("stream")
        .wait();

    rendezvous().arm(kWorkers);
    const auto batch = engine.askBatch(
        std::vector<RequestContext>(questions.begin(), questions.end()));
    std::size_t met = 0;
    {
        std::lock_guard<std::mutex> lock(rendezvous().mu);
        met = rendezvous().met;
        rendezvous().target = 0; // disarm
    }
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch.value().size(), kWorkers);
    EXPECT_EQ(met, kWorkers);
}

TEST(AskBatchStreamTest, StreamingStatsAreRecorded)
{
    auto engine = engineWith("sieve", 1024);
    const auto questions = suiteQuestions();
    std::uint64_t chunk_events = 0;
    std::uint64_t delta_events = 0;
    auto result = engine.askBatchStream(
        suiteRequests(), [&](const StreamEvent &event) {
            if (event.kind == StreamEvent::Kind::EvidenceChunk)
                ++chunk_events;
            if (event.kind == StreamEvent::Kind::AnswerDelta)
                ++delta_events;
        });
    ASSERT_TRUE(result.ok());

    const auto stats = engine.stats();
    EXPECT_EQ(stats.stream.streams, questions.size());
    EXPECT_EQ(stats.stream.evidence_chunks, chunk_events);
    EXPECT_EQ(stats.stream.answer_deltas, delta_events);
    // Every stream emits Parsed + Planned + chunks + deltas + Done.
    EXPECT_EQ(stats.stream.events,
              chunk_events + delta_events + 3 * questions.size());
    EXPECT_GE(stats.stream.first_event_mean_ms, 0.0);
    EXPECT_GE(stats.stream.first_event_p90_ms,
              stats.stream.first_event_p50_ms);
    // Streamed questions also count as served questions.
    EXPECT_EQ(stats.questions, questions.size());
    EXPECT_EQ(stats.batches, 1u);
}
