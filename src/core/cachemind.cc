#include "core/cachemind.hh"

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "base/parallel.hh"
#include "base/stopwatch.hh"
#include "base/str.hh"
#include "core/worker_pool.hh"
#include "llm/registry.hh"
#include "retrieval/registry.hh"

namespace cachemind::core {

const char *
engineErrorCodeName(EngineErrorCode code)
{
    switch (code) {
      case EngineErrorCode::UnknownRetriever: return "unknown-retriever";
      case EngineErrorCode::UnknownBackend: return "unknown-backend";
      case EngineErrorCode::InvalidOptions: return "invalid-options";
      case EngineErrorCode::EmptyQuestion: return "empty-question";
    }
    return "?";
}

std::string
errorMessage(const EngineError &error)
{
    return std::string(engineErrorCodeName(error.code)) + ": " +
           error.message;
}

Result<CacheMind, EngineError>
CacheMind::create(const db::TraceDatabase &db, EngineOptions opts)
{
    opts.retriever = str::toLower(str::trim(opts.retriever));
    opts.backend = str::toLower(str::trim(opts.backend));
    if (opts.batch_workers == 0) {
        return EngineError{EngineErrorCode::InvalidOptions,
                           "batch_workers must be >= 1"};
    }
    if (opts.stream_buffer == 0) {
        return EngineError{EngineErrorCode::InvalidOptions,
                           "stream_buffer must be >= 1"};
    }

    // One shard view, derived once, shared by the primary retriever
    // and every batch worker built later.
    db::ShardSet shards = db.shards();

    auto &retrievers = retrieval::RetrieverRegistry::instance();
    const retrieval::RetrieverOptions retriever_opts{
        opts.retriever_params};
    auto retriever =
        retrievers.create(opts.retriever, shards, retriever_opts);
    if (!retriever) {
        return EngineError{
            EngineErrorCode::UnknownRetriever,
            "no retriever registered as '" + opts.retriever +
                "' (registered: " +
                str::join(retrievers.names(), ", ") + ")"};
    }

    auto &backends = llm::BackendRegistry::instance();
    auto generator = backends.create(opts.backend);
    if (!generator) {
        return EngineError{
            EngineErrorCode::UnknownBackend,
            "no backend registered as '" + opts.backend +
                "' (registered: " +
                str::join(backends.names(), ", ") + ")"};
    }

    return CacheMind(db, std::move(shards), std::move(opts),
                     std::move(retriever), std::move(generator));
}

/**
 * Extra worker retrievers for askBatch (the engine's primary
 * retriever serves worker 0), built on first use and reused across
 * batches: rebuilding, say, a LlamaIndex embedding index per batch
 * would dwarf the answering work. The mutex guards pool growth; it
 * is not a concurrency contract for the engine itself (see the
 * header: an engine instance is single-caller).
 */
struct CacheMind::BatchPool
{
    std::mutex mu;
    std::vector<std::unique_ptr<retrieval::Retriever>> retrievers;
};

CacheMind::CacheMind(const db::TraceDatabase &db, db::ShardSet shards,
                     EngineOptions opts,
                     std::unique_ptr<retrieval::Retriever> retriever,
                     std::unique_ptr<llm::GeneratorLlm> generator)
    : db_(db), shards_(std::move(shards)), opts_(std::move(opts)),
      retriever_(std::move(retriever)), generator_(std::move(generator)),
      parser_(std::make_unique<query::NlQueryParser>(
          shards_.workloads(), shards_.policies())),
      cache_(opts_.shared_retrieval_cache
                 ? opts_.shared_retrieval_cache
                 : (opts_.retrieval_cache_capacity
                        ? std::make_shared<retrieval::RetrievalCache>(
                              retrieval::RetrievalCache::Options{
                                  opts_.retrieval_cache_capacity,
                                  opts_.retrieval_cache_hot_slots,
                                  opts_
                                      .retrieval_cache_secondary_bytes})
                        : nullptr)),
      stats_(std::make_unique<EngineStatsRecorder>()),
      batch_pool_(std::make_unique<BatchPool>()),
      pool_(std::make_unique<WorkerPool>(opts_.batch_workers))
{
}

CacheMind::CacheMind(CacheMind &&) noexcept = default;

CacheMind::~CacheMind() = default;

query::ParsedQuery
CacheMind::parseStage(const std::string &question) const
{
    return parser_->parse(question);
}

std::string
CacheMind::planStage(const retrieval::Retriever &retriever,
                     const query::ParsedQuery &parsed) const
{
    if (!cache_)
        return std::string();
    const std::string slot_key = retriever.cacheKey(parsed);
    if (slot_key.empty())
        return std::string(); // retriever opted this query out
    // '\x1f' (unit separator) never appears in a fingerprint, so the
    // first one always delimits it — the components cannot
    // ambiguously concatenate even when a slot key embeds raw text.
    return retriever.cacheFingerprint() + '\x1f' + slot_key;
}

Deadline
CacheMind::resolveDeadline(double request_ms) const
{
    return Deadline::afterMs(request_ms > 0.0
                                 ? request_ms
                                 : opts_.default_deadline_ms);
}

namespace {

/**
 * EvidenceSink for *traced* blocking retrieval: active (so retrievers
 * emit their sections) but text-discarding — each emit becomes one
 * "section:<label>" child span under the retrieve-stage span.
 * Evidence bytes never depend on sink activity (the streaming
 * invariant), so a traced ask stays byte-identical to an untraced
 * one.
 */
class TraceEvidenceSink final : public retrieval::EvidenceSink
{
  public:
    explicit TraceEvidenceSink(const obs::TraceContext &tc)
        : tc_(tc), mark_(obs::RequestTrace::nowNs())
    {
    }

    void
    emit(const std::string &label, const std::string &) override
    {
        const std::uint64_t now = obs::RequestTrace::nowNs();
        tc_.trace->addSpan(tc_.parent, "section:" + label, mark_, now);
        mark_ = now;
        ++sections_;
    }

    std::uint64_t sections() const { return sections_; }

  private:
    obs::TraceContext tc_;
    std::uint64_t mark_;
    std::uint64_t sections_ = 0;
};

/**
 * Close out a traced retrieve stage: the cache-tier outcome, a
 * synthesized section span when the retriever never ran (cache hits
 * and single-flight waits produce no emissions, but a complete span
 * tree still shows one retrieval-section span), and the degraded
 * annotations naming the stage that crossed the deadline.
 */
void
traceRetrieveOutcome(const obs::TraceContext &tc, const char *outcome,
                     std::uint64_t sections, std::uint64_t start_ns,
                     bool degraded)
{
    if (!tc)
        return;
    tc.note("cache", outcome);
    if (sections == 0) {
        tc.trace->addSpan(tc.parent, std::string("section:") + outcome,
                          start_ns, obs::RequestTrace::nowNs());
    }
    if (degraded) {
        tc.note("degraded", "true");
        tc.note("deadline_expired_in", "retrieve");
    }
}

} // namespace

std::shared_ptr<const retrieval::ContextBundle>
CacheMind::retrieveStage(retrieval::Retriever &retriever,
                         const query::ParsedQuery &parsed,
                         const std::string &cache_key,
                         const Deadline &deadline,
                         const obs::TraceContext &tc) const
{
    const std::uint64_t start_ns = tc ? obs::RequestTrace::nowNs() : 0;
    std::uint64_t sections = 0;
    // The deadline rides the sink (the retrievers' existing
    // cancellation-poll sites double as degrade checks), so the
    // blocking path runs the sink overload with an inactive sink —
    // byte-identical output, zero chunk formatting. A traced request
    // swaps in the active, text-discarding TraceEvidenceSink to get
    // per-section spans; the bundle bytes are the same either way.
    const auto compute =
        [&]() -> std::shared_ptr<const retrieval::ContextBundle> {
        if (!tc) {
            retrieval::NullEvidenceSink sink;
            sink.setDeadline(deadline);
            return std::make_shared<const retrieval::ContextBundle>(
                retriever.retrieveParsed(parsed, sink));
        }
        TraceEvidenceSink sink(tc);
        sink.setDeadline(deadline);
        auto bundle = std::make_shared<const retrieval::ContextBundle>(
            retriever.retrieveParsed(parsed, sink));
        sections += sink.sections();
        return bundle;
    };
    if (cache_key.empty()) {
        auto evidence = compute();
        traceRetrieveOutcome(tc, "bypass", sections, start_ns,
                             evidence->degraded);
        return evidence;
    }
    if (!deadline.finite()) {
        retrieval::RetrievalCache::Outcome outcome;
        auto evidence =
            cache_->getOrCompute(cache_key, compute, &outcome);
        stats_->recordCacheLookup(retriever.name(), outcome.hit,
                                  outcome.evictions);
        traceRetrieveOutcome(tc,
                             retrieval::cacheSourceName(outcome.source),
                             sections, start_ns, evidence->degraded);
        return evidence;
    }
    // Finite deadline: stay outside the single-flight protocol. A
    // deadline-capped retrieval may come back degraded, and a degraded
    // bundle must neither be admitted nor handed to coalesced waiters
    // (their budgets differ). peek never waits; publish drops degraded
    // bundles on the floor.
    retrieval::RetrievalCache::Outcome outcome;
    if (auto cached = cache_->peek(cache_key, &outcome)) {
        stats_->recordCacheLookup(retriever.name(), true, 0);
        traceRetrieveOutcome(tc,
                             retrieval::cacheSourceName(outcome.source),
                             0, start_ns, cached->degraded);
        return cached;
    }
    auto evidence = compute();
    cache_->publish(cache_key, evidence, &outcome);
    stats_->recordCacheLookup(retriever.name(), false,
                              outcome.evictions);
    traceRetrieveOutcome(tc, "miss", sections, start_ns,
                         evidence->degraded);
    return evidence;
}

std::shared_ptr<const retrieval::ContextBundle>
CacheMind::retrieveStageStreamed(retrieval::Retriever &retriever,
                                 const query::ParsedQuery &parsed,
                                 const std::string &cache_key,
                                 retrieval::EvidenceSink &sink,
                                 const obs::TraceContext &tc) const
{
    // Streams deliberately stay outside the cache's single-flight
    // protocol: a stream computing under the in-flight claim would
    // push chunks into a consumer-paced channel, letting one paused
    // consumer block every blocking ask() coalescing on the key
    // (including through a cross-engine shared cache). Instead: peek
    // (never waits), retrieve independently on a miss — chunks stream
    // unthrottled by cache state — and publish the finished bundle.
    // Two streams racing the same key may retrieve twice; the bundles
    // are byte-identical, so the duplicated work is bounded waste,
    // not a correctness risk.
    if (cache_key.empty()) {
        auto evidence = std::make_shared<const retrieval::ContextBundle>(
            retriever.retrieveParsed(parsed, sink));
        tc.note("cache", "bypass");
        return evidence;
    }
    retrieval::RetrievalCache::Outcome outcome;
    if (auto cached = cache_->peek(cache_key, &outcome)) {
        stats_->recordCacheLookup(retriever.name(), true, 0);
        tc.note("cache", retrieval::cacheSourceName(outcome.source));
        // The retriever never ran, so the evidence streams as one
        // pre-assembled chunk (a traced stream records it as the
        // stage's single "section:cached" span).
        if (sink.active())
            sink.emit("cached", cached->render());
        return cached;
    }
    auto evidence = std::make_shared<const retrieval::ContextBundle>(
        retriever.retrieveParsed(parsed, sink));
    cache_->publish(cache_key, evidence, &outcome);
    stats_->recordCacheLookup(retriever.name(), false,
                              outcome.evictions);
    tc.note("cache", "miss");
    return evidence;
}

Response
CacheMind::generateStage(
    const query::ParsedQuery &parsed,
    const std::shared_ptr<const retrieval::ContextBundle> &evidence,
    double retrieval_ms, const llm::DeltaFn *on_delta) const
{
    Response r;
    r.bundle = *evidence;
    // The cached evidence may have been assembled for a different
    // phrasing of the same slots; the response carries *this*
    // question's parsed identity so generation (keyed by the raw
    // text) and transcripts stay byte-identical to a cache-off run.
    // Likewise the latency is *this* question's retrieve-stage cost —
    // near zero on a cache hit — not the computing question's.
    r.bundle.parsed = parsed;
    r.bundle.retrieval_ms = retrieval_ms;
    llm::GenerationOptions gen_opts;
    gen_opts.shot_mode = opts_.shot_mode;
    gen_opts.tokens_per_second = opts_.tokens_per_second;
    r.answer = on_delta
                   ? generator_->answerStreaming(r.bundle, gen_opts,
                                                 *on_delta)
                   : generator_->answer(r.bundle, gen_opts);
    r.text = r.answer.text;
    // Degraded evidence still gets answered (partial evidence beats
    // none), but the degradation is counted — it is the engine-side
    // "deadline miss" signal. Degraded bundles are never cached, so
    // this counts each degraded retrieval exactly once.
    if (r.bundle.degraded)
        stats_->recordDegraded();
    return r;
}

Response
CacheMind::answerParsed(retrieval::Retriever &retriever,
                        const query::ParsedQuery &parsed,
                        const Deadline &deadline,
                        const obs::TraceContext &tc) const
{
    obs::SpanScope plan_span(tc, "plan");
    const std::string cache_key = planStage(retriever, parsed);
    plan_span.annotate("cacheable", cache_key.empty() ? "no" : "yes");
    plan_span.end();
    Stopwatch retrieve_timer;
    obs::SpanScope retrieve_span(tc, "retrieve");
    const auto evidence =
        retrieveStage(retriever, parsed, cache_key, deadline,
                      tc.child(retrieve_span.id()));
    retrieve_span.end();
    obs::SpanScope generate_span(tc, "generate");
    return generateStage(parsed, evidence,
                         retrieve_timer.milliseconds());
}

namespace {

/** EvidenceSink adapter over a callable (the streaming pipeline). */
class FnEvidenceSink final : public retrieval::EvidenceSink
{
  public:
    using Fn = std::function<void(const std::string &,
                                  const std::string &)>;
    FnEvidenceSink(Fn fn, const StreamChannel &channel)
        : fn_(std::move(fn)), channel_(channel)
    {
    }

    void
    emit(const std::string &label, const std::string &text) override
    {
        fn_(label, text);
    }

    // The channel's consumer-side cancel is the pipeline's cooperative
    // cancellation token: retrievers polling the sink between evidence
    // sections observe a dropped AnswerStream / disconnected serving
    // session and abandon the rest of the retrieval.
    bool cancelled() const override { return channel_.cancelled(); }

  private:
    Fn fn_;
    const StreamChannel &channel_;
};

} // namespace

Response
CacheMind::answerParsedStreamed(retrieval::Retriever &retriever,
                                const query::ParsedQuery &parsed,
                                std::size_t question_index,
                                StreamChannel &channel,
                                double *blocked_ms,
                                const Deadline &deadline,
                                const obs::TraceContext &tc,
                                std::uint32_t parse_span) const
{
    // Per-stream instrumentation: when the first event left the
    // pipeline (the latency a streaming consumer actually waits
    // before anything appears) and how many events of each kind were
    // emitted. Emission is counted even if the consumer has cancelled
    // the channel — the pipeline's shape does not depend on whether
    // anyone is still listening.
    Stopwatch stream_timer;
    double first_event_ms = -1.0;
    double pushing_ms = 0.0;
    std::uint64_t events = 0;
    std::uint64_t evidence_chunks = 0;
    std::uint64_t answer_deltas = 0;
    const auto push = [&](StreamEvent event) {
        event.question = question_index;
        if (first_event_ms < 0.0)
            first_event_ms = stream_timer.milliseconds();
        ++events;
        // Time spent in push is dominated by backpressure waits on a
        // full buffer (consumer pacing); the callers subtract it from
        // the recorded question latency.
        Stopwatch push_timer;
        const bool accepted = channel.push(std::move(event));
        pushing_ms += push_timer.milliseconds();
        // A refused push on a cancelled channel trips the cooperative
        // cancellation token here as well as at the retriever's
        // section boundaries, so generation (answer deltas) also stops
        // streaming into a dead channel.
        if (!accepted && channel.cancelled())
            throw retrieval::StreamCancelled{};
    };

    // Stage 1 (parsing) ran at the engine entry point; surface it.
    // Every event carries the span of the stage that produced it, so
    // a streaming consumer (the serve layer's TTFE attribution) can
    // name the stage behind its first frame.
    StreamEvent parsed_event;
    parsed_event.kind = StreamEvent::Kind::Parsed;
    parsed_event.parsed = parsed;
    parsed_event.span = parse_span;
    push(std::move(parsed_event));

    obs::SpanScope plan_span(tc, "plan");
    const std::string cache_key = planStage(retriever, parsed);
    plan_span.annotate("cacheable", cache_key.empty() ? "no" : "yes");
    plan_span.end();
    StreamEvent planned_event;
    planned_event.kind = StreamEvent::Kind::Planned;
    planned_event.cache_key = cache_key;
    planned_event.span = plan_span.id();
    push(std::move(planned_event));

    obs::SpanScope retrieve_span(tc, "retrieve");
    // Section spans are recorded where the emissions happen: on this
    // pipeline thread, in plan order (Ranger's shard-parallel
    // execution still emits in plan order), so the span tree's shape
    // is byte-stable across exec_threads settings.
    std::uint64_t section_mark =
        tc ? obs::RequestTrace::nowNs() : 0;
    FnEvidenceSink sink(
        [&](const std::string &label, const std::string &text) {
            StreamEvent event;
            event.kind = StreamEvent::Kind::EvidenceChunk;
            event.label = label;
            event.text = text;
            if (tc) {
                const std::uint64_t now = obs::RequestTrace::nowNs();
                event.span = tc.trace->addSpan(retrieve_span.id(),
                                               "section:" + label,
                                               section_mark, now);
                section_mark = now;
            }
            ++evidence_chunks;
            push(std::move(event));
        },
        channel);
    sink.setDeadline(deadline);
    Stopwatch retrieve_timer;
    const auto evidence =
        retrieveStageStreamed(retriever, parsed, cache_key, sink,
                              tc.child(retrieve_span.id()));
    const double retrieval_ms = retrieve_timer.milliseconds();
    if (evidence->degraded) {
        tc.annotate(retrieve_span.id(), "degraded", "true");
        tc.annotate(retrieve_span.id(), "deadline_expired_in",
                    "retrieve");
    }
    retrieve_span.end();

    obs::SpanScope generate_span(tc, "generate");
    const llm::DeltaFn on_delta = [&](const std::string &delta) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::AnswerDelta;
        event.text = delta;
        event.span = generate_span.id();
        ++answer_deltas;
        push(std::move(event));
    };
    Response r =
        generateStage(parsed, evidence, retrieval_ms, &on_delta);
    generate_span.end();

    // Close the root "ask" span and stamp the outcome BEFORE the Done
    // event goes on the wire: a consumer that has observed Done may
    // immediately render the trace, and must never catch the root
    // still open. Both operations are idempotent first-writer-wins,
    // so the caller's own root.end()/finishTrace stay harmless.
    if (tc) {
        tc.trace->endSpan(tc.parent);
        if (tc.trace->outcome().empty())
            tc.trace->setOutcome(r.bundle.degraded ? "degraded"
                                                   : "done");
    }
    StreamEvent done_event;
    done_event.kind = StreamEvent::Kind::Done;
    done_event.response = std::make_shared<const Response>(r);
    done_event.span = tc.parent;
    push(std::move(done_event));

    stats_->recordStream(first_event_ms < 0.0 ? 0.0 : first_event_ms,
                         events, evidence_chunks, answer_deltas);
    if (blocked_ms)
        *blocked_ms = pushing_ms;
    return r;
}

void
CacheMind::warmup()
{
    std::call_once(*warm_once_, [this] {
        // The one-time cold-index build is recorded as warm-up, not as
        // part of any stream's time-to-first-event: the first stream
        // against a cold engine must not skew serving-side TTFE
        // percentiles (a server warms its engines at pool-build time,
        // off every session's clock).
        Stopwatch timer;
        shards_.warmIndexes(opts_.build_threads);
        stats_->recordWarmup(timer.milliseconds());
    });
}

void
CacheMind::finishTrace(const std::shared_ptr<obs::RequestTrace> &trace,
                       bool degraded) const
{
    if (!trace)
        return;
    // First writer wins: the serve layer's terminal decision
    // (deadline_exceeded, overloaded) may already have landed while
    // the pipeline was finishing — never downgrade it.
    if (trace->outcome().empty())
        trace->setOutcome(degraded ? "degraded" : "done");
    stats_->recordTrace(*trace);
}

Result<Response, EngineError>
CacheMind::ask(const RequestContext &ctx)
{
    if (str::trim(ctx.question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    Stopwatch timer;
    obs::TraceContext tc{ctx.trace, ctx.trace_parent};
    obs::SpanScope root(tc, "ask");
    const obs::TraceContext rtc = tc.child(root.id());
    query::ParsedQuery parsed;
    {
        obs::SpanScope parse_span(rtc, "parse");
        parsed = parseStage(ctx.question);
    }
    Response r =
        answerParsed(*retriever_, parsed,
                     resolveDeadline(ctx.options.deadline_ms), rtc);
    root.end();
    finishTrace(ctx.trace, r.bundle.degraded);
    stats_->record(timer.milliseconds(),
                   retrieval::assessQuality(r.bundle));
    return r;
}

Result<Response, EngineError>
CacheMind::askParsed(const query::ParsedQuery &parsed,
                     const RequestContext &ctx)
{
    if (str::trim(parsed.raw).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    Stopwatch timer;
    obs::TraceContext tc{ctx.trace, ctx.trace_parent};
    obs::SpanScope root(tc, "ask");
    root.annotate("parse", "upstream");
    Response r = answerParsed(*retriever_, parsed,
                              resolveDeadline(ctx.options.deadline_ms),
                              tc.child(root.id()));
    root.end();
    finishTrace(ctx.trace, r.bundle.degraded);
    stats_->record(timer.milliseconds(),
                   retrieval::assessQuality(r.bundle));
    return r;
}

void
CacheMind::ensureBatchPool(std::size_t workers)
{
    auto &extras = batch_pool_->retrievers;
    std::lock_guard<std::mutex> pool_lock(batch_pool_->mu);
    if (extras.size() >= workers - 1)
        return;
    // Construct the missing workers concurrently on the build_threads
    // pool: per-worker construction can be heavy (LlamaIndex
    // re-embeds its whole index), and each factory call is
    // independent over the shared read-only shard view.
    const std::size_t need = workers - 1 - extras.size();
    const std::size_t ctor_threads =
        opts_.build_threads
            ? opts_.build_threads
            : std::max<std::size_t>(
                  std::thread::hardware_concurrency(), 1);
    const retrieval::RetrieverOptions retriever_opts{
        opts_.retriever_params};
    std::vector<std::unique_ptr<retrieval::Retriever>> fresh(need);
    parallelFor(need, ctor_threads, [&](std::size_t i) {
        fresh[i] = retrieval::RetrieverRegistry::instance().create(
            opts_.retriever, shards_, retriever_opts);
    });
    for (auto &r : fresh) {
        CM_ASSERT(r != nullptr, "retriever vanished from registry: ",
                  opts_.retriever);
        extras.push_back(std::move(r));
    }
}

Result<std::vector<Response>, EngineError>
CacheMind::askBatch(const std::vector<RequestContext> &requests)
{
    // Pre-flight validation keeps the concurrent section infallible,
    // so error selection cannot depend on scheduling order.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (str::trim(requests[i].question).empty()) {
            return EngineError{EngineErrorCode::EmptyQuestion,
                               "batch question #" + std::to_string(i) +
                                   " is empty"};
        }
    }

    // One request through the full traced pipeline (the per-request
    // trace handle and deadline apply individually; tracing one
    // request of a batch costs the others nothing).
    const auto answer_one = [this](retrieval::Retriever &retriever,
                                   const RequestContext &req) {
        obs::TraceContext tc{req.trace, req.trace_parent};
        obs::SpanScope root(tc, "ask");
        const obs::TraceContext rtc = tc.child(root.id());
        query::ParsedQuery parsed;
        {
            obs::SpanScope parse_span(rtc, "parse");
            parsed = parseStage(req.question);
        }
        Response r = answerParsed(
            retriever, parsed,
            resolveDeadline(req.options.deadline_ms), rtc);
        root.end();
        finishTrace(req.trace, r.bundle.degraded);
        return r;
    };

    std::vector<Response> responses(requests.size());
    std::vector<double> latencies(requests.size(), 0.0);
    const std::size_t workers =
        std::min(opts_.batch_workers,
                 std::max<std::size_t>(requests.size(), 1));

    // One retriever per worker: retrievers are not required to be
    // thread-safe, and every retrieval/generation draw is keyed by
    // the question text alone, so the answers are byte-identical to a
    // sequential ask() loop regardless of how questions land on
    // workers. The cross-question cache is shared by all workers
    // (identically configured retrievers assemble identical bundles
    // for equal keys, so which worker populates an entry cannot
    // change any answer), and a hot slot key retrieves once:
    // concurrent misses coalesce onto the first in-flight retrieval.
    // Worker 0 is the calling thread with the engine's primary
    // retriever; the extra workers are pool jobs drawing on the
    // lazily built, batch-to-batch reusable retriever pool. With one
    // worker forEach runs the claim loop inline.
    ensureBatchPool(workers);
    auto &extras = batch_pool_->retrievers;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // A throwing pipeline (custom retriever, bad_alloc) stops every
    // worker's claims; forEach rethrows the first exception once all
    // workers have returned, like a sequential ask() loop would.
    pool_->forEach(workers, [&](std::size_t w) {
        retrieval::Retriever &worker_retriever =
            w == 0 ? *retriever_ : *extras[w - 1];
        try {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i = next.fetch_add(1);
                if (i >= requests.size())
                    break;
                Stopwatch timer;
                responses[i] = answer_one(worker_retriever, requests[i]);
                latencies[i] = timer.milliseconds();
            }
        } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            throw;
        }
    });

    for (std::size_t i = 0; i < requests.size(); ++i) {
        stats_->record(latencies[i],
                       retrieval::assessQuality(responses[i].bundle));
    }
    stats_->recordBatch();
    return responses;
}

Result<AnswerStream, EngineError>
CacheMind::askStream(const RequestContext &ctx)
{
    if (str::trim(ctx.question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    // The pipeline runs as a job on the engine's persistent worker
    // pool — a warm thread parked on a condvar picks it up in the
    // microsecond range, where a per-call std::thread spawn would pay
    // thread-creation cost on every request.
    auto channel =
        std::make_shared<StreamChannel>(opts_.stream_buffer);
    channel->setProducers(1);
    auto ticket = std::make_shared<StreamTicket>();
    // The budget clock starts at submission: queueing behind busy pool
    // workers spends the request's budget, exactly as a serving
    // front-end would account it.
    const Deadline deadline = resolveDeadline(ctx.options.deadline_ms);
    pool_->submit([this, channel, ticket, ctx, deadline] {
        // Warm every shard's postings index in parallel before the
        // pipeline touches its shard, so the first evidence chunk
        // never waits behind a serial lazy index build (no-op once
        // warm). Then run the staged pipeline, pushing an event per
        // stage boundary. The exception barrier hands any pipeline
        // failure (throwing custom retriever, bad_alloc) to the
        // consumer through the channel — escaping the job would take
        // down the pool worker, where blocking ask() propagates.
        try {
            // Failpoint for the pool-task path. WorkerPool jobs may
            // not throw (workerLoop has no catch), so the site lives
            // inside this job's own barrier: an injected fault
            // surfaces to the consumer as a typed channel failure,
            // exactly like a throwing retriever would.
            fail::maybeThrow("core.worker_pool.task");
            warmup();
            Stopwatch timer;
            double blocked_ms = 0.0;
            obs::TraceContext tc{ctx.trace, ctx.trace_parent};
            obs::SpanScope root(tc, "ask");
            const obs::TraceContext rtc = tc.child(root.id());
            std::uint32_t parse_span_id = 0;
            query::ParsedQuery parsed;
            {
                obs::SpanScope parse_span(rtc, "parse");
                parsed = parseStage(ctx.question);
                parse_span_id = parse_span.id();
            }
            Response r = answerParsedStreamed(
                *retriever_, parsed, 0, *channel, &blocked_ms,
                deadline, rtc, parse_span_id);
            root.end();
            finishTrace(ctx.trace, r.bundle.degraded);
            // Serving latency only: consumer pacing (blocked pushes)
            // is not the engine's answering cost.
            stats_->record(std::max(timer.milliseconds() - blocked_ms,
                                    0.0),
                           retrieval::assessQuality(r.bundle));
        } catch (const retrieval::StreamCancelled &) {
            // The consumer went away (AnswerStream::cancel, a dropped
            // serving connection): control flow, not failure. No
            // latency sample — the pipeline was cut short. The trace
            // outcome stays whatever the consumer side decided
            // (deadline_exceeded, cancelled); only fill a default.
            if (ctx.trace && ctx.trace->outcome().empty())
                ctx.trace->setOutcome("cancelled");
            stats_->recordStreamCancelled();
        } catch (...) {
            if (ctx.trace && ctx.trace->outcome().empty())
                ctx.trace->setOutcome("error");
            channel->fail(std::current_exception());
        }
        channel->producerDone();
        // Last action: release anyone waiting on the stream handle.
        ticket->arrive();
    });
    return AnswerStream(std::move(channel), std::move(ticket));
}

Result<std::vector<Response>, EngineError>
CacheMind::askBatchStream(const std::vector<RequestContext> &requests,
                          const StreamSink &sink)
{
    // Same pre-flight validation as askBatch: the concurrent section
    // stays infallible, so error selection cannot depend on
    // scheduling order.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (str::trim(requests[i].question).empty()) {
            return EngineError{EngineErrorCode::EmptyQuestion,
                               "batch question #" + std::to_string(i) +
                                   " is empty"};
        }
    }
    warmup();

    std::vector<Response> responses(requests.size());
    std::vector<double> latencies(requests.size(), 0.0);
    const std::size_t workers =
        std::min(opts_.batch_workers,
                 std::max<std::size_t>(requests.size(), 1));
    ensureBatchPool(workers);
    auto &extras = batch_pool_->retrievers;

    // The channel is the MPSC fan-in: every worker produces events,
    // the calling thread is the single consumer, invoking the sink
    // serially until the last producer closes the channel. Events of
    // one question arrive in pipeline order because exactly one
    // worker answers it and push preserves per-producer order.
    StreamChannel channel(opts_.stream_buffer);
    channel.setProducers(workers);
    std::atomic<std::size_t> next{0};
    // Index 0 is the caller's drain loop; 1..W are the producer jobs.
    // A throwing sink cancels the stream (producers finish their
    // in-flight question — pushes now drop, claims stop), and forEach
    // rethrows it once every producer has returned.
    pool_->forEach(workers + 1, [&](std::size_t w) {
        if (w == 0) {
            try {
                while (auto event = channel.pop())
                    sink(*event);
            } catch (...) {
                channel.cancel();
                throw;
            }
            return;
        }
        retrieval::Retriever &worker_retriever =
            w == 1 ? *retriever_ : *extras[w - 2];
        // Claim loop with a cancellation check: once the consumer
        // cancels or a sibling worker fails, producers finish only
        // their in-flight question instead of answering the rest of
        // the batch nobody will read. Each request keeps its own
        // deadline and trace, as in askStream. The exception barrier
        // mirrors askStream's: a throwing pipeline fails the channel.
        const RequestContext *req = nullptr;
        try {
            while (!channel.cancelled() && !channel.error()) {
                const std::size_t i = next.fetch_add(1);
                if (i >= requests.size())
                    break;
                req = &requests[i];
                Stopwatch timer;
                double blocked_ms = 0.0;
                obs::TraceContext tc{req->trace, req->trace_parent};
                obs::SpanScope root(tc, "ask");
                const obs::TraceContext rtc = tc.child(root.id());
                std::uint32_t parse_span_id = 0;
                query::ParsedQuery parsed;
                {
                    obs::SpanScope parse_span(rtc, "parse");
                    parsed = parseStage(req->question);
                    parse_span_id = parse_span.id();
                }
                responses[i] = answerParsedStreamed(
                    worker_retriever, parsed, i, channel, &blocked_ms,
                    resolveDeadline(req->options.deadline_ms), rtc,
                    parse_span_id);
                root.end();
                finishTrace(req->trace, responses[i].bundle.degraded);
                req = nullptr;
                // Serving latency only (see askStream).
                latencies[i] =
                    std::max(timer.milliseconds() - blocked_ms, 0.0);
            }
        } catch (const retrieval::StreamCancelled &) {
            // Consumer-side cancel (throwing sink) tripped the
            // cooperative token mid-question: quiet retirement, not a
            // pipeline failure — failing the channel here would
            // masquerade as an engine error afterwards.
            if (req && req->trace && req->trace->outcome().empty())
                req->trace->setOutcome("cancelled");
            stats_->recordStreamCancelled();
        } catch (...) {
            if (req && req->trace && req->trace->outcome().empty())
                req->trace->setOutcome("error");
            channel.fail(std::current_exception());
        }
        channel.producerDone();
    });
    // A worker's pipeline failure surfaces here, after every producer
    // has returned — the caller sees the same exception a blocking
    // askBatch of these questions would have thrown.
    if (auto error = channel.error())
        std::rethrow_exception(error);

    for (std::size_t i = 0; i < requests.size(); ++i) {
        stats_->record(latencies[i],
                       retrieval::assessQuality(responses[i].bundle));
    }
    stats_->recordBatch();
    return responses;
}

ChatSession::ChatSession(CacheMind &engine, llm::MemoryConfig memory_cfg)
    : engine_(engine), memory_(memory_cfg)
{
}

query::ParsedQuery
ChatSession::augmentParsed(query::ParsedQuery parsed,
                           const std::vector<std::string> &recalled)
    const
{
    // Concept/code questions are retrieval-light; pinning a workload
    // from memory onto them would change what they are asking.
    if (parsed.intent == query::QueryIntent::Concept ||
        parsed.intent == query::QueryIntent::CodeGen) {
        return parsed;
    }
    if (parsed.hasWorkload() && parsed.hasPolicy())
        return parsed;

    if (recalled.empty())
        return parsed;
    std::string recalled_text;
    for (const auto &fact : recalled)
        recalled_text += fact + "\n";
    const auto mem = engine_.parser().parse(recalled_text);

    // Fill the missing slots directly (no re-parse of an augmented
    // string); `raw` is annotated the same way, so transcripts and
    // the generator's question key see what retrieval saw.
    if (!parsed.hasWorkload() && mem.hasWorkload()) {
        parsed.workloads.push_back(mem.workload());
        parsed.raw += " (in the " + mem.workload() + " workload)";
    }
    // A comparison question deliberately names no single policy; do
    // not pin one onto it from memory.
    if (!parsed.hasPolicy() && mem.hasPolicy() &&
        parsed.intent != query::QueryIntent::PolicyComparison) {
        parsed.policies.push_back(mem.policy());
        parsed.raw += " (under " + mem.policy() + ")";
    }
    return parsed;
}

Result<Response, EngineError>
ChatSession::ask(const std::string &question)
{
    // Reject blank input before augmentation: memory hints could turn
    // it into a fabricated non-empty query the engine would answer.
    if (str::trim(question).empty()) {
        return EngineError{EngineErrorCode::EmptyQuestion,
                           "question is empty"};
    }
    // Conversation memory augments the query *before* retrieval:
    // noted facts from earlier turns fill slots the follow-up leaves
    // unspecified, so retrieval sees the sharpened query. The
    // question is parsed exactly once — the augmented ParsedQuery
    // enters the engine's staged pipeline directly instead of being
    // rendered back to text and parsed a second time.
    const auto recalled = memory_.recall(question);
    const auto parsed = augmentParsed(
        engine_.parser().parse(question), recalled);
    auto result = engine_.askParsed(parsed, RequestContext{});
    if (!result.ok())
        return result;
    Response r = std::move(result).value();
    // Prepend recalled memory to the rendered context so transcripts
    // show the carried state.
    const std::string memory_block = memory_.renderContext(recalled);
    if (!memory_block.empty())
        r.bundle.result_text = memory_block + r.bundle.result_text;
    memory_.addTurn(question, r.text);
    turns_.push_back(llm::Turn{question, r.text});
    return r;
}

std::string
ChatSession::transcript() const
{
    std::ostringstream os;
    for (const auto &t : turns_) {
        os << "User: " << t.user << "\n";
        os << "Assistant: " << t.assistant << "\n\n";
    }
    return os.str();
}

} // namespace cachemind::core
