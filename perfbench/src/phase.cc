#include <cstdio>

#include "bench.hh"
#include "serve/protocol.hh"

namespace perfbench {

// ------------------------------------------------------ PhaseCounters

PhaseCounters
PhaseCounters::of(const core::EngineStats &stats)
{
    PhaseCounters c;
    c.hits = stats.cache.hits;
    c.misses = stats.cache.misses;
    c.evictions = stats.cache.evictions;
    c.promotions = stats.cache_tiers.promotions;
    c.demotions = stats.cache_tiers.demotions;
    c.lookups = stats.index.lookups;
    c.rows_skipped = stats.index.rows_skipped;
    c.index_build_ms = stats.index.build_ms_total;
    return c;
}

PhaseCounters
PhaseCounters::since(const PhaseCounters &before) const
{
    PhaseCounters d = *this;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.evictions -= before.evictions;
    d.promotions -= before.promotions;
    d.demotions -= before.demotions;
    d.lookups -= before.lookups;
    d.rows_skipped -= before.rows_skipped;
    return d;
}

void
PhaseCounters::addCache(const PhaseCounters &other)
{
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    promotions += other.promotions;
    demotions += other.demotions;
}

void
PhaseCounters::report(Report &report) const
{
    const std::uint64_t total = hits + misses;
    report.add("retrieval.cache_hit_ratio",
               total ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0,
               "ratio", total);
    report.add("retrieval.cache_misses", static_cast<double>(misses), "count");
    report.add("retrieval.cache_promotions", static_cast<double>(promotions),
               "count");
    report.add("retrieval.cache_demotions", static_cast<double>(demotions),
               "count");
    report.add("retrieval.cache_evictions", static_cast<double>(evictions),
               "count");
    report.add("db.index_build_ms", index_build_ms, "ms");
    report.add("db.indexed_lookups", static_cast<double>(lookups), "count");
    report.add("db.rows_skipped", static_cast<double>(rows_skipped), "count");
}

// --------------------------------------------------------- ServeSpans

bool
ServeSpans::add(const std::vector<obs::TraceSpan> &spans, double client_done_us,
                std::size_t frames_read)
{
    const obs::TraceSpan *root = findChild(spans, 0, "serve.ask");
    if (!root)
        return false;
    const obs::TraceSpan *lease = findChild(spans, root->id, "lease");
    const obs::TraceSpan *ask = findChild(spans, root->id, "ask");
    if (!lease || !ask)
        return false;
    double write = 0.0;
    for (const auto &s : spans)
        if (s.parent == root->id && s.name == "write")
            write += spanUs(s);
    overhead_us.add(client_done_us - spanUs(*ask));
    lease_us.add(spanUs(*lease));
    write_us.add(write);
    residual_us.add(selfUs(spans, *root));
    frames.add(static_cast<double>(frames_read));
    return true;
}

void
ServeSpans::merge(const ServeSpans &o)
{
    overhead_us.merge(o.overhead_us);
    lease_us.merge(o.lease_us);
    write_us.merge(o.write_us);
    residual_us.merge(o.residual_us);
    frames.merge(o.frames);
}

void
ServeSpans::report(Report &report) const
{
    const std::size_t n = overhead_us.size();
    if (n == 0)
        report.fail("no complete serve span tree was recorded");
    report.add("serve.overhead_us", overhead_us.percentile(50), "us", n);
    report.add("serve.lease_wait_us_p50", lease_us.percentile(50), "us", n);
    report.add("serve.lease_wait_us_p99", lease_us.percentile(99), "us", n);
    report.add("serve.write_us", write_us.percentile(50), "us", n);
    report.add("serve.residual_us", residual_us.percentile(50), "us", n);
    report.add("serve.frames_per_ask", frames.mean(), "frames", n);
}

// -------------------------------------------------------------- Phase

void
Phase::merge(const Phase &o)
{
    done.insert(done.end(), o.done.begin(), o.done.end());
    ask.merge(o.ask);
    serve.merge(o.serve);
}

std::uint64_t
Phase::answered() const
{
    std::uint64_t n = 0;
    for (const auto &d : done)
        n += d.answered;
    return n;
}

Samples
Phase::latency() const
{
    Samples s;
    for (const auto &d : done)
        s.add(d.latency_us);
    return s;
}

// ---------------------------------------------------------- askBatch

std::vector<AskBatch>
askBatches(const std::vector<benchsuite::Question> &questions,
           std::size_t chunk)
{
    const std::size_t n = questions.size();
    std::vector<AskBatch> batches((n + chunk - 1) / chunk);
    for (std::size_t c = 0, i = 0; c < batches.size(); ++c) {
        batches[c].first = i;
        const std::size_t size =
            n / batches.size() + (c < n % batches.size() ? 1 : 0);
        for (std::size_t k = 0; k < size; ++k, ++i)
            batches[c].requests.emplace_back(questions[i].text);
    }
    return batches;
}

void
askBatchChecked(Run &run, core::CacheMind &engine, AskBatch &batch,
                const std::vector<Reference> &refs, Phase &p, bool traced)
{
    auto &requests = batch.requests;
    const Clock::time_point t0 = Clock::now();
    if (traced)
        for (auto &ctx : requests)
            ctx.traced();
    const auto result = engine.askBatch(requests);
    const double us = usBetween(t0, Clock::now());
    run.report().attempted += requests.size();
    if (!result.ok()) {
        run.report().failed += requests.size();
        run.report().fail("askBatch: " + core::errorMessage(result.error()));
        return;
    }
    std::uint32_t answered = 0;
    for (std::size_t k = 0; k < requests.size(); ++k) {
        const auto &resp = result.value()[k];
        if (resp.bundle.degraded || resp.text != refs[batch.first + k].text) {
            ++run.report().failed;
            run.report().fail("askBatch answer " +
                              std::to_string(batch.first + k) +
                              " degraded or differs from the reference");
            continue;
        }
        ++answered;
        if (traced) {
            if (!p.ask.add(requests[k].trace->spans()))
                run.report().fail("incomplete engine span tree");
            run.keepTrace(requests[k].trace);
            requests[k].trace.reset();
        }
    }
    // A batch's answers all arrive when the call returns.
    p.record(us, us, answered);
}

// ----------------------------------------------------- finishWorkload

namespace {

/**
 * Throughput and median latency are the end-to-end metrics. The tails
 * and the time to first output are printed as a note: on a shared host
 * the tail of a call is mostly the longest time a CPU was taken from
 * it, and in the blocking workloads the first output is the answer.
 */
void
reportEndToEnd(Run &run, const Phase &p)
{
    Report &r = run.report();
    const std::size_t n = p.done.size();
    if (n == 0 || p.wall_s <= 0.0)
        r.fail("the timed phase answered nothing");
    Samples ttfe;
    for (const auto &d : p.done)
        ttfe.add(d.ttfe_us);
    const Samples latency = p.latency();
    r.add("throughput_qps",
          p.wall_s > 0.0 ? static_cast<double>(p.answered()) / p.wall_s : 0.0,
          "1/s", p.answered());
    r.add("latency_p50_us", latency.percentile(50), "us", n);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "latency p90 %.1f p99 %.1f us; ttfe p50 %.1f p90 %.1f "
                  "p99 %.1f us (n=%zu)",
                  latency.percentile(90), latency.percentile(99),
                  ttfe.percentile(50), ttfe.percentile(90),
                  ttfe.percentile(99), n);
    r.note(line);
    p.grades.report(r);
}

void
reportTraced(Run &run, const Phase &untraced, const Phase &traced)
{
    Report &r = run.report();
    const double u50 = untraced.latency().percentile(50);
    const double t50 = traced.latency().percentile(50);
    r.add("obs.trace_overhead_pct", u50 > 0.0 ? 100.0 * (t50 - u50) / u50 : 0.0,
          "%", traced.done.size());
    r.add("core.traced_latency_p50_us", t50, "us", traced.done.size());

    const AskSpans &a = traced.ask;
    const std::size_t n = a.ask_us.size();
    if (n == 0)
        r.fail("no complete engine span tree was recorded");
    r.add("core.ask_span_us", a.ask_us.percentile(50), "us", n);
    r.add("core.parse_span_us", a.parse_us.percentile(50), "us", n);
    r.add("core.plan_span_us", a.plan_us.percentile(50), "us", n);
    r.add("retrieval.retrieve_span_us", a.retrieve_us.percentile(50), "us", n);
    r.add("core.generate_span_us", a.generate_us.percentile(50), "us", n);
    r.add("core.ask_residual_us", a.residual_us.percentile(50), "us", n);
    // Means add up exactly where percentiles do not: the engine's ask
    // span is its stages plus the residual, and the rest of the
    // end-to-end time is spent outside the engine.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span accounting (means, us): ask %.1f = parse %.1f + plan "
                  "%.1f + retrieve %.1f + generate %.1f + residual %.1f; "
                  "end-to-end per timed call %.1f",
                  a.ask_us.mean(), a.parse_us.mean(), a.plan_us.mean(),
                  a.retrieve_us.mean(), a.generate_us.mean(),
                  a.residual_us.mean(), traced.latency().mean());
    r.note(line);
    untraced.counters.report(r);
    if (!traced.serve.overhead_us.empty())
        traced.serve.report(r);
}

} // namespace

void
finishWorkload(Run &run, const PhaseFn &phase, const LayerInputs &in)
{
    const Args &args = run.args();
    if (!run.traced()) {
        StageTimer t(run.root(), "phase.untraced");
        reportEndToEnd(run, phase(args.seconds, false));
        return;
    }
    Phase untraced, traced;
    {
        StageTimer t(run.root(), "phase.untraced");
        untraced = phase(args.seconds / 2, false);
    }
    {
        StageTimer t(run.root(), "phase.traced");
        traced = phase(args.seconds / 2, true);
    }
    reportTraced(run, untraced, traced);
    probeLayers(run, in);
    probeBuildStages(run);
    run.writeTraces();
}

// ------------------------------------------------------- serve client

namespace {

/** The "frame" field of a protocol frame (every frame leads with it). */
std::string
frameKind(const std::string &line)
{
    static const std::string prefix = "{\"frame\":\"";
    if (line.compare(0, prefix.size(), prefix) != 0)
        return std::string();
    const std::size_t end = line.find('"', prefix.size());
    return end == std::string::npos
               ? std::string()
               : line.substr(prefix.size(), end - prefix.size());
}

} // namespace

ServeAsk
serveAsk(serve::LineClient &client, const std::string &line,
         const std::string &expected)
{
    ServeAsk out;
    const Clock::time_point t0 = Clock::now();
    if (!client.sendLine(line)) {
        out.why = "request write failed";
        return out;
    }
    while (auto frame = client.recvLine()) {
        const Clock::time_point now = Clock::now();
        if (out.frames++ == 0)
            out.ttfe_us = usBetween(t0, now);
        const std::string kind = frameKind(*frame);
        if (kind == "parsed" || kind == "planned" || kind == "evidence" ||
            kind == "delta")
            continue;
        out.done_us = usBetween(t0, now);
        if (kind != "done") {
            out.why = "terminal frame: " + frame->substr(0, 160);
            return out;
        }
        const auto fields = serve::parseJsonObject(*frame);
        if (!fields) {
            out.why = "malformed done frame";
        } else if (fields->count("degraded")) {
            out.why = "degraded answer";
        } else if (fields->count("answer") == 0 ||
                   fields->at("answer") != expected) {
            out.why = "done answer differs from the blocking reference";
        } else {
            out.ok = true;
        }
        return out;
    }
    out.why = "connection closed before the done frame";
    return out;
}

std::shared_ptr<const obs::RequestTrace>
fetchServerTrace(serve::LineClient &client, const std::string &request_id,
                 std::string *why)
{
    serve::Request req;
    req.op = serve::Request::Op::Trace;
    req.id = "trace";
    req.request_id = request_id;
    const auto reply = client.sendLine(serve::renderRequest(req))
                           ? client.recvLine()
                           : std::nullopt;
    const auto fields = reply && frameKind(*reply) == "trace"
                            ? serve::parseJsonObject(*reply)
                            : std::nullopt;
    auto trace = fields && fields->count("found") && fields->at("found") == "1"
                     ? obs::TraceStore::instance().byRequestId(request_id)
                     : nullptr;
    if (!trace)
        *why = "no trace for " + request_id + " (reply: " +
               (reply ? reply->substr(0, 120) : std::string("none")) + ")";
    return trace;
}

bool
connectClient(serve::LineClient &client, std::uint16_t port)
{
    if (!client.connectRetry("127.0.0.1", port))
        return false;
    const auto hello = client.recvLine();
    return hello && frameKind(*hello) == "hello";
}

} // namespace perfbench
