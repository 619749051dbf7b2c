/**
 * @file
 * Layer probes of the traced run. Each probe times calls into one
 * layer's public functions over the workload's own inputs, so every
 * per-layer metric is printed for every workload while its value
 * reflects that workload's questions and key stream.
 */

#include <map>
#include <set>
#include <thread>

#include "bench.hh"
#include "db/builder.hh"
#include "policy/parrot.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/llc_replay.hh"

namespace perfbench {

namespace {

/** Distinct (question, retriever) pairs probed one by one. */
constexpr std::size_t kSample = 200;
/** Requests of the one-connection serve probe. */
constexpr std::size_t kServeProbe = 300;
/** RetrievalCache::peek calls per probe thread. */
constexpr std::size_t kPeeksPerThread = 60000;
constexpr std::size_t kPeekThreads = 3;

using Pair = std::pair<std::uint32_t, std::uint8_t>;

/** Distinct pairs of the stream in first-seen order. */
std::vector<Pair>
distinctPairs(const std::vector<Pair> &stream)
{
    std::vector<Pair> out;
    std::set<Pair> seen;
    for (const Pair &p : stream)
        if (seen.insert(p).second)
            out.push_back(p);
    return out;
}

/** At most `n` elements, evenly strided. */
std::vector<Pair>
strided(const std::vector<Pair> &xs, std::size_t n)
{
    if (xs.size() <= n)
        return xs;
    std::vector<Pair> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(xs[i * xs.size() / n]);
    return out;
}

double
usSince(Clock::time_point t0)
{
    return usBetween(t0, Clock::now());
}

} // namespace

void
probeLayers(Run &run, const LayerInputs &in)
{
    Report &rep = run.report();
    const db::TraceDatabase &db = *in.db;
    const auto &questions = *in.questions;
    const std::vector<Pair> distinct = distinctPairs(in.stream);
    const std::vector<Pair> sample = strided(distinct, kSample);
    const auto refText = [&](const Pair &p) -> const std::string & {
        return (*in.references[p.second])[p.first].text;
    };

    // query, retrieval and llm: one layer call at a time, cache off.
    {
        StageTimer span(run.root(), "probe.layers");
        std::map<std::string, core::CacheMind> off;
        for (const char *name : {"sieve", "ranger"}) {
            core::EngineOptions opts = engineOptions(name);
            opts.retrieval_cache_capacity = 0;
            off.emplace(name, makeEngine(db, opts));
        }
        Samples parse, sieve, ranger, render, bytes, prompt, generate;
        for (const Pair &p : sample) {
            const std::string &text = questions[p.first].text;
            core::CacheMind &engine = off.at(in.retrievers[p.second]);
            Clock::time_point t0 = Clock::now();
            const query::ParsedQuery parsed = engine.parser().parse(text);
            parse.add(usSince(t0));
            for (auto &[name, e] : off) {
                t0 = Clock::now();
                e.retriever().retrieveParsed(parsed);
                (name == "sieve" ? sieve : ranger).add(usSince(t0));
            }

            // The bundle exactly as the generate stage sees it.
            const auto resp = engine.ask(core::RequestContext(text));
            if (!resp.ok()) {
                rep.fail("layer probe ask failed");
                continue;
            }
            const retrieval::ContextBundle &bundle = resp.value().bundle;
            llm::GenerationOptions gen;
            gen.shot_mode = engine.options().shot_mode;
            gen.tokens_per_second = engine.options().tokens_per_second;
            t0 = Clock::now();
            const std::string rendered = bundle.render();
            render.add(usSince(t0));
            bytes.add(static_cast<double>(rendered.size()));
            t0 = Clock::now();
            engine.generator().buildPrompt(bundle, gen);
            prompt.add(usSince(t0));
            t0 = Clock::now();
            const llm::Answer answer = engine.generator().answer(bundle, gen);
            generate.add(usSince(t0));
            if (answer.text != refText(p))
                rep.fail("generator answer differs from the reference");
        }
        const std::size_t n = sample.size();
        rep.add("query.parse_us", parse.percentile(50), "us", n);
        rep.add("retrieval.sieve_us", sieve.percentile(50), "us", n);
        rep.add("retrieval.ranger_us", ranger.percentile(50), "us", n);
        rep.add("retrieval.render_us", render.percentile(50), "us", n);
        rep.add("retrieval.bundle_bytes", bytes.mean(), "bytes", n);
        rep.add("llm.prompt_us", prompt.percentile(50), "us", n);
        rep.add("llm.generate_us", generate.percentile(50), "us", n);
    }

    // core: askStream to first event, for a key's first sighting and
    // for an immediate re-ask (a hot hit). The streams also yield the
    // cache key and bundle of every distinct pair for the cache probe.
    std::map<Pair, std::pair<std::string, std::shared_ptr<const retrieval::ContextBundle>>>
        entries;
    {
        StageTimer span(run.root(), "probe.stream");
        std::map<std::string, core::CacheMind> on;
        for (const auto &name : in.retrievers) {
            on.emplace(name, makeEngine(db, engineOptions(name)));
            on.at(name).warmup();
        }
        Samples cold, hot;
        for (const Pair &p : distinct) {
            core::CacheMind &engine = on.at(in.retrievers[p.second]);
            const core::RequestContext ctx(questions[p.first].text);
            for (int pass = 0; pass < 2; ++pass) {
                const Clock::time_point t0 = Clock::now();
                auto stream = engine.askStream(ctx);
                if (!stream.ok()) {
                    rep.fail("askStream failed");
                    break;
                }
                auto &s = stream.value();
                bool first = true, done = false;
                while (auto ev = s.next()) {
                    if (first) {
                        (pass == 0 ? cold : hot).add(usSince(t0));
                        first = false;
                    }
                    if (ev->kind == core::StreamEvent::Kind::Planned &&
                        pass == 0)
                        entries[p].first = ev->cache_key;
                    if (ev->kind == core::StreamEvent::Kind::Done) {
                        done = ev->response &&
                               ev->response->text == refText(p);
                        if (done && pass == 0)
                            entries[p].second =
                                std::make_shared<const retrieval::ContextBundle>(
                                    ev->response->bundle);
                    }
                }
                if (!done)
                    rep.fail("streamed answer differs from the reference");
            }
        }
        rep.add("core.stream_ttfe_cold_us", cold.percentile(50), "us",
                cold.size());
        rep.add("core.stream_ttfe_hot_us", hot.percentile(50), "us",
                hot.size());
    }

    // retrieval: RetrievalCache::peek from three threads over the
    // workload's key stream, on a standalone cache with the serve
    // layer's default geometry, filled with the workload's bundles.
    {
        StageTimer span(run.root(), "probe.cache_peek");
        const serve::ServeOptions serve_defaults;
        retrieval::RetrievalCache::Options opts;
        opts.capacity = serve_defaults.retrieval_cache_capacity;
        opts.hot_slots = serve_defaults.retrieval_cache_hot_slots;
        opts.secondary_capacity_bytes =
            serve_defaults.retrieval_cache_secondary_bytes;
        retrieval::RetrievalCache cache(opts);
        for (const Pair &p : distinct) {
            const auto &e = entries[p];
            if (!e.first.empty() && e.second)
                cache.publish(e.first, e.second);
        }
        std::vector<const std::string *> keys;
        for (const Pair &p : in.stream)
            if (!entries[p].first.empty())
                keys.push_back(&entries[p].first);
        std::vector<Samples> per(kPeekThreads);
        if (!keys.empty()) {
            std::vector<std::thread> threads;
            for (std::size_t t = 0; t < kPeekThreads; ++t)
                threads.emplace_back([&, t] {
                    std::size_t i = t * keys.size() / kPeekThreads;
                    for (std::size_t k = 0; k < kPeeksPerThread; ++k) {
                        const std::string &key = *keys[i];
                        i = (i + 1) % keys.size();
                        const Clock::time_point t0 = Clock::now();
                        cache.peek(key);
                        per[t].add(usSince(t0) * 1e3);
                    }
                });
            for (auto &t : threads)
                t.join();
        }
        Samples peeks;
        for (const auto &s : per)
            peeks.merge(s);
        if (peeks.empty())
            rep.fail("the workload has no cacheable key");
        rep.add("retrieval.cache_peek_ns_p50", peeks.percentile(50), "ns",
                peeks.size());
        rep.add("retrieval.cache_peek_ns_p99", peeks.percentile(99), "ns",
                peeks.size());
    }

    // core: askBatch against a single caller on the same questions,
    // both on fresh default engines (every question a first sighting).
    {
        StageTimer span(run.root(), "probe.batch");
        const std::string &name = in.retrievers[0];
        std::vector<core::RequestContext> batch;
        std::vector<const std::string *> expect;
        for (const Pair &p : sample)
            if (p.second == 0) {
                batch.emplace_back(questions[p.first].text);
                expect.push_back(&refText(p));
            }
        core::CacheMind single = makeEngine(db, engineOptions(name));
        double single_us = 0.0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            const auto r = single.ask(batch[i]);
            single_us += usSince(t0);
            if (!r.ok() || r.value().text != *expect[i])
                rep.fail("single-caller answer differs from the reference");
        }
        core::CacheMind batched = makeEngine(db, engineOptions(name));
        const Clock::time_point t0 = Clock::now();
        const auto r = batched.askBatch(batch);
        const double batch_us = usSince(t0);
        if (!r.ok())
            rep.fail("askBatch failed in the batch probe");
        else
            for (std::size_t i = 0; i < batch.size(); ++i)
                if (r.value()[i].text != *expect[i])
                    rep.fail("batched answer differs from the reference");
        const double workers =
            static_cast<double>(batched.options().batch_workers);
        rep.add("core.batch_efficiency",
                batch_us > 0.0 ? single_us / (batch_us * workers) : 0.0,
                "ratio", batch.size());
    }

    // serve: one connection, traced requests in the workload's order.
    if (in.serve_probe) {
        StageTimer span(run.root(), "probe.serve");
        serve::Server server(db, serve::ServeOptions{});
        std::string error;
        serve::LineClient client;
        ServeSpans spans;
        std::size_t n = std::min(kServeProbe, in.stream.size() * 3);
        if (!server.start(&error) || !connectClient(client, server.port())) {
            rep.fail("serve probe could not start: " + error);
            n = 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Pair &p = in.stream[i % in.stream.size()];
            serve::Request req;
            req.op = serve::Request::Op::Ask;
            req.id = std::to_string(i);
            req.question = questions[p.first].text;
            req.retriever = in.retrievers[p.second];
            req.request_id = "probe-" + std::to_string(i);
            const ServeAsk a =
                serveAsk(client, serve::renderRequest(req), refText(p));
            if (!a.ok) {
                rep.fail("serve probe: " + a.why);
                break;
            }
            std::string why = "incomplete span tree";
            const auto t = fetchServerTrace(client, req.request_id, &why);
            if (!t || !spans.add(t->spans(), a.done_us, a.frames))
                rep.fail("serve probe: " + why);
            else
                run.keepTrace(std::const_pointer_cast<obs::RequestTrace>(t));
        }
        client.close();
        server.stop();
        spans.report(rep);
    }
}

void
probeStatsExperts(Run &run, const db::TraceDatabase &db)
{
    StageTimer span(run.root(), "probe.stats_experts");
    double ms = 0.0;
    for (const auto &key : db.keys()) {
        const Clock::time_point t0 = Clock::now();
        if (!db.statsFor(key))
            run.report().fail("no stats expert for " + key);
        ms += usSince(t0) / 1e3;
    }
    run.report().add("db.stats_expert_ms", ms, "ms", db.keys().size());
}

void
probeBuildStages(Run &run)
{
    StageTimer span(run.root(), "probe.build_stages");
    const obs::TraceContext ctx = span.child();
    const db::BuildOptions opts;
    double generate_ms = 0.0, capture_ms = 0.0, oracle_ms = 0.0,
           replay_ms = 0.0;
    for (const auto wk : opts.workloads) {
        const auto model = trace::makeWorkload(wk);
        StageTimer t_gen(ctx, "trace.generate");
        const trace::Trace cpu = model->generate();
        generate_ms += t_gen.stop();
        StageTimer t_cap(ctx, "sim.capture");
        const auto stream = sim::captureLlcStream(cpu, opts.hierarchy);
        capture_ms += t_cap.stop();
        StageTimer t_orc(ctx, "sim.oracle");
        const sim::OracleInfo oracle = sim::computeOracle(stream);
        oracle_ms += t_orc.stop();
        for (const auto pk : opts.policies) {
            const std::string name = std::string("sim.replay.") +
                                     policy::policyName(pk);
            StageTimer t_rep(ctx, name);
            std::unique_ptr<policy::ReplacementPolicy> pol;
            if (pk == policy::PolicyKind::Parrot) {
                // As the database build does: train, then replay.
                auto parrot = std::make_unique<policy::ParrotPolicy>();
                parrot->setModel(sim::ParrotModelBuilder::train(stream, oracle));
                pol = std::move(parrot);
            } else {
                pol = policy::makePolicy(pk);
            }
            sim::LlcReplayer replayer(opts.hierarchy.llc, std::move(pol));
            replayer.replay(stream, &oracle, {});
            const double ms = t_rep.stop();
            replay_ms += ms;
            char line[128];
            std::snprintf(line, sizeof(line), "%-28s %10.1f ms (%s)",
                          name.c_str(), ms, trace::workloadName(wk));
            run.report().note(line);
        }
    }
    Report &rep = run.report();
    rep.add("trace.generate_ms", generate_ms, "ms");
    rep.add("sim.capture_ms", capture_ms, "ms");
    rep.add("sim.oracle_ms", oracle_ms, "ms");
    rep.add("sim.replay_ms", replay_ms, "ms");
}

} // namespace perfbench
