/**
 * @file
 * hot-ask: one interactive architect re-asking about resident slices.
 *
 * One caller, closed loop, one request in flight (the engine's
 * one-caller contract), cycling blocking ask() over one 100-question
 * suite on a default sieve engine. After the untimed first pass every
 * question is a hot-tier cache hit, so retrieval is a small share of
 * each ask and parse, render, prompt and generate dominate. The
 * database is never scanned: a postings or index change must show no
 * change here.
 */

#include "bench.hh"

namespace perfbench {

void
runHotAsk(Run &run)
{
    const db::TraceDatabase db = buildDefaultDatabase(run);
    if (run.traced())
        probeStatsExperts(run, db);
    const auto questions = generateQuestions(run, db, run.args().seed, 1);
    const auto refs = referenceAnswers(run, db, "sieve", questions);

    std::vector<core::RequestContext> requests;
    for (const auto &q : questions)
        requests.emplace_back(q.text);
    const auto check = [&](std::size_t i,
                           const Result<core::Response, core::EngineError> &r) {
        return r.ok() && !r.value().bundle.degraded &&
               r.value().text == refs[i].text;
    };

    StageTimer warm(run.root(), "core.warmup");
    core::CacheMind engine = makeEngine(db, engineOptions("sieve"));
    engine.warmup();
    for (std::size_t i = 0; i < requests.size(); ++i)
        if (!check(i, engine.ask(requests[i])))
            run.report().fail("untimed pass: answer " + std::to_string(i) +
                              " differs from the reference");
    run.warmup_ms = warm.stop();
    run.setupDone();

    Grades grades;
    for (std::size_t i = 0; i < questions.size(); ++i)
        grades.add(questions[i], refs[i]);

    const PhaseFn phase = [&](double seconds, bool traced) {
        const PhaseCounters before = PhaseCounters::of(engine.stats());
        Phase p;
        p.grades = grades;
        const Clock::time_point end =
            p.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
        for (std::size_t i = 0; Clock::now() < end;
             i = (i + 1) % requests.size()) {
            core::RequestContext &ctx = requests[i];
            const Clock::time_point t0 = Clock::now();
            if (traced)
                ctx.traced();
            const auto r = engine.ask(ctx);
            const double us = usBetween(t0, Clock::now());
            ++run.report().attempted;
            if (!check(i, r)) {
                ++run.report().failed;
                run.report().fail("hot-ask answer " + std::to_string(i) +
                                  " failed, degraded or differs");
                continue;
            }
            // A blocking caller's first output is the complete answer.
            p.record(us, us);
            if (traced) {
                if (!p.ask.add(ctx.trace->spans()))
                    run.report().fail("incomplete engine span tree");
                run.keepTrace(ctx.trace);
                ctx.trace.reset();
            }
        }
        p.finish();
        p.counters = PhaseCounters::of(engine.stats()).since(before);
        return p;
    };

    LayerInputs in;
    in.db = &db;
    in.questions = &questions;
    in.retrievers = {"sieve"};
    in.references = {&refs};
    for (std::uint32_t i = 0; i < questions.size(); ++i)
        in.stream.emplace_back(i, 0);
    finishWorkload(run, phase, in);
}

} // namespace perfbench
