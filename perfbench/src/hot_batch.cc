/**
 * @file
 * hot-batch: the evaluation harness re-running suites on a warm engine.
 *
 * Ten CacheMindBench suites, deduplicated by text (fewer questions
 * than the 1024-bundle hot tier holds), answered over and over through
 * one askBatch call per suite-sized chunk on a default sieve engine
 * with batch_workers = 4. After the untimed first pass every question
 * is a hot-tier cache hit, so, as in hot-ask, parse, render, prompt
 * and generate do nearly all the work and the database is never
 * scanned. Unlike hot-ask, four workers share that work, so the
 * figures average over four CPUs instead of following whichever one
 * a single caller runs on.
 */

#include "bench.hh"

namespace perfbench {

namespace {

constexpr std::size_t kSuites = 10;
/** askBatch call size: one CacheMindBench suite. */
constexpr std::size_t kChunk = 100;

} // namespace

void
runHotBatch(Run &run)
{
    const db::TraceDatabase db = buildDefaultDatabase(run);
    if (run.traced())
        probeStatsExperts(run, db);
    const auto questions =
        generateQuestions(run, db, run.args().seed, kSuites);
    const auto refs = referenceAnswers(run, db, "sieve", questions);
    auto batches = askBatches(questions, kChunk);

    StageTimer warm(run.root(), "core.warmup");
    core::CacheMind engine = makeEngine(db, engineOptions("sieve"));
    engine.warmup();
    {
        Phase unused;
        for (auto &batch : batches)
            askBatchChecked(run, engine, batch, refs, unused, false);
    }
    run.warmup_ms = warm.stop();
    run.report().attempted = 0;
    run.report().failed = 0;
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
        do
            for (auto &batch : batches)
                askBatchChecked(run, engine, batch, refs, p, traced);
        while (Clock::now() < end);
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
