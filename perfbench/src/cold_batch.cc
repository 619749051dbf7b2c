/**
 * @file
 * cold-batch: the CacheMindBench evaluation sweep.
 *
 * Each pass builds fresh default sieve and ranger engines and answers
 * the whole question population once through askBatch, one call per
 * suite-sized chunk of at most 100 questions (as EvalHarness issues
 * one askBatch per suite). Every question is a first sighting for its
 * engine, so the retrieval cache sees only misses, inserts and
 * evictions, and retrieval (postings, stats experts, Sieve windows,
 * Ranger plans) is about half of every answer. No server is involved.
 */

#include "bench.hh"

namespace perfbench {

namespace {

/** Population size: about 50 suites, deduplicated by question text. */
constexpr std::size_t kSuites = 50;
/** askBatch call size: one CacheMindBench suite. */
constexpr std::size_t kChunk = 100;

} // namespace

void
runColdBatch(Run &run)
{
    const db::TraceDatabase db = buildDefaultDatabase(run);
    if (run.traced())
        probeStatsExperts(run, db);
    const auto questions =
        generateQuestions(run, db, run.args().seed, kSuites);
    const std::vector<std::string> retrievers = {"sieve", "ranger"};
    const std::vector<std::vector<Reference>> refs = {
        referenceAnswers(run, db, retrievers[0], questions),
        referenceAnswers(run, db, retrievers[1], questions)};

    const std::size_t n = questions.size();
    auto batches = askBatches(questions, kChunk);

    // Reads the shard-level postings counters around a phase.
    core::CacheMind probe = makeEngine(db, engineOptions("sieve"));

    /** One pass per retriever: fresh engine, every chunk once. */
    const auto pass = [&](Phase &p, bool traced, PhaseCounters &cache) {
        for (std::size_t r = 0; r < retrievers.size(); ++r) {
            core::CacheMind engine =
                makeEngine(db, engineOptions(retrievers[r]));
            for (auto &batch : batches)
                askBatchChecked(run, engine, batch, refs[r], p, traced);
            cache.addCache(PhaseCounters::of(engine.stats()));
        }
    };

    StageTimer warm(run.root(), "core.warmup");
    {
        Phase unused;
        PhaseCounters ignored;
        pass(unused, false, ignored);
    }
    run.warmup_ms = warm.stop();
    run.report().attempted = 0;
    run.report().failed = 0;
    run.setupDone();

    Grades grades;
    for (std::size_t r = 0; r < retrievers.size(); ++r)
        for (std::size_t i = 0; i < n; ++i)
            grades.add(questions[i], refs[r][i]);

    const PhaseFn phase = [&](double seconds, bool traced) {
        const PhaseCounters before = PhaseCounters::of(probe.stats());
        PhaseCounters cache;
        Phase p;
        p.grades = grades;
        const Clock::time_point end =
            p.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
        do
            pass(p, traced, cache);
        while (Clock::now() < end);
        p.finish();
        // The probe engine asks nothing: its diff holds only the
        // shard-level postings counters.
        p.counters = PhaseCounters::of(probe.stats()).since(before);
        p.counters.addCache(cache);
        return p;
    };

    LayerInputs in;
    in.db = &db;
    in.questions = &questions;
    in.retrievers = retrievers;
    in.references = {&refs[0], &refs[1]};
    for (std::uint8_t r = 0; r < retrievers.size(); ++r)
        for (std::uint32_t i = 0; i < n; ++i)
            in.stream.emplace_back(i, r);
    finishWorkload(run, phase, in);
}

} // namespace perfbench
