/**
 * @file
 * Shared pieces of the end-to-end benchmark: arguments, the metric
 * report, sample statistics, span arithmetic over obs::RequestTrace,
 * and the set-up every workload shares (database, questions,
 * reference answers).
 *
 * The benchmark talks to the library only through its public surface
 * (core::CacheMind, serve::Server, serve::LineClient,
 * benchsuite::BenchGenerator, obs::RequestTrace), so a change inside
 * any layer is measured without touching this code.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/grader.hh"
#include "benchsuite/question.hh"
#include "core/cachemind.hh"
#include "db/database.hh"
#include "obs/trace.hh"
#include "serve/client.hh"

namespace perfbench {

using namespace cachemind;
using Clock = std::chrono::steady_clock;

/** Microseconds between two steady-clock points. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Command-line arguments. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the traced run's Chrome trace files. */
    std::string trace_out;
};

/**
 * A bag of samples. Percentiles are nearest-rank over a sorted copy —
 * computed here, not with the library's statistics helpers, so that a
 * change to those helpers can never move a benchmark number.
 */
class Samples
{
  public:
    void add(double v) { xs_.push_back(v); }
    void merge(const Samples &o) { xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end()); }
    std::size_t size() const { return xs_.size(); }
    bool empty() const { return xs_.empty(); }
    double percentile(double p) const;
    double mean() const;

  private:
    std::vector<double> xs_;
};

/**
 * The metrics of one run, in print order. Every metric is printed as a
 * human-readable line (with its sample count when it is a percentile)
 * and then, in the last line, as the contract's JSON object.
 */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             std::size_t samples = 0);
    /** A line printed before the result but not part of `metrics`. */
    void note(const std::string &line) { notes_.push_back(line); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any check failed (answers, grading, protocol). */
    bool correct = true;

    /** Record a failed check and say why on stderr. */
    void fail(const std::string &why);

    /** Print the notes, one line per metric, then the JSON result. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t samples = 0;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t printed_failures_ = 0;
};

/**
 * One run of the benchmark: arguments, report, and the benchmark's own
 * span tree. The benchmark's spans (set-up stages, timed phases, layer
 * probes) are recorded in every run; they are written out, together
 * with a sample of request traces, only by a traced run.
 */
class Run
{
  public:
    Run(Args args, Clock::time_point process_start);

    const Args &args() const { return args_; }
    Report &report() { return report_; }
    bool traced() const { return args_.trace; }

    /** Context for the benchmark's own top-level spans. */
    obs::TraceContext root() const { return {bench_trace_, 0}; }

    /**
     * Mark the end of set-up: records setup_s (process start to the
     * first timed request) and the set-up split.
     */
    void setupDone();

    /** Keep one request trace for the output file (bounded sample). */
    void keepTrace(const std::shared_ptr<obs::RequestTrace> &trace);

    /** Write the benchmark's trace and the kept request traces. */
    void writeTraces() const;

    /** Set-up stage timings, filled by the set-up helpers. */
    double db_build_s = 0.0;
    double generate_s = 0.0;
    double reference_s = 0.0;
    double warmup_ms = 0.0;

  private:
    Args args_;
    Clock::time_point process_start_;
    Report report_;
    std::shared_ptr<obs::RequestTrace> bench_trace_;
    std::vector<std::shared_ptr<obs::RequestTrace>> kept_;
};

/** CPUs this process may run on (what nproc prints). */
std::size_t cpusAvailable();

/** RAII timer: a benchmark span plus its duration in milliseconds. */
class StageTimer
{
  public:
    StageTimer(const obs::TraceContext &ctx, std::string name)
        : ctx_(ctx), id_(ctx.begin(std::move(name))), start_(Clock::now())
    {
    }
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;
    ~StageTimer() { stop(); }

    /** Close the span (idempotent); returns the elapsed milliseconds. */
    double stop();
    obs::TraceContext child() const { return ctx_.child(id_); }

  private:
    obs::TraceContext ctx_;
    std::uint32_t id_ = 0;
    Clock::time_point start_;
    double ms_ = -1.0;
};

// ------------------------------------------------------------ set-up

/** Build the default database (3 workloads x 4 policies). */
db::TraceDatabase buildDefaultDatabase(Run &run);

/**
 * The question set of a workload from its seed: one 100-question
 * suite (suites == 1), or the text-deduplicated union of `suites`
 * suites drawn with seeds derived from `seed`.
 */
std::vector<benchsuite::Question>
generateQuestions(Run &run, const db::TraceDatabase &db, std::uint64_t seed,
                  std::size_t suites);

/** One reference answer: the text and its grade against gold. */
struct Reference
{
    std::string text;
    benchsuite::GradeResult grade;
};

/**
 * Blocking, single-caller ask() of every question on a fresh engine
 * with the retrieval cache off: the reference every timed answer must
 * match byte for byte (cache on vs off, batch vs sequential, streamed
 * vs blocking), graded once against gold. A failed or degraded
 * reference answer fails the run.
 */
std::vector<Reference>
referenceAnswers(Run &run, const db::TraceDatabase &db,
                 const std::string &retriever,
                 const std::vector<benchsuite::Question> &questions);

/** Trace-grounded accuracy and reasoning score over graded answers. */
struct Grades
{
    double tg_earned = 0.0, tg_max = 0.0;
    double ara_earned = 0.0, ara_max = 0.0;

    void add(const benchsuite::Question &q, const Reference &ref);
    /** Report tg_accuracy_pct and ara_score_pct. */
    void report(Report &report) const;
};

/** Build an engine or fail loudly (misconfiguration is a bench bug). */
core::CacheMind makeEngine(const db::TraceDatabase &db,
                           core::EngineOptions opts);

/** Engine options for a named retriever, all else default. */
core::EngineOptions engineOptions(const std::string &retriever);

/** Deterministic 64-bit mix (splitmix64) for deriving seeds. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

// ------------------------------------------------------- span maths

/** Span duration in microseconds (0 for an open span). */
double spanUs(const obs::TraceSpan &span);

/**
 * Self time of `span` in microseconds: its duration minus the part of
 * its interval that its direct children cover (overlapping children
 * are counted once).
 */
double selfUs(const std::vector<obs::TraceSpan> &spans,
              const obs::TraceSpan &span);

/** First span named `name` under `parent` (nullptr if none). */
const obs::TraceSpan *findChild(const std::vector<obs::TraceSpan> &spans,
                                std::uint32_t parent,
                                const std::string &name);

/**
 * Per-stage samples of the engine's span tree for one request: the
 * root "ask" span, its parse/plan/retrieve/generate children, and its
 * self time (the unattributed residual).
 */
struct AskSpans
{
    Samples ask_us, parse_us, plan_us, retrieve_us, generate_us, residual_us;

    /** Fold the "ask" span under `parent` (0 = root level). */
    bool add(const std::vector<obs::TraceSpan> &spans,
             std::uint32_t parent = 0);
    void merge(const AskSpans &o);
};

// ------------------------------------------------------ timed phase

/** Inputs of the traced run's layer probes for one workload. */
struct LayerInputs
{
    const db::TraceDatabase *db = nullptr;
    /** The workload's distinct questions. */
    const std::vector<benchsuite::Question> *questions = nullptr;
    /** Retrievers the workload uses, with their reference answers. */
    std::vector<std::string> retrievers;
    std::vector<const std::vector<Reference> *> references;
    /**
     * The workload's request stream as (question, retriever) indices,
     * in the order it asks them: the key stream of the cache probe.
     */
    std::vector<std::pair<std::uint32_t, std::uint8_t>> stream;
    /** Run the one-connection serve probe (workloads without a server). */
    bool serve_probe = true;
};

/**
 * Cache and postings-index counters. The cache fields are diffed
 * across a timed phase; index_build_ms is the one-time total.
 */
struct PhaseCounters
{
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    std::uint64_t promotions = 0, demotions = 0;
    std::uint64_t lookups = 0, rows_skipped = 0;
    double index_build_ms = 0.0;

    static PhaseCounters of(const core::EngineStats &stats);
    /** Counts since `before` (index_build_ms stays this snapshot's). */
    PhaseCounters since(const PhaseCounters &before) const;
    /** Add another engine's cache counters (engines with own caches). */
    void addCache(const PhaseCounters &other);
    void report(Report &report) const;
};

/** Serve-layer samples from traced requests (see ServeSpans::add). */
struct ServeSpans
{
    Samples overhead_us, lease_us, write_us, residual_us, frames;

    /**
     * Fold one request: the server's span tree (root "serve.ask")
     * joined with the client-side done latency and frame count of the
     * same request. False when the tree is incomplete.
     */
    bool add(const std::vector<obs::TraceSpan> &spans, double client_done_us,
             std::size_t frames_read);
    void merge(const ServeSpans &o);
    void report(Report &report) const;
};

/** What one timed phase measured. */
struct Phase
{
    /** One completed request (or batch call). */
    struct Done
    {
        /** Completion time, seconds since the phase started. */
        double at_s = 0.0;
        double latency_us = 0.0;
        /** Time to the first output the caller could read. */
        double ttfe_us = 0.0;
        /** Questions it answered correctly. */
        std::uint32_t answered = 0;
    };

    explicit Phase(Clock::time_point start = Clock::now()) : start(start) {}

    void
    record(double latency_us, double ttfe_us, std::uint32_t answered = 1)
    {
        done.push_back({usBetween(start, Clock::now()) / 1e6, latency_us,
                        ttfe_us, answered});
    }

    /** Close the phase: its wall clock ends now. */
    void finish() { wall_s = usBetween(start, Clock::now()) / 1e6; }

    /** Fold in a phase with the same start (another client thread). */
    void merge(const Phase &o);

    std::uint64_t answered() const;
    Samples latency() const;

    Clock::time_point start;
    std::vector<Done> done;
    double wall_s = 0.0;
    /** Span-derived samples (traced phases only). */
    AskSpans ask;
    ServeSpans serve;
    PhaseCounters counters;
    /** Grades of the answers the phase served. */
    Grades grades;
};

/** One askBatch call's worth of questions. */
struct AskBatch
{
    /** Index of the first question in the workload's question list. */
    std::size_t first = 0;
    std::vector<core::RequestContext> requests;
};

/**
 * The questions as askBatch calls: balanced chunks of at most `chunk`
 * questions, in order (EvalHarness issues one call per suite).
 */
std::vector<AskBatch>
askBatches(const std::vector<benchsuite::Question> &questions,
           std::size_t chunk);

/**
 * One askBatch call on `engine`, timed into `p`. Answer k must match
 * refs[batch.first + k] byte for byte and not be degraded; a traced
 * call folds each answer's span tree into `p` and keeps its trace.
 */
void askBatchChecked(Run &run, core::CacheMind &engine, AskBatch &batch,
                     const std::vector<Reference> &refs, Phase &p,
                     bool traced);

/** A workload's timed phase: run for `seconds`, traced or not. */
using PhaseFn = std::function<Phase(double seconds, bool traced)>;

/**
 * The part every workload shares after set-up. An untraced run
 * measures one phase and reports the end-to-end metrics; a traced run
 * measures an untraced and a traced phase of half the length each,
 * probes the layers and reports the per-layer metrics.
 */
void finishWorkload(Run &run, const PhaseFn &phase, const LayerInputs &in);

// ------------------------------------------------------ serve client

/** One streamed ask over the wire, as the client saw it. */
struct ServeAsk
{
    bool ok = false;
    /** Why the request failed ("" when ok). */
    std::string why;
    double ttfe_us = 0.0, done_us = 0.0;
    std::size_t frames = 0;
};

/**
 * Send one ask request line and read its frames to the terminal one.
 * The request fails on an error/overloaded/deadline_exceeded frame, a
 * closed connection before done, a degraded answer, or a done answer
 * whose bytes differ from `expected`.
 */
ServeAsk serveAsk(serve::LineClient &client, const std::string &line,
                  const std::string &expected);

/**
 * The server's span tree of a finished request: the `trace` verb on
 * the same connection confirms the session recorded it (the session
 * records after writing done, so the verb orders the read), then the
 * full-precision spans are read from the in-process TraceStore. On
 * failure returns null and says why in `why`.
 */
std::shared_ptr<const obs::RequestTrace>
fetchServerTrace(serve::LineClient &client, const std::string &request_id,
                 std::string *why);

/** Connect to an in-process server and consume its hello frame. */
bool connectClient(serve::LineClient &client, std::uint16_t port);

// --------------------------------------------------------- workloads

void runHotAsk(Run &run);
void runHotBatch(Run &run);
void runColdBatch(Run &run);
void runServeZipf(Run &run);

// ------------------------------------------------------ layer probes

/**
 * Time each layer's public entry points over the workload's inputs and
 * report the per-layer metrics that do not come from the workload's
 * own timed phase (see README.md for the full table).
 */
void probeLayers(Run &run, const LayerInputs &in);

/**
 * Time the first statsFor() of every shard (db.stats_expert_ms). Must
 * run before anything else touches the experts, so a traced run calls
 * it right after the database build.
 */
void probeStatsExperts(Run &run, const db::TraceDatabase &db);

/**
 * Split of the database build for the traced run: re-run its stages
 * one at a time (trace synthesis, LLC capture, oracle, per-policy
 * replay) on the default workloads and report each one's time.
 */
void probeBuildStages(Run &run);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
