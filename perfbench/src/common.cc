#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <unordered_set>

#include "bench.hh"
#include "benchsuite/generator.hh"
#include "db/builder.hh"
#include "obs/trace_export.hh"

namespace perfbench {

// ----------------------------------------------------------- Samples

double
Samples::percentile(double p) const
{
    if (xs_.empty())
        return 0.0;
    std::vector<double> sorted(xs_);
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t i =
        std::min(sorted.size() - 1,
                 static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return sorted[i];
}

double
Samples::mean() const
{
    return xs_.empty() ? 0.0
                       : std::accumulate(xs_.begin(), xs_.end(), 0.0) /
                             static_cast<double>(xs_.size());
}

// ------------------------------------------------------------ Report

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t samples)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not a finite number");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit, samples});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    // Every failure counts; the first few are explained.
    if (printed_failures_++ < 8)
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void
Report::print() const
{
    for (const auto &line : notes_)
        std::printf("%s\n", line.c_str());
    for (const auto &m : metrics_) {
        std::printf("metric %-28s %16.6f %s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples)
            std::printf("  (n=%zu)", m.samples);
        std::printf("\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// --------------------------------------------------------------- Run

Run::Run(Args args, Clock::time_point process_start)
    : args_(std::move(args)), process_start_(process_start),
      bench_trace_(std::make_shared<obs::RequestTrace>(
          "perfbench-" + args_.workload + "-seed" +
          std::to_string(args_.seed)))
{
}

void
Run::setupDone()
{
    const double setup_s = usBetween(process_start_, Clock::now()) / 1e6;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "setup split: db.build_s %.3f  benchsuite.generate_s %.3f"
                  "  core.reference_s %.3f  core.warmup_ms %.1f  setup_s %.3f",
                  db_build_s, generate_s, reference_s, warmup_ms, setup_s);
    report_.note(line);
    if (!args_.trace) {
        report_.add("setup_s", setup_s, "s");
        return;
    }
    report_.add("db.build_s", db_build_s, "s");
    report_.add("benchsuite.generate_s", generate_s, "s");
    report_.add("core.reference_s", reference_s, "s");
    report_.add("core.warmup_ms", warmup_ms, "ms");
}

void
Run::keepTrace(const std::shared_ptr<obs::RequestTrace> &trace)
{
    // A handful of request trees is enough to look at; keeping every
    // one would grow without bound over a long run.
    constexpr std::size_t kKeep = 16;
    if (trace && kept_.size() < kKeep)
        kept_.push_back(trace);
}

void
Run::writeTraces() const
{
    if (args_.trace_out.empty())
        return;
    // One Chrome trace-event file per trace: each loads on its own in
    // chrome://tracing or ui.perfetto.dev.
    const auto write = [&](const obs::RequestTrace &t, const std::string &name) {
        const std::string path = args_.trace_out + "/" + name + ".json";
        std::ofstream out(path);
        out << obs::toChromeJson(t) << '\n';
        if (!out)
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    };
    bench_trace_->setOutcome("done");
    write(*bench_trace_, "00-benchmark");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "%02zu-request", i + 1);
        write(*kept_[i], name);
    }
}

double
StageTimer::stop()
{
    if (ms_ < 0.0) {
        ms_ = usBetween(start_, Clock::now()) / 1e3;
        ctx_.end(id_);
    }
    return ms_;
}

std::size_t
cpusAvailable()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

// ------------------------------------------------------------ set-up

db::TraceDatabase
buildDefaultDatabase(Run &run)
{
    StageTimer t(run.root(), "db.build");
    db::BuildOptions options;
    options.build_threads = 0; // one per hardware core
    db::TraceDatabase db = db::buildDatabase(options);
    run.db_build_s = t.stop() / 1e3;
    return db;
}

std::vector<benchsuite::Question>
generateQuestions(Run &run, const db::TraceDatabase &db, std::uint64_t seed,
                  std::size_t suites)
{
    StageTimer t(run.root(), "benchsuite.generate");
    std::vector<benchsuite::Question> out;
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < suites; ++i) {
        const benchsuite::BenchGenerator gen(db.shards(), mixSeed(seed, i));
        for (auto &q : gen.generate())
            if (seen.insert(q.text).second)
                out.push_back(std::move(q));
    }
    run.generate_s += t.stop() / 1e3;
    run.report().note("questions: " + std::to_string(out.size()) +
                      " distinct from " + std::to_string(suites) +
                      " suite(s)");
    return out;
}

core::EngineOptions
engineOptions(const std::string &retriever)
{
    core::EngineOptions opts;
    opts.retriever = retriever;
    return opts;
}

core::CacheMind
makeEngine(const db::TraceDatabase &db, core::EngineOptions opts)
{
    auto engine = core::CacheMind::create(db, std::move(opts));
    if (!engine.ok()) {
        std::fprintf(stderr, "perfbench: engine: %s\n",
                     core::errorMessage(engine.error()).c_str());
        std::exit(1);
    }
    return std::move(engine).value();
}

std::vector<Reference>
referenceAnswers(Run &run, const db::TraceDatabase &db,
                 const std::string &retriever,
                 const std::vector<benchsuite::Question> &questions)
{
    StageTimer t(run.root(), "reference." + retriever);
    core::EngineOptions opts = engineOptions(retriever);
    opts.retrieval_cache_capacity = 0;
    core::CacheMind engine = makeEngine(db, opts);
    std::vector<Reference> refs(questions.size());
    for (std::size_t i = 0; i < questions.size(); ++i) {
        auto r = engine.ask(core::RequestContext(questions[i].text));
        if (!r.ok() || r.value().bundle.degraded) {
            run.report().fail("reference answer for question " +
                              std::to_string(i) + " (" + retriever +
                              ") failed or degraded");
            continue;
        }
        refs[i].grade = benchsuite::grade(questions[i], r.value().answer);
        refs[i].text = std::move(r.value().text);
    }
    run.reference_s += t.stop() / 1e3;
    return refs;
}

void
Grades::add(const benchsuite::Question &q, const Reference &ref)
{
    if (benchsuite::isTraceGrounded(q.category)) {
        tg_earned += ref.grade.score;
        tg_max += ref.grade.max;
    } else {
        ara_earned += ref.grade.score;
        ara_max += ref.grade.max;
    }
}

void
Grades::report(Report &report) const
{
    if (tg_max <= 0.0 || ara_max <= 0.0)
        report.fail("no graded answers in one of the two tiers");
    report.add("tg_accuracy_pct",
               tg_max > 0.0 ? 100.0 * tg_earned / tg_max : 0.0, "%");
    report.add("ara_score_pct",
               ara_max > 0.0 ? 100.0 * ara_earned / ara_max : 0.0, "%");
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// -------------------------------------------------------- span maths

double
spanUs(const obs::TraceSpan &span)
{
    return span.end_ns > span.start_ns
               ? static_cast<double>(span.end_ns - span.start_ns) / 1e3
               : 0.0;
}

double
selfUs(const std::vector<obs::TraceSpan> &spans, const obs::TraceSpan &span)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const auto &c : spans) {
        if (c.parent != span.id || c.end_ns <= c.start_ns)
            continue;
        cover.emplace_back(std::max(c.start_ns, span.start_ns),
                           std::min(c.end_ns, span.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, reach = span.start_ns;
    for (const auto &[a, b] : cover) {
        const std::uint64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return spanUs(span) - static_cast<double>(covered) / 1e3;
}

const obs::TraceSpan *
findChild(const std::vector<obs::TraceSpan> &spans, std::uint32_t parent,
          const std::string &name)
{
    for (const auto &s : spans)
        if (s.parent == parent && s.name == name)
            return &s;
    return nullptr;
}

bool
AskSpans::add(const std::vector<obs::TraceSpan> &spans, std::uint32_t parent)
{
    const obs::TraceSpan *ask = findChild(spans, parent, "ask");
    if (!ask)
        return false;
    const obs::TraceSpan *parse = findChild(spans, ask->id, "parse");
    const obs::TraceSpan *plan = findChild(spans, ask->id, "plan");
    const obs::TraceSpan *retrieve = findChild(spans, ask->id, "retrieve");
    const obs::TraceSpan *generate = findChild(spans, ask->id, "generate");
    if (!parse || !plan || !retrieve || !generate)
        return false;
    ask_us.add(spanUs(*ask));
    parse_us.add(spanUs(*parse));
    plan_us.add(spanUs(*plan));
    retrieve_us.add(spanUs(*retrieve));
    generate_us.add(spanUs(*generate));
    residual_us.add(selfUs(spans, *ask));
    return true;
}

void
AskSpans::merge(const AskSpans &o)
{
    ask_us.merge(o.ask_us);
    parse_us.merge(o.parse_us);
    plan_us.merge(o.plan_us);
    retrieve_us.merge(o.retrieve_us);
    generate_us.merge(o.generate_us);
    residual_us.merge(o.residual_us);
}

} // namespace perfbench
