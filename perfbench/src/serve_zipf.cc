/**
 * @file
 * serve-zipf: concurrent chat clients against the line-protocol server.
 *
 * An in-process serve::Server with default ServeOptions on loopback and
 * three closed-loop LineClient connections (leaving a core for the
 * server's session and pipeline threads on a 4-CPU machine). Each
 * request is a streamed ask whose question is drawn Zipf(s=1) from the
 * population and whose retriever is sieve or ranger with equal
 * probability. The population is larger than the 1024-bundle hot
 * tier, with the 16 MiB secondary tier on, so requests mix hot hits,
 * secondary promotes and demotions across concurrent sessions; the
 * path exercises sessions, engine leases, frame writes, the stream
 * channel and streamed cache hits, which the library workloads bypass.
 */

#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "bench.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench {

namespace {

constexpr std::size_t kSuites = 50;
constexpr std::size_t kClients = 3;
/** Length of the pre-drawn key stream the cache probe replays. */
constexpr std::size_t kProbeStream = 60000;

/** Zipf(s=1) over ranks 0..n-1, mapped to questions by a seeded shuffle. */
class ZipfQuestions
{
  public:
    ZipfQuestions(std::size_t n, std::uint64_t seed) : cdf_(n), order_(n)
    {
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            cdf_[k] = sum += 1.0 / static_cast<double>(k + 1);
        for (double &c : cdf_)
            c /= sum;
        std::iota(order_.begin(), order_.end(), 0u);
        std::mt19937_64 rng(seed);
        std::shuffle(order_.begin(), order_.end(), rng);
    }

    /** Draw (question, retriever) from `rng`. */
    std::pair<std::uint32_t, std::uint8_t>
    draw(std::mt19937_64 &rng) const
    {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
        const std::size_t rank = std::min<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
            cdf_.size() - 1);
        return {order_[rank], static_cast<std::uint8_t>(rng() & 1)};
    }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> order_;
};

} // namespace

void
runServeZipf(Run &run)
{
    const std::uint64_t seed = run.args().seed;
    const db::TraceDatabase db = buildDefaultDatabase(run);
    if (run.traced())
        probeStatsExperts(run, db);
    const auto questions = generateQuestions(run, db, seed, kSuites);
    const std::vector<std::string> retrievers = {"sieve", "ranger"};
    const std::vector<std::vector<Reference>> refs = {
        referenceAnswers(run, db, retrievers[0], questions),
        referenceAnswers(run, db, retrievers[1], questions)};
    const std::size_t n = questions.size();
    const ZipfQuestions zipf(n, mixSeed(seed, 1000));

    const auto requestLine = [&](std::uint32_t q, std::uint8_t r,
                                 std::uint64_t id,
                                 const std::string &request_id) {
        serve::Request req;
        req.op = serve::Request::Op::Ask;
        req.id = std::to_string(id);
        req.question = questions[q].text;
        req.retriever = retrievers[r];
        req.request_id = request_id;
        return serve::renderRequest(req);
    };

    StageTimer warm(run.root(), "core.warmup");
    serve::Server server(db, serve::ServeOptions{});
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "perfbench: server start: %s\n", error.c_str());
        std::exit(1);
    }
    std::vector<serve::LineClient> clients(kClients);
    for (auto &c : clients)
        if (!connectClient(c, server.port())) {
            std::fprintf(stderr, "perfbench: cannot connect to the server\n");
            std::exit(1);
        }

    // Untimed pass: every distinct question once, its retriever drawn
    // like the timed traffic's, spread over the three connections. Its
    // answers are the ones graded: a deterministic set per seed, and
    // every timed answer is checked byte for byte against the same
    // references.
    std::mutex mu; // guards run.report() across client threads
    Grades grades;
    {
        std::mt19937_64 rng(mixSeed(seed, 2000));
        std::vector<std::uint8_t> pick(n);
        for (std::size_t q = 0; q < n; ++q) {
            pick[q] = static_cast<std::uint8_t>(rng() & 1);
            grades.add(questions[q], refs[pick[q]][q]);
        }
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < kClients; ++k)
            threads.emplace_back([&, k] {
                for (std::size_t q = k; q < n; q += kClients) {
                    const auto a = serveAsk(
                        clients[k],
                        requestLine(static_cast<std::uint32_t>(q), pick[q],
                                    q, ""),
                        refs[pick[q]][q].text);
                    if (!a.ok) {
                        std::lock_guard<std::mutex> lock(mu);
                        run.report().fail("untimed serve pass: " + a.why);
                    }
                }
            });
        for (auto &t : threads)
            t.join();
    }
    run.warmup_ms = warm.stop();
    run.setupDone();

    const PhaseFn phase = [&](double seconds, bool traced) {
        const PhaseCounters before = PhaseCounters::of(server.stats().engine);
        Phase total;
        const Clock::time_point end =
            total.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
        total.grades = grades;
        std::vector<Phase> per(kClients, Phase(total.start));
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < kClients; ++k)
            threads.emplace_back([&, k] {
                Phase &p = per[k];
                std::mt19937_64 rng(mixSeed(seed, 3000 + k + (traced ? 100 : 0)));
                std::uint64_t attempted = 0, failed = 0;
                for (std::uint64_t id = 0; Clock::now() < end; ++id) {
                    const auto [q, r] = zipf.draw(rng);
                    const std::string request_id =
                        traced ? "c" + std::to_string(k) + "-" +
                                     std::to_string(id)
                               : std::string();
                    const ServeAsk a =
                        serveAsk(clients[k], requestLine(q, r, id, request_id),
                                 refs[r][q].text);
                    ++attempted;
                    if (!a.ok) {
                        ++failed;
                        {
                            std::lock_guard<std::mutex> lock(mu);
                            run.report().fail("serve-zipf: " + a.why);
                        }
                        // The session may be gone; continue on a new one.
                        clients[k].close();
                        if (!connectClient(clients[k], server.port()))
                            break;
                        continue;
                    }
                    p.record(a.done_us, a.ttfe_us);
                    if (traced) {
                        std::string why;
                        const auto t =
                            fetchServerTrace(clients[k], request_id, &why);
                        std::lock_guard<std::mutex> lock(mu);
                        if (!t) {
                            run.report().fail(why);
                            continue;
                        }
                        const auto spans = t->spans();
                        const obs::TraceSpan *root =
                            findChild(spans, 0, "serve.ask");
                        if (!root || !p.serve.add(spans, a.done_us, a.frames) ||
                            !p.ask.add(spans, root->id))
                            run.report().fail("incomplete serve span tree");
                        run.keepTrace(
                            std::const_pointer_cast<obs::RequestTrace>(t));
                    }
                }
                std::lock_guard<std::mutex> lock(mu);
                run.report().attempted += attempted;
                run.report().failed += failed;
            });
        for (auto &t : threads)
            t.join();

        total.finish();
        for (const auto &p : per)
            total.merge(p);
        total.counters =
            PhaseCounters::of(server.stats().engine).since(before);
        return total;
    };

    LayerInputs in;
    in.db = &db;
    in.questions = &questions;
    in.retrievers = retrievers;
    in.references = {&refs[0], &refs[1]};
    in.serve_probe = false;
    std::mt19937_64 rng(mixSeed(seed, 4000));
    for (std::size_t i = 0; i < kProbeStream; ++i)
        in.stream.push_back(zipf.draw(rng));
    finishWorkload(run, phase, in);
    for (auto &c : clients)
        c.close();
    server.stop();
}

} // namespace perfbench
