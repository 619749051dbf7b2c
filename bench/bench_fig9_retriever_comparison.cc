/**
 * @file
 * E8 (Figure 9): retrieval-context accuracy and latency of
 * LlamaIndex-style dense retrieval vs CacheMind-Sieve vs
 * CacheMind-Ranger on ten evaluation queries spanning five
 * trace-grounded categories.
 *
 * Expected shape (paper): LlamaIndex ~10% (dense embeddings cannot
 * separate rows differing in a few hex digits) and the slowest;
 * Sieve ~60%; Ranger ~90%, slightly slower than Sieve (codegen +
 * execution overhead). Absolute times are local-machine milliseconds,
 * not the paper's API-bound seconds; the ordering is the claim.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "base/stopwatch.hh"
#include "base/str.hh"
#include "benchsuite/generator.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"

using namespace cachemind;

namespace {

/** Does the bundle contain the question's gold evidence? */
bool
contextIsCorrect(const benchsuite::Question &q,
                 const retrieval::ContextBundle &bundle)
{
    using benchsuite::Category;
    switch (q.category) {
      case Category::HitMiss: {
        for (const auto &row : bundle.rows) {
            const bool pc_ok = !bundle.parsed.pc ||
                               row.program_counter == *bundle.parsed.pc;
            const bool addr_ok =
                !bundle.parsed.address ||
                row.memory_address == *bundle.parsed.address;
            if (pc_ok && addr_ok)
                return true;
        }
        // Textual form must carry both identifiers and an outcome.
        if (bundle.parsed.pc && bundle.parsed.address) {
            const auto &text = bundle.result_text;
            return text.find(str::hex(*bundle.parsed.pc)) !=
                       std::string::npos &&
                   text.find(str::hex(*bundle.parsed.address)) !=
                       std::string::npos &&
                   (text.find("Cache Miss") != std::string::npos ||
                    text.find("Cache Hit") != std::string::npos);
        }
        return false;
      }
      case Category::MissRate:
        return (bundle.pc_stats && bundle.parsed.pc &&
                bundle.pc_stats->pc == *bundle.parsed.pc) ||
               bundle.computed.has_value();
      case Category::PolicyComparison:
        return bundle.policy_numbers.size() >= 2;
      case Category::Count: return bundle.total_is_exact;
      case Category::Arithmetic:
        return bundle.computed.has_value() ||
               (bundle.pc_stats && bundle.parsed.pc &&
                bundle.pc_stats->pc == *bundle.parsed.pc);
      default: return false;
    }
}

} // namespace

int
main()
{
    std::printf("Building trace database...\n");
    const auto database = db::buildDatabase();

    // Ten queries: two per trace-grounded category (ex-trick).
    benchsuite::SuiteComposition comp;
    comp.hit_miss = 2;
    comp.miss_rate = 2;
    comp.policy_comparison = 2;
    comp.count = 2;
    comp.arithmetic = 2;
    comp.trick = 0;
    comp.concepts = 0;
    comp.code_gen = 0;
    comp.policy_analysis = 0;
    comp.workload_analysis = 0;
    comp.semantic_analysis = 0;
    const benchsuite::BenchGenerator generator(database, 0xf19ULL,
                                               comp);
    const auto queries = generator.generate();

    // Builder-configured engines (scenario knobs) instead of direct
    // retriever construction; retrieval is measured per question on
    // each engine's primary retriever, so per-bundle latency stays
    // visible (askBatch would hide it behind the worker pool).
    std::printf("Building engines (LlamaIndex embeds every 4th row "
                "chunk)...\n\n");
    // Engines are paced at a simulated decode rate so the streaming
    // section below reports realistic TTFE-vs-TTLB gaps; pacing only
    // touches answerStreaming, so the retrieval loop is unaffected.
    constexpr double kTokensPerSecond = 1500.0;
    std::vector<core::CacheMind> engines;
    engines.push_back(core::CacheMind::Builder(database)
                          .withRetriever("llamaindex")
                          .withRetrieverParam("row_stride", "4")
                          .withTokensPerSecond(kTokensPerSecond)
                          .build()
                          .expect("llamaindex engine"));
    engines.push_back(core::CacheMind::Builder(database)
                          .withRetriever("sieve")
                          .withTokensPerSecond(kTokensPerSecond)
                          .build()
                          .expect("sieve engine"));
    engines.push_back(core::CacheMind::Builder(database)
                          .withRetriever("ranger")
                          .withTokensPerSecond(kTokensPerSecond)
                          .build()
                          .expect("ranger engine"));

    std::printf("=== Figure 9: retrieval comparison over %zu queries "
                "===\n",
                queries.size());
    std::printf("%-14s %22s %20s\n", "Retriever", "correct context",
                "avg retrieval time");
    for (auto &engine : engines) {
        retrieval::Retriever &retriever = engine.retriever();
        std::size_t correct = 0;
        double total_ms = 0.0;
        for (const auto &q : queries) {
            const auto bundle = retriever.retrieve(q.text);
            correct += contextIsCorrect(q, bundle);
            total_ms += bundle.retrieval_ms;
        }
        std::printf("%-14s %13zu/%zu (%3.0f%%) %17.2f ms\n",
                    retriever.name(), correct, queries.size(),
                    100.0 * static_cast<double>(correct) /
                        static_cast<double>(queries.size()),
                    total_ms / static_cast<double>(queries.size()));
    }
    std::printf("\nDense cosine retrieval cannot separate rows that "
                "differ only in hex digits; symbolic filtering (Sieve) "
                "and executed programs (Ranger) can.\n");

    // End-to-end streamed asks at the simulated decode rate: the
    // user-visible split between time-to-first-event (retrieval +
    // framing) and time-to-last-byte (plus paced generation). The
    // sample is small — this is a qualitative column, the
    // statistically sound timings live in bench_micro_perf.
    const std::size_t streamed_queries =
        std::min<std::size_t>(queries.size(), 8);
    std::printf("\n=== Streamed asks at %.0f tokens/s (%zu "
                "queries) ===\n",
                kTokensPerSecond, streamed_queries);
    std::printf("%-14s %15s %15s\n", "Retriever", "avg TTFE",
                "avg TTLB");
    for (auto &engine : engines) {
        engine.warmup(); // keep cold index cost out of TTFE
        double ttfe_ms = 0.0;
        double ttlb_ms = 0.0;
        for (std::size_t i = 0; i < streamed_queries; ++i) {
            Stopwatch timer;
            auto stream =
                engine.askStream(core::RequestContext(queries[i].text))
                    .expect("askStream");
            bool first = true;
            while (auto event = stream.next()) {
                if (first) {
                    ttfe_ms += timer.milliseconds();
                    first = false;
                }
            }
            ttlb_ms += timer.milliseconds();
        }
        std::printf("%-14s %12.2f ms %12.2f ms\n",
                    engine.retriever().name(),
                    ttfe_ms / static_cast<double>(streamed_queries),
                    ttlb_ms / static_cast<double>(streamed_queries));
    }
    std::printf("\nStreaming hides generation latency: the first "
                "evidence frame lands as soon as retrieval starts "
                "emitting, while the full answer pays the decode "
                "rate.\n");
    return 0;
}
