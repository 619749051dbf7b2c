/**
 * @file
 * E3 (Figure 4): accuracy of CacheMind with five LLM backends across
 * all eleven CacheMindBench categories, under the Sieve retriever
 * (the paper's generator evaluation setting). Prints one row per
 * category and the weighted totals.
 *
 * Expected shape (paper): GPT-4o best weighted total (~75%), o3 next,
 * then finetuned-4o-mini and GPT-3.5; Count is 0 for every backend
 * (the Sieve window cannot support full-trace counting); trick
 * questions separate GPT-4o/4o-mini (high) from o3/3.5/finetuned
 * (low); fine-tuning does not beat its base model.
 */

#include <cstdio>
#include <memory>

#include "benchsuite/generator.hh"
#include "benchsuite/harness.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "retrieval/cache.hh"

using namespace cachemind;

int
main()
{
    std::printf("Building trace database (3 workloads x 4 policies)"
                "...\n");
    const auto database = db::buildDatabase();
    const benchsuite::BenchGenerator generator(database);
    const benchsuite::EvalHarness harness(generator.generate());
    std::printf("CacheMindBench: %zu questions generated.\n\n",
                harness.suite().size());

    // All five engines differ only in backend; retrieval is
    // backend-independent, so one shared cross-engine bundle cache
    // makes every backend after the first retrieve for free.
    auto shared_cache =
        std::make_shared<retrieval::RetrievalCache>(
            retrieval::RetrievalCache::Options{1 << 14});

    std::vector<benchsuite::EvalResult> results;
    for (const auto backend : llm::allBackends()) {
        auto engine = core::CacheMind::Builder(database)
                          .withRetriever("sieve")
                          .withBackend(llm::backendKey(backend))
                          .withBatchWorkers(4)
                          .withSharedRetrievalCache(shared_cache)
                          .build()
                          .expect("building the Figure 4 engine");
        results.push_back(harness.evaluate(engine));
    }

    std::printf("=== Figure 4: accuracy by category x backend (Sieve "
                "retrieval) ===\n");
    std::printf("%-28s", "Category");
    for (const auto backend : llm::allBackends())
        std::printf(" %17s", llm::backendName(backend));
    std::printf("\n");

    for (const auto cat : benchsuite::allCategories()) {
        std::printf("%-28s", benchsuite::categoryName(cat));
        for (const auto &res : results) {
            const auto it = res.by_category.find(cat);
            const double pct =
                it == res.by_category.end() ? 0.0 : it->second.pct();
            std::printf(" %16.1f%%", pct);
        }
        std::printf("\n");
    }
    std::printf("%-28s", "TG total (75q)");
    for (const auto &res : results)
        std::printf(" %16.1f%%", res.tgPct());
    std::printf("\n%-28s", "ARA total (25q)");
    for (const auto &res : results)
        std::printf(" %16.1f%%", res.araPct());
    std::printf("\n%-28s", "Weighted total (100q)");
    for (const auto &res : results)
        std::printf(" %16.1f%%", res.weightedTotalPct());
    std::printf("\n");
    const auto cache_counters = shared_cache->counters();
    std::printf("\nShared cross-engine bundle cache: %llu hits / %llu "
                "misses over %zu backends.\n",
                static_cast<unsigned long long>(cache_counters.hits),
                static_cast<unsigned long long>(cache_counters.misses),
                results.size());
    return 0;
}
