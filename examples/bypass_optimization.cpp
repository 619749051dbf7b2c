/**
 * @file
 * The §6.3 bypass workflow end-to-end as a library user would run it:
 * discover bypassable PCs from a Belady-annotated mcf trace, apply a
 * conditional bypass filter to the LRU LLC, and measure the change.
 *
 *   $ ./example_bypass_optimization
 */

#include <cstdio>
#include <unordered_set>

#include "base/str.hh"
#include "core/cachemind.hh"
#include "db/builder.hh"
#include "insights/insights.hh"
#include "policy/basic_policies.hh"
#include "sim/core_model.hh"
#include "trace/workload.hh"

using namespace cachemind;

int
main()
{
    std::printf("Analyzing mcf under Belady's optimal policy...\n");
    const auto database = db::buildSingleDatabase(
        trace::WorkloadKind::Mcf, policy::PolicyKind::Belady, 80000);

    // Discovery through the natural-language interface first, the way
    // the §6.3 transcript runs it...
    auto engine = core::CacheMind::Builder(database)
                      .withRetriever("sieve")
                      .withBackend("gpt-4o")
                      .build()
                      .expect("building the discovery engine");
    const auto discovery =
        engine
            .ask(core::RequestContext(
                "Identify PCs suitable for bypassing to improve IPC "
                "in the mcf workload under Belady."))
            .expect("discovery question");
    std::printf("\nQ: Identify PCs suitable for bypassing to improve "
                "IPC in the mcf workload under Belady.\nA: %s\n\n",
                discovery.text.c_str());

    // ...then the verified analysis the intervention actually uses.
    const auto candidates =
        insights::recommendBypassPcs(database, "mcf", "belady", 10);
    std::printf("Bypass candidates:\n");
    std::unordered_set<std::uint64_t> bypass_pcs;
    for (const auto &c : candidates) {
        bypass_pcs.insert(c.pc);
        std::printf("  %-10s hit=%5.2f%% mean_reuse=%8.0f dead=%4.0f%%\n",
                    str::hex(c.pc).c_str(), 100.0 * c.hit_rate,
                    c.mean_reuse_distance, 100.0 * c.dead_fraction);
    }

    const auto cfg = sim::defaultHierarchyConfig();
    const auto t =
        trace::makeWorkload(trace::WorkloadKind::Mcf)->generate(80000);

    const auto base = sim::runTrace(
        t, cfg, policy::makePolicy(policy::PolicyKind::Lru));

    sim::Hierarchy hier(cfg, policy::makePolicy(policy::PolicyKind::Lru));
    hier.llc().setBypassFilter([&bypass_pcs](std::uint64_t pc) {
        return bypass_pcs.count(pc) > 0;
    });
    const auto with_bypass = sim::runTrace(t, hier);

    std::printf("\nLLC hit rate: %.2f%% -> %.2f%%\n",
                100.0 * base.llc.hitRate(),
                100.0 * with_bypass.llc.hitRate());
    std::printf("IPC:          %.6f -> %.6f (%+.2f%%)\n", base.ipc,
                with_bypass.ipc,
                100.0 * (with_bypass.ipc - base.ipc) / base.ipc);
    return 0;
}
