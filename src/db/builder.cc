#include "db/builder.hh"

#include <algorithm>
#include <future>
#include <sstream>
#include <thread>

#include "base/failpoint.hh"
#include "base/parallel.hh"
#include "policy/parrot.hh"
#include "sim/llc_replay.hh"

namespace cachemind::db {

namespace {

/**
 * One workload's inputs to its entry tasks: the model, the symbol
 * table the database owns, and the LLC stream and oracle that its
 * workload task produces. `ready` is fulfilled when that task ends,
 * or carries its exception.
 */
struct WorkloadArtifacts
{
    std::unique_ptr<trace::WorkloadModel> model;
    const trace::SymbolTable *symbols = nullptr;
    std::vector<sim::LlcAccess> stream;
    sim::OracleInfo oracle;
    std::promise<void> done;
    std::shared_future<void> ready = done.get_future().share();
};

/** One (workload, policy) entry of the task list. */
struct EntryTask
{
    std::size_t workload = 0;
    policy::PolicyKind policy = policy::PolicyKind::Lru;
};

/**
 * Rank of an entry task's build time, longest first. On the default
 * database an MLP entry takes about 1.7x any other; Parrot, LRU and
 * Belady are within about 15% of each other, Belady the shortest.
 * Policies not measured rank with LRU. Starting the longest tasks
 * first keeps one long task from running alone at the end.
 */
int
entryCostRank(policy::PolicyKind pk)
{
    switch (pk) {
      case policy::PolicyKind::Mlp: return 0;
      case policy::PolicyKind::Parrot: return 1;
      case policy::PolicyKind::Belady: return 3;
      default: return 2;
    }
}

/**
 * Workload task: trace generation, LLC capture and the oracle. The
 * db.build_workload failpoint fires after the work, when the entry
 * tasks of this workload are already waiting on it.
 */
void
buildWorkload(WorkloadArtifacts &a, const BuildOptions &options)
{
    const auto cpu_trace =
        options.accesses_override
            ? a.model->generate(options.accesses_override)
            : a.model->generate();
    a.stream = sim::captureLlcStream(cpu_trace, options.hierarchy);
    a.oracle = sim::computeOracle(a.stream);
    fail::maybeThrow("db.build_workload");
}

/**
 * Entry task: replay the workload's stream under one policy into a
 * table, then construct the shard, which builds its StatsExpert and
 * formats the metadata string from it.
 */
std::unique_ptr<TraceShard>
buildShard(const WorkloadArtifacts &a, policy::PolicyKind pk,
           const BuildOptions &options)
{
    std::unique_ptr<policy::ReplacementPolicy> pol;
    if (pk == policy::PolicyKind::Parrot) {
        auto parrot = std::make_unique<policy::ParrotPolicy>();
        parrot->setModel(
            sim::ParrotModelBuilder::train(a.stream, a.oracle));
        pol = std::move(parrot);
    } else {
        pol = policy::makePolicy(pk);
    }

    TraceEntry entry;
    entry.workload = a.model->info().name;
    entry.policy = policy::policyName(pk);
    std::ostringstream desc;
    desc << "Workload: " << a.model->info().description
         << "\nReplacement Policy: " << policy::policyDescription(pk);
    entry.description = desc.str();

    TraceTable &table = entry.table;
    table.setSymbols(a.symbols);
    table.beginBuild(a.stream.size(), options.hierarchy.llc,
                     options.history_len);
    sim::LlcReplayer replayer(options.hierarchy.llc, std::move(pol));
    replayer.replay(a.stream, &a.oracle,
                    [&](const sim::ReplayEvent &ev) { table.append(ev); });
    table.endBuild();

    return std::make_unique<TraceShard>(std::move(entry));
}

} // namespace

TraceDatabase
buildDatabase(const BuildOptions &options)
{
    const std::size_t threads =
        options.build_threads
            ? options.build_threads
            : std::max<std::size_t>(
                  std::thread::hardware_concurrency(), 1);

    // Symbol registration mutates the database: done here, before
    // any task runs, so every entry task gets its final pointer.
    TraceDatabase db;
    const std::size_t n_workloads = options.workloads.size();
    std::vector<WorkloadArtifacts> arts(n_workloads);
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        arts[wi].model = trace::makeWorkload(options.workloads[wi]);
        arts[wi].symbols = db.addSymbols(arts[wi].model->info().name,
                                         arts[wi].model->symbols());
    }

    std::vector<EntryTask> entries;
    for (std::size_t wi = 0; wi < n_workloads; ++wi) {
        for (const auto pk : options.policies)
            entries.push_back(EntryTask{wi, pk});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const EntryTask &x, const EntryTask &y) {
                         return entryCostRank(x.policy) <
                                entryCostRank(y.policy);
                     });

    // One task list: the workload tasks, then the entry tasks. Every
    // task is a pure function of its inputs (trace synthesis, replay
    // and Parrot training draw from deterministic keyed generators),
    // so the database is identical at any thread count. parallelFor
    // hands indices out in order, so every workload task has started
    // before any entry task waits on one; a failed workload task
    // fails its `ready`, and the entry tasks waiting on it rethrow
    // instead of blocking.
    std::vector<std::unique_ptr<TraceShard>> shards(entries.size());
    parallelFor(n_workloads + entries.size(), threads, [&](std::size_t t) {
        if (t < n_workloads) {
            try {
                buildWorkload(arts[t], options);
            } catch (...) {
                arts[t].done.set_exception(std::current_exception());
                throw;
            }
            arts[t].done.set_value();
            return;
        }
        const EntryTask &e = entries[t - n_workloads];
        const WorkloadArtifacts &a = arts[e.workload];
        a.ready.get();
        shards[t - n_workloads] = buildShard(a, e.policy, options);
    });
    for (auto &shard : shards)
        db.addShard(std::move(shard));
    return db;
}

TraceDatabase
buildSingleDatabase(trace::WorkloadKind workload,
                    policy::PolicyKind policy,
                    std::uint64_t accesses_override)
{
    BuildOptions options;
    options.workloads = {workload};
    options.policies = {policy};
    options.accesses_override = accesses_override;
    return buildDatabase(options);
}

} // namespace cachemind::db
