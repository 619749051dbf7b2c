/**
 * @file
 * Micro-bench for the parallel database build: constructs the same
 * 3-workload x 4-policy database sequentially (build_threads=1) and
 * on a 4-thread pool, reports both wall-clock times, and verifies the
 * outputs are identical: keys, metadata and description strings, and
 * every column of every table (db::tableDigest). Exits 1 on any
 * mismatch. On a multicore host the parallel build approaches the
 * per-workload critical path; on a single core it degrades to
 * sequential cost plus noise — either way the outputs must match.
 */

#include <cstdio>
#include <string>

#include "base/stopwatch.hh"
#include "db/builder.hh"
#include "db/export.hh"

using namespace cachemind;

int
main()
{
    db::BuildOptions options;
    // Default 3 workloads x 4 policies; a bounded trace length keeps
    // the bench in seconds while every stage (generation, capture,
    // oracle, Parrot training, replay) still runs.
    options.accesses_override = 120000;

    options.build_threads = 1;
    Stopwatch seq_timer;
    const auto sequential = db::buildDatabase(options);
    const double seq_ms = seq_timer.milliseconds();

    options.build_threads = 4;
    Stopwatch par_timer;
    const auto parallel = db::buildDatabase(options);
    const double par_ms = par_timer.milliseconds();

    std::printf("=== Parallel database build ===\n");
    std::printf("entries: %zu (%zu workloads x %zu policies)\n",
                sequential.size(), options.workloads.size(),
                options.policies.size());
    std::printf("sequential (build_threads=1): %10.1f ms\n", seq_ms);
    std::printf("parallel   (build_threads=4): %10.1f ms\n", par_ms);
    std::printf("speedup: %.2fx\n", par_ms > 0.0 ? seq_ms / par_ms : 0.0);

    // Equivalence check: the parallel build must be byte-identical.
    bool identical = sequential.keys() == parallel.keys();
    if (identical) {
        for (const auto &key : sequential.keys()) {
            const auto *a = sequential.find(key);
            const auto *b = parallel.find(key);
            if (!b || a->metadata != b->metadata ||
                a->description != b->description ||
                a->table.size() != b->table.size() ||
                db::tableDigest(a->table) != db::tableDigest(b->table)) {
                identical = false;
                std::printf("MISMATCH at %s\n", key.c_str());
                break;
            }
        }
    }
    std::printf("outputs identical: %s\n", identical ? "yes" : "NO");
    return identical ? 0 : 1;
}
