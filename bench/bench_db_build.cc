/**
 * @file
 * Micro-bench for the parallel database build: after one untimed
 * build, constructs the same 3-workload x 4-policy database
 * sequentially (build_threads=1) and on a 4-thread pool, reports
 * both wall-clock times, and verifies the
 * outputs are identical: keys, metadata and description strings, and
 * every column of every table (db::tableDigest). Exits 1 on any
 * mismatch, and, on a host with at least 4 CPUs, when the 4-thread
 * build is less than kMinSpeedup times faster than the sequential one
 * measured in the same run. With fewer CPUs the speedup gate is
 * skipped (the threads would share cores) and the reason is printed.
 */

#include <cstdio>
#include <string>
#include <thread>

#include "base/stopwatch.hh"
#include "db/builder.hh"
#include "db/export.hh"

using namespace cachemind;

namespace {

/** Least 4-thread speedup over the sequential build on >= 4 CPUs. */
constexpr double kMinSpeedup = 1.8;

} // namespace

int
main()
{
    db::BuildOptions options;
    // Default 3 workloads x 4 policies; a bounded trace length keeps
    // the bench in seconds while every stage (generation, capture,
    // oracle, Parrot training, replay) still runs.
    options.accesses_override = 120000;

    // One untimed build first. On a shared 4-CPU VM, the first
    // 4-thread build after the machine sat idle ran no faster than a
    // sequential one, while a second build in the same process ran at
    // full speed; neither timed build should be that first one.
    options.build_threads = 4;
    db::buildDatabase(options);

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
    const double speedup = par_ms > 0.0 ? seq_ms / par_ms : 0.0;
    std::printf("speedup: %.2fx\n", speedup);

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

    bool fast_enough = true;
    const unsigned cpus = std::thread::hardware_concurrency();
    if (cpus < 4) {
        std::printf("speedup gate skipped: %u CPUs, the gate needs 4\n",
                    cpus);
    } else {
        fast_enough = speedup >= kMinSpeedup;
        std::printf("speedup gate (>= %.1fx on %u CPUs): %s\n",
                    kMinSpeedup, cpus, fast_enough ? "pass" : "FAIL");
    }
    return identical && fast_enough ? 0 : 1;
}
