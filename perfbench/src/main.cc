/**
 * @file
 * cachemind_perfbench: the end-to-end benchmark's measuring program.
 *
 *   cachemind_perfbench --workload hot-ask|hot-batch|cold-batch|serve-zipf
 *                       --seed N [--seconds S] [--trace 0|1]
 *                       [--trace-out DIR] [--source ID]
 *
 * Prints a run record, one line per metric, and as its last line the
 * JSON result {"correct", "attempted", "failed", "metrics"}. Untraced
 * runs report the end-to-end metrics, traced runs the per-layer ones.
 * perfbench/run.py builds this program and runs it; see
 * perfbench/README.md.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: cachemind_perfbench --workload "
                 "hot-ask|hot-batch|cold-batch|serve-zipf --seed N "
                 "[--seconds S] [--trace 0|1] [--trace-out DIR] "
                 "[--source ID]\n",
                 why);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

/**
 * Everything a result must carry to be compared honestly with another:
 * a number from a 1-CPU machine or a debug build is not comparable
 * with one from a 4-CPU release build.
 */
std::string
runRecord(const Args &args, const std::string &source)
{
    std::string out = "run_record {";
    out += "\"workload\": " + jsonString(args.workload);
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"seconds\": " + std::to_string(args.seconds);
    out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
    out += ", \"nproc\": " + std::to_string(cpusAvailable());
    out += ", \"cpu_model\": " + jsonString(cpuModel());
    out += ", \"compiler\": " + jsonString(std::string("g++ ") + __VERSION__);
    out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    out += ", \"source\": " + jsonString(source);
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    Args args;
    std::string source = "unknown";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--trace-out") {
            args.trace_out = argv[++i];
        } else if (a == "--source") {
            source = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_seed)
        return usage("--seed is required");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    // Fault injection perturbs answers and timings, and trace export
    // writes a file per request: a run under either measures something
    // else, so it is refused rather than reported.
    for (const char *var : {"CACHEMIND_FAILPOINTS", "CACHEMIND_TRACE_DIR"}) {
        const char *value = std::getenv(var);
        if (value && *value) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         var);
            return 3;
        }
    }

    void (*workload)(Run &) = nullptr;
    if (args.workload == "hot-ask")
        workload = runHotAsk;
    else if (args.workload == "hot-batch")
        workload = runHotBatch;
    else if (args.workload == "cold-batch")
        workload = runColdBatch;
    else if (args.workload == "serve-zipf")
        workload = runServeZipf;
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());

    // Concurrent sessions record thousands of traces a second into the
    // shared ring; at the default 64 a reader descheduled for a few
    // milliseconds would find its request's trace already evicted.
    if (args.trace)
        obs::TraceStore::instance().setCapacity(4096);

    Run run(args, start);
    run.report().note(runRecord(args, source));
    workload(run);
    if (!args.trace) {
        rusage usage_now{};
        getrusage(RUSAGE_SELF, &usage_now);
        // ru_maxrss is in KiB on Linux.
        run.report().add("peak_rss_mb",
                         static_cast<double>(usage_now.ru_maxrss) / 1024.0,
                         "MB");
    }
    run.report().print();
    return 0;
}
