/**
 * @file
 * ndpbench: one workload repetition (or one traced pass) per process.
 *
 *   ndpbench run <workload> --seed N
 *       Set up, run the timed phase, check invariants, and print one
 *       JSON record: CPU and wall times, units of work, peak RSS, layer
 *       counts, invariant violations and the canonical output fields
 *       that perfbench/run.py fingerprints.
 *   ndpbench trace <workload> --seed N --spans PATH
 *       The traced pass: spans around every call into the layers plus
 *       the isolated layer drives; prints a self-time table and one
 *       JSON line of per-layer metrics, writes the spans to PATH.
 *   ndpbench info
 *       Build provenance (build type, compiler, flags) as JSON.
 *
 * Exit status is 0 only when the repetition completed; invariant
 * violations are reported in the record, not by the exit status.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace {

/** Peak resident set of this process image, MiB. VmHWM rather than
 *  getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
 *  small workload would report its launcher's peak instead. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

void
printInfo()
{
    std::printf("{\"build_type\": \"%s\", \"compiler\": \"gcc %s\", "
                "\"cxx_flags\": \"%s\"}\n",
                NDPB_BUILD_TYPE, __VERSION__, NDPB_CXX_FLAGS);
}

int
runOnce(const std::string &name, const ndpb::RunOptions &opt)
{
    const int64_t t0 = ndpb::nowNs();
    ndpb::Outputs out;
    std::vector<std::string> violations;
    std::map<std::string, double> counters;
    // Each phase on both clocks: the process CPU clock is what the
    // end-to-end metrics use, the steady clock is kept in the record.
    double setup_s = 0.0, setup_wall_s = 0.0;
    double timed_s = 0.0, timed_wall_s = 0.0;
    double items = 0.0;
    {
        auto w = ndpb::makeWorkload(name, opt);
        const int64_t s0 = ndpb::nowNs(), c0 = ndpb::cpuNs();
        w->setup();
        const int64_t s1 = ndpb::nowNs(), c1 = ndpb::cpuNs();
        items = w->run();
        const int64_t s2 = ndpb::nowNs(), c2 = ndpb::cpuNs();
        setup_s = static_cast<double>(c1 - c0) * 1e-9;
        timed_s = static_cast<double>(c2 - c1) * 1e-9;
        setup_wall_s = static_cast<double>(s1 - s0) * 1e-9;
        timed_wall_s = static_cast<double>(s2 - s1) * 1e-9;
        out = w->outputs();
        violations = w->check();
        counters = w->counters();
    }
    // Whole process, from exec: loading, setup, timed phase and
    // output verification.
    const double cpu_s = static_cast<double>(ndpb::cpuNs()) * 1e-9;
    const double wall_s = static_cast<double>(ndpb::nowNs() - t0) * 1e-9;

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"setup_s\": %.9f, \"timed_s\": %.9f, \"cpu_s\": %.9f, "
                "\"setup_wall_s\": %.9f, \"timed_wall_s\": %.9f, "
                "\"wall_s\": %.9f, \"items\": %.1f, \"peak_rss_mb\": %.3f, "
                "\"violations\": [",
                name.c_str(), opt.seed, setup_s, timed_s, cpu_s, setup_wall_s,
                timed_wall_s, wall_s, items, peakRssMb());
    for (size_t i = 0; i < violations.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", violations[i].c_str());
    std::printf("], \"counters\": {");
    size_t k = 0;
    for (const auto &[key, v] : counters)
        std::printf("%s\"%s\": %.17g", k++ ? ", " : "", key.c_str(), v);
    std::printf("}, \"fields\": [");
    for (size_t i = 0; i < out.fields.size(); ++i)
        std::printf("%s[\"%s\", \"%016" PRIx64 "\"]", i ? ", " : "",
                    out.fields[i].first.c_str(), out.fields[i].second);
    std::printf("]}\n");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ndpbench run <workload> --seed N\n"
                 "       ndpbench trace <workload> --seed N --spans PATH\n"
                 "       ndpbench info\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "info") == 0) {
        printInfo();
        return 0;
    }
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string name = argv[2];
    ndpb::RunOptions opt;
    std::string spans_path;
    try {
        for (int i = 3; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string val = argv[i + 1];
            if (key == "--seed")
                opt.seed = std::stoull(val);
            else if (key == "--spans")
                spans_path = val;
            else
                return usage();
        }
        if (cmd == "run")
            return runOnce(name, opt);
        if (cmd == "trace")
            return ndpb::runTraced(name, opt.seed, spans_path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ndpbench: %s\n", e.what());
        return 1;
    }
    return usage();
}
