/**
 * @file
 * pf_report: the "where did the cycles go" tool.
 *
 * Runs the timing simulator for any (workload, run) cell — or a
 * whole grid of them — and prints the cycle-accounting breakdown:
 * the share of issue slots each SlotBucket absorbed. The accounting
 * identity (buckets sum to cycles * issueWidth) is re-verified on
 * every run; a violation is a hard error.
 *
 * Usage:
 *   pf_report [--workload NAME]... [--policy NAME]...
 *             [--scale S] [--jobs N]
 *             [--json PATH] [--csv PATH]
 *
 * A policy is any run label of the run table (driver/grid.hh), which
 * gives the run its spawn source and machine config. Defaults: every
 * workload, superscalar + postdoms, scale from PF_BENCH_SCALE (else
 * 0.1).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/grid.hh"
#include "stats/export.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace polyflow;

namespace {

struct Options
{
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
    double scale = 0.1;
    int jobs = 0;
    std::string jsonPath;
    std::string csvPath;
};

[[noreturn]] void
usage(const char *msg)
{
    if (msg)
        std::fprintf(stderr, "pf_report: %s\n", msg);
    std::fprintf(
        stderr,
        "usage: pf_report [--workload NAME]... [--policy NAME]...\n"
        "                 [--scale S] [--jobs N]\n"
        "                 [--json PATH] [--csv PATH]\n"
        "workloads:\n");
    for (const std::string &w : allWorkloadNames())
        std::fprintf(stderr, "  %s\n", w.c_str());
    std::fprintf(stderr, "policies (run labels):\n");
    for (const driver::RunSpec &run : driver::allRuns())
        std::fprintf(stderr, "  %s\n", run.label.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.scale = driver::scaleFromEnv(opt.scale);
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage("missing value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--workload")) {
            opt.workloads.push_back(value(i));
        } else if (!std::strcmp(a, "--policy")) {
            opt.policies.push_back(value(i));
        } else if (!std::strcmp(a, "--scale")) {
            opt.scale = driver::parseScale("--scale", value(i));
        } else if (!std::strcmp(a, "--jobs")) {
            opt.jobs = driver::parseCount("--jobs", value(i));
        } else if (!std::strcmp(a, "--json")) {
            opt.jsonPath = value(i);
        } else if (!std::strcmp(a, "--csv")) {
            opt.csvPath = value(i);
        } else if (!std::strcmp(a, "--help") ||
                   !std::strcmp(a, "-h")) {
            usage(nullptr);
        } else {
            usage(("unknown argument: " + std::string(a)).c_str());
        }
    }
    const std::vector<std::string> &names = allWorkloadNames();
    for (const std::string &w : opt.workloads) {
        if (std::find(names.begin(), names.end(), w) == names.end())
            usage(("unknown workload: " + w).c_str());
    }
    for (const std::string &p : opt.policies) {
        if (!driver::runByLabel(p))
            usage(("unknown policy: " + p).c_str());
    }
    if (opt.workloads.empty())
        opt.workloads = names;
    if (opt.policies.empty())
        opt.policies = {"superscalar", "postdoms"};
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    // One row per (workload, label); rows whose runs share a source
    // and config share a cell.
    driver::Grid grid;
    std::vector<std::pair<size_t, std::string>> rows;
    for (const std::string &w : opt.workloads) {
        for (const std::string &p : opt.policies)
            rows.push_back(
                {grid.add(w, opt.scale, *driver::runByLabel(p)), p});
    }

    driver::SweepRunner runner(opt.jobs);
    grid.run(runner, /*report=*/false);

    std::cout << "=== pf_report: cycle accounting (share of "
              << "cycles x issueWidth slots, %) ===\n"
              << "scale " << opt.scale << ", "
              << rows.size() << " runs\n\n";

    std::vector<std::string> header = {"benchmark", "run", "cycles",
                                       "IPC"};
    for (int b = 0; b < numSlotBuckets; ++b)
        header.push_back(slotBucketName(static_cast<SlotBucket>(b)));
    Table table(header);

    std::vector<stats::RunRecord> records;
    for (const auto &[cell, label] : rows) {
        records.push_back(grid.record(cell, label));
        const stats::RunRecord &r = records.back();
        const TimingResult &s = r.sim;
        stats::checkSlotIdentity(r);
        table.startRow();
        table.cell(r.workload);
        table.cell(r.label);
        table.cell(static_cast<unsigned long long>(s.cycles));
        table.cell(s.ipc());
        for (int b = 0; b < numSlotBuckets; ++b)
            table.cell(s.slotPercent(static_cast<SlotBucket>(b)), 1);
    }
    table.print(std::cout);

    if (!opt.jsonPath.empty()) {
        stats::writeFile(opt.jsonPath, stats::toJson(records));
        std::cout << "\nwrote " << opt.jsonPath << "\n";
    }
    if (!opt.csvPath.empty()) {
        stats::writeFile(opt.csvPath, stats::toCsv(records));
        std::cout << "wrote " << opt.csvPath << "\n";
    }
    return 0;
}
