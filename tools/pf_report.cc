/**
 * @file
 * pf_report: the "where did the cycles go" tool.
 *
 * Runs the timing simulator for any (workload, policy, config) cell
 * — or a whole grid of them — and prints the cycle-accounting
 * breakdown: the share of issue slots each SlotBucket absorbed. The
 * accounting identity (buckets sum to cycles * issueWidth) is
 * re-verified on every run; a violation is a hard error.
 *
 * Usage:
 *   pf_report [--workload NAME]... [--policy NAME]...
 *             [--scale S] [--jobs N]
 *             [--json PATH] [--csv PATH]
 *
 * Policies: superscalar, loop, loopFT, procFT, hammock, other,
 * postdoms, rec_pred, dmt. Defaults: every workload, superscalar +
 * postdoms, scale from PF_BENCH_SCALE (else 0.1).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "driver/sweep.hh"
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
        "policies: superscalar loop loopFT procFT hammock other\n"
        "          postdoms rec_pred dmt\n");
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
    if (opt.workloads.empty())
        opt.workloads = allWorkloadNames();
    if (opt.policies.empty())
        opt.policies = {"superscalar", "postdoms"};
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    std::vector<driver::SweepCell> cells;
    for (const std::string &w : opt.workloads) {
        for (const std::string &p : opt.policies) {
            auto spec = driver::sourceSpecByName(p);
            if (!spec)
                usage(("unknown policy: " + p).c_str());
            MachineConfig cfg = p == "superscalar"
                ? MachineConfig::superscalar()
                : MachineConfig{};
            cells.push_back({w, opt.scale, *spec, cfg, p});
        }
    }

    driver::SweepRunner runner(opt.jobs);
    const auto results = runner.run(cells, /*report=*/false);

    std::cout << "=== pf_report: cycle accounting (share of "
              << "cycles x issueWidth slots, %) ===\n"
              << "scale " << opt.scale << ", "
              << cells.size() << " runs\n\n";

    std::vector<std::string> header = {"benchmark", "run", "cycles",
                                       "IPC"};
    for (int b = 0; b < numSlotBuckets; ++b)
        header.push_back(slotBucketName(static_cast<SlotBucket>(b)));
    Table table(header);

    std::vector<stats::RunRecord> records;
    for (size_t i = 0; i < cells.size(); ++i) {
        const TimingResult &s = results[i].sim;
        if (s.slotTotal() != s.cycles * s.issueWidth) {
            std::fprintf(stderr,
                         "pf_report: accounting identity violated "
                         "for %s/%s: %llu slots != %llu cycles x "
                         "%llu\n",
                         cells[i].workload.c_str(),
                         cells[i].label.c_str(),
                         (unsigned long long)s.slotTotal(),
                         (unsigned long long)s.cycles,
                         (unsigned long long)s.issueWidth);
            return 1;
        }
        table.startRow();
        table.cell(cells[i].workload);
        table.cell(cells[i].label);
        table.cell(static_cast<unsigned long long>(s.cycles));
        table.cell(s.ipc());
        for (int b = 0; b < numSlotBuckets; ++b)
            table.cell(s.slotPercent(static_cast<SlotBucket>(b)), 1);
        records.push_back({cells[i].workload, cells[i].scale,
                           cells[i].label, s});
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
