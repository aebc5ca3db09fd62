/**
 * @file
 * Reproduces paper Figure 6: dynamic operation accounting — useful ops,
 * predicate-squashed ops, explicit NOPs, kernel ops — normalized to the
 * O-NS useful-op count, annotated with planned and achieved useful IPC
 * (paper: 2.00/1.10 O-NS, 2.21/1.12 ILP-NS, 2.63/1.23 ILP-CS averages).
 *
 * Usage: fig6_operation_accounting [--json <path>] [benchmark-name ...]
 *
 * Each benchmark name is a substring filter; one that matches no
 * workload, or an unknown option, is rejected with exit status 2.
 */
#include <cstdio>

#include "driver/experiment.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/telemetry/artifact.h"

using namespace epic;

namespace {

const char *const kUsage = "usage: fig6_operation_accounting "
                           "[--json <path>] [benchmark-name ...]";

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> only;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (a[0] == '-')
            usageError(kUsage, "unknown option or missing value: '" + a +
                                   "'");
        else if (matchWorkloads({a}).empty())
            usageError(kUsage, "'" + a + "' matches no workload");
        else
            only.push_back(a);
    }

    printf("Figure 6: operation accounting and IPC\n\n");

    const std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                         Config::IlpCs};
    std::map<Config, std::vector<double>> planned_ipcs, achieved_ipcs;
    std::vector<WorkloadRuns> suite;

    for (const Workload *wp : matchWorkloads(only)) {
        const Workload &w = *wp;
        WorkloadRuns runs = runWorkload(w, configs);
        double base = static_cast<double>(
            runs.by_config.at(Config::ONS).pm.useful_ops);
        if (base <= 0)
            continue;
        if (!json_path.empty())
            suite.push_back(runs);

        printf("%s%s\n", w.name.c_str(),
               runs.all_match ? "" : "  [CHECKSUM MISMATCH]");
        Table t({"config", "useful", "squashed", "nops", "kernel",
                 "planned-IPC", "achieved-IPC"});
        for (Config cfg : configs) {
            const Perfmon &pm = runs.by_config.at(cfg).pm;
            t.row().cell(configName(cfg));
            t.cell(static_cast<double>(pm.useful_ops) / base, 3);
            t.cell(static_cast<double>(pm.squashed_ops) / base, 3);
            t.cell(static_cast<double>(pm.nop_ops) / base, 3);
            t.cell(static_cast<double>(pm.kernel_ops) / base, 3);
            t.cell(pm.plannedIpc(), 2);
            t.cell(pm.usefulIpc(), 2);
            planned_ipcs[cfg].push_back(pm.plannedIpc());
            achieved_ipcs[cfg].push_back(pm.usefulIpc());
        }
        t.print();
        printf("\n");
    }

    printf("Suite average IPC (paper: O-NS 2.00/1.10, ILP-NS 2.21/1.12, "
           "ILP-CS 2.63/1.23):\n");
    for (Config cfg : configs) {
        printf("  %-7s planned %.2f  achieved %.2f\n", configName(cfg),
               mean(planned_ipcs[cfg]), mean(achieved_ipcs[cfg]));
    }
    if (!json_path.empty() &&
        !writeSuiteArtifact(json_path, suite, configs))
        return 1;
    return 0;
}
