/**
 * @file
 * Reproduces paper Figure 5: execution-cycle accounting into nine
 * categories for each benchmark under O-NS / ILP-NS / ILP-CS,
 * normalized to the O-NS total. Also prints the per-category share so
 * the paper's qualitative claims are checkable: most ILP gain comes
 * from the statically-anticipable categories; branch-flush cycles drop
 * with if-conversion; gcc's ILP-CS bar grows a kernel-cycles slab
 * (wild loads); bzip2's micropipe slab grows with optimization.
 *
 * Usage: fig5_cycle_accounting [--json <path>] [--with-ds]
 *                              [benchmark-name ...]
 *
 * Each benchmark name is a substring filter; one that matches no
 * workload, or an unknown option, is rejected with exit status 2.
 *
 * --with-ds appends an ILP-CS-DS column (data speculation): its bar
 * adds the tenth category, ALAT recovery, which stays empty when every
 * chk.a hits and charges misses x alat_recovery_cycles otherwise.
 */
#include <cstdio>

#include "driver/experiment.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/telemetry/artifact.h"

using namespace epic;

namespace {

const char *const kUsage = "usage: fig5_cycle_accounting [--json <path>] "
                           "[--with-ds] [benchmark-name ...]";

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> only;
    std::string json_path;
    bool with_ds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (a == "--with-ds")
            with_ds = true;
        else if (a[0] == '-')
            usageError(kUsage, "unknown option or missing value: '" + a +
                                   "'");
        else if (matchWorkloads({a}).empty())
            usageError(kUsage, "'" + a + "' matches no workload");
        else
            only.push_back(a);
    }

    printf("Figure 5: cycle accounting, normalized to O-NS total\n\n");

    std::vector<Config> configs = {Config::ONS, Config::IlpNs,
                                   Config::IlpCs};
    if (with_ds)
        configs.push_back(Config::IlpCsDs);
    std::vector<WorkloadRuns> suite;
    for (const Workload *wp : matchWorkloads(only)) {
        const Workload &w = *wp;
        WorkloadRuns runs = runWorkload(w, configs);
        double base =
            static_cast<double>(runs.by_config.at(Config::ONS).pm.total());
        if (base <= 0)
            continue;
        if (!json_path.empty())
            suite.push_back(runs);

        printf("%s%s\n", w.name.c_str(),
               runs.all_match ? "" : "  [CHECKSUM MISMATCH]");
        std::vector<std::string> headers = {"category"};
        for (Config cfg : configs)
            headers.push_back(configName(cfg));
        Table t(headers);
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            t.row().cell(cycleCatName(static_cast<CycleCat>(c)));
            for (Config cfg : configs) {
                const Perfmon &pm = runs.by_config.at(cfg).pm;
                t.cell(static_cast<double>(pm.cycles[c]) / base, 3);
            }
        }
        t.row().cell("TOTAL");
        for (Config cfg : configs) {
            t.cell(static_cast<double>(
                       runs.by_config.at(cfg).pm.total()) /
                       base,
                   3);
        }
        t.print();
        printf("\n");
    }
    if (!json_path.empty() &&
        !writeSuiteArtifact(json_path, suite, configs))
        return 1;
    return 0;
}
