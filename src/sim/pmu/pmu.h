/**
 * @file
 * PMU sampling layer (DESIGN.md §17): the pfmon-grade observability
 * subsystem over the timing simulator, modelled on the Itanium 2 PMU
 * features the paper's methodology leans on (§4.5):
 *
 *  - Interval sampler: every `sample_every` cycles the Figure-5 cycle
 *    category deltas plus a fixed set of cache/TLB/predictor/RSE
 *    counter deltas are snapshotted into a preallocated ring. Sample
 *    boundaries are cycle counts, so the stream is deterministic in
 *    (workload, config, machine) and invariant under --jobs. When the
 *    ring fills, adjacent sample pairs are merged in place and the
 *    effective stride doubles — bounded memory without ever dropping a
 *    cycle, so the per-category interval sums still reconcile *exactly*
 *    with the end-of-run Perfmon totals (a declared sum invariant,
 *    checked at artifact-dump time like PR 3's).
 *
 *  - EAR-style event address registers: D-cache and I-cache misses at
 *    or above a latency threshold are sampled with their address and
 *    attributed through the DecodedProgram back to (function, block,
 *    pass provenance) — the paper's §4.1 tail-dup/peel attribution at
 *    miss granularity.
 *
 *  - Branch trace buffer: a ring of the most recent `btb_depth`
 *    retired predicted branches, plus a per-branch-site profile whose
 *    prediction/misprediction sums must equal the aggregate Perfmon
 *    predictor counters (consumed by the fig7 report of
 *    bench/epiclab_report).
 *
 *  - Hot regions: per-(function, block) cycle-category breakdowns for
 *    `epiclab_run --profile`, summing per category to the Perfmon
 *    totals.
 *
 * Everything here is off by default; when disabled the simulator pays
 * one predictable branch per hook site and allocates nothing.
 */
#ifndef EPIC_SIM_PMU_PMU_H
#define EPIC_SIM_PMU_PMU_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/perfmon.h"

namespace epic {

/** Stable snake_case key for a cycle category (registry paths, JSONL
 *  sample records, trace counter args). */
const char *cycleCatKey(CycleCat c);

/** PMU configuration; default-constructed = everything off. */
struct PmuOptions
{
    /// Interval sampler stride in cycles (0 = off). The effective
    /// stride doubles each time the sample ring compacts.
    uint64_t sample_every = 0;
    /// EAR latency threshold in cycles: D/I-cache misses whose total
    /// latency is >= this are captured (0 = EARs off).
    int ear_latency_min = 0;
    /// Branch-trace-buffer depth in records (0 = BTB and per-branch
    /// profile off).
    int btb_depth = 0;
    /// Per-(function, block) cycle-category attribution (--profile).
    bool regions = false;

    bool
    enabled() const
    {
        return sample_every != 0 || ear_latency_min != 0 ||
               btb_depth != 0 || regions;
    }

    bool operator==(const PmuOptions &) const = default;
};

/** Counter deltas carried by every interval sample (beyond the nine
 *  cycle categories). Indexed by PmuCounter. */
enum PmuCounter : int {
    kPmuL1dMisses,
    kPmuL1iMisses,
    kPmuL2Misses,
    kPmuL2iMisses,
    kPmuL3Misses,
    kPmuDtlbMisses,
    kPmuBranchPredictions,
    kPmuMispredictions,
    kPmuRseSpillRegs,
    kPmuRseFillRegs,
    kPmuStlfConflicts,
    kPmuUsefulOps,
    kNumPmuCounters,
};

/** Stable snake_case key for a sampled counter. */
const char *pmuCounterKey(int c);

/** Snapshot the sampled-counter subset of a Perfmon. */
std::array<uint64_t, kNumPmuCounters>
pmuCounterSnapshot(const Perfmon &pm);

/** One interval sample: deltas over [prev sample's cycles_end,
 *  cycles_end]. Deltas telescope: summed over the stream (plus the
 *  final partial interval) they equal the end-of-run totals exactly. */
struct PmuSample
{
    uint64_t cycles_end = 0; ///< cycles_total at the interval boundary
    uint64_t intervals = 1;  ///< base strides merged into this sample
    std::array<uint64_t, Perfmon::kNumCats> cycles{};
    std::array<uint64_t, kNumPmuCounters> counters{};

    bool operator==(const PmuSample &) const = default;
};

/** All PMU state collected during one timing run. */
class PmuData
{
  public:
    /// Sample-ring capacity; compaction halves occupancy when reached.
    static constexpr size_t kMaxSamples = 4096;
    /// Raw EAR capture ring depth (aggregated sites are unbounded).
    static constexpr size_t kEarRingDepth = 64;

    explicit PmuData(const PmuOptions &opt);

    const PmuOptions &options() const { return opt_; }

    // ---- Interval sampler ----
    /** Next cycles_total boundary to sample at (~0 when off). */
    uint64_t nextSampleAt() const { return next_sample_at_; }
    /** Take one sample at a group boundary (cycles_total >= boundary). */
    void sampleBoundary(const Perfmon &pm, uint64_t cycles_total);
    /** Flush the final partial interval at end of run (idempotent). */
    void finish(const Perfmon &pm, uint64_t cycles_total);
    const std::vector<PmuSample> &samples() const { return samples_; }
    /** Effective stride after any ring compactions. */
    uint64_t stride() const { return stride_; }
    /** Ring compactions performed (stride doublings). */
    uint64_t compactions() const { return compactions_; }

    // ---- EAR-style event address registers ----
    /** One aggregated miss site: (function, block) plus provenance. */
    struct EarSite
    {
        uint64_t events = 0;
        uint64_t total_latency = 0;
        uint32_t attr_union = 0; ///< OR of issue-group provenance attrs
        uint64_t last_addr = 0;

        bool operator==(const EarSite &) const = default;
    };
    /** One raw captured miss (most recent kEarRingDepth kept). */
    struct EarRecord
    {
        uint64_t addr = 0;
        int32_t fid = -1;
        int32_t bid = -1;
        int32_t latency = 0;
        uint32_t attrs = 0;

        bool operator==(const EarRecord &) const = default;
    };
    void recordDear(int fid, int bid, uint64_t addr, int latency,
                    uint32_t attrs);
    void recordIear(int fid, int bid, uint64_t line, int latency,
                    uint32_t attrs);
    /// Aggregated sites keyed by (fid << 32) | bid — sorted, so every
    /// iteration (serialization, reporting) is deterministic.
    const std::map<uint64_t, EarSite> &dearSites() const
    {
        return dear_sites_;
    }
    const std::map<uint64_t, EarSite> &iearSites() const
    {
        return iear_sites_;
    }
    uint64_t dearEvents() const { return dear_events_; }
    uint64_t iearEvents() const { return iear_events_; }
    /** Raw captures, oldest first. */
    std::vector<EarRecord> dearRing() const;
    std::vector<EarRecord> iearRing() const;

    // ---- Branch trace buffer + per-branch profile ----
    struct BtbRecord
    {
        uint64_t paddr = 0; ///< code address of the branch
        int32_t fid = -1;
        int32_t bid = -1;
        uint8_t taken = 0;
        uint8_t mispred = 0;

        bool operator==(const BtbRecord &) const = default;
    };
    struct BranchSite
    {
        int32_t fid = -1;
        int32_t bid = -1;
        uint64_t predictions = 0;
        uint64_t mispredictions = 0;
        uint64_t taken = 0;

        bool operator==(const BranchSite &) const = default;
    };
    void recordBranch(uint64_t paddr, int fid, int bid, bool taken,
                      bool mispred);
    /// Per-site profile keyed by code address (sorted — deterministic).
    const std::map<uint64_t, BranchSite> &branchProfile() const
    {
        return branch_profile_;
    }
    /** Trace-buffer contents, oldest first. */
    std::vector<BtbRecord> btbRing() const;
    uint64_t branchRecords() const { return btb_count_; }

    // ---- Hot regions ----
    using RegionCycles = std::array<uint64_t, Perfmon::kNumCats>;
    /**
     * Attribution slot for one (function, block); the returned pointer
     * is stable (node-based map) so the simulator caches it across
     * consecutive charges to the same region.
     */
    RegionCycles *regionSlot(int fid, int bid);
    const std::map<uint64_t, RegionCycles> &regions() const
    {
        return regions_;
    }

    /** Every member, sampler position and rings included. */
    bool operator==(const PmuData &) const = default;

    // ---- Reconciliation ----
    /**
     * Cross-validate every PMU stream against the end-of-run Perfmon
     * totals: per-category sample sums, sampled counter sums, branch
     * profile sums and per-category region sums must all match exactly.
     * Returns one human-readable violation per mismatch (empty = all
     * reconcile). Call after finish().
     */
    std::vector<std::string> checkReconciliation(const Perfmon &pm) const;
    /** Panic (abort) on the first reconciliation violation. */
    void verifyReconciliationOrDie(const Perfmon &pm) const;

    /** Sum of one cycle category over all samples taken so far. */
    uint64_t sampledCycles(CycleCat c) const;
    /** Sum of one sampled counter over all samples taken so far. */
    uint64_t sampledCounter(int c) const;

  private:
    void pushSample(const Perfmon &pm, uint64_t cycles_total,
                    uint64_t intervals);
    void compact();
    static uint64_t key(int fid, int bid)
    {
        return (static_cast<uint64_t>(static_cast<uint32_t>(fid)) << 32) |
               static_cast<uint32_t>(bid);
    }

    PmuOptions opt_;

    // Sampler state.
    uint64_t stride_ = 0;
    uint64_t next_sample_at_ = ~0ull;
    uint64_t compactions_ = 0;
    bool finished_ = false;
    std::vector<PmuSample> samples_; ///< reserved to kMaxSamples
    /// Snapshot at the last sample boundary (deltas telescope from it).
    uint64_t prev_cycles_end_ = 0;
    std::array<uint64_t, Perfmon::kNumCats> prev_cycles_{};
    std::array<uint64_t, kNumPmuCounters> prev_counters_{};

    // EAR state.
    std::map<uint64_t, EarSite> dear_sites_, iear_sites_;
    std::vector<EarRecord> dear_ring_, iear_ring_; ///< cyclic
    uint64_t dear_events_ = 0, iear_events_ = 0;

    // BTB state.
    std::vector<BtbRecord> btb_ring_; ///< cyclic, opt_.btb_depth deep
    uint64_t btb_count_ = 0;
    std::map<uint64_t, BranchSite> branch_profile_;

    // Region state.
    std::map<uint64_t, RegionCycles> regions_;
};

} // namespace epic

#endif // EPIC_SIM_PMU_PMU_H
