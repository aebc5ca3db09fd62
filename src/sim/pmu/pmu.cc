#include "sim/pmu/pmu.h"

#include <algorithm>

#include "support/logging.h"

namespace epic {

const char *
cycleCatKey(CycleCat c)
{
    switch (c) {
      case CycleCat::Unstalled: return "unstalled";
      case CycleCat::FloatScoreboard: return "float_scoreboard";
      case CycleCat::MiscScoreboard: return "misc_scoreboard";
      case CycleCat::IntLoadBubble: return "int_load_bubble";
      case CycleCat::Micropipe: return "micropipe";
      case CycleCat::FrontEndBubble: return "front_end_bubble";
      case CycleCat::BrMispredFlush: return "br_mispred_flush";
      case CycleCat::Rse: return "rse";
      case CycleCat::Kernel: return "kernel";
      case CycleCat::AlatRecovery: return "alat_recovery";
      default: return "unknown";
    }
}

const char *
pmuCounterKey(int c)
{
    switch (static_cast<PmuCounter>(c)) {
      case kPmuL1dMisses: return "l1d_misses";
      case kPmuL1iMisses: return "l1i_misses";
      case kPmuL2Misses: return "l2_misses";
      case kPmuL2iMisses: return "l2i_misses";
      case kPmuL3Misses: return "l3_misses";
      case kPmuDtlbMisses: return "dtlb_misses";
      case kPmuBranchPredictions: return "branch_predictions";
      case kPmuMispredictions: return "mispredictions";
      case kPmuRseSpillRegs: return "rse_spill_regs";
      case kPmuRseFillRegs: return "rse_fill_regs";
      case kPmuStlfConflicts: return "stlf_conflicts";
      case kPmuUsefulOps: return "useful_ops";
      default: return "unknown";
    }
}

std::array<uint64_t, kNumPmuCounters>
pmuCounterSnapshot(const Perfmon &pm)
{
    std::array<uint64_t, kNumPmuCounters> s{};
    s[kPmuL1dMisses] = pm.l1d_misses;
    s[kPmuL1iMisses] = pm.l1i_misses;
    s[kPmuL2Misses] = pm.l2_misses;
    s[kPmuL2iMisses] = pm.l2i_misses;
    s[kPmuL3Misses] = pm.l3_misses;
    s[kPmuDtlbMisses] = pm.dtlb_misses;
    s[kPmuBranchPredictions] = pm.branch_predictions;
    s[kPmuMispredictions] = pm.mispredictions;
    s[kPmuRseSpillRegs] = pm.rse_spill_regs;
    s[kPmuRseFillRegs] = pm.rse_fill_regs;
    s[kPmuStlfConflicts] = pm.stlf_conflicts;
    s[kPmuUsefulOps] = pm.useful_ops;
    return s;
}

PmuData::PmuData(const PmuOptions &opt) : opt_(opt)
{
    if (opt_.sample_every != 0) {
        stride_ = opt_.sample_every;
        next_sample_at_ = stride_;
        samples_.reserve(kMaxSamples);
    }
    if (opt_.ear_latency_min != 0) {
        dear_ring_.reserve(kEarRingDepth);
        iear_ring_.reserve(kEarRingDepth);
    }
    if (opt_.btb_depth != 0)
        btb_ring_.reserve(static_cast<size_t>(opt_.btb_depth));
}

void
PmuData::pushSample(const Perfmon &pm, uint64_t cycles_total,
                    uint64_t intervals)
{
    PmuSample s;
    s.cycles_end = cycles_total;
    s.intervals = intervals;
    const auto now = pmuCounterSnapshot(pm);
    for (int c = 0; c < Perfmon::kNumCats; ++c)
        s.cycles[static_cast<size_t>(c)] =
            pm.cycles[static_cast<size_t>(c)] -
            prev_cycles_[static_cast<size_t>(c)];
    for (int c = 0; c < kNumPmuCounters; ++c)
        s.counters[static_cast<size_t>(c)] =
            now[static_cast<size_t>(c)] -
            prev_counters_[static_cast<size_t>(c)];
    prev_cycles_ = pm.cycles;
    prev_counters_ = now;
    prev_cycles_end_ = cycles_total;
    samples_.push_back(s);
    if (samples_.size() >= kMaxSamples)
        compact();
}

void
PmuData::compact()
{
    // Merge adjacent pairs in place: the stream halves, the effective
    // stride doubles, and every cycle stays accounted for — the exact
    // sum reconciliation survives compaction by construction.
    const size_t n = samples_.size();
    size_t w = 0;
    for (size_t i = 0; i + 1 < n; i += 2, ++w) {
        PmuSample m = samples_[i];
        const PmuSample &b = samples_[i + 1];
        m.cycles_end = b.cycles_end;
        m.intervals += b.intervals;
        for (size_t c = 0; c < m.cycles.size(); ++c)
            m.cycles[c] += b.cycles[c];
        for (size_t c = 0; c < m.counters.size(); ++c)
            m.counters[c] += b.counters[c];
        samples_[w] = m;
    }
    if (n % 2) // odd trailing sample carries over unmerged
        samples_[w++] = samples_[n - 1];
    samples_.resize(w);
    stride_ *= 2;
    ++compactions_;
}

void
PmuData::sampleBoundary(const Perfmon &pm, uint64_t cycles_total)
{
    if (stride_ == 0 || finished_)
        return;
    pushSample(pm, cycles_total, 1);
    next_sample_at_ = (cycles_total / stride_ + 1) * stride_;
}

void
PmuData::finish(const Perfmon &pm, uint64_t cycles_total)
{
    if (stride_ == 0 || finished_)
        return;
    finished_ = true;
    next_sample_at_ = ~0ull;
    if (cycles_total > prev_cycles_end_ || samples_.empty())
        pushSample(pm, cycles_total, 1);
}

uint64_t
PmuData::sampledCycles(CycleCat c) const
{
    uint64_t t = 0;
    for (const PmuSample &s : samples_)
        t += s.cycles[static_cast<size_t>(c)];
    return t;
}

uint64_t
PmuData::sampledCounter(int c) const
{
    uint64_t t = 0;
    for (const PmuSample &s : samples_)
        t += s.counters[static_cast<size_t>(c)];
    return t;
}

void
PmuData::recordDear(int fid, int bid, uint64_t addr, int latency,
                    uint32_t attrs)
{
    EarSite &site = dear_sites_[key(fid, bid)];
    ++site.events;
    site.total_latency += static_cast<uint64_t>(latency);
    site.attr_union |= attrs;
    site.last_addr = addr;
    EarRecord rec{addr, fid, bid, latency, attrs};
    if (dear_ring_.size() < kEarRingDepth)
        dear_ring_.push_back(rec);
    else
        dear_ring_[dear_events_ % kEarRingDepth] = rec;
    ++dear_events_;
}

void
PmuData::recordIear(int fid, int bid, uint64_t line, int latency,
                    uint32_t attrs)
{
    EarSite &site = iear_sites_[key(fid, bid)];
    ++site.events;
    site.total_latency += static_cast<uint64_t>(latency);
    site.attr_union |= attrs;
    site.last_addr = line;
    EarRecord rec{line, fid, bid, latency, attrs};
    if (iear_ring_.size() < kEarRingDepth)
        iear_ring_.push_back(rec);
    else
        iear_ring_[iear_events_ % kEarRingDepth] = rec;
    ++iear_events_;
}

namespace {

/** Unroll a cyclic ring into oldest-first order. */
template <typename T>
std::vector<T>
unrollRing(const std::vector<T> &ring, uint64_t pushed, size_t depth)
{
    std::vector<T> out;
    out.reserve(ring.size());
    if (pushed <= ring.size()) {
        out = ring;
    } else {
        const size_t head = static_cast<size_t>(pushed % depth);
        for (size_t i = 0; i < ring.size(); ++i)
            out.push_back(ring[(head + i) % ring.size()]);
    }
    return out;
}

} // namespace

std::vector<PmuData::EarRecord>
PmuData::dearRing() const
{
    return unrollRing(dear_ring_, dear_events_, kEarRingDepth);
}

std::vector<PmuData::EarRecord>
PmuData::iearRing() const
{
    return unrollRing(iear_ring_, iear_events_, kEarRingDepth);
}

void
PmuData::recordBranch(uint64_t paddr, int fid, int bid, bool taken,
                      bool mispred)
{
    BranchSite &site = branch_profile_[paddr];
    site.fid = fid;
    site.bid = bid;
    ++site.predictions;
    if (mispred)
        ++site.mispredictions;
    if (taken)
        ++site.taken;
    const size_t depth = static_cast<size_t>(opt_.btb_depth);
    BtbRecord rec{paddr, fid, bid, static_cast<uint8_t>(taken),
                  static_cast<uint8_t>(mispred)};
    if (btb_ring_.size() < depth)
        btb_ring_.push_back(rec);
    else
        btb_ring_[static_cast<size_t>(btb_count_ % depth)] = rec;
    ++btb_count_;
}

std::vector<PmuData::BtbRecord>
PmuData::btbRing() const
{
    return unrollRing(btb_ring_, btb_count_,
                      static_cast<size_t>(opt_.btb_depth));
}

PmuData::RegionCycles *
PmuData::regionSlot(int fid, int bid)
{
    return &regions_[key(fid, bid)];
}

std::vector<std::string>
PmuData::checkReconciliation(const Perfmon &pm) const
{
    std::vector<std::string> bad;
    auto mismatch = [&bad](const std::string &what, uint64_t sampled,
                           uint64_t total) {
        if (sampled != total)
            bad.push_back("pmu " + what + ": sampled " +
                          std::to_string(sampled) + " != total " +
                          std::to_string(total));
    };
    if (stride_ != 0) {
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            const CycleCat cat = static_cast<CycleCat>(c);
            mismatch(std::string("interval cycles.") + cycleCatKey(cat),
                     sampledCycles(cat), pm.get(cat));
        }
        const auto now = pmuCounterSnapshot(pm);
        for (int c = 0; c < kNumPmuCounters; ++c)
            mismatch(std::string("interval counter ") + pmuCounterKey(c),
                     sampledCounter(c), now[static_cast<size_t>(c)]);
    }
    if (opt_.btb_depth != 0) {
        uint64_t preds = 0, mis = 0;
        for (const auto &[paddr, site] : branch_profile_) {
            (void)paddr;
            preds += site.predictions;
            mis += site.mispredictions;
        }
        mismatch("branch-profile predictions", preds,
                 pm.branch_predictions);
        mismatch("branch-profile mispredictions", mis, pm.mispredictions);
    }
    if (opt_.regions) {
        for (int c = 0; c < Perfmon::kNumCats; ++c) {
            uint64_t t = 0;
            for (const auto &[k, cyc] : regions_) {
                (void)k;
                t += cyc[static_cast<size_t>(c)];
            }
            mismatch(std::string("region cycles.") +
                         cycleCatKey(static_cast<CycleCat>(c)),
                     t, pm.cycles[static_cast<size_t>(c)]);
        }
    }
    return bad;
}

void
PmuData::verifyReconciliationOrDie(const Perfmon &pm) const
{
    const std::vector<std::string> bad = checkReconciliation(pm);
    if (!bad.empty())
        epic_panic("PMU reconciliation failed: ", bad.front());
}

} // namespace epic
