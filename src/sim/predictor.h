/**
 * @file
 * Branch prediction: gshare direction predictor with 2-bit counters,
 * a last-target BTB for indirect calls, and an implicit return-address
 * stack (returns predict perfectly, as a deep RSB would).
 */
#ifndef EPIC_SIM_PREDICTOR_H
#define EPIC_SIM_PREDICTOR_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace epic {

/** gshare direction predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(int index_bits)
        : mask_((1u << index_bits) - 1),
          table_(1u << index_bits, 2 /* weakly taken */)
    {
    }

    /** Predict direction for a branch at `addr`. */
    bool
    predict(uint64_t addr) const
    {
        return table_[index(addr)] >= 2;
    }

    /** Update with the actual outcome. */
    void
    update(uint64_t addr, bool taken)
    {
        uint8_t &c = table_[index(addr)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & mask_;
    }

    /** Predict the target of an indirect call at `addr` (function id;
     *  -1 when no history). */
    int
    predictTarget(uint64_t addr) const
    {
        auto it = btb_.find(addr);
        return it == btb_.end() ? -1 : it->second;
    }

    void
    updateTarget(uint64_t addr, int target)
    {
        btb_[addr] = target;
    }

  private:
    uint32_t
    index(uint64_t addr) const
    {
        return (static_cast<uint32_t>(addr >> 4) ^ history_) & mask_;
    }

    uint32_t mask_;
    uint32_t history_ = 0;
    std::vector<uint8_t> table_;
    std::unordered_map<uint64_t, int> btb_;
};

} // namespace epic

#endif // EPIC_SIM_PREDICTOR_H
