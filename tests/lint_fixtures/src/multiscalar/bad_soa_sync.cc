// Fixture: the soa-sync rule.  Raw index arithmetic on the lane
// escape hatches bypasses the OpLanes invariants (only src/base/ may
// do it).  The unordered-container walk in maxPending is not a
// soa-sync finding, but the generic unordered-iter rule (model
// directory) must still flag it.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mdp
{

struct FakeLanes {
    std::vector<uint64_t> doneLane;
    std::vector<uint16_t> flagsLane;

    const uint64_t *doneData() const { return doneLane.data(); }
    const uint16_t *flagsData() const { return flagsLane.data(); }
};

struct FakeStageModel {
    FakeLanes state;
    std::unordered_map<uint32_t, uint32_t> pendingByTask;
    std::vector<uint32_t> worklist;

    uint64_t
    peekDone(size_t i) const
    {
        return state.doneData()[i]; // expect: soa-sync
    }

    const uint16_t *
    flagsTail(size_t base) const
    {
        return state.flagsData() + base; // expect: soa-sync
    }

    void
    maxPending()
    {
        uint32_t max_seen = 0;
        for (auto &kv : pendingByTask) { // expect: unordered-iter
            if (kv.second > max_seen)
                max_seen = kv.second;
        }
        (void)max_seen;
    }
};

} // namespace mdp
