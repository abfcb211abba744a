// Expected-clean: the repo convention for the SoA lanes.  The raw
// lane pointers are only ever passed whole to kernel calls (no
// indexing, no arithmetic), and refreshWorklist walks an index range;
// the hash map is consulted through point lookups only.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mdp
{

struct CleanLanes {
    std::vector<uint64_t> doneLane;
    std::vector<uint16_t> flagsLane;

    uint64_t done(size_t i) const { return doneLane[i]; }
    const uint64_t *doneData() const { return doneLane.data(); }
    const uint16_t *flagsData() const { return flagsLane.data(); }
};

uint64_t fakeKernel(const uint64_t *done, const uint16_t *flags,
                    size_t begin, size_t end);

struct CleanStageModel {
    CleanLanes state;
    std::unordered_map<uint32_t, uint32_t> pendingByTask;
    std::vector<uint32_t> worklist;

    uint64_t
    nextCompletion(size_t begin, size_t end) const
    {
        return fakeKernel(state.doneData(), state.flagsData(), begin,
                          end);
    }

    void
    refreshWorklist()
    {
        for (size_t i = 0; i < worklist.size(); ++i) {
            auto it = pendingByTask.find(worklist[i]);
            if (it != pendingByTask.end() && state.done(i) > it->second)
                worklist[i] = it->second;
        }
    }
};

} // namespace mdp
