// Fixture: iterating a hash container in a model directory.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdp
{

std::unordered_map<uint64_t, uint64_t> edgeHits;
std::unordered_set<uint64_t> seenPcs;

uint64_t
drainBad()
{
    uint64_t sum = 0;
    for (const auto &[pc, n] : edgeHits)        // expect: unordered-iter
        sum += pc * n;
    for (uint64_t pc : seenPcs)                 // expect: unordered-iter
        sum ^= pc;
    for (auto it = edgeHits.begin(); true;) {   // expect: unordered-iter
        sum += it->second;
        break;
    }
    return sum;
}

uint64_t
lookupsAreFine(uint64_t pc)
{
    // Point lookups and find/end idioms never observe the order.
    auto it = edgeHits.find(pc);
    if (it != edgeHits.end())
        return it->second;
    std::vector<uint64_t> v{1, 2, 3};
    uint64_t s = 0;
    for (uint64_t x : v) // ordered container: fine
        s += x;
    return s;
}

// Member containers walked inside a member function, e.g. the
// fast-forward skip-target scan: its result steers which cycles are
// jumped over, so hash order would change simulated results.
struct FakeModel {
    std::unordered_map<uint64_t, uint64_t> done;
    std::unordered_set<uint64_t> wake;
    std::unordered_map<uint64_t, uint64_t> resumeById;
    std::vector<uint64_t> doneCycles;
    uint64_t cycle = 0;

    uint64_t
    nextInterestingCycle(uint64_t cap) const
    {
        uint64_t next = cap + 1;
        for (auto &kv : done) {                 // expect: unordered-iter
            if (kv.second > cycle && kv.second < next)
                next = kv.second;
        }
        auto i = wake.begin();                  // expect: unordered-iter
        for (; i != wake.end(); ++i) {
            if (*i > cycle && *i < next)
                next = *i;
        }
        // Vector scans and member point lookups are fine.
        for (uint64_t c : doneCycles)
            if (c > cycle && c < next)
                next = c;
        auto it = resumeById.find(cycle);
        if (it != resumeById.end() && it->second < next)
            next = it->second;
        return next;
    }
};

} // namespace mdp
