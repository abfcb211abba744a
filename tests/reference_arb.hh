/**
 * @file
 * Reference ARB for differential tests.  It keys every table by the
 * raw address, records every load (also those with no older store to
 * their address) and probes with plain scalar loops, so it shares
 * neither DepOracle's id space nor the SIMD kernels with mdp::Arb.
 */

#ifndef MDP_TESTS_REFERENCE_ARB_HH
#define MDP_TESTS_REFERENCE_ARB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/flat_hash.hh"
#include "trace/microop.hh"

namespace mdp
{
namespace test
{

/** Same contract as mdp::Arb, keyed by address. */
class ReferenceArb
{
  public:
    SeqNum
    loadExecuted(Addr addr, SeqNum load, uint32_t load_task)
    {
        SeqNum version = kNoSeq;
        if (const SeqNum *cv = committedVersion.find(addr))
            version = *cv;
        if (const auto *stores = inflightStores.find(addr)) {
            for (SeqNum s : *stores) {
                if (s < load && (version == kNoSeq || s > version))
                    version = s;
            }
        }
        loads[addr].push_back({load, version, load_task});
        ++numTrackedLoads;
        return version;
    }

    SeqNum
    findViolator(Addr addr, SeqNum store, uint32_t store_task) const
    {
        SeqNum best = kNoSeq;
        if (const auto *les = loads.find(addr)) {
            for (const LoadRec &l : *les) {
                if (l.seq > store && l.task > store_task &&
                    (l.version == kNoSeq || l.version < store) &&
                    l.seq < best) {
                    best = l.seq;
                }
            }
        }
        return best;
    }

    SeqNum
    storeExecuted(Addr addr, SeqNum store, uint32_t store_task)
    {
        SeqNum violator = findViolator(addr, store, store_task);
        inflightStores[addr].push_back(store);
        return violator;
    }

    void
    refreshLoadVersion(Addr addr, SeqNum load, SeqNum version)
    {
        if (auto *les = loads.find(addr)) {
            for (LoadRec &l : *les) {
                if (l.seq == load &&
                    (l.version == kNoSeq || l.version < version)) {
                    l.version = version;
                }
            }
        }
    }

    void
    commitLoad(Addr addr, SeqNum load)
    {
        auto *les = loads.find(addr);
        if (!les)
            return;
        const size_t before = les->size();
        std::erase_if(*les, [load](const LoadRec &l) {
            return l.seq == load;
        });
        numTrackedLoads -= before - les->size();
        if (les->empty())
            loads.erase(addr);
    }

    void
    commitStore(Addr addr, SeqNum store)
    {
        removeStore(addr, store);
        const SeqNum *cv = committedVersion.find(addr);
        if (!cv || *cv == kNoSeq || *cv < store)
            committedVersion[addr] = store;
    }

    void removeLoad(Addr addr, SeqNum load) { commitLoad(addr, load); }

    void
    removeStore(Addr addr, SeqNum store)
    {
        auto *stores = inflightStores.find(addr);
        if (!stores)
            return;
        std::erase(*stores, store);
        if (stores->empty())
            inflightStores.erase(addr);
    }

    size_t trackedLoads() const { return numTrackedLoads; }

  private:
    struct LoadRec
    {
        SeqNum seq;
        SeqNum version;
        uint32_t task;
    };

    FlatHashMap<Addr, std::vector<LoadRec>> loads;
    FlatHashMap<Addr, std::vector<SeqNum>> inflightStores;
    FlatHashMap<Addr, SeqNum> committedVersion;
    size_t numTrackedLoads = 0;
};

} // namespace test
} // namespace mdp

#endif // MDP_TESTS_REFERENCE_ARB_HH
