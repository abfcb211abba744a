#include "multiscalar/arb.hh"

#include "base/simd_kernels.hh"

namespace mdp
{

// The kernels speak raw uint32_t with their own sentinel; the two
// "none" encodings must coincide for the probes below to be drop-in.
static_assert(simd::kNone32 == kNoSeq,
              "ARB probes assume the kernel sentinel equals kNoSeq");

Arb::Arb(size_t num_addrs)
    : loads(num_addrs), inflightStores(num_addrs),
      committedVersion(num_addrs, kNoSeq)
{
}

size_t
Arb::LoadLanes::eraseSeq(SeqNum s)
{
    size_t w = 0;
    for (size_t r = 0; r < seq.size(); ++r) {
        if (seq[r] == s)
            continue;
        seq[w] = seq[r];
        version[w] = version[r];
        task[w] = task[r];
        ++w;
    }
    const size_t removed = seq.size() - w;
    seq.resize(w);
    version.resize(w);
    task.resize(w);
    return removed;
}

SeqNum
Arb::loadExecuted(AddrId id, SeqNum load, uint32_t load_task)
{
    if (id == kNoAddr)
        return kNoSeq;

    // Newest in-flight store older than the load; it supersedes the
    // committed version when younger.
    SeqNum version = committedVersion[id];
    const std::vector<SeqNum> &stores = inflightStores[id];
    SeqNum newest = simd::maxStoreBelow(stores.data(), stores.size(),
                                        load);
    if (newest != kNoSeq && (version == kNoSeq || newest > version))
        version = newest;

    loads[id].push(load, version, load_task);
    ++numTrackedLoads;
    return version;
}

SeqNum
Arb::findViolator(AddrId id, SeqNum store, uint32_t store_task) const
{
    const LoadLanes &les = loads[id];
    return simd::earliestViolator(les.seq.data(), les.version.data(),
                                  les.task.data(), les.size(), store,
                                  store_task);
}

SeqNum
Arb::storeExecuted(AddrId id, SeqNum store, uint32_t store_task)
{
    SeqNum violator = findViolator(id, store, store_task);
    inflightStores[id].push_back(store);
    return violator;
}

void
Arb::refreshLoadVersion(AddrId id, SeqNum load, SeqNum version)
{
    if (id == kNoAddr)
        return;
    LoadLanes &les = loads[id];
    for (size_t i = 0; i < les.size(); ++i) {
        if (les.seq[i] == load &&
            (les.version[i] == kNoSeq || les.version[i] < version)) {
            les.version[i] = version;
        }
    }
}

void
Arb::commitLoad(AddrId id, SeqNum load)
{
    if (id != kNoAddr)
        numTrackedLoads -= loads[id].eraseSeq(load);
}

void
Arb::commitStore(AddrId id, SeqNum store)
{
    removeStore(id, store);
    SeqNum &cv = committedVersion[id];
    if (cv == kNoSeq || cv < store)
        cv = store;
}

void
Arb::removeLoad(AddrId id, SeqNum load)
{
    commitLoad(id, load);    // same bookkeeping: drop the entry
}

void
Arb::removeStore(AddrId id, SeqNum store)
{
    std::erase(inflightStores[id], store);
}

void
Arb::reset()
{
    *this = Arb(loads.size());
}

} // namespace mdp
