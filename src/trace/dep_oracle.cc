#include "trace/dep_oracle.hh"

#include "base/flat_hash.hh"

namespace mdp
{

DepOracle::DepOracle(const TraceView &trace)
    : trc(trace), producers(trace.size(), kNoSeq),
      addrIds(trace.size(), kNoAddr)
{
    // id_of is a point-lookup map that is never iterated, so the flat
    // open-addressed table is safe.  Sized by the same
    // distinct-address heuristic the node-based map used; an exact
    // store count would need an extra pass over the trace that costs
    // more than the rehashes it avoids.  Only stored-to addresses get
    // an id: addresses that are only ever loaded would grow the ARB's
    // per-id tables for nothing.
    FlatHashMap<Addr, AddrId> id_of;
    id_of.reserve(trace.size() / 8 + 16);
    std::vector<SeqNum> last_store;   // indexed by id
    for (SeqNum s = 0; s < trace.size(); ++s) {
        const OpKind k = trace.kind(s);
        if (k == OpKind::Store) {
            const size_t known = id_of.size();
            AddrId &id = id_of[trace.addr(s)];
            if (id_of.size() != known) {
                id = static_cast<AddrId>(last_store.size());
                last_store.push_back(s);
            } else {
                last_store[id] = s;
            }
            addrIds[s] = id;
            storeSeqs.push_back(s);
        } else if (k == OpKind::Load) {
            if (const AddrId *id = id_of.find(trace.addr(s))) {
                addrIds[s] = *id;
                producers[s] = last_store[*id];
            }
            loadSeqs.push_back(s);
        }
    }
    numIds = last_store.size();
}

bool
DepOracle::interTask(SeqNum load_seq) const
{
    SeqNum p = producers[load_seq];
    return p != kNoSeq && trc.taskId(p) != trc.taskId(load_seq);
}

uint32_t
DepOracle::taskDistance(SeqNum load_seq) const
{
    SeqNum p = producers[load_seq];
    if (p == kNoSeq)
        return 0;
    return trc.taskId(load_seq) - trc.taskId(p);
}

} // namespace mdp
