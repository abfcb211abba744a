#include "multiscalar/task_info.hh"

#include <algorithm>

namespace mdp
{

TaskSet::TaskSet(const TraceView &trace) : taskCount(trace.numTasks())
{
    // Two walks and no temporaries: the first counts, the second
    // fills.  Whether an op is a load or a source is kNoSeq is close
    // to random, so neither walk branches on it: each writes
    // unconditionally and advances its cursor by the predicate, and
    // every list carries one spare slot at its end for the writes
    // that do not count, dropped at the end.
    const auto n = static_cast<SeqNum>(trace.size());
    bounds.reserve(size_t{taskCount} + 1);
    taskPcs.reserve(taskCount);
    prodCount.resize(n);
    // consStart[p + 1] counts the consumers of p; consStart[0] counts
    // the kNoSeq sources and is cleared after the walk.
    consStart.assign(size_t{n} + 1, 0);
    uint32_t num_loads = 0;
    uint32_t num_stores = 0;
    uint32_t last = UINT32_MAX;
    for (SeqNum s = 0; s < n; ++s) {
        const uint32_t task = trace.taskId(s);
        if (task != last) {
            bounds.push_back(s);
            taskPcs.push_back(trace.taskPc(s));
            last = task;
        }
        const OpKind kind = trace.kind(s);
        num_loads += kind == OpKind::Load;
        num_stores += kind == OpKind::Store;
        uint8_t count = 0;
        for (SeqNum src : {trace.src1(s), trace.src2(s)}) {
            ++consStart[src == kNoSeq ? 0 : size_t{src} + 1];
            count += src != kNoSeq;
        }
        prodCount[s] = count;
    }
    bounds.push_back(n);
    consStart[0] = 0;
    uint32_t edges = 0;
    for (uint32_t &c : consStart) {
        edges += c;
        c = edges;
    }
    // Now consStart[p] is where p's list starts, and consStart[n] is
    // the spare slot of consList.

    consList.resize(size_t{edges} + 1);
    loadSeqs.resize(size_t{num_loads} + 1);
    storeSeqs.resize(size_t{num_stores} + 1);
    loadStart.resize(bounds.size());
    storeStart.resize(bounds.size());
    uint32_t nl = 0;
    uint32_t ns = 0;
    for (size_t t = 0; t + 1 < bounds.size(); ++t) {
        loadStart[t] = nl;
        storeStart[t] = ns;
        for (SeqNum s = bounds[t]; s < bounds[t + 1]; ++s) {
            const OpKind kind = trace.kind(s);
            loadSeqs[nl] = s;
            nl += kind == OpKind::Load;
            storeSeqs[ns] = s;
            ns += kind == OpKind::Store;
            for (SeqNum src : {trace.src1(s), trace.src2(s)}) {
                // consStart[p] is p's fill cursor; kNoSeq sources
                // write the spare slot through consStart[n], which
                // never moves.
                uint32_t &cursor = consStart[src == kNoSeq ? n : src];
                consList[cursor] = s;
                cursor += src != kNoSeq;
            }
        }
    }
    loadStart.back() = nl;
    storeStart.back() = ns;
    loadSeqs.pop_back();
    storeSeqs.pop_back();
    consList.pop_back();
    // Each cursor stopped where the next list starts: shift them back.
    std::copy_backward(consStart.begin(), consStart.end() - 1,
                       consStart.end());
    consStart[0] = 0;
}

} // namespace mdp
