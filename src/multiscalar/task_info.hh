/**
 * @file
 * Per-task static information precomputed once per trace and shared by
 * every simulation run over it.
 */

#ifndef MDP_MULTISCALAR_TASK_INFO_HH
#define MDP_MULTISCALAR_TASK_INFO_HH

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/**
 * The per-trace index of the Multiscalar model, built in one walk of
 * the trace: task boundaries, per-task memory-op lists, and the
 * register dataflow in both directions -- each op's static producer
 * count and each op's consumers (a CSR over the reversed src1/src2
 * edges), which drive operand wakeup.
 */
class TaskSet
{
  public:
    explicit TaskSet(const TraceView &trace);

    uint32_t numTasks() const { return taskCount; }

    SeqNum taskStart(uint32_t task) const { return bounds[task]; }
    SeqNum taskEnd(uint32_t task) const { return bounds[task + 1]; }

    uint32_t
    taskSize(uint32_t task) const
    {
        return bounds[task + 1] - bounds[task];
    }

    /** PC of the first instruction of the task. */
    Addr taskPc(uint32_t task) const { return taskPcs[task]; }

    /** Store sequence numbers of the task, in program order. */
    std::span<const SeqNum>
    stores(uint32_t task) const
    {
        return slice(storeSeqs, storeStart, task);
    }

    /** Load sequence numbers of the task, in program order. */
    std::span<const SeqNum>
    loads(uint32_t task) const
    {
        return slice(loadSeqs, loadStart, task);
    }

    /**
     * Register consumers of op @p seq, in program order.  An op that
     * reads @p seq through both sources is listed twice, so every
     * entry matches one unit of that op's producerCount().
     */
    std::span<const SeqNum>
    consumers(SeqNum seq) const
    {
        return slice(consList, consStart, seq);
    }

    /** Register sources of each op that name a producer (not kNoSeq);
     *  src1 == src2 counts twice. */
    const std::vector<uint8_t> &producerCounts() const { return prodCount; }

  private:
    /** Entries [start[i], start[i + 1]) of @p list. */
    static std::span<const SeqNum>
    slice(const std::vector<SeqNum> &list,
          const std::vector<uint32_t> &start, size_t i)
    {
        return {list.data() + start[i], start[i + 1] - start[i]};
    }

    uint32_t taskCount = 0;
    std::vector<SeqNum> bounds;
    std::vector<Addr> taskPcs;
    std::vector<SeqNum> storeSeqs;
    std::vector<uint32_t> storeStart;
    std::vector<SeqNum> loadSeqs;
    std::vector<uint32_t> loadStart;
    std::vector<uint8_t> prodCount;
    std::vector<uint32_t> consStart;
    std::vector<SeqNum> consList;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_TASK_INFO_HH
