#include "serve/lockstep.hh"

#include "harness/cycle_stats.hh"
#include "harness/phase_timer.hh"

namespace mdp
{

LockstepEvaluator::LockstepEvaluator(const WorkloadContext &ctx,
                                     std::vector<LockstepJob> jobs,
                                     unsigned chunk_cycles)
    : chunk(chunk_cycles ? chunk_cycles : 1),
      jobSpecs(std::move(jobs))
{
    lanes.reserve(jobSpecs.size());
    for (const LockstepJob &j : jobSpecs) {
        Lane lane;
        if (j.model == LockstepJob::Model::Multiscalar) {
            lane.ms = std::make_unique<MultiscalarProcessor>(
                ctx.trace(), ctx.oracle(), ctx.tasks(), j.ms,
                &lanePool);
        } else {
            lane.ooo = std::make_unique<OooProcessor>(
                ctx.trace(), ctx.oracle(), j.ooo, &lanePool);
        }
        lanes.push_back(std::move(lane));
    }
}

LockstepEvaluator::~LockstepEvaluator() = default;

bool
LockstepEvaluator::stepRound()
{
    bool any_live = false;
    for (Lane &lane : lanes) {
        if (!lane.live)
            continue;
        unsigned stepped = 0;
        if (lane.ms) {
            while (stepped < chunk && lane.ms->stepCycle())
                ++stepped;
        } else {
            while (stepped < chunk && lane.ooo->stepCycle())
                ++stepped;
        }
        if (stepped < chunk)
            lane.live = false;
        else
            any_live = true;
    }
    return any_live;
}

const std::vector<LockstepResult> &
LockstepEvaluator::run()
{
    if (ran)
        return results;
    {
        ScopedPhase phase("simulate");
        while (stepRound())
            ++nrounds;
    }
    results.resize(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        if (lanes[i].ms) {
            results[i].ms = lanes[i].ms->finish();
            addCycleStats(results[i].ms.cyclesSimulated,
                          results[i].ms.cyclesSkipped);
        } else {
            results[i].ooo = lanes[i].ooo->finish();
            addCycleStats(results[i].ooo.cyclesSimulated,
                          results[i].ooo.cyclesSkipped);
        }
    }
    ran = true;
    return results;
}

} // namespace mdp
