#include "serve/server.hh"

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "base/thread_pool.hh"
#include "harness/cycle_stats.hh"
#include "harness/experiment.hh"
#include "harness/phase_timer.hh"
#include "harness/runner.hh"
#include "harness/sim_stats.hh"
#include "mdp/policy.hh"
#include "workloads/suites.hh"

namespace mdp::serve
{

namespace
{

// The protocol layer has already validated every enum string, so
// these converters never hit the parsers' fatal paths.
SyncOrganization
orgOf(const Request &r)
{
    if (r.org == "split")
        return SyncOrganization::Split;
    if (r.org == "distributed")
        return SyncOrganization::Distributed;
    return SyncOrganization::Combined;
}

TagScheme
tagsOf(const Request &r)
{
    return r.tags == "address" ? TagScheme::Address
                               : TagScheme::Distance;
}

/** Run one request exactly the way mdp_sim builds and runs its
 *  config: paper policies also set the legacy enum, registry-only
 *  descendants ride the policyName override. */
StatGroup
runRequest(const WorkloadContext &ctx, const Request &r)
{
    SpecPolicy legacy = SpecPolicy::Sync;
    tryParsePolicy(r.policy, legacy);

    if (r.model == "ooo") {
        OooConfig cfg;
        cfg.windowSize = r.window;
        cfg.policy = legacy;
        cfg.policyName = r.policy;
        cfg.sync.numEntries = r.entries;
        cfg.sync.tags = tagsOf(r);
        cfg.organization = orgOf(r);
        return oooStats(runOoo(ctx, cfg));
    }
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, r.stages, legacy);
    cfg.policyName = r.policy;
    cfg.sync.numEntries = r.entries;
    cfg.sync.tags = tagsOf(r);
    cfg.organization = orgOf(r);
    if (r.preload)
        cfg.preloadEdges = analyzeStaticEdges(ctx);
    return multiscalarStats(runMultiscalar(ctx, cfg));
}

JsonValue
statsJson(const StatGroup &g)
{
    JsonValue obj = JsonValue::object();
    for (const auto &[k, v] : g.all())
        obj.set(k, JsonValue::number(v));
    return obj;
}

} // namespace

Server::Server(ServeConfig config) : cfg(std::move(config)) {}

std::vector<Response>
Server::handleLine(uint64_t client, const std::string &line)
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<Response> out;

    Message msg = parseMessage(line);
    switch (msg.kind) {
      case MsgKind::Invalid: {
        ++counters.submitted;
        ++counters.rejectedInvalid;
        JsonValue doc = JsonValue::object();
        if (!msg.req.id.empty())
            doc.set("id", JsonValue::string(msg.req.id));
        doc.set("status", JsonValue::string("rejected"));
        doc.set("error", JsonValue::string(msg.error));
        out.push_back({client, responseLine(doc)});
        break;
      }
      case MsgKind::Submit: {
        ++counters.submitted;
        JsonValue doc = JsonValue::object();
        doc.set("id", JsonValue::string(msg.req.id));
        auto known = idState.find(msg.req.id);
        if (known != idState.end()) {
            ++counters.duplicates;
            doc.set("status", JsonValue::string("duplicate"));
            doc.set("completed", JsonValue::boolean(known->second));
        } else if (queue.size() >= cfg.queueCapacity) {
            ++counters.rejectedFull;
            doc.set("status", JsonValue::string("rejected"));
            doc.set("error", JsonValue::string("queue_full"));
        } else {
            ++counters.accepted;
            idState.emplace(msg.req.id, false);
            queue.push_back({std::move(msg.req), client});
            doc.set("status", JsonValue::string("queued"));
            doc.set("depth",
                    JsonValue::number(
                        static_cast<double>(queue.size())));
        }
        out.push_back({client, responseLine(doc)});
        break;
      }
      case MsgKind::Run:
        out = runQueuedLocked(client, true);
        break;
      case MsgKind::Status: {
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("ok"));
        doc.set("queued",
                JsonValue::number(static_cast<double>(queue.size())));
        doc.set("accepted",
                JsonValue::number(
                    static_cast<double>(counters.accepted)));
        doc.set("completed",
                JsonValue::number(
                    static_cast<double>(counters.completed)));
        doc.set("rejected_queue_full",
                JsonValue::number(
                    static_cast<double>(counters.rejectedFull)));
        out.push_back({client, responseLine(doc)});
        break;
      }
      case MsgKind::Shutdown: {
        out = runQueuedLocked(client, false);
        stopRequested = true;
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("bye"));
        out.push_back({client, responseLine(doc)});
        break;
      }
    }
    return out;
}

std::vector<Response>
Server::drain()
{
    std::lock_guard<std::mutex> lock(mtx);
    return runQueuedLocked(0, false);
}

std::vector<Response>
Server::runQueuedLocked(uint64_t run_client, bool emit_summary)
{
    std::vector<Pending> batch(queue.begin(), queue.end());
    queue.clear();

    std::vector<Response> out;
    std::vector<StatGroup> results(batch.size());

    if (!batch.empty()) {
        // Group by (workload, scale, seed): one shared context per
        // group.  std::map keeps the group order deterministic.
        using GroupKey = std::tuple<std::string, double, uint64_t>;
        std::map<GroupKey, std::vector<size_t>> groups;
        for (size_t i = 0; i < batch.size(); ++i) {
            const Request &r = batch[i].req;
            groups[{r.workload, r.scale, r.seed}].push_back(i);
        }

        // Contexts built for seed overrides live here until the pool
        // drains; default-seed contexts come from the process cache.
        std::vector<std::unique_ptr<WorkloadContext>> owned;
        const unsigned jobs =
            cfg.jobs ? cfg.jobs : ThreadPool::defaultJobs();
        ThreadPool pool(jobs);

        for (const auto &[key, members] : groups) {
            const auto &[wname, scale, seed] = key;
            const WorkloadContext *ctx = nullptr;
            if (seed == 0) {
                ctx = &cachedContext(wname, scale);
            } else {
                const Workload &w = findWorkload(wname);
                owned.push_back(std::make_unique<WorkloadContext>(
                    w.generate(scale, seed),
                    w.profile().taskMispredictRate));
                ctx = owned.back().get();
            }
            // Build the task index here, before the workers share the
            // context.  Built by whichever worker first needs it, its
            // memory came from that worker's allocator arena, and
            // perfbench serve_sweep's set-up (trace generation on this
            // thread) ran up to 40% slower, with 2.6 MB more peak RSS.
            const bool any_multiscalar = std::any_of(
                members.begin(), members.end(),
                [&](size_t i) { return batch[i].req.model != "ooo"; });
            if (any_multiscalar)
                ctx->tasks();
            ++counters.groups;
            ++counters.tracePasses;
            counters.configsEvaluated += members.size();

            // One standalone run per request; each task writes only
            // its own slot, so results keep submission order.
            for (size_t idx : members) {
                pool.submit([ctx, &req = batch[idx].req,
                             &slot = results[idx]] {
                    slot = runRequest(*ctx, req);
                });
            }
        }
        pool.wait();
    }

    for (size_t i = 0; i < batch.size(); ++i) {
        const Pending &p = batch[i];
        const StatGroup &stats = results[i];

        JsonValue doc = JsonValue::object();
        doc.set("id", JsonValue::string(p.req.id));
        doc.set("status", JsonValue::string("done"));
        doc.set("model", JsonValue::string(p.req.model));
        doc.set("stats", statsJson(stats));
        if (!cfg.resultsDir.empty()) {
            const std::string path =
                cfg.resultsDir + "/" + p.req.id + ".json";
            std::string error;
            if (!writeSimReport(path, p.req.model, p.req.scale, stats,
                                error))
                doc.set("write_error", JsonValue::string(error));
        }
        idState[p.req.id] = true;
        ++counters.completed;
        out.push_back({p.client, responseLine(doc)});
    }

    if (emit_summary) {
        JsonValue doc = JsonValue::object();
        doc.set("status", JsonValue::string("ran"));
        doc.set("completed",
                JsonValue::number(static_cast<double>(batch.size())));
        doc.set("groups",
                JsonValue::number(
                    static_cast<double>(counters.groups)));
        doc.set("trace_passes",
                JsonValue::number(
                    static_cast<double>(counters.tracePasses)));
        doc.set("configs_evaluated",
                JsonValue::number(
                    static_cast<double>(counters.configsEvaluated)));
        doc.set("amortization_factor",
                JsonValue::number(counters.amortization()));
        out.push_back({run_client, responseLine(doc)});
    }
    return out;
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return stopRequested;
}

BatchStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters;
}

JsonValue
Server::batchReport(double wall_seconds) const
{
    BatchStats s = stats();

    BenchReport report("mdp_served_batch",
                       "mdp_served batch-server run");
    report.setJobs(cfg.jobs ? cfg.jobs : ThreadPool::defaultJobs());
    for (const auto &[phase, seconds] : phaseSeconds())
        report.addTiming(phase, seconds);
    CycleStats cs = cycleStats();
    report.setCycleCounts(cs.cyclesSimulated, cs.cyclesSkipped);

    JsonValue doc = report.toJson();
    JsonValue batch = JsonValue::object();
    batch.set("submitted",
              JsonValue::number(static_cast<double>(s.submitted)));
    batch.set("accepted",
              JsonValue::number(static_cast<double>(s.accepted)));
    batch.set("completed",
              JsonValue::number(static_cast<double>(s.completed)));
    batch.set("duplicates",
              JsonValue::number(static_cast<double>(s.duplicates)));
    batch.set("rejected_queue_full",
              JsonValue::number(static_cast<double>(s.rejectedFull)));
    batch.set("rejected_invalid",
              JsonValue::number(
                  static_cast<double>(s.rejectedInvalid)));
    batch.set("groups",
              JsonValue::number(static_cast<double>(s.groups)));
    batch.set("trace_passes",
              JsonValue::number(static_cast<double>(s.tracePasses)));
    batch.set("configs_evaluated",
              JsonValue::number(
                  static_cast<double>(s.configsEvaluated)));
    batch.set("amortization_factor",
              JsonValue::number(s.amortization()));
    batch.set("wall_seconds", JsonValue::number(wall_seconds));
    batch.set("requests_per_sec",
              JsonValue::number(
                  wall_seconds > 0.0
                      ? static_cast<double>(s.completed) /
                            wall_seconds
                      : 0.0));
    doc.set("serve_batch", std::move(batch));
    return doc;
}

} // namespace mdp::serve
