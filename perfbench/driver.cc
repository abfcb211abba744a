/**
 * @file
 * Host-time benchmark driver.
 *
 * Runs one workload of the repository benchmark (see README.md in this
 * directory) through the simulator's public entry points, in a closed
 * loop: set up the seeded inputs, then sweep the workload's cells over
 * them, pass after pass until the time budget is spent, repeating the
 * set-up before every pass.
 * Every cell is verified as it completes.  The driver prints one JSON
 * record per line on stdout (host descriptor, set-up repetitions,
 * cells, batches, passes, end of run); run.py turns them into metrics.
 *
 * Usage:
 *   perfbench_driver --workload NAME --seed N --seconds S
 *                    [--trace-out FILE]
 *
 * With --trace-out the driver records a span around every call into a
 * simulator layer and writes them once, at exit, as Chrome trace-event
 * JSON.  Traced runs alternate untraced and traced passes so the
 * tracing overhead is measured within the run.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/hash.hh"
#include "base/simd_kernels.hh"
#include "mdp/dep_policy.hh"
#include "mdp/policy.hh"
#include "harness/report.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "ooo/ooo_model.hh"
#include "serve/server.hh"
#include "trace/dep_oracle.hh"
#include "window/window_model.hh"
#include "workloads/manycore.hh"
#include "workloads/suites.hh"

using namespace mdp;

namespace
{

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

/** Wall seconds since the driver started. */
double
wallNow()
{
    return std::chrono::duration<double>(Clock::now() - kProcessStart)
        .count();
}

/** Process user+sys CPU seconds, all threads. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------- seeds

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The seed of one program or batch, derived from the run seed and a
 *  tag naming it.  Never 0: generators read 0 as "profile default". */
uint64_t
deriveSeed(uint64_t run_seed, const std::string &tag)
{
    // 52 bits: the serve protocol carries seeds as JSON numbers.
    uint64_t s = splitmix64(run_seed ^ Fnv1a().str(tag).digest()) >> 12;
    return s ? s : 1;
}

// ------------------------------------------------------- host reference

/** Steps of the host reference kernel: about 2 ms on a 2.1 GHz Xeon. */
constexpr unsigned kReferenceSteps = 200000;
volatile uint64_t referenceSink = 0;

/**
 * Wall seconds of a fixed piece of work that no simulator code runs:
 * dependent loads over a 256 KiB table (which stays in a core's L2),
 * integer mixing and data-dependent branches.  The table is read once
 * untimed, so what the simulator left in the caches does not move the
 * time.  Timed after every batch, it tells how fast the host ran the
 * process at that moment; the work never changes, so only the host
 * moves it.
 */
double
hostReferenceSeconds()
{
    constexpr uint32_t kWords = 1u << 16;
    static const std::vector<uint32_t> table = [] {
        std::vector<uint32_t> t(kWords);
        uint64_t x = 1;
        for (uint32_t &w : t) {
            x = splitmix64(x);
            w = static_cast<uint32_t>(x);
        }
        return t;
    }();
    uint64_t acc = 0;
    for (uint32_t w : table)
        acc += w;
    const double t0 = wallNow();
    uint64_t x = 0x243f6a8885a308d3ull;
    uint32_t i = 0;
    for (unsigned n = 0; n < kReferenceSteps; ++n) {
        i = table[(i ^ static_cast<uint32_t>(x)) & (kWords - 1)];
        x = splitmix64(x + i);
        if (x & 1)
            acc += i;
        else
            acc ^= x >> 7;
    }
    const double t1 = wallNow();
    referenceSink = acc;
    return t1 - t0;
}

// --------------------------------------------------------------- tracing

/** One timed call into a layer (Chrome trace-event "X" event). */
struct Span
{
    std::string name;
    const char *layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::string id; ///< cell / request id shared by that cell's spans
};

/** In-memory span recorder; written once, at exit. */
class Tracer
{
  public:
    bool on = false;

    int
    open(const std::string &name, const char *layer,
         const std::string &id)
    {
        if (!on)
            return -1;
        int idx = static_cast<int>(spans.size());
        spans.push_back({name, layer, wallNow(), 0.0,
                         stack.empty() ? -1 : stack.back(), id});
        stack.push_back(idx);
        return idx;
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans[idx].end = wallNow();
        stack.pop_back();
    }

    bool
    write(const std::string &path) const
    {
        JsonValue events = JsonValue::array();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            JsonValue ev = JsonValue::object();
            ev.set("name", JsonValue::string(s.name));
            ev.set("cat", JsonValue::string(s.layer));
            ev.set("ph", JsonValue::string("X"));
            ev.set("ts", JsonValue::number(s.start * 1e6));
            ev.set("dur", JsonValue::number((s.end - s.start) * 1e6));
            ev.set("pid", JsonValue::number(1));
            ev.set("tid", JsonValue::number(1));
            JsonValue args = JsonValue::object();
            args.set("span", JsonValue::number(static_cast<double>(i)));
            args.set("parent", JsonValue::number(s.parent));
            args.set("id", JsonValue::string(s.id));
            ev.set("args", std::move(args));
            events.push(std::move(ev));
        }
        JsonValue doc = JsonValue::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", JsonValue::string("ms"));
        std::ofstream out(path);
        out << doc.dump(0) << "\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

Tracer tracer;

class SpanGuard
{
  public:
    SpanGuard(const std::string &name, const char *layer,
              const std::string &id = "")
        : idx(tracer.open(name, layer, id))
    {}
    ~SpanGuard() { tracer.close(idx); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    int idx;
};

/** The host reference, in a span of its own layer. */
double
timedReference()
{
    SpanGuard span("reference", "host");
    return hostReferenceSeconds();
}

// ---------------------------------------------------------------- output

void
emit(const JsonValue &doc)
{
    std::cout << doc.dump(0) << "\n";
}

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

JsonValue
str(const std::string &s)
{
    return JsonValue::string(s);
}

// ------------------------------------------------------------ workloads

/** One operation of a sweep: a model run call or a window study. */
struct Cell
{
    enum class Kind { Multiscalar, Ooo, Study };
    Kind kind = Kind::Multiscalar;
    std::string id;
    std::string policy;
    MultiscalarConfig ms;
    OooConfig ooo;
    uint32_t window = 0;
    std::vector<size_t> ddcs;
};

/** One generated program with its shared artifacts and its cells. */
struct Program
{
    std::string name;
    Trace trace;
    std::unique_ptr<TraceView> view;
    std::unique_ptr<DepOracle> oracle;
    std::unique_ptr<TaskSet> tasks;
    uint64_t loads = 0;
    uint64_t stores = 0;
    const std::vector<Cell> *cells = nullptr;
};

/** A model workload's recipe for one program. */
struct ProgramSpec
{
    std::string name;
    std::function<Trace(uint64_t seed)> generate;
    bool needsTasks = true;
    std::vector<Cell> cells;
};

const std::vector<std::string> kPaperPolicies = {
    "never", "always", "wait", "sync", "esync", "psync"};

/** Trace sizes, chosen so that one pass takes at most a few seconds
 *  and a 30 s run holds several passes.  The manycore traces are the
 *  ones MDP_SCALE=0.1 gives: the generators' size floors make every
 *  scale up to 0.3 give the same traces.  The others are a fifth (SPEC
 *  Multiscalar, OoO) and a tenth (serve) of that size; at 0.1 and 1.0
 *  their host cost per op and the layers' shares of the run stayed
 *  within run-to-run noise (README.md, "Trace sizes"). */
constexpr double kDenseScale = 0.02;
constexpr double kManycoreScale = 0.1;
constexpr double kOooScale = 0.02;
constexpr double kServeScale = 0.01;
constexpr unsigned kManycoreInstances = 3;
constexpr unsigned kServeBatches = 2;

bool
violationFree(const std::string &policy)
{
    return policy == "never" || policy == "psync";
}

Cell
msCell(const std::string &prog, unsigned stages,
       const std::string &policy, double mispredict)
{
    Cell c;
    c.kind = Cell::Kind::Multiscalar;
    c.id = prog + "/ms" + std::to_string(stages) + "/" + policy;
    c.policy = policy;
    tryParsePolicy(policy, c.ms.policy);
    c.ms.policyName = policy;
    c.ms.numStages = stages;
    c.ms.taskMispredictRate = mispredict;
    c.ms.sync.slotsPerEntry = stages;
    return c;
}

std::vector<ProgramSpec>
denseSpecs()
{
    std::vector<ProgramSpec> out;
    auto add = [&](const std::string &name, std::vector<unsigned> stages,
                   std::vector<std::string> policies) {
        const Workload &w = findWorkload(name);
        ProgramSpec p;
        p.name = name;
        p.generate = [&w](uint64_t seed) {
            return w.generate(kDenseScale, seed);
        };
        for (unsigned s : stages)
            for (const std::string &pol : policies)
                p.cells.push_back(msCell(name, s, pol,
                                         w.profile().taskMispredictRate));
        out.push_back(std::move(p));
    };
    // fig5 / table9 shape.
    for (const std::string &n : specInt92Names())
        add(n, {4, 8}, kPaperPolicies);
    // fig7 shape.
    for (const std::string &n : specInt95Names())
        add(n, {8}, {"always", "esync", "psync"});
    for (const std::string &n : specFp95Names())
        add(n, {8}, {"always", "esync", "psync"});
    return out;
}

std::vector<ProgramSpec>
manycoreSpecs()
{
    struct Kernel
    {
        const char *name;
        Trace (*make)(double, uint64_t, unsigned);
    };
    static const Kernel kKernels[] = {{"bfs", makeBfsFrontierTrace},
                                      {"spmv", makeSpmvRowSplitTrace},
                                      {"uts", makeUtsTrace}};
    // Squashing policies run only where their squash work is steady
    // across seeds: bfs and uts at 256 PEs.  At 1024 PEs they cost
    // 0.2-3 s of host time per cell and swing by 20-40% with the seed
    // (squash storms), and spmv's squash work swings by ~35% at 256 PEs
    // too; either would swamp the scheduler's own cost.  The
    // squash-free policies drive the same frontier, interconnect and
    // sharded-ARB paths at near-constant cost.
    static const std::vector<const char *> kSquashPolicies = {
        "always", "sync", "storeset"};
    static const std::vector<const char *> kIdlePolicies = {"never",
                                                            "psync"};
    auto cells = [](const Kernel &k, unsigned pes, const std::string &n) {
        const bool squashing = pes <= 256 && std::string(k.name) != "spmv";
        std::vector<Cell> out;
        for (Topology topo : {Topology::Ring, Topology::Mesh}) {
            for (const char *pol :
                 squashing ? kSquashPolicies : kIdlePolicies) {
                Cell c;
                c.id = n + "/" +
                       (topo == Topology::Ring ? "ring" : "mesh") + "/" +
                       pol;
                c.policy = pol;
                c.ms.numStages = pes;
                c.ms.topology = topo;
                c.ms.policyName = pol;
                c.ms.sync.slotsPerEntry = std::min(pes, 64u);
                out.push_back(std::move(c));
            }
        }
        return out;
    };
    // Several seeded instances per kernel, so that no single trace's
    // luck sets the pass time.
    std::vector<ProgramSpec> out;
    for (unsigned pes : {256u, 1024u}) {
        for (const Kernel &k : kKernels) {
            for (unsigned inst = 0; inst < kManycoreInstances; ++inst) {
                ProgramSpec p;
                p.name = std::string(k.name) + "@" + std::to_string(pes) +
                         "." + std::to_string(inst);
                p.generate = [make = k.make, pes](uint64_t seed) {
                    return make(kManycoreScale, seed, pes);
                };
                p.cells = cells(k, pes, p.name);
                out.push_back(std::move(p));
            }
        }
    }
    return out;
}

std::vector<ProgramSpec>
oooSpecs()
{
    std::vector<std::string> names = specInt92Names();
    for (const std::string &n : specInt95Names())
        names.push_back(n);
    std::vector<ProgramSpec> out;
    for (const std::string &name : names) {
        const Workload &w = findWorkload(name);
        ProgramSpec p;
        p.name = name;
        p.generate = [&w](uint64_t seed) {
            return w.generate(kOooScale, seed);
        };
        p.needsTasks = false;
        // ablation_ooo shape.
        for (unsigned win : {16u, 32u, 64u, 128u}) {
            for (const char *pol : {"never", "always", "sync", "psync"}) {
                Cell c;
                c.kind = Cell::Kind::Ooo;
                c.id = name + "/ooo" + std::to_string(win) + "/" + pol;
                c.policy = pol;
                c.ooo.windowSize = win;
                tryParsePolicy(pol, c.ooo.policy);
                c.ooo.policyName = pol;
                p.cells.push_back(std::move(c));
            }
        }
        // Tables 3-5: window sizes with the table-5 DDC sizes.
        for (uint32_t win : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
            Cell c;
            c.kind = Cell::Kind::Study;
            c.id = name + "/window" + std::to_string(win);
            c.window = win;
            c.ddcs = {32, 128, 512};
            p.cells.push_back(std::move(c));
        }
        out.push_back(std::move(p));
    }
    return out;
}

// --------------------------------------------------------- verification

struct Outcome
{
    JsonValue stats = JsonValue::object();
    Fnv1a digest;
    std::string why; ///< empty when every check passed
    double ops = 0.0;

    void
    count(const char *key, uint64_t v)
    {
        stats.set(key, num(static_cast<double>(v)));
        digest.value<uint64_t>(v);
    }

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && why.empty())
            why = what;
    }
};

Outcome
checkMultiscalar(const Program &p, const Cell &c, const SimResult &r)
{
    Outcome o;
    o.count("cycles", r.cycles);
    o.count("cycles_simulated", r.cyclesSimulated);
    o.count("cycles_skipped", r.cyclesSkipped);
    o.count("committed_ops", r.committedOps);
    o.count("committed_loads", r.committedLoads);
    o.count("committed_stores", r.committedStores);
    o.count("committed_tasks", r.committedTasks);
    o.count("misspeculations", r.misSpeculations);
    o.count("squashed_ops", r.squashedOps);
    o.count("control_stalls", r.controlStalls);
    o.count("loads_blocked_sync", r.loadsBlockedSync);
    o.count("loads_blocked_frontier", r.loadsBlockedFrontier);
    o.count("frontier_releases", r.frontierReleases);
    o.count("sync_wait_cycles", r.syncWaitCycles);
    o.count("signal_wait_cycles", r.signalWaitCycles);
    o.count("frontier_wait_cycles", r.frontierWaitCycles);
    o.count("reg_forwards", r.regForwards);
    o.count("reg_forward_hops", r.regForwardHops);
    o.count("stage_visits", r.stageVisits);
    o.count("stage_slots", r.stageSlots);
    o.count("value_pred_uses", r.valuePredUses);
    o.count("value_pred_hits", r.valuePredHits);
    o.count("value_pred_misses", r.valuePredMisses);
    o.count("pred_nn", r.pred.nn);
    o.count("pred_ny", r.pred.ny);
    o.count("pred_yn", r.pred.yn);
    o.count("pred_yy", r.pred.yy);
    const SyncStats &s = r.syncStats;
    o.count("load_checks", s.loadChecks);
    o.count("loads_predicted", s.loadsPredicted);
    o.count("loads_waited", s.loadsWaited);
    o.count("full_bypasses", s.fullBypasses);
    o.count("store_checks", s.storeChecks);
    o.count("signals_delivered", s.signalsDelivered);
    o.count("store_allocations", s.storeAllocations);
    o.count("misspecs_recorded", s.misSpecsRecorded);
    o.count("sync_frontier_releases", s.frontierReleases);
    o.count("squash_frees", s.squashFrees);
    o.count("eviction_releases", s.evictionReleases);
    for (const auto &[ld, st] : r.misspecLog) {
        o.digest.value<uint64_t>(ld);
        o.digest.value<uint64_t>(st);
    }
    o.ops = static_cast<double>(r.committedOps);

    o.expect(r.committedOps == p.view->size(), "committed ops != trace");
    o.expect(r.committedLoads == p.loads, "committed loads != trace");
    o.expect(r.committedStores == p.stores, "committed stores != trace");
    o.expect(r.committedTasks == p.tasks->numTasks(),
             "committed tasks != trace");
    o.expect(r.cyclesSimulated + r.cyclesSkipped == r.cycles,
             "simulated + skipped != cycles");
    o.expect(!violationFree(c.policy) || r.misSpeculations == 0,
             "violation under " + c.policy);
    return o;
}

Outcome
checkOoo(const Program &p, const Cell &c, const OooResult &r)
{
    Outcome o;
    o.count("cycles", r.cycles);
    o.count("cycles_simulated", r.cyclesSimulated);
    o.count("cycles_skipped", r.cyclesSkipped);
    o.count("committed_ops", r.committedOps);
    o.count("committed_loads", r.committedLoads);
    o.count("misspeculations", r.misSpeculations);
    o.count("squashed_ops", r.squashedOps);
    o.count("loads_blocked", r.loadsBlocked);
    o.count("frontier_releases", r.frontierReleases);
    o.ops = static_cast<double>(r.committedOps);

    o.expect(r.committedOps == p.view->size(), "committed ops != trace");
    o.expect(r.committedLoads == p.loads, "committed loads != trace");
    o.expect(r.cyclesSimulated + r.cyclesSkipped == r.cycles,
             "simulated + skipped != cycles");
    o.expect(!violationFree(c.policy) || r.misSpeculations == 0,
             "violation under " + c.policy);
    return o;
}

Outcome
checkStudy(const Cell &c, const WindowStudyResult &r)
{
    Outcome o;
    o.count("window_size", r.windowSize);
    o.count("misspeculations", r.misSpeculations);
    o.count("static_deps", r.staticDeps);
    o.count("static_deps_999", r.staticDepsFor999);
    bool rates_ok = r.ddcMissRates.size() == c.ddcs.size();
    for (size_t i = 0; i < r.ddcMissRates.size(); ++i) {
        const auto &[size, rate] = r.ddcMissRates[i];
        o.digest.value<uint64_t>(size);
        o.digest.value<double>(rate);
        rates_ok = rates_ok && i < c.ddcs.size() && size == c.ddcs[i] &&
                   rate >= 0.0 && rate <= 1.0;
    }
    o.expect(r.windowSize == c.window, "study window != requested");
    o.expect(r.staticDepsFor999 <= r.staticDeps,
             "99.9% static deps > all static deps");
    o.expect(rates_ok, "DDC miss rates malformed");
    return o;
}

void
emitCell(int pass, const std::string &model, const std::string &id,
         double ms, const Outcome &o)
{
    JsonValue doc = JsonValue::object();
    doc.set("t", str("cell"));
    doc.set("pass", num(pass));
    doc.set("model", str(model));
    doc.set("id", str(id));
    doc.set("ms", num(ms));
    doc.set("ops", num(o.ops));
    doc.set("why", str(o.why));
    doc.set("digest", str(hashHex(o.digest.digest())));
    doc.set("stats", o.stats);
    emit(doc);
}

// ------------------------------------------------------- model workloads

std::vector<std::unique_ptr<Program>>
setupPrograms(const std::vector<ProgramSpec> &specs, uint64_t seed)
{
    std::vector<std::unique_ptr<Program>> out;
    for (const ProgramSpec &spec : specs) {
        auto p = std::make_unique<Program>();
        p->name = spec.name;
        {
            SpanGuard span("generate", "workloads", spec.name);
            p->trace = spec.generate(deriveSeed(seed, spec.name));
        }
        p->view = std::make_unique<TraceView>(p->trace);
        {
            SpanGuard span("oracle", "trace", spec.name);
            p->oracle = std::make_unique<DepOracle>(*p->view);
        }
        if (spec.needsTasks) {
            SpanGuard span("task_set", "multiscalar", spec.name);
            p->tasks = std::make_unique<TaskSet>(*p->view);
        }
        p->loads = p->oracle->loads().size();
        p->stores = p->oracle->stores().size();
        p->cells = &spec.cells;
        out.push_back(std::move(p));
    }
    return out;
}

/** Run every cell of every program once, in order. */
void
modelPass(int pass, const std::vector<std::unique_ptr<Program>> &progs)
{
    for (const auto &pp : progs) {
        const Program &p = *pp;
        const double g0 = wallNow();
        const double gc0 = cpuNow();
        for (const Cell &c : *p.cells) {
            Outcome o;
            std::string model;
            double t0 = 0.0;
            double t1 = 0.0;
            switch (c.kind) {
              case Cell::Kind::Multiscalar: {
                model = "multiscalar";
                SimResult r;
                {
                    SpanGuard span("run", "multiscalar", c.id);
                    t0 = wallNow();
                    r = MultiscalarProcessor(*p.view, *p.oracle, *p.tasks,
                                             c.ms)
                            .run();
                    t1 = wallNow();
                }
                o = checkMultiscalar(p, c, r);
                break;
              }
              case Cell::Kind::Ooo: {
                model = "ooo";
                OooResult r;
                {
                    SpanGuard span("run", "ooo", c.id);
                    t0 = wallNow();
                    r = OooProcessor(*p.view, *p.oracle, c.ooo).run();
                    t1 = wallNow();
                }
                o = checkOoo(p, c, r);
                break;
              }
              case Cell::Kind::Study: {
                model = "window";
                WindowStudyResult r;
                {
                    SpanGuard span("study", "window", c.id);
                    t0 = wallNow();
                    r = WindowModel(*p.view, *p.oracle)
                            .study(c.window, c.ddcs);
                    t1 = wallNow();
                }
                o = checkStudy(c, r);
                break;
              }
            }
            emitCell(pass, model, c.id, (t1 - t0) * 1e3, o);
        }
        JsonValue doc = JsonValue::object();
        doc.set("t", str("batch"));
        doc.set("pass", num(pass));
        doc.set("id", str(p.name));
        doc.set("ms", num((wallNow() - g0) * 1e3));
        doc.set("cpu_ms", num((cpuNow() - gc0) * 1e3));
        doc.set("ref_ms", num(timedReference() * 1e3));
        emit(doc);
    }
}

// ------------------------------------------------------ serve workload

struct ServeProgram
{
    std::string name;
    uint64_t ops = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t tasks = 0;
};

struct ServeBatch
{
    uint64_t seed = 0;
    std::vector<ServeProgram> programs;
};

struct ServeRequest
{
    std::string id;
    std::string line;
    std::string policy;
    bool ooo = false;
    const ServeProgram *prog = nullptr;
};

/** The batch's requests: every SPECint92 program under every
 *  registered policy at 8 stages, plus OoO requests for each program
 *  under the two policies that bracket the mechanism. */
std::vector<ServeRequest>
serveRequests(const ServeBatch &b, int pass, unsigned bidx)
{
    std::vector<ServeRequest> out;
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%.17g", kServeScale);
    auto add = [&](const ServeProgram &p, const std::string &model,
                   const std::string &policy) {
        ServeRequest r;
        r.id = "p" + std::to_string(pass) + "b" + std::to_string(bidx) +
               ":" + p.name + ":" + model + ":" + policy;
        r.policy = policy;
        r.ooo = model == "ooo";
        r.prog = &p;
        r.line = "{\"id\":\"" + r.id + "\",\"workload\":\"" + p.name +
                 "\",\"scale\":" + scale + ",\"model\":\"" + model +
                 "\",\"policy\":\"" + policy + "\",\"stages\":8" +
                 ",\"seed\":" + std::to_string(b.seed) + "}";
        out.push_back(std::move(r));
    };
    for (const ServeProgram &p : b.programs) {
        for (const std::string &pol : dependencePolicyNames())
            add(p, "multiscalar", pol);
        for (const char *pol : {"always", "psync"})
            add(p, "ooo", pol);
    }
    return out;
}

std::vector<ServeBatch>
setupServe(uint64_t seed)
{
    std::vector<ServeBatch> out;
    for (unsigned b = 0; b < kServeBatches; ++b) {
        ServeBatch batch;
        batch.seed = deriveSeed(seed, "batch" + std::to_string(b));
        for (const std::string &name : specInt92Names()) {
            Trace t;
            {
                SpanGuard span("generate", "workloads", name);
                t = findWorkload(name).generate(kServeScale, batch.seed);
            }
            TraceView v(t);
            const TraceStats st = v.stats();
            batch.programs.push_back({name, v.size(), st.numLoads,
                                      st.numStores, v.numTasks()});
        }
        out.push_back(std::move(batch));
    }
    return out;
}

struct ServeTotals
{
    double runSeconds = 0.0;
    double runCpu = 0.0;
};

void
servePass(int pass, serve::Server &server,
          const std::vector<ServeBatch> &batches, ServeTotals &totals)
{
    for (unsigned bidx = 0; bidx < batches.size(); ++bidx) {
        const std::vector<ServeRequest> reqs =
            serveRequests(batches[bidx], pass, bidx);
        std::map<std::string, size_t> byId;
        std::vector<double> submitted(reqs.size());
        std::vector<std::string> why(reqs.size());
        JsonValue submit_us = JsonValue::array();

        const double b0 = wallNow();
        const double bc0 = cpuNow();
        for (size_t i = 0; i < reqs.size(); ++i) {
            byId[reqs[i].id] = i;
            std::vector<serve::Response> resp;
            {
                SpanGuard span("submit", "serve", reqs[i].id);
                submitted[i] = wallNow();
                resp = server.handleLine(1, reqs[i].line);
                submit_us.push(num((wallNow() - submitted[i]) * 1e6));
            }
            JsonValue doc;
            std::string err;
            if (resp.size() != 1 ||
                !JsonValue::parse(resp[0].line, doc, err) ||
                !doc.has("status") ||
                doc.get("status").asString() != "queued")
                why[i] = "submit not queued";
        }

        std::vector<serve::Response> resp;
        const double c0 = cpuNow();
        const double r0 = wallNow();
        {
            SpanGuard span("run", "serve",
                           "p" + std::to_string(pass) + "b" +
                               std::to_string(bidx));
            resp = server.handleLine(1, "{\"op\":\"run\"}");
        }
        const double r1 = wallNow();
        const double rc1 = cpuNow();
        totals.runSeconds += r1 - r0;
        totals.runCpu += rc1 - c0;

        std::vector<const JsonValue *> stats(reqs.size(), nullptr);
        std::vector<JsonValue> docs(resp.size());
        for (size_t k = 0; k < resp.size(); ++k) {
            std::string err;
            if (!JsonValue::parse(resp[k].line, docs[k], err) ||
                !docs[k].has("status"))
                continue;
            if (docs[k].get("status").asString() != "done" ||
                !docs[k].has("id"))
                continue;
            auto it = byId.find(docs[k].get("id").asString());
            if (it != byId.end() && docs[k].has("stats"))
                stats[it->second] = &docs[k].get("stats");
        }

        for (size_t i = 0; i < reqs.size(); ++i) {
            const ServeRequest &rq = reqs[i];
            Outcome o;
            o.expect(why[i].empty(), why[i]);
            o.expect(stats[i] != nullptr, "no done line");
            if (stats[i]) {
                const JsonValue &s = *stats[i];
                o.stats = s;
                o.digest.str(s.dump(0));
                auto field = [&](const char *k) {
                    return s.has(k) ? s.get(k).asNumber() : -1.0;
                };
                // An OoO done line carries no load, store or task count,
                // and no done line splits simulated from skipped cycles.
                o.ops = field("committed_ops");
                o.expect(o.ops == static_cast<double>(rq.prog->ops),
                         "committed ops != trace");
                o.expect(rq.ooo || field("committed_loads") ==
                                       static_cast<double>(
                                           rq.prog->loads),
                         "committed loads != trace");
                o.expect(rq.ooo || field("committed_stores") ==
                                       static_cast<double>(
                                           rq.prog->stores),
                         "committed stores != trace");
                o.expect(rq.ooo || field("committed_tasks") ==
                                       static_cast<double>(
                                           rq.prog->tasks),
                         "committed tasks != trace");
                o.expect(!violationFree(rq.policy) ||
                             field("misspeculations") == 0.0,
                         "violation under " + rq.policy);
            }
            // The request's latency as its client sees it.
            std::string id = rq.id.substr(rq.id.find(':') + 1);
            emitCell(pass, rq.ooo ? "ooo" : "multiscalar",
                     "b" + std::to_string(bidx) + ":" + id,
                     (r1 - submitted[i]) * 1e3, o);
        }

        JsonValue doc = JsonValue::object();
        doc.set("t", str("batch"));
        doc.set("pass", num(pass));
        doc.set("id", str("b" + std::to_string(bidx)));
        doc.set("ms", num((r1 - b0) * 1e3));
        doc.set("cpu_ms", num((rc1 - bc0) * 1e3));
        doc.set("run_ms", num((r1 - r0) * 1e3));
        doc.set("submit_us", std::move(submit_us));
        doc.set("ref_ms", num(timedReference() * 1e3));
        emit(doc);
    }
}

// ------------------------------------------------------------------ main

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
        s = s.c_str();
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload "
                 "ms_dense|ms_manycore|ooo_window|serve_sweep --seed N "
                 "--seconds S [--trace-out FILE]\n";
    std::exit(2);
}

/** Set-up runs kFirstSetupReps times before the first pass, and before
 *  every later pass at least once and until it has taken kSetupShare
 *  of the median pass time.  Its samples are thus spread over the
 *  whole run, like the passes', and the median repetition is the
 *  set-up time. */
constexpr unsigned kFirstSetupReps = 5;
constexpr double kSetupShare = 0.1;

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/** The inputs' sizes, the same for every set-up repetition. */
void
emitInputs(const std::vector<std::unique_ptr<Program>> &progs,
           const std::vector<ServeBatch> &batches)
{
    double ops = 0.0;
    double loads = 0.0;
    for (const auto &p : progs) {
        ops += static_cast<double>(p->view->size());
        loads += static_cast<double>(p->loads);
    }
    for (const ServeBatch &b : batches)
        for (const ServeProgram &p : b.programs) {
            ops += static_cast<double>(p.ops);
            loads += static_cast<double>(p.loads);
        }
    JsonValue doc = JsonValue::object();
    doc.set("t", str("inputs"));
    doc.set("ops", num(ops));
    doc.set("loads", num(loads));
    emit(doc);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace-out")
            trace_out = v;
        else
            usage("unknown argument " + a);
    }
    if (!(seconds > 0.0))
        usage("--seconds must be positive");
    const bool is_serve = workload == "serve_sweep";
    std::vector<ProgramSpec> specs;
    if (workload == "ms_dense")
        specs = denseSpecs();
    else if (workload == "ms_manycore")
        specs = manycoreSpecs();
    else if (workload == "ooo_window")
        specs = oooSpecs();
    else if (!is_serve)
        usage("unknown workload '" + workload + "'");

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = is_serve ? std::min(nproc, 4u) : 1u;
    {
        JsonValue doc = JsonValue::object();
        doc.set("t", str("host"));
        doc.set("nproc", num(nproc));
        doc.set("cpu", str(cpuModel()));
        doc.set("simd", str(simd::levelName(simd::activeLevel())));
        doc.set("seed", num(static_cast<double>(seed)));
        doc.set("workers", num(workers));
        doc.set("build_type", str(PERFBENCH_BUILD_TYPE));
        emit(doc);
    }

    // Set-up, repeated before every pass (see kFirstSetupReps); each
    // pass sweeps the inputs of the repetition just before it.
    std::vector<std::unique_ptr<Program>> progs;
    std::vector<ServeBatch> batches;
    unsigned setup_reps = 0;
    auto setUp = [&] {
        tracer.on = !trace_out.empty();
        progs.clear();
        batches.clear();
        const double t0 = wallNow();
        {
            SpanGuard span("setup", "harness",
                           "rep" + std::to_string(setup_reps));
            if (is_serve)
                batches = setupServe(seed);
            else
                progs = setupPrograms(specs, seed);
        }
        JsonValue doc = JsonValue::object();
        doc.set("t", str("setup"));
        doc.set("rep", num(setup_reps++));
        doc.set("s", num(wallNow() - t0));
        emit(doc);
    };

    serve::ServeConfig scfg;
    scfg.jobs = workers;
    serve::Server server(scfg);

    // Closed loop: start another round of set-up and pass only while
    // it is expected to end within the budget.  Traced runs alternate
    // untraced and traced passes, starting untraced, and always hold
    // one of each.
    const double loop0 = wallNow();
    std::vector<double> pass_walls;
    std::vector<double> round_walls;
    for (int pass = 0;; ++pass) {
        const bool traced = !trace_out.empty() && pass % 2 == 1;
        if (pass >= (trace_out.empty() ? 1 : 2) &&
            wallNow() - loop0 + median(round_walls) > seconds)
            break;
        const double round0 = wallNow();
        if (pass == 0) {
            for (unsigned rep = 0; rep < kFirstSetupReps; ++rep)
                setUp();
            emitInputs(progs, batches);
        } else {
            const double share = kSetupShare * median(pass_walls);
            do
                setUp();
            while (wallNow() - round0 < share);
        }
        tracer.on = traced;
        const serve::BatchStats before = server.stats();
        ServeTotals totals;
        const double c0 = cpuNow();
        const double t0 = wallNow();
        {
            SpanGuard span("pass", "harness", "pass" + std::to_string(pass));
            if (is_serve)
                servePass(pass, server, batches, totals);
            else
                modelPass(pass, progs);
        }
        const double wall = wallNow() - t0;
        const double cpu = cpuNow() - c0;
        pass_walls.push_back(wall);
        round_walls.push_back(wallNow() - round0);
        const serve::BatchStats after = server.stats();

        JsonValue doc = JsonValue::object();
        doc.set("t", str("pass"));
        doc.set("pass", num(pass));
        doc.set("traced", JsonValue::boolean(traced));
        doc.set("wall_s", num(wall));
        doc.set("cpu_s", num(cpu));
        if (is_serve) {
            auto delta = [](uint64_t a, uint64_t b) {
                return num(static_cast<double>(a - b));
            };
            doc.set("run_s", num(totals.runSeconds));
            doc.set("run_cpu_s", num(totals.runCpu));
            doc.set("trace_passes",
                    delta(after.tracePasses, before.tracePasses));
            doc.set("configs",
                    delta(after.configsEvaluated, before.configsEvaluated));
            doc.set("lockstep_rounds",
                    delta(after.lockstepRounds, before.lockstepRounds));
            doc.set("rejected",
                    delta(after.rejectedFull + after.rejectedInvalid +
                              after.duplicates,
                          before.rejectedFull + before.rejectedInvalid +
                              before.duplicates));
        }
        emit(doc);
    }
    tracer.on = false;

    bool wrote = true;
    if (!trace_out.empty())
        wrote = tracer.write(trace_out);
    JsonValue doc = JsonValue::object();
    doc.set("t", str("end"));
    doc.set("wall_s", num(wallNow()));
    doc.set("peak_rss_mb", num(peakRssMb()));
    emit(doc);
    std::cout.flush();
    if (!wrote) {
        std::cerr << "perfbench_driver: cannot write " << trace_out << "\n";
        return 1;
    }
    return 0;
}
