/**
 * @file
 * The mdp_served protocol and server core.
 *
 * Protocol: every malformed input (bad JSON, wrong shapes, unknown
 * fields, oversized lines, out-of-range values) must come back as a
 * structured rejection, never terminate the process.  Server: bounded
 * queue backpressure, idempotent duplicate ids, submission-order
 * results, drain semantics, and thread-safety under racing writers
 * (this binary runs in the ASan and TSan CI jobs).  Every served
 * result equals the standalone run of the same configuration, at any
 * worker count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sim_stats.hh"
#include "mdp/policy.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace mdp
{
namespace
{

using serve::Message;
using serve::MsgKind;
using serve::parseMessage;
using serve::Request;
using serve::Response;
using serve::ServeConfig;
using serve::Server;

// Small but non-trivial shared context for the evaluation tests.
constexpr double kScale = 0.02;

JsonValue
parseLine(const std::string &line)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(line, doc, error)) << error;
    return doc;
}

std::string
submitLine(const std::string &id, const std::string &extra = "")
{
    return "{\"id\":\"" + id +
           "\",\"workload\":\"espresso\",\"scale\":0.02" +
           (extra.empty() ? "" : "," + extra) + "}";
}

// ---- protocol --------------------------------------------------------

TEST(Protocol, MalformedJsonRejected)
{
    Message m = parseMessage("{not json");
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("malformed_json"), std::string::npos);
}

TEST(Protocol, NonObjectRejected)
{
    EXPECT_EQ(parseMessage("[1,2,3]").kind, MsgKind::Invalid);
    EXPECT_EQ(parseMessage("42").kind, MsgKind::Invalid);
    EXPECT_EQ(parseMessage("\"hi\"").kind, MsgKind::Invalid);
}

TEST(Protocol, OversizedLineRejected)
{
    std::string big(serve::kMaxRequestBytes + 1, 'x');
    Message m = parseMessage(big);
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("oversized_request"), std::string::npos);
}

TEST(Protocol, UnknownFieldRejected)
{
    Message m = parseMessage(submitLine("r1", "\"bogus\":1"));
    EXPECT_EQ(m.kind, MsgKind::Invalid);
    EXPECT_NE(m.error.find("unknown field 'bogus'"),
              std::string::npos);
    // The validated id still rides along for the error response.
    EXPECT_EQ(m.req.id, "r1");
}

TEST(Protocol, MissingRequiredFields)
{
    EXPECT_EQ(parseMessage("{\"workload\":\"espresso\"}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"id\":\"r1\"}").kind, MsgKind::Invalid);
}

TEST(Protocol, BadValuesRejected)
{
    // Unregistered workload.
    EXPECT_EQ(
        parseMessage("{\"id\":\"x\",\"workload\":\"nonesuch\"}").kind,
        MsgKind::Invalid);
    // Type and range violations on each constrained field.
    EXPECT_EQ(parseMessage(submitLine("x", "\"scale\":0")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"scale\":\"big\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":0")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":65")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"stages\":2.5")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"policy\":\"yolo\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"model\":\"window\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"org\":\"huh\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"tags\":\"huh\"")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"preload\":1")).kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage(submitLine("x", "\"seed\":-1")).kind,
              MsgKind::Invalid);
    // Bad ids: empty, over-long, invalid characters.
    EXPECT_EQ(
        parseMessage("{\"id\":\"\",\"workload\":\"espresso\"}").kind,
        MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"id\":\"has space\","
                           "\"workload\":\"espresso\"}")
                  .kind,
              MsgKind::Invalid);
    std::string longid(serve::kMaxIdBytes + 1, 'a');
    EXPECT_EQ(parseMessage("{\"id\":\"" + longid +
                           "\",\"workload\":\"espresso\"}")
                  .kind,
              MsgKind::Invalid);
}

TEST(Protocol, ValidSubmitCarriesDefaults)
{
    Message m = parseMessage(submitLine("fig5-8-sync",
                                        "\"policy\":\"sync\","
                                        "\"stages\":4"));
    ASSERT_EQ(m.kind, MsgKind::Submit);
    EXPECT_EQ(m.req.id, "fig5-8-sync");
    EXPECT_EQ(m.req.workload, "espresso");
    EXPECT_DOUBLE_EQ(m.req.scale, 0.02);
    EXPECT_EQ(m.req.policy, "sync");
    EXPECT_EQ(m.req.stages, 4u);
    // Unspecified fields keep mdp_sim's defaults.
    EXPECT_EQ(m.req.model, "multiscalar");
    EXPECT_EQ(m.req.entries, 64u);
    EXPECT_EQ(m.req.org, "combined");
    EXPECT_EQ(m.req.tags, "distance");
    EXPECT_EQ(m.req.seed, 0u);
    EXPECT_FALSE(m.req.preload);
}

TEST(Protocol, ControlOps)
{
    EXPECT_EQ(parseMessage("{\"op\":\"run\"}").kind, MsgKind::Run);
    EXPECT_EQ(parseMessage("{\"op\":\"status\"}").kind,
              MsgKind::Status);
    EXPECT_EQ(parseMessage("{\"op\":\"shutdown\"}").kind,
              MsgKind::Shutdown);
    EXPECT_EQ(parseMessage("{\"op\":\"dance\"}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"op\":\"run\",\"x\":1}").kind,
              MsgKind::Invalid);
    EXPECT_EQ(parseMessage("{\"op\":7}").kind, MsgKind::Invalid);
}

// ---- server ---------------------------------------------------------

ServeConfig
smallConfig(size_t cap = 64)
{
    ServeConfig cfg;
    cfg.queueCapacity = cap;
    cfg.jobs = 2;
    return cfg;
}

TEST(Server, QueueFullBackpressure)
{
    Server server(smallConfig(2));
    auto r1 = server.handleLine(1, submitLine("a"));
    auto r2 = server.handleLine(1, submitLine("b"));
    auto r3 = server.handleLine(1, submitLine("c"));
    ASSERT_EQ(r1.size(), 1u);
    EXPECT_EQ(parseLine(r1[0].line).get("status").asString(),
              "queued");
    EXPECT_EQ(parseLine(r2[0].line).get("status").asString(),
              "queued");
    JsonValue rej = parseLine(r3[0].line);
    EXPECT_EQ(rej.get("status").asString(), "rejected");
    EXPECT_EQ(rej.get("error").asString(), "queue_full");

    // After a run frees the queue, the same id is accepted.
    server.handleLine(1, "{\"op\":\"run\"}");
    auto r4 = server.handleLine(1, submitLine("c"));
    EXPECT_EQ(parseLine(r4[0].line).get("status").asString(),
              "queued");

    serve::BatchStats s = server.stats();
    EXPECT_EQ(s.rejectedFull, 1u);
    EXPECT_EQ(s.accepted, 3u);
}

TEST(Server, DuplicateIdsAreIdempotent)
{
    Server server(smallConfig());
    server.handleLine(1, submitLine("dup"));
    auto queued_again = server.handleLine(1, submitLine("dup"));
    JsonValue d1 = parseLine(queued_again[0].line);
    EXPECT_EQ(d1.get("status").asString(), "duplicate");
    EXPECT_FALSE(d1.get("completed").asBool());

    auto ran = server.handleLine(1, "{\"op\":\"run\"}");
    // One result for the single accepted instance + the summary.
    ASSERT_EQ(ran.size(), 2u);
    EXPECT_EQ(parseLine(ran[0].line).get("id").asString(), "dup");

    auto after = server.handleLine(1, submitLine("dup"));
    JsonValue d2 = parseLine(after[0].line);
    EXPECT_EQ(d2.get("status").asString(), "duplicate");
    EXPECT_TRUE(d2.get("completed").asBool());

    serve::BatchStats s = server.stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.duplicates, 2u);
}

TEST(Server, InvalidLinesAreRejectedNotFatal)
{
    Server server(smallConfig());
    for (const char *bad :
         {"", "{", "[1]", "{\"op\":\"nope\"}",
          "{\"id\":\"x\",\"workload\":\"espresso\",\"hm\":3}"}) {
        auto out = server.handleLine(1, bad);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(parseLine(out[0].line).get("status").asString(),
                  "rejected");
    }
    EXPECT_EQ(server.stats().rejectedInvalid, 5u);
}

TEST(Server, RunGroupsIntoOnePassAndPreservesOrder)
{
    Server server(smallConfig());
    std::vector<std::string> ids;
    for (const char *pol : {"never", "always", "wait", "psync"}) {
        for (unsigned stages : {4u, 8u}) {
            std::string id =
                "fig5-" + std::to_string(stages) + "-" + pol;
            ids.push_back(id);
            std::string line = submitLine(
                id, "\"policy\":\"" + std::string(pol) +
                        "\",\"stages\":" + std::to_string(stages));
            auto out = server.handleLine(7, line);
            ASSERT_EQ(parseLine(out[0].line).get("status").asString(),
                      "queued");
        }
    }

    auto out = server.handleLine(9, "{\"op\":\"run\"}");
    ASSERT_EQ(out.size(), ids.size() + 1);
    for (size_t i = 0; i < ids.size(); ++i) {
        JsonValue doc = parseLine(out[i].line);
        EXPECT_EQ(doc.get("id").asString(), ids[i]);
        EXPECT_EQ(doc.get("status").asString(), "done");
        // Results go back to the submitting client, the summary to
        // the client that issued the run.
        EXPECT_EQ(out[i].client, 7u);
        EXPECT_GT(doc.get("stats").get("cycles").asNumber(), 0.0);
    }
    JsonValue summary = parseLine(out.back().line);
    EXPECT_EQ(out.back().client, 9u);
    EXPECT_EQ(summary.get("status").asString(), "ran");
    EXPECT_EQ(summary.get("trace_passes").asNumber(), 1.0);
    EXPECT_EQ(summary.get("configs_evaluated").asNumber(), 8.0);
    EXPECT_EQ(summary.get("amortization_factor").asNumber(), 8.0);
}

TEST(Server, ResultsMatchSharedReportWriter)
{
    // The server's "done" stats must be the shared sim_stats values
    // (what mdp_sim prints and what --results-dir files contain).
    Server server(smallConfig());
    server.handleLine(1, submitLine("check", "\"policy\":\"esync\","
                                             "\"stages\":8"));
    auto out = server.handleLine(1, "{\"op\":\"run\"}");
    ASSERT_EQ(out.size(), 2u);
    JsonValue stats = parseLine(out[0].line).get("stats");

    const WorkloadContext &ctx = cachedContext("espresso", kScale);
    MultiscalarConfig cfg =
        makeMultiscalarConfig(ctx, 8, SpecPolicy::ESync);
    SimResult ref = runMultiscalar(ctx, cfg);
    StatGroup g = multiscalarStats(ref);
    for (const auto &[name, value] : g.all()) {
        ASSERT_TRUE(stats.has(name)) << name;
        EXPECT_DOUBLE_EQ(stats.get(name).asNumber(), value) << name;
    }
}

TEST(Server, ResultsMatchStandaloneRuns)
{
    // Two workloads (two groups): Multiscalar at 4 and 8 stages under
    // the seven paper policies, plus OoO under three.  Every "done"
    // line must come back in submission order and carry exactly the
    // stats of a standalone run, whatever the worker count.
    const SpecPolicy ms_policies[] = {
        SpecPolicy::Never, SpecPolicy::Always, SpecPolicy::Wait,
        SpecPolicy::PerfectSync, SpecPolicy::Sync, SpecPolicy::ESync,
        SpecPolicy::VSync};
    const SpecPolicy ooo_policies[] = {
        SpecPolicy::Always, SpecPolicy::Sync, SpecPolicy::Never};

    std::vector<std::string> lines;
    std::vector<StatGroup> expected;
    for (const char *wl : {"espresso", "sc"}) {
        const WorkloadContext &ctx = cachedContext(wl, kScale);
        const std::string prefix = "{\"workload\":\"" +
                                   std::string(wl) +
                                   "\",\"scale\":0.02,";
        for (unsigned stages : {4u, 8u}) {
            for (SpecPolicy p : ms_policies) {
                const std::string pol = policyName(p);
                lines.push_back(prefix + "\"id\":\"" + wl + "-" +
                                std::to_string(stages) + "-" + pol +
                                "\",\"policy\":\"" + pol +
                                "\",\"stages\":" +
                                std::to_string(stages) + "}");
                MultiscalarConfig cfg =
                    makeMultiscalarConfig(ctx, stages, p);
                cfg.policyName = pol;
                expected.push_back(
                    multiscalarStats(runMultiscalar(ctx, cfg)));
            }
        }
        for (SpecPolicy p : ooo_policies) {
            const std::string pol = policyName(p);
            lines.push_back(prefix + "\"id\":\"" + wl + "-ooo-" + pol +
                            "\",\"model\":\"ooo\",\"policy\":\"" +
                            pol + "\"}");
            OooConfig cfg;
            cfg.policy = p;
            cfg.policyName = pol;
            expected.push_back(oooStats(runOoo(ctx, cfg)));
        }
    }

    for (unsigned jobs : {1u, 3u, 8u}) {
        SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
        ServeConfig cfg;
        cfg.jobs = jobs;
        Server server(cfg);
        std::vector<std::string> ids;
        for (const std::string &line : lines) {
            JsonValue ack = parseLine(server.handleLine(1, line)[0].line);
            ASSERT_EQ(ack.get("status").asString(), "queued");
            ids.push_back(ack.get("id").asString());
        }

        auto out = server.handleLine(1, "{\"op\":\"run\"}");
        ASSERT_EQ(out.size(), lines.size() + 1);
        for (size_t i = 0; i < lines.size(); ++i) {
            JsonValue doc = parseLine(out[i].line);
            ASSERT_EQ(doc.get("id").asString(), ids[i]);
            ASSERT_EQ(doc.get("status").asString(), "done");
            const JsonValue &stats = doc.get("stats");
            ASSERT_EQ(stats.size(), expected[i].all().size()) << ids[i];
            for (const auto &[name, value] : expected[i].all()) {
                ASSERT_TRUE(stats.has(name)) << ids[i] << " " << name;
                EXPECT_EQ(stats.get(name).asNumber(), value)
                    << ids[i] << " " << name;
            }
        }
        EXPECT_EQ(server.stats().groups, 2u);
    }
}

TEST(Server, DrainCompletesEverythingExactlyOnce)
{
    Server server(smallConfig());
    server.handleLine(3, submitLine("d1"));
    server.handleLine(4, submitLine("d2", "\"policy\":\"always\""));
    auto out = server.drain();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(parseLine(out[0].line).get("id").asString(), "d1");
    EXPECT_EQ(out[0].client, 3u);
    EXPECT_EQ(parseLine(out[1].line).get("id").asString(), "d2");
    EXPECT_EQ(out[1].client, 4u);
    // A second drain has nothing left -- nothing runs twice.
    EXPECT_TRUE(server.drain().empty());
    EXPECT_EQ(server.stats().completed, 2u);
}

TEST(Server, ShutdownOpDrainsAndSticks)
{
    Server server(smallConfig());
    server.handleLine(1, submitLine("last"));
    EXPECT_FALSE(server.shutdownRequested());
    auto out = server.handleLine(1, "{\"op\":\"shutdown\"}");
    // The queued request's result, then the bye.
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(parseLine(out[0].line).get("id").asString(), "last");
    EXPECT_EQ(parseLine(out[1].line).get("status").asString(), "bye");
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(Server, RacingClientsOneServer)
{
    // Multiple writers hammer submissions while a runner repeatedly
    // evaluates; under ASan/TSan this is the data-race probe.  The
    // invariant at the end: every accepted id completed exactly once.
    Server server(smallConfig(1024));
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 24;

    std::vector<std::thread> threads;
    threads.reserve(kWriters + 1);
    std::vector<std::vector<std::string>> accepted(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&server, &accepted, w] {
            for (int i = 0; i < kPerWriter; ++i) {
                std::string id = "race-" + std::to_string(w) + "-" +
                                 std::to_string(i);
                auto out = server.handleLine(
                    static_cast<uint64_t>(w + 1),
                    submitLine(id, "\"policy\":\"sync\","
                                   "\"stages\":4"));
                JsonValue doc;
                std::string error;
                ASSERT_TRUE(
                    JsonValue::parse(out[0].line, doc, error));
                if (doc.get("status").asString() == "queued")
                    accepted[w].push_back(id);
            }
        });
    }
    threads.emplace_back([&server] {
        for (int i = 0; i < 6; ++i)
            server.handleLine(99, "{\"op\":\"run\"}");
    });
    for (auto &t : threads)
        t.join();
    server.drain();

    serve::BatchStats s = server.stats();
    size_t total = 0;
    for (const auto &ids : accepted)
        total += ids.size();
    EXPECT_EQ(total, static_cast<size_t>(kWriters * kPerWriter));
    EXPECT_EQ(s.completed, total);
    EXPECT_EQ(s.duplicates, 0u);
}

} // namespace
} // namespace mdp
