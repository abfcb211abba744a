#include "lint_core.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "lint/dataflow.hh"
#include "lint/include_graph.hh"
#include "lint/lexer.hh"
#include "lint/purity.hh"

namespace mdp::lint
{

namespace
{

namespace fs = std::filesystem;

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** The rule-scoping path: fixtures emulate the real tree layout. */
std::string
scopedPath(const std::string &path)
{
    const std::string prefix = "tests/lint_fixtures/";
    if (startsWith(path, prefix))
        return path.substr(prefix.size());
    return path;
}

std::string
dirOf(const std::string &path)
{
    size_t pos = path.find_last_of('/');
    return pos == std::string::npos ? "" : path.substr(0, pos);
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h");
}

bool
inDeterministicScope(const std::string &scoped)
{
    return startsWith(scoped, "src/") || startsWith(scoped, "bench/");
}

/** Where the taint pass and unordered-iter run: the model directories,
 *  whose containers feed simulation state or stats, plus serve/, whose
 *  output order must be hash-independent too.  harness/ and bench/
 *  are report-only timing by design. */
bool
inTaintScope(const std::string &scoped)
{
    static const char *const kDirs[] = {
        "src/mdp/",   "src/ooo/",       "src/window/", "src/multiscalar/",
        "src/trace/", "src/workloads/", "src/serve/",
    };
    for (const char *d : kDirs)
        if (startsWith(scoped, d))
            return true;
    return false;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

// ---- suppression comments ------------------------------------------

struct AllowSet {
    /** (line, rule) pairs the file's comments suppress. */
    std::set<std::pair<int, std::string>> allowed;
    std::vector<Diag> malformed;

    bool
    allows(int line, const std::string &rule) const
    {
        return allowed.count({line, rule}) ||
               allowed.count({line - 1, rule});
    }
};

AllowSet
collectAllows(const std::string &path, const std::string &text)
{
    AllowSet out;
    // Composed so the marker never appears literally in this file
    // (collectAllows scans raw text, string literals included).
    const std::string marker = std::string("mdp-lint") + ": allow(";
    std::vector<std::string> lines = splitLines(text);
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        size_t pos = line.find(marker);
        if (pos == std::string::npos)
            continue;
        int lineno = static_cast<int>(i + 1);
        size_t open = pos + marker.size() - 1;
        size_t close = line.find(')', open);
        if (close == std::string::npos) {
            out.malformed.push_back({path, lineno, "lint-allow",
                                     "unterminated " + marker +
                                         "...)"});
            continue;
        }
        std::string rule = trim(line.substr(open + 1,
                                            close - open - 1));
        std::string rest = trim(line.substr(close + 1));
        bool has_why = startsWith(rest, ":") &&
                       !trim(rest.substr(1)).empty();
        if (rule.empty() || !has_why) {
            out.malformed.push_back(
                {path, lineno, "lint-allow",
                 "suppression needs a rule and a justification: "
                 "// " +
                     marker + "<rule>): <why>"});
            continue;
        }
        out.allowed.insert({lineno, rule});
    }
    return out;
}

// ---- rule: nondet-source -------------------------------------------

void
checkNondet(const std::string &path, const std::vector<Token> &code,
            std::vector<Diag> &out)
{
    for (const std::string &token : nondetSourceTokens()) {
        size_t pos = 0;
        while ((pos = findIdentSeq(code, token, pos)) != SIZE_MAX) {
            out.push_back({path, code[pos].line, "nondet-source",
                           "nondeterminism source '" + token +
                               "'; all randomness must flow through "
                               "a seeded Pcg32 (base/random.hh) and "
                               "model code may not read wall "
                               "clocks"});
            ++pos;
        }
    }
}

// ---- rule: ptr-order -----------------------------------------------

void
checkPtrOrder(const std::string &path, const std::vector<Token> &code,
              std::vector<Diag> &out)
{
    static const char *const kOrdered[] = {
        "map", "multimap", "set", "multiset", "less", "greater",
    };
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        bool named = false;
        for (const char *name : kOrdered)
            named = named || isIdent(code[i], name);
        if (!named || !isPunct(code[i + 1], "<"))
            continue;
        size_t close = matchAngleTokens(code, i + 1);
        if (close == SIZE_MAX)
            continue;
        // First top-level template argument: up to the first comma
        // at angle depth 1.
        int depth = 0;
        size_t arg_end = close;
        for (size_t k = i + 1; k < close; ++k) {
            if (isPunct(code[k], "<"))
                ++depth;
            else if (isPunct(code[k], ">"))
                --depth;
            else if (depth == 1 && isPunct(code[k], ",")) {
                arg_end = k;
                break;
            }
        }
        if (arg_end <= i + 2 || !isPunct(code[arg_end - 1], "*"))
            continue;
        std::string arg;
        for (size_t k = i + 2; k < arg_end; ++k) {
            if (!arg.empty() && code[k].kind == Tok::Ident &&
                code[k - 1].kind == Tok::Ident)
                arg += ' ';
            arg += code[k].spelling;
        }
        out.push_back({path, code[i].line, "ptr-order",
                       "'" + code[i].spelling + "<" + arg +
                           ", ...>' orders by pointer value, which "
                           "varies run to run; key on a stable id"});
    }
}

// ---- rule: unordered-iter ------------------------------------------

/** Names declared as unordered containers, per scoped directory. */
using DeclMap = std::map<std::string, std::set<std::string>>;

std::set<std::string>
collectUnorderedDecls(const std::vector<Token> &code)
{
    std::set<std::string> names;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if ((!isIdent(code[i], "unordered_map") &&
             !isIdent(code[i], "unordered_set")) ||
            !isPunct(code[i + 1], "<"))
            continue;
        size_t close = matchAngleTokens(code, i + 1);
        if (close == SIZE_MAX || close + 1 >= code.size())
            continue;
        size_t j = close + 1;
        while (j < code.size() &&
               (isPunct(code[j], "&") || isPunct(code[j], "*")))
            ++j;
        if (j >= code.size() || code[j].kind != Tok::Ident)
            continue;
        // Skip type-only uses: `...>::iterator`, casts, etc.
        if (j + 1 < code.size() && isPunct(code[j + 1], "::"))
            continue;
        names.insert(code[j].spelling);
    }
    return names;
}

/**
 * Flag every iteration over a container in @p names: range-for
 * sequences (reported at the ':') and explicit .begin()/.cbegin()
 * walks.  Point lookups never match.
 */
void
checkUnorderedIter(const std::string &path,
                   const std::vector<Token> &code,
                   const std::set<std::string> &names,
                   std::vector<Diag> &out)
{
    auto report = [&](size_t idx, const std::string &name,
                      bool range_for) {
        out.push_back({path, code[idx].line, "unordered-iter",
                       std::string(range_for ? "range-for over"
                                             : "iterator walk over") +
                           " unordered container '" + name +
                           "': iteration order is "
                           "implementation-defined; use an ordered "
                           "container or a sorted drain "
                           "(base/ordered.hh)"});
    };
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        // Range-for whose sequence is one of the named containers.
        if (isIdent(code[i], "for") && isPunct(code[i + 1], "(")) {
            size_t close = matchGroup(code, i + 1);
            if (close == SIZE_MAX)
                continue;
            int depth = 0;
            size_t colon = SIZE_MAX;
            bool classic = false;
            for (size_t k = i + 1; k <= close; ++k) {
                if (isPunct(code[k], "("))
                    ++depth;
                else if (isPunct(code[k], ")"))
                    --depth;
                else if (depth == 1 && isPunct(code[k], ";"))
                    classic = true;
                else if (depth == 1 && colon == SIZE_MAX &&
                         isPunct(code[k], ":"))
                    colon = k;
            }
            if (classic || colon == SIZE_MAX)
                continue;
            // The sequence must be a plain member chain whose final
            // identifier is a declared container.
            bool plain = colon + 1 < close;
            std::string name;
            for (size_t k = colon + 1; k < close; ++k) {
                const Token &t = code[k];
                if (t.kind == Tok::Ident)
                    name = t.spelling;
                else if (!isPunct(t, ".") && !isPunct(t, "->"))
                    plain = false;
            }
            if (plain && !name.empty() && names.count(name))
                report(colon, name, true);
            continue;
        }

        // Explicit iterator loops: NAME.begin() / NAME.cbegin().
        if (code[i].kind == Tok::Ident &&
            names.count(code[i].spelling) &&
            isPunct(code[i + 1], ".") && i + 3 < code.size() &&
            (isIdent(code[i + 2], "begin") ||
             isIdent(code[i + 2], "cbegin")) &&
            isPunct(code[i + 3], "(")) {
            report(i, code[i].spelling, false);
        }
    }
}

// ---- rule: soa-sync ------------------------------------------------

/**
 * The packed op-state lanes (base/soa_lanes.hh) expose raw-pointer
 * escape hatches -- doneData()/flagsData() -- solely so model code
 * can hand the lanes to the compare-mask kernels.  Indexing or
 * pointer arithmetic on those pointers outside the accessor layer
 * bypasses the OpLanes invariants (paired lane length, reset
 * semantics), so only src/base/ may do it.
 */
void
checkSoaRawIndex(const std::string &path,
                 const std::vector<Token> &code, std::vector<Diag> &out)
{
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if ((!isIdent(code[i], "doneData") &&
             !isIdent(code[i], "flagsData")) ||
            !isPunct(code[i + 1], "("))
            continue;
        size_t close = matchGroup(code, i + 1);
        if (close == SIZE_MAX || close + 1 >= code.size())
            continue;
        const Token &next = code[close + 1];
        if (!isPunct(next, "[") && !isPunct(next, "+") &&
            !isPunct(next, "-"))
            continue;
        out.push_back(
            {path, code[i].line, "soa-sync",
             "raw index arithmetic on '" + code[i].spelling +
                 "()': the lane escape hatches exist only to feed "
                 "the simd kernels; use the OpLanes accessors "
                 "(done/flags/test/set) outside src/base/"});
    }
}

// ---- rule: frontier-order ------------------------------------------

/**
 * The event-frontier scheduler and the interconnect hop models are
 * the determinism-critical core of the manycore scale-out: which PE
 * steps on which cycle, and how far a forwarded value travels, must
 * be pure platform-stable functions of simulated state.  Files
 * implementing them (basename containing "event_frontier" or
 * "interconnect", under src/) may not *contain* hash containers at
 * all -- stricter than unordered-iter, which only flags iteration and
 * does not cover src/base/.  Wall-clock and random sources there are
 * nondet-source findings like anywhere else in src/.
 */
bool
isFrontierOrderScope(const std::string &scoped)
{
    if (!startsWith(scoped, "src/"))
        return false;
    std::string base = scoped.substr(scoped.find_last_of('/') + 1);
    return base.find("event_frontier") != std::string::npos ||
           base.find("interconnect") != std::string::npos;
}

void
checkFrontierOrder(const std::string &path,
                   const std::vector<Token> &code,
                   std::vector<Diag> &out)
{
    static const char *const kHashContainers[] = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    for (size_t i = 0; i < code.size(); ++i) {
        if (code[i].pp)
            continue;   // the include line itself is not a use
        for (const char *name : kHashContainers) {
            if (!isIdent(code[i], name))
                continue;
            out.push_back(
                {path, code[i].line, "frontier-order",
                 "hash container '" + code[i].spelling +
                     "' in frontier/interconnect code: event and hop "
                     "ordering must be platform-stable; use the "
                     "bucket wheel / min-heap / vectors with explicit "
                     "(t, id) ordering"});
        }
    }
}

// ---- rules: header-guard, using-namespace-header -------------------

void
checkHeader(const std::string &path, const std::string &scoped,
            const std::vector<Token> &code, std::vector<Diag> &out)
{
    std::string expected = expectedGuard(scoped);

    size_t pragma_line = 0;
    std::string guard;
    int guard_line = 0;
    bool has_define = false;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (!code[i].pp || code[i].kind != Tok::Ident)
            continue;
        if (code[i].spelling == "pragma" &&
            isIdent(code[i + 1], "once") && pragma_line == 0) {
            pragma_line = static_cast<size_t>(code[i].line);
        } else if (code[i].spelling == "ifndef" && guard.empty() &&
                   code[i + 1].kind == Tok::Ident) {
            guard = code[i + 1].spelling;
            guard_line = code[i + 1].line;
        } else if (code[i].spelling == "define" &&
                   isIdent(code[i + 1], expected.c_str())) {
            has_define = true;
        }
    }

    if (pragma_line != 0)
        out.push_back({path, static_cast<int>(pragma_line),
                       "header-guard",
                       "#pragma once; repo convention is an include "
                       "guard named " +
                           expected});
    if (guard.empty()) {
        if (pragma_line == 0)
            out.push_back({path, 1, "header-guard",
                           "missing include guard " + expected});
    } else if (guard != expected) {
        out.push_back({path, guard_line, "header-guard",
                       "include guard '" + guard + "' should be " +
                           expected});
    } else if (!has_define) {
        out.push_back({path, guard_line, "header-guard",
                       "#ifndef " + expected +
                           " has no matching #define"});
    }

    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (isIdent(code[i], "using") &&
            isIdent(code[i + 1], "namespace")) {
            out.push_back({path, code[i].line,
                           "using-namespace-header",
                           "'using namespace' in a header leaks into "
                           "every includer; qualify names instead"});
        }
    }
}

// ---- rule: bench-discipline ----------------------------------------

void
checkBench(const std::string &path, const std::vector<Token> &code,
           const std::vector<IncludeEdge> &includes,
           std::vector<Diag> &out)
{
    for (const IncludeEdge &e : includes)
        if (e.path == "benchmark/benchmark.h")
            return; // google-benchmark microbench, not a shape bench

    bool cached = false, runner = false, finish = false;
    for (const Token &t : code) {
        cached = cached || isIdent(t, "cachedContext");
        runner = runner || isIdent(t, "ExperimentRunner");
        finish = finish || isIdent(t, "finishBench");
    }
    if (!cached && !runner)
        out.push_back({path, 1, "bench-discipline",
                       "bench acquires no workload via "
                       "cachedContext()/ExperimentRunner; shape "
                       "benches must share the process-wide context "
                       "cache"});
    if (!finish)
        out.push_back({path, 1, "bench-discipline",
                       "bench never calls finishBench(); shape "
                       "verdicts and JSON artifacts would be lost"});

    // Direct context construction bypasses the trace cache.
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if (isIdent(code[i], "WorkloadContext") &&
            code[i + 1].kind == Tok::Ident &&
            isPunct(code[i + 2], "(")) {
            out.push_back(
                {path, code[i].line, "bench-discipline",
                 "direct WorkloadContext construction bypasses the "
                 "trace cache; use cachedContext()/ExperimentRunner "
                 "or justify with an allow"});
        }
    }
}

// ---- the per-file pipeline -----------------------------------------

/** Facts extracted from one file, a pure function of its content. */
struct FileFacts {
    std::vector<IncludeEdge> includes;
    std::set<std::string> unordered_names;
    std::vector<ClassFact> classes;
    AllowSet allows;
    std::vector<Diag> local;  ///< diags needing no cross-file context
};

FileFacts
localPass(const std::string &path, const std::string &text,
          const std::vector<Token> &code)
{
    FileFacts f;
    std::string scoped = scopedPath(path);
    f.includes = collectIncludes(code);
    f.unordered_names = collectUnorderedDecls(code);
    f.classes = collectClassFacts(code);
    f.allows = collectAllows(path, text);

    if (inDeterministicScope(scoped)) {
        checkNondet(path, code, f.local);
        checkPtrOrder(path, code, f.local);
        if (!startsWith(scoped, "src/base/"))
            checkSoaRawIndex(path, code, f.local);
    }
    if (isHeaderPath(scoped))
        checkHeader(path, scoped, code, f.local);
    std::string base = scoped.substr(scoped.find_last_of('/') + 1);
    if (startsWith(scoped, "bench/") && startsWith(base, "bench_") &&
        endsWith(base, ".cc"))
        checkBench(path, code, f.includes, f.local);
    if (isFrontierOrderScope(scoped))
        checkFrontierOrder(path, code, f.local);
    return f;
}

/** Cross-file inputs to the context pass, shared by every file. */
struct BatchContext {
    DeclMap decls;  ///< unordered names per scoped directory
    std::map<std::string, std::vector<std::string>> bases_of;
};

std::vector<Diag>
contextPass(const std::string &path, const std::vector<Token> &code,
            const FileFacts &facts, const BatchContext &ctx)
{
    std::vector<Diag> out;
    std::string scoped = scopedPath(path);
    static const std::set<std::string> kNoNames;
    auto decl_it = ctx.decls.find(dirOf(scoped));
    const std::set<std::string> &names =
        decl_it == ctx.decls.end() ? kNoNames : decl_it->second;

    if (inTaintScope(scoped)) {
        checkUnorderedIter(path, code, names, out);
        for (const TaintDiag &td : checkNondetTaint(code, names))
            out.push_back({path, td.line, "nondet-taint", td.msg});
    }
    if (startsWith(scoped, "src/")) {
        for (const ClassFact &cf : facts.classes) {
            if (cf.findings.empty() ||
                !resolvesToPolicy(cf.name, ctx.bases_of))
                continue;
            for (const ClassFinding &cfind : cf.findings)
                out.push_back({path, cfind.line, cfind.rule,
                               "in policy class '" + cf.name + "': " +
                                   cfind.msg});
        }
    }
    return out;
}

} // namespace

// ---- whole-batch analysis ------------------------------------------

std::vector<Diag>
lintSources(const std::vector<SourceFile> &sources)
{
    // Per-file facts and the diags that need no cross-file context.
    std::vector<std::vector<Token>> code(sources.size());
    std::vector<FileFacts> facts(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
        code[i] = codeTokens(lex(sources[i].text));
        facts[i] = localPass(sources[i].path, sources[i].text, code[i]);
    }

    // Cross-file context.
    BatchContext ctx;
    std::map<std::string, std::vector<IncludeEdge>> includes_of;
    std::map<std::string, std::string> original_of;
    for (size_t i = 0; i < sources.size(); ++i) {
        std::string scoped = scopedPath(sources[i].path);
        ctx.decls[dirOf(scoped)].insert(facts[i].unordered_names.begin(),
                                        facts[i].unordered_names.end());
        includes_of[scoped] = facts[i].includes;
        original_of[scoped] = sources[i].path;
        for (const ClassFact &cf : facts[i].classes) {
            auto &bases = ctx.bases_of[cf.name];
            bases.insert(bases.end(), cf.bases.begin(), cf.bases.end());
        }
    }

    // The include graph runs over the whole batch.
    std::map<std::string, std::vector<Diag>> graph_diags;
    for (const GraphDiag &gd :
         checkIncludeGraph(includes_of, defaultLayers())) {
        const std::string &orig = original_of[gd.file];
        graph_diags[orig].push_back({orig, gd.line, gd.rule, gd.msg});
    }

    // Context diags, then suppressions.
    std::vector<Diag> all;
    for (size_t i = 0; i < sources.size(); ++i) {
        std::vector<Diag> mine = facts[i].local;
        std::vector<Diag> ctx_diags =
            contextPass(sources[i].path, code[i], facts[i], ctx);
        mine.insert(mine.end(), ctx_diags.begin(), ctx_diags.end());
        auto git = graph_diags.find(sources[i].path);
        if (git != graph_diags.end())
            mine.insert(mine.end(), git->second.begin(),
                        git->second.end());
        for (Diag &d : mine)
            if (!facts[i].allows.allows(d.line, d.rule))
                all.push_back(std::move(d));
        for (const Diag &d : facts[i].allows.malformed)
            all.push_back(d);
    }

    std::sort(all.begin(), all.end(),
              [](const Diag &a, const Diag &b) {
                  return std::tie(a.file, a.line, a.rule, a.msg) <
                         std::tie(b.file, b.line, b.rule, b.msg);
              });
    all.erase(std::unique(all.begin(), all.end(),
                          [](const Diag &a, const Diag &b) {
                              return std::tie(a.file, a.line, a.rule,
                                              a.msg) ==
                                     std::tie(b.file, b.line, b.rule,
                                              b.msg);
                          }),
              all.end());
    return all;
}

// ---- public API -----------------------------------------------------

std::vector<RuleDoc>
ruleDocs()
{
    return {
        {"bench-discipline",
         "bench/bench_*.cc must use cachedContext()/ExperimentRunner "
         "and finish through finishBench()"},
        {"frontier-order",
         "no hash containers in event-frontier/interconnect files: "
         "the manycore scheduler's event and hop ordering must be "
         "platform-stable"},
        {"header-guard",
         "headers carry the canonical MDP_<PATH>_HH include guard "
         "(no #pragma once)"},
        {"include-cycle",
         "the repo's #include graph must stay acyclic"},
        {"layering",
         "includes must respect tools/lint/layers.txt: no src/ "
         "directory may include a higher layer"},
        {"lint-allow",
         "a suppression comment must name a rule and give a "
         "justification"},
        {"nondet-source",
         "banned nondeterminism sources (wall clocks, random "
         "engines, pids, thread ids) in src/ and bench/"},
        {"nondet-taint",
         "a value derived from a nondet source (clock, "
         "reinterpret_cast of a pointer, unordered iteration) must "
         "not reach model or report state"},
        {"policy-ctx-escape",
         "DependencePolicy code must not retain the per-call "
         "LoadIssueContext (no members of that type, no address-of "
         "a context parameter)"},
        {"policy-static-state",
         "DependencePolicy classes must not hold mutable static or "
         "thread_local state (concurrent runs on the server's pool "
         "threads would share it)"},
        {"ptr-order",
         "ordered containers and comparators must not key on "
         "pointer values (std::map<T *, ...>, std::less<T *>)"},
        {"soa-sync",
         "no raw index arithmetic on the SoA lane escape hatches "
         "(doneData()/flagsData()) outside src/base/"},
        {"unordered-iter",
         "no iteration over unordered containers in the model "
         "directories or src/serve/; order leaks into state, reports "
         "and served output"},
        {"using-namespace-header",
         "no `using namespace` in headers"},
    };
}

std::vector<std::string>
ruleNames()
{
    std::vector<std::string> names;
    for (const RuleDoc &r : ruleDocs())
        names.push_back(r.id);
    return names;
}

std::string
expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (startsWith(p, "src/"))
        p = p.substr(4);
    std::string guard = "MDP_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

std::string
codeView(const std::string &text)
{
    // Token-accurate masking: everything inside comments and
    // string/char literals becomes spaces (newlines survive so line
    // numbers hold), the rest passes through.
    std::string out = text;
    for (const Token &t : lex(text)) {
        if (t.kind != Tok::Comment && t.kind != Tok::Str &&
            t.kind != Tok::Char)
            continue;
        size_t from = t.begin, to = t.end;
        if (t.kind == Tok::Str || t.kind == Tok::Char) {
            // Keep the delimiters, blank the contents.
            ++from;
            if (to > from && (text[to - 1] == '"' ||
                              text[to - 1] == '\''))
                --to;
        }
        for (size_t i = from; i < to && i < out.size(); ++i)
            if (out[i] != '\n')
                out[i] = ' ';
    }
    return out;
}

namespace
{

/** A directory component of @p rel is a build tree (`build` or
 *  `build-*`, as .gitignore has them); file names never match. */
bool
inBuildTree(const std::string &rel)
{
    for (const fs::path &dir : fs::path(rel).parent_path()) {
        const std::string name = dir.string();
        if (name == "build" || startsWith(name, "build-"))
            return true;
    }
    return false;
}

} // namespace

std::vector<std::string>
discoverFiles(const std::string &root)
{
    static const char *const kDirs[] = {"src", "bench", "tools",
                                        "tests", "examples"};
    static const char *const kExts[] = {".cc", ".hh", ".h", ".cpp"};
    std::vector<std::string> out;
    for (const char *dir : kDirs) {
        fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            std::string rel =
                fs::relative(entry.path(), root).generic_string();
            if (rel.find("lint_fixtures") != std::string::npos)
                continue;
            if (inBuildTree(rel))
                continue;
            bool keep = false;
            for (const char *ext : kExts)
                keep = keep || endsWith(rel, ext);
            if (keep)
                out.push_back(rel);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Diag>
lintPaths(const std::string &root,
          const std::vector<std::string> &rel_paths)
{
    std::vector<SourceFile> sources;
    for (const std::string &rel : rel_paths) {
        std::ifstream in(fs::path(root) / rel, std::ios::binary);
        if (!in)
            return {{rel, 0, "lint-allow",
                     "cannot read file (bad path?)"}};
        std::ostringstream buf;
        buf << in.rdbuf();
        sources.push_back({rel, buf.str()});
    }
    return lintSources(sources);
}

std::vector<Diag>
filterRules(const std::vector<Diag> &diags,
            const std::vector<std::string> &only,
            const std::vector<std::string> &exclude)
{
    std::set<std::string> keep(only.begin(), only.end());
    std::set<std::string> drop(exclude.begin(), exclude.end());
    std::vector<Diag> out;
    for (const Diag &d : diags) {
        if (!keep.empty() && !keep.count(d.rule))
            continue;
        if (drop.count(d.rule))
            continue;
        out.push_back(d);
    }
    return out;
}

std::string
writeBaseline(const std::vector<Diag> &diags)
{
    std::map<std::pair<std::string, std::string>, int> counts;
    for (const Diag &d : diags)
        ++counts[{d.file, d.rule}];
    std::ostringstream out;
    out << "# mdp_lint baseline: \"<count> <rule> <file>\" findings "
           "accepted as existing debt\n";
    for (const auto &[key, n] : counts)
        out << n << ' ' << key.second << ' ' << key.first << '\n';
    return out.str();
}

std::vector<Diag>
applyBaseline(const std::vector<Diag> &diags,
              const std::string &baseline_text)
{
    std::map<std::pair<std::string, std::string>, int> budget;
    std::istringstream in(baseline_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        int n = 0;
        std::string rule, file;
        if (ls >> n >> rule >> file)
            budget[{file, rule}] += n;
    }
    std::vector<Diag> out;
    for (const Diag &d : diags) {
        auto it = budget.find({d.file, d.rule});
        if (it != budget.end() && it->second > 0) {
            --it->second;
            continue;
        }
        out.push_back(d);
    }
    return out;
}

} // namespace mdp::lint
