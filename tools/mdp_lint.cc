/**
 * @file
 * mdp_lint -- the repo's determinism and hygiene gate.
 *
 * Usage:
 *   mdp_lint [options] [file...]
 *
 * Options:
 *   --root DIR            repo root (default: current directory)
 *   --list-rules          print every rule id with its one-line doc
 *   --rule ID             report only this rule (repeatable)
 *   --exclude-rule ID     drop this rule from the report (repeatable)
 *   --sarif PATH          also write a SARIF 2.1.0 report ('-' =
 *                         stdout)
 *   --baseline PATH       subtract the findings recorded in PATH;
 *                         only new findings count
 *   --write-baseline PATH record current findings as accepted debt
 *
 * With no files, lints the default set (src/, bench/, tools/,
 * tests/, examples/ minus tests/lint_fixtures).  When files ARE
 * given, the whole default set is still analyzed — cross-file rules
 * (layering, cycles, policy resolution, per-directory container
 * declarations) need it — but only diagnostics in the named files
 * are reported.  That is what makes a changed-files-only CI fast
 * path sound.  The analysis is one serial pass with no cache, and
 * it writes no file unless --sarif or --write-baseline asks for one.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error.  See
 * tools/lint_core.hh for the rule set and the
 * `// mdp-lint: allow(<rule>): <why>` suppression syntax.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/sarif.hh"
#include "lint_core.hh"

namespace
{

int
usageError(const char *msg, const char *arg)
{
    std::fprintf(stderr, "mdp_lint: %s%s%s\n", msg, arg ? " " : "",
                 arg ? arg : "");
    std::fprintf(stderr, "try: mdp_lint --help\n");
    return 2;
}

bool
knownRule(const std::string &id)
{
    for (const std::string &r : mdp::lint::ruleNames())
        if (r == id)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using mdp::lint::Diag;

    std::string root = ".";
    std::vector<std::string> files;
    std::vector<std::string> only_rules, exclude_rules;
    std::string sarif_path, baseline_path, write_baseline_path;

    auto needValue = [&](int &i) -> const char * {
        return i + 1 < argc ? argv[++i] : nullptr;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--root") == 0) {
            const char *v = needValue(i);
            if (!v)
                return usageError("--root needs a directory", nullptr);
            root = v;
        } else if (std::strcmp(a, "--list-rules") == 0) {
            for (const mdp::lint::RuleDoc &r : mdp::lint::ruleDocs())
                std::printf("%-24s %s\n", r.id.c_str(),
                            r.doc.c_str());
            return 0;
        } else if (std::strcmp(a, "--rule") == 0) {
            const char *v = needValue(i);
            if (!v || !knownRule(v))
                return usageError("--rule needs a known rule id", v);
            only_rules.push_back(v);
        } else if (std::strcmp(a, "--exclude-rule") == 0) {
            const char *v = needValue(i);
            if (!v || !knownRule(v))
                return usageError(
                    "--exclude-rule needs a known rule id", v);
            exclude_rules.push_back(v);
        } else if (std::strcmp(a, "--sarif") == 0) {
            const char *v = needValue(i);
            if (!v)
                return usageError("--sarif needs a path", nullptr);
            sarif_path = v;
        } else if (std::strcmp(a, "--baseline") == 0) {
            const char *v = needValue(i);
            if (!v)
                return usageError("--baseline needs a path", nullptr);
            baseline_path = v;
        } else if (std::strcmp(a, "--write-baseline") == 0) {
            const char *v = needValue(i);
            if (!v)
                return usageError("--write-baseline needs a path",
                                  nullptr);
            write_baseline_path = v;
        } else if (std::strcmp(a, "--help") == 0) {
            std::printf(
                "usage: mdp_lint [--root DIR] [--list-rules]\n"
                "                [--rule ID] [--exclude-rule ID]\n"
                "                [--sarif PATH] [--baseline PATH]\n"
                "                [--write-baseline PATH] [file...]\n"
                "exit codes: 0 clean, 1 findings, 2 usage/IO "
                "error\n");
            return 0;
        } else if (a[0] == '-') {
            return usageError("unknown option", a);
        } else {
            std::string f = a;
            // Accept paths given with the root prefix attached.
            if (f.rfind(root + "/", 0) == 0)
                f = f.substr(root.size() + 1);
            files.push_back(f);
        }
    }

    // The analysis set is always the full default set plus any
    // explicitly named files (cross-file rules need the whole tree);
    // named files act as a report filter.
    std::vector<std::string> analyze =
        mdp::lint::discoverFiles(root);
    std::set<std::string> report_filter(files.begin(), files.end());
    for (const std::string &f : files) {
        if (std::find(analyze.begin(), analyze.end(), f) ==
            analyze.end())
            analyze.push_back(f);
    }
    if (analyze.empty()) {
        std::fprintf(stderr,
                     "mdp_lint: no lintable files under %s\n",
                     root.c_str());
        return 2;
    }

    std::vector<Diag> diags = mdp::lint::lintPaths(root, analyze);
    if (diags.size() == 1 && diags[0].line == 0 &&
        diags[0].rule == "lint-allow") {
        std::fprintf(stderr, "mdp_lint: %s: %s\n",
                     diags[0].file.c_str(), diags[0].msg.c_str());
        return 2;
    }

    diags = mdp::lint::filterRules(diags, only_rules, exclude_rules);
    if (!report_filter.empty()) {
        std::vector<Diag> kept;
        for (Diag &d : diags)
            if (report_filter.count(d.file))
                kept.push_back(std::move(d));
        diags = std::move(kept);
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "mdp_lint: cannot write baseline %s\n",
                         write_baseline_path.c_str());
            return 2;
        }
        out << mdp::lint::writeBaseline(diags);
        std::printf("mdp_lint: baseline with %zu finding(s) "
                    "written to %s\n",
                    diags.size(), write_baseline_path.c_str());
        return 0;
    }
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr,
                         "mdp_lint: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        diags = mdp::lint::applyBaseline(diags, buf.str());
    }

    if (!sarif_path.empty()) {
        std::vector<mdp::lint::SarifRule> rules;
        for (const mdp::lint::RuleDoc &r : mdp::lint::ruleDocs())
            rules.push_back({r.id, r.doc});
        std::vector<mdp::lint::SarifResult> results;
        for (const Diag &d : diags)
            results.push_back({d.rule, d.file, d.line, d.msg});
        std::string doc = mdp::lint::sarifDocument(rules, results);
        if (sarif_path == "-") {
            std::fwrite(doc.data(), 1, doc.size(), stdout);
        } else {
            std::ofstream out(sarif_path, std::ios::trunc);
            if (!out) {
                std::fprintf(stderr,
                             "mdp_lint: cannot write SARIF %s\n",
                             sarif_path.c_str());
                return 2;
            }
            out << doc;
        }
    }

    for (const Diag &d : diags)
        std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());
    if (diags.empty()) {
        std::printf("mdp_lint: %zu files clean%s\n", analyze.size(),
                    baseline_path.empty() ? ""
                                          : " (after baseline)");
        return 0;
    }
    std::fprintf(stderr,
                 "mdp_lint: %zu diagnostic(s) in %zu files\n",
                 diags.size(), analyze.size());
    return 1;
}
