/**
 * @file
 * Core of mdp_lint, the repo-specific determinism and hygiene linter.
 *
 * Since PR 8 the linter is a real analysis pipeline, not a line
 * scanner: every file is lexed into a comment-, string-, raw-string-
 * and preprocessor-aware token stream (lint/lexer.hh), rules match
 * identifiers and punctuators, an include-graph pass enforces the
 * layering spec (lint/include_graph.hh, tools/lint/layers.txt), an
 * intra-procedural taint pass tracks nondeterminism from source to
 * sink (lint/dataflow.hh), and a purity pass checks the
 * DependencePolicy contract (lint/purity.hh).  Rule ids and their
 * one-line docs live in ruleDocs(); `mdp_lint --list-rules` prints
 * them.
 *
 * Suppression: `// mdp-lint: allow(<rule>): <justification>` silences
 * <rule> on its own line and the following line.  The justification
 * is mandatory; an allow without one is itself a diagnostic.
 *
 * Paths under tests/lint_fixtures/ are scoped as if that prefix were
 * absent, so fixtures exercise path-scoped rules (e.g. a fixture at
 * tests/lint_fixtures/src/mdp/x.cc is linted as src/mdp/x.cc).
 *
 * There is one analysis path: lintPaths() reads files and hands them
 * to lintSources(), one serial pass with no cache.  The CLI and the
 * tests both go through it; a full-tree lint takes ~0.1 s.
 */

#ifndef MDP_TOOLS_LINT_CORE_HH
#define MDP_TOOLS_LINT_CORE_HH

#include <string>
#include <vector>

namespace mdp::lint
{

/** One finding: file, 1-based line, rule id, human message. */
struct Diag {
    std::string file;
    int line = 0;
    std::string rule;
    std::string msg;
};

/** An in-memory source file (path is root-relative, '/'-separated). */
struct SourceFile {
    std::string path;
    std::string text;
};

/** A rule id and its one-line documentation. */
struct RuleDoc {
    std::string id;
    std::string doc;
};

/** Every rule the linter can emit, sorted by id, with docs. */
std::vector<RuleDoc> ruleDocs();

/** The rule ids the linter can emit (sorted). */
std::vector<std::string> ruleNames();

/** Canonical include guard for a root-relative header path. */
std::string expectedGuard(const std::string &rel_path);

/**
 * Blank out comments and string/character literals, preserving the
 * line structure.  Retained for callers that want a quick masked
 * view; the rules themselves operate on the token stream.
 */
std::string codeView(const std::string &text);

/**
 * Lint a set of sources as one unit.  Cross-file context —
 * unordered-container declarations per directory, the include graph,
 * the class hierarchy for policy resolution — is built across the
 * whole set.  Diagnostics come back sorted by (file, line, rule).
 */
std::vector<Diag> lintSources(const std::vector<SourceFile> &sources);

/**
 * Discover the default lint set under a repo root: every .cc/.hh/.h/
 * .cpp file in src/, bench/, tools/, tests/, and examples/, skipping
 * tests/lint_fixtures (deliberate violations) and build trees.
 * Returned paths are root-relative and sorted.
 */
std::vector<std::string> discoverFiles(const std::string &root);

/** Read the given root-relative paths and lint them. */
std::vector<Diag> lintPaths(const std::string &root,
                            const std::vector<std::string> &rel_paths);

/**
 * Keep only diagnostics selected by --rule/--exclude-rule: when
 * @p only is non-empty, a diag's rule must be in it; rules in
 * @p exclude are always dropped.
 */
std::vector<Diag> filterRules(const std::vector<Diag> &diags,
                              const std::vector<std::string> &only,
                              const std::vector<std::string> &exclude);

/**
 * Baseline support (--write-baseline / --baseline): a baseline
 * records how many findings of each (file, rule) pair are accepted;
 * comparing returns only findings beyond the accepted count, so new
 * debt fails while the recorded debt does not.
 */
std::string writeBaseline(const std::vector<Diag> &diags);
std::vector<Diag> applyBaseline(const std::vector<Diag> &diags,
                                const std::string &baseline_text);

} // namespace mdp::lint

#endif // MDP_TOOLS_LINT_CORE_HH
