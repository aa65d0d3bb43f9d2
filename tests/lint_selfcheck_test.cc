// Self-check for the sfq-lint static checker (the tools/sfq_lint/ package,
// run as `PYTHONPATH=tools python3 -m sfq_lint`).
//
// Proves the properties scripts/lint.sh depends on:
//   1. the real tree is clean (lint exits 0) under all 15 rules,
//   2. the linter is *sensitive*: each deliberately broken fixture in
//      tests/lint_fixtures/, linted as if it lived at its pretend src/
//      path, makes lint exit non-zero with the expected rule id -- i.e.
//      flipping any fixture into the tree would fail the lint gate. This
//      covers the whole-program analyses (layer-dag, lock-order,
//      blocking-under-lock, hot-path) as well as the per-file rules,
//   3. the include-graph pass reports the *exact* defect edges on a
//      synthetic tree with a known cycle and a known back-edge,
//   4. the orphan-module rule names exactly the uncalled header of a
//      synthetic caller tree, and
//   5. --json output obeys the schema documented in
//      docs/STATIC_ANALYSIS.md.
// The suppression fixture additionally proves that a justified
// NOLINT(sfq-*) silences a rule without disabling it globally.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

const char kRoot[] = SFQ_SOURCE_DIR;

struct RunResult {
  int exit_code;
  std::string output;
};

// Runs a command, capturing combined stdout+stderr and the exit code.
RunResult Exec(const std::string& cmd) {
  RunResult result{-1, {}};
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string LintCmd(const std::string& args) {
  return std::string("PYTHONPATH='") + kRoot +
         "/tools' python3 -m sfq_lint --root '" + kRoot + "' " + args;
}

// Every token that follows `key` and any blanks in `text`, a token being
// the longest non-empty run of characters `in_token` accepts.
template <typename Pred>
std::vector<std::string> TokensAfter(const std::string& text,
                                     std::string_view key, Pred in_token) {
  std::vector<std::string> tokens;
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at)) {
    at += key.size();
    while (at < text.size() &&
           std::isspace(static_cast<unsigned char>(text[at]))) {
      ++at;
    }
    size_t end = at;
    while (end < text.size() &&
           in_token(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (end > at) tokens.push_back(text.substr(at, end - at));
    at = end;
  }
  return tokens;
}

// Parses the `sfq-lint-path:` / `sfq-lint-expect:` header comments.
struct Fixture {
  fs::path file;
  std::string pretend_path;
  std::vector<std::string> expected_rules;
};

std::vector<Fixture> LoadFixtures() {
  std::vector<Fixture> fixtures;
  const fs::path dir = fs::path(kRoot) / "tests" / "lint_fixtures";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Fixture f;
    f.file = entry.path();
    const std::vector<std::string> paths =
        TokensAfter(text, "sfq-lint-path:",
                    [](unsigned char c) { return !std::isspace(c); });
    if (!paths.empty()) f.pretend_path = paths.front();
    f.expected_rules =
        TokensAfter(text, "sfq-lint-expect:", [](unsigned char c) {
          return std::isalnum(c) || c == '_' || c == '-';
        });
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

TEST(LintSelfcheck, RealTreeIsClean) {
  const RunResult r = Exec(LintCmd(""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sfq-lint: OK"), std::string::npos) << r.output;
}

TEST(LintSelfcheck, FixtureExpectationsAllHold) {
  // --fixtures asserts, inside the linter, that every fixture fires exactly
  // its declared rules (including the silent suppression fixture).
  const RunResult r =
      Exec(LintCmd("--fixtures '" + std::string(kRoot) + "/tests/lint_fixtures'"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("fixture FAIL"), std::string::npos) << r.output;
}

TEST(LintSelfcheck, EachBrokenFixtureFailsAsTreeSource) {
  const std::vector<Fixture> fixtures = LoadFixtures();
  ASSERT_GE(fixtures.size(), 12u);  // 11+ broken + 1 suppressed control
  int broken = 0;
  for (const Fixture& f : fixtures) {
    ASSERT_FALSE(f.pretend_path.empty()) << f.file;
    const RunResult r = Exec(LintCmd("--check-file '" + f.file.string() +
                                    "' --as " + f.pretend_path));
    if (f.expected_rules.empty()) {
      // The suppression control: must stay silent even as tree source.
      EXPECT_EQ(r.exit_code, 0) << f.file << "\n" << r.output;
      continue;
    }
    ++broken;
    EXPECT_NE(r.exit_code, 0)
        << f.file << " should fail lint as " << f.pretend_path;
    for (const std::string& rule : f.expected_rules) {
      EXPECT_NE(r.output.find("[sfq-" + rule + "]"), std::string::npos)
          << f.file << " expected rule " << rule << "\n"
          << r.output;
    }
  }
  EXPECT_GE(broken, 11);
}

TEST(LintSelfcheck, ListRulesMatchesDocumentedSet) {
  const RunResult r = Exec(LintCmd("--list-rules"));
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"sfq-row-seed", "sfq-raw-geometry", "sfq-nondet-random",
        "sfq-dropped-status", "sfq-raw-mutex", "sfq-unguarded-member",
        "sfq-concurrent-label", "sfq-nodiscard-decl", "sfq-failpoint-site",
        "sfq-server-opcode", "sfq-simd-ifdef", "sfq-raw-pages",
        "sfq-layer-dag",
        "sfq-lock-order", "sfq-blocking-under-lock", "sfq-hot-path",
        "sfq-orphan-module"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

// The include-graph fixture tree contains exactly one include cycle
// (util/a.h <-> util/b.h) and one layer back-edge (core/low.h ->
// server/high.h). The pass must report both with the precise edge path,
// not merely "something is wrong".
TEST(LintSelfcheck, IncludeGraphReportsExactCycleAndBackEdge) {
  const RunResult r = Exec(LintCmd(
      "--include-graph-root '" + std::string(kRoot) +
      "/tests/lint_fixtures/include_cycle_tree'"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(
                "src/core/low.h:5: [sfq-layer-dag] include of "
                "\"server/high.h\" is a layer back-edge: core -> server"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("include cycle: src/util/a.h -> src/util/b.h -> "
                          "src/util/a.h"),
            std::string::npos)
      << r.output;
  // Exactly the two planted defects, nothing else.
  EXPECT_NE(r.output.find("sfq-lint: 2 finding(s)"), std::string::npos)
      << r.output;
}

// The orphan-module fixture tree has one header reached only from its own
// .cc, a test, an example and a commented-out include, and one core header
// reached only from a bench/ experiment driver, next to headers reached from
// src/ and from sfq_bench/ and a stream header reached only from bench/. The
// rule must report the two core headers and nothing else.
TEST(LintSelfcheck, OrphanModuleRuleNamesOnlyTheUncalledHeader) {
  const RunResult r = Exec(
      std::string("PYTHONPATH='") + kRoot + "/tools' python3 -c '"
      "import sys; from sfq_lint import repo_rules; "
      "print(*sorted(f.render() for f in repo_rules.check_orphan_modules("
      "sys.argv[1])), sep=\"\\n\")' '" +
      kRoot + "/tests/lint_fixtures/orphan_module_tree'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.starts_with(
      "src/core/experiment_only.h:1: [sfq-orphan-module] "
      "src/core/experiment_only.h has no caller"))
      << r.output;
  EXPECT_NE(r.output.find("\nsrc/core/orphan.h:1: [sfq-orphan-module] "
                          "src/core/orphan.h has no caller"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 2)
      << r.output;
}

// Whether `line` is one --json object with exactly the documented keys:
// {"path": "<text>", "line": <digits>, "rule": "sfq-<[a-z-]+>",
//  "message": "<text>"}.
bool MatchesJsonSchema(std::string_view line) {
  const auto literal = [&line](std::string_view text) {
    if (!line.starts_with(text)) return false;
    line.remove_prefix(text.size());
    return true;
  };
  const auto run = [&line](auto accept) {
    size_t n = 0;
    while (n < line.size() && accept(static_cast<unsigned char>(line[n]))) ++n;
    line.remove_prefix(n);
    return n > 0;
  };
  return literal(R"({"path": ")") &&
         run([](unsigned char c) { return c != '"'; }) &&
         literal(R"(", "line": )") &&
         run([](unsigned char c) { return std::isdigit(c) != 0; }) &&
         literal(R"(, "rule": "sfq-)") &&
         run([](unsigned char c) { return std::islower(c) || c == '-'; }) &&
         literal(R"(", "message": ")") && line.ends_with(R"("})");
}

// --json emits one object per line with exactly the documented keys:
// path (string), line (number), rule ("sfq-" id), message (string).
TEST(LintSelfcheck, JsonOutputMatchesDocumentedSchema) {
  const RunResult r = Exec(LintCmd(
      "--json --check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/lock_order_cycle.cc' --as "
      "src/server/lock_cycle_probe.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  ASSERT_FALSE(r.output.empty());
  std::istringstream lines(r.output);
  std::string line;
  int objects = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++objects;
    EXPECT_TRUE(MatchesJsonSchema(line)) << line;
    EXPECT_NE(line.find("\"rule\": \"sfq-lock-order\""), std::string::npos)
        << line;
  }
  EXPECT_GE(objects, 1);
}

// simd-ifdef covers run-time CPU dispatch as well as compile-time ISA
// conditionals: the fixture's hand-rolled SSE4.2 CRC must be reported at
// its header include, its target attribute, its builtin and its CPU check,
// so dispatch cannot leave src/util/simd.h unnoticed.
TEST(LintSelfcheck, SimdIfdefCatchesRuntimeDispatchTokens) {
  const RunResult r = Exec(LintCmd(
      "--check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/raw_simd_ifdef.cc' --as "
      "src/core/hand_rolled_simd.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* token :
       {"'nmmintrin.h'", "'__attribute__((target('",
        "'__builtin_ia32_crc32di'", "'__builtin_cpu_supports'"}) {
    EXPECT_NE(r.output.find(std::string("[sfq-simd-ifdef] instruction-set "
                                        "token ") +
                            token),
              std::string::npos)
        << token << "\n"
        << r.output;
  }
}

// raw-pages keeps counter storage on one allocation path: the fixture's
// hand-rolled mapping must be reported at its <sys/mman.h> include and at
// each mmap, madvise, munmap and aligned_alloc, none of which the rules
// before it flagged.
TEST(LintSelfcheck, RawPagesConfinesMappingsToPagesModule) {
  const RunResult r = Exec(LintCmd(
      "--check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/raw_pages.cc' --as "
      "src/core/hand_rolled_pages.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* token : {"'#include <sys/mman.h>'", "'mmap'", "'madvise'",
                            "'munmap'", "'aligned_alloc'"}) {
    EXPECT_NE(r.output.find(std::string("[sfq-raw-pages] raw page "
                                        "allocation ") +
                            token),
              std::string::npos)
        << token << "\n"
        << r.output;
  }
  // util/pages.* itself is the one place the calls belong.
  const RunResult home = Exec(LintCmd(
      "--check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/raw_pages.cc' --as src/util/pages.cc"));
  EXPECT_EQ(home.output.find("[sfq-raw-pages]"), std::string::npos)
      << home.output;
}

// On a clean tree --json prints nothing at all (no summary line), so CI
// annotation consumers can treat every output line as a finding object.
TEST(LintSelfcheck, JsonOutputSilentWhenClean) {
  const RunResult r = Exec(LintCmd(
      "--json --check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/suppressed_ok.h' --as "
      "src/concurrent/suppressed_counter.h"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

}  // namespace
