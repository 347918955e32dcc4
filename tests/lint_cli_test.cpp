// vpart_lint command-line contract: the rule catalog and --help list
// seven families, the only report formats are human and SARIF, options
// and families that no longer exist are usage errors (exit 2), and the
// exit code separates a clean tree (0) from findings (1).  Each test
// runs the built binary over a small tree it writes under the test
// temp dir.
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace {

namespace fs = std::filesystem;

constexpr const char* kCleanFile = "int f() { return 0; }\n";

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr, interleaved
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string("'") + VPART_LINT_BIN + "' " + args +
                          " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

/// Each test writes its tree under a root named after it and removes
/// the root when it ends.
class LintCli : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!root_.empty()) fs::remove_all(root_);
  }

  /// A fresh repository root holding one source file at `rel` with
  /// `code`; returns the --repo-root option that points at it.
  std::string tree(const std::string& rel, const std::string& code) {
    root_ = fs::path(::testing::TempDir()) /
            (std::string("vpart_lint_cli_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream(root_ / rel) << code;
    return "--repo-root='" + root_.string() + "'";
  }

  fs::path root_;
};

TEST_F(LintCli, ListRulesPrintsTwentyOneRulesInSevenFamilies) {
  const RunResult r = run_lint("--list-rules");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::istringstream lines(r.output);
  std::string line;
  std::size_t rules = 0;
  std::set<std::string> families;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string id;
    std::string family;
    if (!(fields >> id >> family)) continue;
    ++rules;
    families.insert(family);
  }
  EXPECT_EQ(rules, 21u) << r.output;
  EXPECT_EQ(families,
            (std::set<std::string>{"dead-store", "determinism",
                                   "flow-determinism", "hotpath",
                                   "index-width", "knob", "lock"}))
      << r.output;
}

TEST_F(LintCli, HelpNamesSevenFamiliesAndTwoFormats) {
  const RunResult r = run_lint("--help");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const char* family :
       {"determinism", "knob", "lock", "hotpath", "index-width",
        "flow-determinism", "dead-store"}) {
    EXPECT_NE(r.output.find(family), std::string::npos) << family;
  }
  EXPECT_NE(r.output.find("human|sarif"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("det-lint: allow(<rule>)"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, RoundFamilyIsAUsageError) {
  const RunResult r =
      run_lint(tree("src/part/f.cpp", kCleanFile) + " --rules round src");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown rule or family: round"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, BaselineOptionIsAUsageError) {
  const RunResult r =
      run_lint(tree("src/part/f.cpp", kCleanFile) + " --baseline none src");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("baseline"), std::string::npos) << r.output;
}

TEST_F(LintCli, JsonFormatIsAUsageError) {
  const RunResult r =
      run_lint(tree("src/part/f.cpp", kCleanFile) + " --format json src");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown --format 'json'"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, MissingPathIsAUsageError) {
  const RunResult r =
      run_lint(tree("src/part/f.cpp", kCleanFile) + " src/no_such_dir");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("no such file or directory"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, CleanTreeExitsZero) {
  const RunResult r =
      run_lint(tree("src/part/f.cpp", kCleanFile) + " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("vpart_lint: clean (1 files)"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, FindingExitsOneWithHumanReport) {
  const RunResult r = run_lint(tree("src/part/f.cpp", "int x = rand();\n") +
                               " src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/part/f.cpp:1:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[rand]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding (1 files)"), std::string::npos)
      << r.output;
}

// With no baseline, an allow() annotation at the site is the one way to
// silence a finding, and the report counts it as suppressed.
TEST_F(LintCli, SiteAllowAnnotationSilencesFinding) {
  const RunResult r = run_lint(
      tree("src/part/f.cpp",
           "int x = rand();  // det-lint: allow(rand) fixed-seed fixture\n") +
      " src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean (1 files, 1 suppressed)"), std::string::npos)
      << r.output;
}

TEST_F(LintCli, SarifReportGoesToOutputFileWithSummaryOnStderr) {
  const std::string repo_root = tree("src/part/f.cpp", "int x = rand();\n");
  const fs::path sarif = root_ / "lint.sarif";
  const RunResult r = run_lint(repo_root + " --format sarif --output '" +
                               sarif.string() + "' src");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The terminal still shows why the run failed.
  EXPECT_NE(r.output.find("[rand]"), std::string::npos) << r.output;
  std::ifstream in(sarif);
  std::ostringstream report;
  report << in.rdbuf();
  EXPECT_NE(report.str().find("\"version\": \"2.1.0\""), std::string::npos)
      << report.str();
  EXPECT_NE(report.str().find("\"ruleId\": \"rand\""), std::string::npos)
      << report.str();
}

}  // namespace
