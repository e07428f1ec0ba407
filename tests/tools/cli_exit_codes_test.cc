// Argv-level tests for the tool CLIs: bad numeric flag values must exit with
// code 2 and print a diagnostic naming the flag — not be silently coerced to
// 0 the way atoi would. These spawn the real binaries (paths baked in by the
// build) so the whole parse-diagnose-exit path is covered.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#ifndef NESTSIM_RUN_BIN
#error "NESTSIM_RUN_BIN must be defined by the build"
#endif
#ifndef NESTSIM_FUZZ_BIN
#error "NESTSIM_FUZZ_BIN must be defined by the build"
#endif
#ifndef NESTSIM_EXPORT_BIN
#error "NESTSIM_EXPORT_BIN must be defined by the build"
#endif

namespace nestsim {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCommand(const std::string& command) {
  CliResult result;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return result;
  }
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    result.output += buf;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void ExpectRejected(const std::string& command, const std::string& flag,
                    const std::string& bad_value) {
  const CliResult result = RunCommand(command);
  EXPECT_EQ(result.exit_code, 2) << command << "\n" << result.output;
  EXPECT_NE(result.output.find(flag), std::string::npos)
      << "diagnostic must name " << flag << ":\n"
      << result.output;
  if (!bad_value.empty()) {
    EXPECT_NE(result.output.find(bad_value), std::string::npos)
        << "diagnostic should echo the bad value:\n"
        << result.output;
  }
}

const std::string kRun = NESTSIM_RUN_BIN;
const std::string kFuzz = NESTSIM_FUZZ_BIN;
const std::string kExport = NESTSIM_EXPORT_BIN;

TEST(NestsimRunCliTest, TimeoutRejectsNonNumeric) {
  ExpectRejected(kRun + " --timeout abc smoke.json", "--timeout", "abc");
}

TEST(NestsimRunCliTest, TimeoutRejectsZero) {
  ExpectRejected(kRun + " --timeout 0 smoke.json", "--timeout", "0");
}

TEST(NestsimRunCliTest, TimeoutRejectsNegative) {
  ExpectRejected(kRun + " --timeout -1.5 smoke.json", "--timeout", "-1.5");
}

TEST(NestsimRunCliTest, TimeoutRejectsTrailingJunk) {
  ExpectRejected(kRun + " --timeout 3x smoke.json", "--timeout", "3x");
}

TEST(NestsimRunCliTest, TimeoutRejectsMissingValue) {
  ExpectRejected(kRun + " --timeout", "--timeout", "");
}

TEST(NestsimRunCliTest, RepsRejectsNonNumeric) {
  ExpectRejected(kRun + " --reps many smoke.json", "--reps", "many");
}

TEST(NestsimRunCliTest, RepsRejectsZero) {
  ExpectRejected(kRun + " --reps 0 smoke.json", "--reps", "0");
}

TEST(NestsimRunCliTest, ParallelIsAnUnknownOption) {
  ExpectRejected(kRun + " --parallel 4 smoke.json", "unknown option --parallel", "");
}

TEST(NestsimFuzzCliTest, JobsRejectsNonNumeric) {
  ExpectRejected(kFuzz + " --jobs abc", "--jobs", "abc");
}

TEST(NestsimFuzzCliTest, JobsRejectsZero) {
  ExpectRejected(kFuzz + " --jobs 0", "--jobs", "0");
}

TEST(NestsimFuzzCliTest, JobsRejectsNegative) {
  ExpectRejected(kFuzz + " --jobs -4", "--jobs", "-4");
}

TEST(NestsimFuzzCliTest, JobsRejectsMissingValue) {
  const CliResult result = RunCommand(kFuzz + " --jobs");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--jobs"), std::string::npos) << result.output;
}

// Generated scenarios name the committed model by a path relative to the
// scenarios directory. From a directory where it does not resolve, the
// fuzzer refuses to start, naming the path and NESTSIM_SCENARIO_DIR,
// instead of failing every seed that draws the model and writing repros.
TEST(NestsimFuzzCliTest, UnresolvableModelRefusesToStart) {
  std::string dir = testing::TempDir() + "nestsim-fuzz-cwd-XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string cd = "cd '" + dir + "' && ";
  const CliResult refused =
      RunCommand(cd + "env -u NESTSIM_SCENARIO_DIR " + kFuzz + " --runs 1 --repro-dir repros");
  EXPECT_EQ(refused.exit_code, 2) << refused.output;
  EXPECT_NE(refused.output.find("models/tiny-predict.json"), std::string::npos)
      << refused.output;
  EXPECT_NE(refused.output.find("NESTSIM_SCENARIO_DIR=(unset)"), std::string::npos)
      << refused.output;
  EXPECT_FALSE(std::filesystem::exists(dir + "/repros"));

  // Pointed at the scenarios directory, the same directory fuzzes clean.
  const CliResult clean = RunCommand(cd + "NESTSIM_SCENARIO_DIR='" NESTSIM_REPO_DIR
                                          "/scenarios' " + kFuzz + " --runs 2 --repro-dir repros");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  std::filesystem::remove_all(dir);
}

TEST(NestsimExportCliTest, FormatRejectsUnknownValue) {
  ExpectRejected(kExport + " --format xml smoke.json", "--format", "xml");
}

TEST(NestsimExportCliTest, RepsRejectsNonNumeric) {
  ExpectRejected(kExport + " --reps many smoke.json", "--reps", "many");
}

TEST(NestsimExportCliTest, RepsRejectsZero) {
  ExpectRejected(kExport + " --reps 0 smoke.json", "--reps", "0");
}

TEST(NestsimExportCliTest, ParallelIsAnUnknownOption) {
  ExpectRejected(kExport + " --parallel 4 smoke.json", "unknown option --parallel", "");
}

TEST(NestsimExportCliTest, TimeoutRejectsNegative) {
  ExpectRejected(kExport + " --timeout -2 smoke.json", "--timeout", "-2");
}

TEST(NestsimExportCliTest, UnknownFlagExitsTwo) {
  const CliResult result = RunCommand(kExport + " --bogus smoke.json");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(NestsimExportCliTest, MissingScenarioArgumentExitsTwo) {
  const CliResult result = RunCommand(kExport);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(NestsimExportCliTest, ListColumnsPrintsTheSchemaAndExitsZero) {
  const CliResult result = RunCommand(kExport + " --list-columns");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("decision"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("warmth"), std::string::npos) << result.output;
}

TEST(NestsimRunCliTest, GoodFlagsStillParse) {
  // Sanity check the harness itself: a valid invocation must not exit 2.
  // --list doesn't run scenarios, so this is fast.
  const CliResult result = RunCommand(kRun + " --list");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(NestsimRunCliTest, ListNamesClusterRouters) {
  const CliResult result = RunCommand(kRun + " --list");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("cluster routers:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("round-robin"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("cluster.machines"), std::string::npos) << result.output;
}

TEST(NestsimRunCliTest, InvalidClusterKeyNamesTheJsonPath) {
  // A misspelled cluster.* key must exit 2 with a diagnostic carrying the
  // /cluster JSON path, not run the scenario or crash.
  const std::string path = "/tmp/nestsim_cli_bad_cluster.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"name":"bad-cluster","workload":{"family":"requests"},
                 "cluster":{"machines":2,"roter":"round-robin"}})",
             f);
  std::fclose(f);
  const CliResult result = RunCommand(kRun + " " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("/cluster"), std::string::npos)
      << "diagnostic must name the JSON path:\n"
      << result.output;
  EXPECT_NE(result.output.find("roter"), std::string::npos) << result.output;
}

TEST(NestsimRunCliTest, PrintJobsLabelsClusterScenarios) {
  const std::string path = "/tmp/nestsim_cli_cluster_jobs.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"name":"cluster-jobs","machines":["amd-4650g-1s"],
                 "variants":[{"label":"cfs","scheduler":"cfs","governor":"schedutil"}],
                 "workload":{"family":"requests"},
                 "cluster":{"machines":3,"router":"least-loaded"}})",
             f);
  std::fclose(f);
  const CliResult result = RunCommand(kRun + " --print-jobs " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("[cluster x3 least-loaded]"), std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace nestsim
