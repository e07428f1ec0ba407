// The decision-trace export invariants (src/scenario/decision_export.h): the
// serialized stream is byte-identical at any campaign worker count and with
// tracing on or off; and attaching the trace sink never perturbs the
// simulation it observes.

#include "src/scenario/decision_export.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/sched_counters.h"
#include "src/scenario/runner.h"

namespace nestsim {
namespace {

// All four placement strategies on a small bursty schbench; the predictor
// loads the committed tiny model so kNestPredicted rows appear in the stream.
constexpr char kModelPath[] = NESTSIM_REPO_DIR "/scenarios/models/tiny-predict.json";

Scenario ExportScenario(const std::string& extra_config = "") {
  const std::string json = std::string(R"({
    "name": "export_invariance",
    "machines": ["amd-4650g-1s"],
    "variants": [
      {"label": "CFS sched", "scheduler": "cfs", "governor": "schedutil"},
      {"label": "Nest sched", "scheduler": "nest", "governor": "schedutil"},
      {"label": "NestPredict sched", "scheduler": "nest_predict", "governor": "schedutil"},
      {"label": "NestOracle sched", "scheduler": "nest_oracle", "governor": "schedutil"}
    ],
    "workload": {
      "family": "schbench",
      "params": {"message_threads": 1, "workers_per_thread": 3, "rounds": 30, "work_ms": 0.5}
    },
    "repetitions": 2,
    "base_seed": 5,
    "config": {
      "predict.model_file": ")") + kModelPath + R"(",
      "predict.oracle_window_ms": 10.0,
      "predict.oracle_margin": 1)" +
                           extra_config + R"(
    }
  })";
  JsonValue root;
  std::string json_error;
  EXPECT_TRUE(JsonParse(json, &root, &json_error)) << json_error;
  Scenario scenario;
  ScenarioError err;
  EXPECT_TRUE(ParseScenario(root, "export_invariance", &scenario, &err)) << err.Join();
  return scenario;
}

ScenarioRunOptions QuietOptions(int jobs = 1) {
  ScenarioRunOptions options;
  options.campaign = CampaignOptions{};
  options.campaign.jobs = jobs;
  options.campaign.progress = false;
  options.campaign.jsonl_path.clear();
  return options;
}

std::string ExportStream(const Scenario& scenario, const ScenarioRunOptions& options,
                         bool jsonl = false) {
  DecisionExportResult result;
  ScenarioError err;
  EXPECT_TRUE(CollectDecisionTraces(scenario, options, &result, &err)) << err.Join();
  EXPECT_EQ(result.traces.size(), 4u);  // 1 machine x 1 row x 4 variants
  EXPECT_EQ(result.num_cpus, 12);       // amd-4650g-1s: 1 x 6 x 2
  return SerializeDecisions(result, jsonl);
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) {
    lines += c == '\n';
  }
  return lines;
}

TEST(ExportInvarianceTest, StreamIsByteIdenticalAcrossWorkerCounts) {
  const Scenario scenario = ExportScenario();
  const std::string serial = ExportStream(scenario, QuietOptions(1));
  const std::string pooled = ExportStream(scenario, QuietOptions(4));
  EXPECT_GT(CountLines(serial), 100u);  // header + a real body
  EXPECT_EQ(serial, pooled);

  const std::string serial_jsonl = ExportStream(scenario, QuietOptions(1), /*jsonl=*/true);
  const std::string pooled_jsonl = ExportStream(scenario, QuietOptions(4), /*jsonl=*/true);
  EXPECT_EQ(serial_jsonl, pooled_jsonl);
  // Same rows either way: JSONL has no header line.
  EXPECT_EQ(CountLines(serial), CountLines(serial_jsonl) + 1);
}

// Every run takes the domain group's one executor, so parallel_workers is
// read by nothing; perfbench still sets it for rack_pdes, whose results must
// match rack's. The test goes together with the field.
TEST(ExportInvarianceTest, StreamIsByteIdenticalAcrossParallelModes) {
  const Scenario scenario = ExportScenario();
  ScenarioRunOptions options = QuietOptions(2);
  options.parallel_workers = 0;
  const std::string reference = ExportStream(scenario, options);
  for (const int workers : {1, 2, 4}) {
    options.parallel_workers = workers;
    EXPECT_EQ(ExportStream(scenario, options), reference) << "parallel=" << workers;
  }
}

TEST(ExportInvarianceTest, StreamIsByteIdenticalWithTracingOn) {
  // record_trace captures exec segments; a purely observational recorder must
  // not shift a single decision.
  const std::string off = ExportStream(ExportScenario(), QuietOptions());
  const std::string on =
      ExportStream(ExportScenario(R"(, "record_trace": true)"), QuietOptions());
  EXPECT_EQ(off, on);
}

TEST(ExportInvarianceTest, CsvIsRectangularWithTheDocumentedHeader) {
  const std::string stream = ExportStream(ExportScenario(), QuietOptions());
  ASSERT_FALSE(stream.empty());

  size_t pos = 0;
  size_t header_commas = 0;
  std::string header;
  size_t line_no = 0;
  while (pos < stream.size()) {
    const size_t eol = stream.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // stream ends with a newline
    const std::string line = stream.substr(pos, eol - pos);
    size_t commas = 0;
    for (const char c : line) {
      commas += c == ',';
    }
    if (line_no == 0) {
      header = line;
      header_commas = commas;
      EXPECT_EQ(line.rfind("decision,machine,row,variant,seed,", 0), 0u) << line;
      EXPECT_EQ(static_cast<int>(commas) + 1, kNumFeatureColumns + 12 * kNumPerCoreColumns);
    } else {
      ASSERT_EQ(commas, header_commas) << "line " << line_no;
    }
    pos = eol + 1;
    ++line_no;
  }
  EXPECT_GT(line_no, 100u);
}

TEST(ExportInvarianceTest, AttachingTheTraceSinkIsObservationallyPure) {
  // Run the identical grid once bare and once with trace sinks attached: the
  // simulations must agree bit-for-bit on makespan and every counter.
  const Scenario scenario = ExportScenario();

  ScenarioRun bare;
  ScenarioError err;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &bare, &err)) << err.Join();
  ExecuteScenario(&bare);

  ScenarioRun traced;
  ASSERT_TRUE(ExpandScenario(scenario, QuietOptions(), &traced, &err)) << err.Join();
  std::vector<std::shared_ptr<DecisionTrace>> sinks;
  for (Job& job : traced.jobs) {
    sinks.push_back(std::make_shared<DecisionTrace>());
    job.config.predict.decision_trace = sinks.back();
  }
  ExecuteScenario(&traced);

  ASSERT_EQ(bare.outcomes.size(), traced.outcomes.size());
  bool saw_rows = false;
  for (size_t i = 0; i < bare.outcomes.size(); ++i) {
    ASSERT_TRUE(bare.outcomes[i].ok()) << bare.outcomes[i].message;
    ASSERT_TRUE(traced.outcomes[i].ok()) << traced.outcomes[i].message;
    const RepeatedResult& a = bare.outcomes[i].result;
    const RepeatedResult& b = traced.outcomes[i].result;
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t j = 0; j < a.runs.size(); ++j) {
      EXPECT_EQ(a.runs[j].makespan, b.runs[j].makespan) << i << "/" << j;
      EXPECT_EQ(a.runs[j].context_switches, b.runs[j].context_switches);
      EXPECT_EQ(SchedCountersJson(a.runs[j].counters), SchedCountersJson(b.runs[j].counters));
    }
    saw_rows = saw_rows || !sinks[i]->rows.empty();
  }
  EXPECT_TRUE(saw_rows);
}

}  // namespace
}  // namespace nestsim
