// Strict loading of serialized table models (src/predict/model.h).
//
// The on-disk form is TableModel::ToJson() — a single JSON object with the
// model name, a format version, and the sorted bucket list (documented in
// docs/PREDICTION.md). Parsing lives here rather than in src/predict/ so the
// model file gets the same SpecReader treatment as scenario files: unknown
// keys, bad types, and out-of-range values are all reported with their JSON
// path, and nothing below the scenario layer grows a JSON dependency.

#ifndef NESTSIM_SRC_SCENARIO_PREDICT_IO_H_
#define NESTSIM_SRC_SCENARIO_PREDICT_IO_H_

#include <string>

#include "src/predict/model.h"
#include "src/scenario/scenario.h"

namespace nestsim {

// Parses one serialized model object. `file_label` prefixes error paths.
// Returns false (with err populated) on any validation problem; *out is then
// left empty.
bool ParseTableModel(const JsonValue& root, const std::string& file_label, TableModel* out,
                     ScenarioError* err);

// Reads `path`, JSON-parses it, and runs ParseTableModel with `path` as the
// label, so every error names the file as it was tried.
bool LoadTableModelFile(const std::string& path, TableModel* out, ScenarioError* err);

}  // namespace nestsim

#endif  // NESTSIM_SRC_SCENARIO_PREDICT_IO_H_
