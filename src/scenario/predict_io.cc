#include "src/scenario/predict_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>

namespace nestsim {

namespace {

// One "counts" entry: a [cpu, count] pair. CPU indices are bounded by the
// widest machine the config layer accepts (4096, matching nest.r_max), count
// must be a positive integer.
bool ParseCountPair(const JsonValue& v, const std::string& path, TableModelBucket* bucket,
                    ScenarioError* err) {
  if (!v.is_array() || v.items.size() != 2) {
    err->Add(path, "counts entries must be [cpu, count] pairs");
    return false;
  }
  const JsonValue& cpu = v.items[0];
  const JsonValue& count = v.items[1];
  if (!cpu.is_number() || std::floor(cpu.number) != cpu.number || cpu.number < 0 ||
      cpu.number > 4095) {
    err->Add(path, "counts cpu must be an integer in [0, 4095]");
    return false;
  }
  if (!count.is_number() || std::floor(count.number) != count.number || count.number < 1 ||
      count.number > 9.007199254740992e15) {
    err->Add(path, "counts count must be a positive integer (< 2^53)");
    return false;
  }
  bucket->counts.emplace_back(static_cast<int>(cpu.number),
                              static_cast<uint64_t>(count.number));
  return true;
}

bool ParseBucket(const JsonValue& v, const std::string& path, TableModelBucket* bucket,
                 ScenarioError* err) {
  SpecReader reader(v, path, *err);
  std::string kind;
  if (reader.TakeEnum("kind", &kind, {"fork", "wake"}, /*required=*/true)) {
    bucket->kind = kind == "fork" ? 0 : 1;
  }
  bucket->prev_cpu = -1;
  reader.TakeInt("prev_cpu", &bucket->prev_cpu, -1, 4095);
  bucket->runnable = 0;
  reader.TakeInt("runnable", &bucket->runnable, 0, kRunnableBucketMax);
  const JsonValue* counts = reader.Take("counts");
  if (counts == nullptr || !counts->is_array() || counts->items.empty()) {
    reader.AddError("missing or empty \"counts\" (non-empty array of [cpu, count] pairs)");
  } else {
    for (size_t i = 0; i < counts->items.size(); ++i) {
      ParseCountPair(counts->items[i], path + "/counts[" + std::to_string(i) + "]", bucket, err);
    }
    // The canonical form is sorted with unique CPUs; requiring it keeps
    // parse(ToJson(m)) == m exact and rejects hand-edited ambiguity.
    for (size_t i = 1; i < bucket->counts.size(); ++i) {
      if (bucket->counts[i - 1].first >= bucket->counts[i].first) {
        reader.AddError("\"counts\" must be sorted by cpu with no duplicates");
        break;
      }
    }
  }
  reader.Finish();
  return err->ok();
}

}  // namespace

bool ParseTableModel(const JsonValue& root, const std::string& file_label, TableModel* out,
                     ScenarioError* err) {
  *out = TableModel{};
  SpecReader reader(root, file_label, *err);

  std::string model;
  if (reader.TakeString("model", &model, /*required=*/true) && model != "nest-predict-table") {
    reader.AddError("\"model\" must be \"nest-predict-table\", got \"" + model + "\"");
  }
  int version = 0;
  const JsonValue* v = reader.Take("version");
  if (v == nullptr || !v->is_number() || v->number != 1.0) {
    reader.AddError("\"version\" must be the integer 1");
  } else {
    version = 1;
  }
  (void)version;

  std::vector<TableModelBucket> buckets;
  const JsonValue* bucket_list = reader.Take("buckets");
  if (bucket_list == nullptr || !bucket_list->is_array()) {
    reader.AddError("missing \"buckets\" (array of bucket objects; may be empty)");
  } else {
    for (size_t i = 0; i < bucket_list->items.size(); ++i) {
      TableModelBucket bucket;
      ParseBucket(bucket_list->items[i], file_label + "/buckets[" + std::to_string(i) + "]",
                  &bucket, err);
      buckets.push_back(std::move(bucket));
    }
    for (size_t i = 1; i < buckets.size(); ++i) {
      const TableModelBucket& a = buckets[i - 1];
      const TableModelBucket& b = buckets[i];
      if (std::tie(a.kind, a.prev_cpu, a.runnable) >= std::tie(b.kind, b.prev_cpu, b.runnable)) {
        err->Add(file_label,
                 "\"buckets\" must be sorted by (kind, prev_cpu, runnable) with no duplicates");
        break;
      }
    }
  }
  reader.Finish();

  if (!err->ok()) {
    return false;
  }
  out->set_buckets(std::move(buckets));
  return true;
}

bool LoadTableModelFile(const std::string& path, TableModel* out, ScenarioError* err) {
  std::ifstream in(path);
  if (!in) {
    err->Add(path, "cannot open model file");
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();

  JsonValue root;
  std::string json_error;
  if (!JsonParse(text.str(), &root, &json_error)) {
    err->Add(path, "invalid JSON: " + json_error);
    return false;
  }
  return ParseTableModel(root, path, out, err);
}

}  // namespace nestsim
