#include "util/bench_gate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cogradio {

namespace {

// Collects one experiment object's metrics as (exp.key, value).
void flatten_experiment(const JsonValue& exp,
                        std::vector<std::pair<std::string, double>>& out) {
  const JsonValue* name = exp.find("name");
  const JsonValue* metrics = exp.find("metrics");
  if (name == nullptr || !name->is_string() || metrics == nullptr ||
      !metrics->is_object())
    return;
  for (const auto& [key, value] : metrics->members()) {
    const double v = value.is_number()
                         ? value.as_number()
                         : std::numeric_limits<double>::quiet_NaN();
    out.emplace_back(name->as_string() + "." + key, v);
  }
}

}  // namespace

std::vector<std::pair<std::string, double>> flatten_metrics(
    const JsonValue& doc) {
  std::vector<std::pair<std::string, double>> out;
  if (const JsonValue* exps = doc.find("experiments");
      exps != nullptr && exps->is_array()) {
    for (const JsonValue& exp : exps->items()) flatten_experiment(exp, out);
  } else {
    flatten_experiment(doc, out);
  }
  return out;
}

std::string validate_manifest(const JsonValue& doc) {
  if (!doc.is_object()) return "manifest must be a JSON object";
  const JsonValue* name = doc.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty())
    return "manifest requires a non-empty string 'name'";
  const auto check_metrics = [](const JsonValue& exp) -> std::string {
    const JsonValue* metrics = exp.find("metrics");
    if (metrics == nullptr || !metrics->is_object())
      return "manifest requires a 'metrics' object";
    for (const auto& [key, value] : metrics->members())
      if (!value.is_number() && !value.is_null())
        return "metric '" + key + "' must be a number or null";
    return "";
  };
  if (const JsonValue* exps = doc.find("experiments")) {
    if (!exps->is_array()) return "'experiments' must be an array";
    for (const JsonValue& exp : exps->items()) {
      const std::string err = validate_manifest(exp);
      if (!err.empty()) return err;
    }
    return "";
  }
  return check_metrics(doc);
}

GateResult compare_bench_manifests(const JsonValue& current,
                                   const JsonValue& baseline) {
  const auto base = flatten_metrics(baseline);
  const auto cur = flatten_metrics(current);
  const auto find = [](const auto& metrics, const std::string& id) {
    return std::find_if(metrics.begin(), metrics.end(),
                        [&id](const auto& kv) { return kv.first == id; });
  };
  GateResult out;
  for (const auto& [id, base_value] : base) {
    GateDiff diff;
    diff.metric_id = id;
    diff.baseline = base_value;
    const auto it = find(cur, id);
    if (it == cur.end() ||
        (std::isnan(it->second) && !std::isnan(base_value))) {
      diff.status = GateDiff::Status::MissingInRun;
      ++out.breaches;
    } else {
      // A pinned null matches only a null; a number only itself.
      diff.current = it->second;
      ++out.compared;
      const bool same = std::isnan(base_value) ? std::isnan(diff.current)
                                               : diff.current == base_value;
      diff.status = same ? GateDiff::Status::Ok : GateDiff::Status::Breach;
      if (!same) ++out.breaches;
    }
    out.diffs.push_back(diff);
  }
  for (const auto& [id, value] : cur) {
    if (find(base, id) != base.end()) continue;
    GateDiff diff;
    diff.metric_id = id;
    diff.current = value;
    diff.status = GateDiff::Status::NewInRun;
    out.diffs.push_back(diff);
  }
  return out;
}

std::string GateResult::report() const {
  std::string out;
  char line[256];
  for (const GateDiff& d : diffs) {
    switch (d.status) {
      case GateDiff::Status::Ok:
        std::snprintf(line, sizeof(line), "OK      %-56s  %.17g\n",
                      d.metric_id.c_str(), d.baseline);
        break;
      case GateDiff::Status::Breach:
        std::snprintf(line, sizeof(line), "BREACH  %-56s  %.17g -> %.17g\n",
                      d.metric_id.c_str(), d.baseline, d.current);
        break;
      case GateDiff::Status::MissingInRun:
        std::snprintf(line, sizeof(line),
                      "MISSING %-56s  baseline %.17g has no numeric value in "
                      "the current run\n",
                      d.metric_id.c_str(), d.baseline);
        break;
      case GateDiff::Status::NewInRun:
        std::snprintf(line, sizeof(line),
                      "NEW     %-56s  %.17g (not pinned by the baseline)\n",
                      d.metric_id.c_str(), d.current);
        break;
    }
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "bench gate: %d metric(s) compared, %d breach(es)\n", compared,
                breaches);
  out += line;
  return out;
}

}  // namespace cogradio
