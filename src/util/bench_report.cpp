#include "util/bench_report.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "util/atomic_file.h"
#include "util/json.h"
#include "util/version.h"

namespace cogradio {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {

MetricStore::Metric& MetricStore::upsert(const std::string& key) {
  for (auto& m : metrics)
    if (m.key == key) return m;
  metrics.push_back(Metric{key, 0.0, false, true});
  return metrics.back();
}

void MetricStore::set(const std::string& key, double value) {
  Metric& m = upsert(key);
  m.value = value;
  m.integral = false;
  m.finite = std::isfinite(value);
}

void MetricStore::set_int(const std::string& key, std::int64_t value) {
  Metric& m = upsert(key);
  m.value = static_cast<double>(value);
  m.integral = true;
  m.finite = true;
}

void MetricStore::emit(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!m.finite)
      std::snprintf(buf, sizeof(buf), "null");
    else if (m.integral)
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(m.value));
    else
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i == 0 ? "\n" : ",\n");
    out += pad + "\"" + json_escape(m.key) + "\": " + buf;
  }
}

}  // namespace detail

const std::string& git_revision() {
  static const std::string revision = [] {
    std::string out = "unknown";
    // `git describe --always --dirty` gives a short hash plus a -dirty
    // marker; stderr is dropped so running outside a checkout stays quiet.
    if (std::FILE* pipe =
            ::popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[128];
      std::string text;
      while (std::fgets(buf, sizeof(buf), pipe) != nullptr) text += buf;
      const int status = ::pclose(pipe);
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
      if (status == 0 && !text.empty()) out = text;
    }
    return out;
  }();
  return revision;
}

void RunManifest::upsert_config(const std::string& key, std::string raw) {
  for (auto& e : config_)
    if (e.key == key) {
      e.raw = std::move(raw);
      return;
    }
  config_.push_back(ConfigEntry{key, std::move(raw)});
}

void RunManifest::set_config_int(const std::string& key, std::int64_t value) {
  upsert_config(key, std::to_string(value));
}

void RunManifest::set_config_double(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    upsert_config(key, "null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  upsert_config(key, buf);
}

void RunManifest::set_config_string(const std::string& key,
                                    const std::string& value) {
  upsert_config(key, "\"" + json_escape(value) + "\"");
}

void RunManifest::set_config_bool(const std::string& key, bool value) {
  upsert_config(key, value ? "true" : "false");
}

void RunManifest::emit_body(std::string& out, bool include_volatile,
                            int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out += pad + "\"name\": \"" + json_escape(experiment_) + "\",\n";
  out += pad + "\"schema_version\": 1,\n";
  out += pad + "\"generated_by\": \"cogradio " + std::string(kVersionString) +
         "\",\n";
  out += pad + "\"git_revision\": \"" + json_escape(git_revision()) + "\",\n";
  out += pad + "\"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += pad + "  \"" + json_escape(config_[i].key) + "\": " +
           config_[i].raw;
  }
  out += config_.empty() ? "}" : "\n" + pad + "}";
  out += ",\n" + pad + "\"metrics\": {";
  metrics_.emit(out, indent + 2);
  out += metrics_.empty() ? "}" : "\n" + pad + "}";
  if (include_volatile) {
    out += ",\n" + pad + "\"volatile\": {";
    volatile_.emit(out, indent + 2);
    out += volatile_.empty() ? "}" : "\n" + pad + "}";
  }
  out += "\n";
}

std::string RunManifest::to_json(bool include_volatile) const {
  std::string out = "{\n";
  emit_body(out, include_volatile, 2);
  out += "}\n";
  return out;
}

bool RunManifest::write(const std::string& path) const {
  return write_file_atomic(path, to_json());
}

std::string merge_manifests(const std::string& name,
                            const std::vector<RunManifest>& runs) {
  std::string out = "{\n";
  out += "  \"name\": \"" + json_escape(name) + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"generated_by\": \"cogradio " + std::string(kVersionString) +
         "\",\n";
  out += "  \"git_revision\": \"" + json_escape(git_revision()) + "\",\n";
  out += "  \"experiments\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\n";
    runs[i].emit_body(out, /*include_volatile=*/false, 6);
    out += "    }";
  }
  out += runs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace cogradio
