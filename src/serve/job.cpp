#include "serve/job.h"

#include <cstdlib>
#include <exception>
#include <limits>
#include <vector>

#include "core/runtime.h"
#include "sim/assignment.h"

namespace cogradio {

namespace {

// Integral JSON number with an exact double representation. Seeds do NOT
// go through here — a uint64 seed can exceed 2^53, so the wire format
// carries seeds as decimal strings instead.
bool exact_int(const JsonValue& v, std::int64_t lo, std::int64_t hi,
               std::int64_t* out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi))
    return false;
  const std::int64_t i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) return false;
  *out = i;
  return true;
}

bool parse_seed(const JsonValue& v, std::uint64_t* out) {
  if (v.is_number()) {
    // Accept small integral numbers for hand-written frames.
    std::int64_t i = 0;
    if (!exact_int(v, 0, (std::int64_t{1} << 53), &i)) return false;
    *out = static_cast<std::uint64_t>(i);
    return true;
  }
  if (!v.is_string()) return false;
  const std::string& s = v.as_string();
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool apply_member(JobSpec& spec, const std::string& key, const JsonValue& v,
                  std::string* error) {
  std::int64_t i = 0;
  if (key == "kind") {
    if (!v.is_string()) return fail(error, "kind: expected a string");
    if (v.as_string() == "cogcast") spec.kind = JobKind::CogCast;
    else if (v.as_string() == "cogcomp") spec.kind = JobKind::CogComp;
    else return fail(error, "kind: expected cogcast or cogcomp");
    return true;
  }
  if (key == "n") {
    if (!exact_int(v, 2, 1'000'000, &i)) return fail(error, "n: bad value");
    spec.n = static_cast<int>(i);
    return true;
  }
  if (key == "c") {
    if (!exact_int(v, 1, 65'536, &i)) return fail(error, "c: bad value");
    spec.c = static_cast<int>(i);
    return true;
  }
  if (key == "k") {
    if (!exact_int(v, 1, 65'536, &i)) return fail(error, "k: bad value");
    spec.k = static_cast<int>(i);
    return true;
  }
  if (key == "pattern") {
    if (!v.is_string()) return fail(error, "pattern: expected a string");
    spec.pattern = v.as_string();
    return true;
  }
  if (key == "seed") {
    if (!parse_seed(v, &spec.seed))
      return fail(error, "seed: expected a decimal string or small integer");
    return true;
  }
  if (key == "op") {
    if (!v.is_string()) return fail(error, "op: expected a string");
    try {
      spec.op = parse_agg_op(v.as_string());
    } catch (const std::exception& e) {
      return fail(error, e.what());
    }
    return true;
  }
  if (key == "mediated") {
    if (v.kind() != JsonValue::Kind::Bool)
      return fail(error, "mediated: expected a bool");
    spec.mediated = v.as_bool();
    return true;
  }
  if (key == "deadline") {
    if (!exact_int(v, 0, std::int64_t{1} << 53, &i))
      return fail(error, "deadline: bad value");
    spec.deadline = i;
    return true;
  }
  if (key == "stall_window") {
    if (!exact_int(v, 0, std::int64_t{1} << 53, &i))
      return fail(error, "stall_window: bad value");
    spec.stall_window = i;
    return true;
  }
  if (key == "max_restarts") {
    if (!exact_int(v, 0, 1'000, &i))
      return fail(error, "max_restarts: bad value");
    spec.max_restarts = static_cast<int>(i);
    return true;
  }
  if (key == "max_deadline") {
    if (!exact_int(v, 0, std::int64_t{1} << 53, &i))
      return fail(error, "max_deadline: bad value");
    spec.max_deadline = i;
    return true;
  }
  return fail(error, "unknown job key '" + key + "'");
}

}  // namespace

std::string to_string(JobKind kind) {
  return kind == JobKind::CogCast ? "cogcast" : "cogcomp";
}

std::optional<JobSpec> parse_job_spec(const JsonValue& value,
                                      std::string* error) {
  if (!value.is_object()) {
    fail(error, "job: expected an object");
    return std::nullopt;
  }
  JobSpec spec;
  for (const auto& [key, member] : value.members())
    if (!apply_member(spec, key, member, error)) return std::nullopt;
  if (spec.k > spec.c) {
    fail(error, "k: must be <= c");
    return std::nullopt;
  }
  const std::int64_t labels = std::int64_t{spec.n} * spec.c;
  if (labels > kMaxJobLabelEntries) {
    fail(error, "n, c: label table n*c = " + std::to_string(labels) +
                    " exceeds the cap of " +
                    std::to_string(kMaxJobLabelEntries) + " entries");
    return std::nullopt;
  }
  return spec;
}

std::string job_spec_to_json(const JobSpec& spec) {
  std::string out = "{\"kind\":\"" + to_string(spec.kind) + "\"";
  out += ",\"n\":" + std::to_string(spec.n);
  out += ",\"c\":" + std::to_string(spec.c);
  out += ",\"k\":" + std::to_string(spec.k);
  out += ",\"pattern\":\"" + json_escape(spec.pattern) + "\"";
  out += ",\"seed\":\"" + std::to_string(spec.seed) + "\"";
  if (spec.kind == JobKind::CogComp) {
    out += ",\"op\":\"" + to_string(spec.op) + "\"";
    out += std::string(",\"mediated\":") + (spec.mediated ? "true" : "false");
  }
  if (spec.deadline > 0)
    out += ",\"deadline\":" + std::to_string(spec.deadline);
  if (spec.stall_window > 0)
    out += ",\"stall_window\":" + std::to_string(spec.stall_window);
  out += ",\"max_restarts\":" + std::to_string(spec.max_restarts);
  if (spec.max_deadline > 0)
    out += ",\"max_deadline\":" + std::to_string(spec.max_deadline);
  out += "}";
  return out;
}

JobTrial run_job_trial(const JobSpec& spec, Rng& seeder,
                       const CheckpointPolicy& policy,
                       const EpochObserver& observer) {
  // The assignment draws first, and it rejects k outside [1, c] before
  // any phase arithmetic runs on the shape.
  auto assignment =
      make_assignment(spec.pattern, spec.n, spec.c, spec.k,
                      LabelMode::LocalRandom, Rng(seeder()));
  const bool is_cast = spec.kind == JobKind::CogCast;
  const std::vector<Value> values =
      is_cast ? std::vector<Value>{} : make_values(spec.n, seeder());
  CogCastRunConfig cast;
  cast.params = {spec.n, spec.c, spec.k, 4.0};
  CogCompRunConfig comp;
  comp.params = {spec.n, spec.c, spec.k, 4.0};
  comp.params.mediated = spec.mediated;
  comp.op = spec.op;
  SupervisorOptions supervisor;
  supervisor.deadline = spec.deadline;
  supervisor.stall_window = spec.stall_window;
  supervisor.max_restarts = spec.max_restarts;
  supervisor.max_deadline = spec.max_deadline;
  if (supervisor.deadline <= 0 && supervisor.stall_window <= 0)
    supervisor.deadline = is_cast ? 8 * cast.params.horizon()
                                  : comp.params.max_slots() + 16;

  SupervisedRun last;  // read after the supervisor returns
  JobTrial trial;
  trial.outcome = run_supervised(
      [&](int, std::uint64_t seed) {
        return last = is_cast
                          ? build_cogcast_run(*assignment, cast, seed)
                          : build_cogcomp_run(*assignment, values, comp, seed);
      },
      supervisor, seeder(), policy, observer);
  trial.stats = last.network->stats();

  const SupervisedOutcome& out = trial.outcome;
  JobResult& result = trial.result;
  result.ok = true;
  result.completed = out.completed;
  result.aborted = out.aborted;
  result.restarts = out.restarts;
  result.total_slots = out.total_slots;
  result.epochs = static_cast<std::int64_t>(out.epochs.size());
  if (!is_cast) {
    result.expected = Aggregator(spec.op).expected(values);
    if (out.completed) result.result = last.aggregate();
  }
  result.verified = out.completed && result.result == result.expected;
  return trial;
}

JobResult run_job(const JobSpec& spec, const EpochObserver& observer) {
  return run_job(spec, CheckpointPolicy{}, observer);
}

JobResult run_job(const JobSpec& spec, const CheckpointPolicy& policy,
                  const EpochObserver& observer) {
  try {
    Rng seeder(spec.seed);
    return run_job_trial(spec, seeder, policy, observer).result;
  } catch (const std::exception& e) {
    JobResult result;
    result.error = e.what();
    return result;
  }
}

std::string job_result_to_json(const JobResult& result) {
  std::string out = std::string("{\"ok\":") + (result.ok ? "true" : "false");
  if (!result.ok)
    out += ",\"error\":\"" + json_escape(result.error) + "\"";
  out += std::string(",\"completed\":") + (result.completed ? "true" : "false");
  out += std::string(",\"aborted\":") + (result.aborted ? "true" : "false");
  out += ",\"restarts\":" + std::to_string(result.restarts);
  out += ",\"total_slots\":" + std::to_string(result.total_slots);
  out += ",\"epochs\":" + std::to_string(result.epochs);
  out += std::string(",\"verified\":") + (result.verified ? "true" : "false");
  out += ",\"result\":" + std::to_string(result.result);
  out += ",\"expected\":" + std::to_string(result.expected);
  out += "}";
  return out;
}

}  // namespace cogradio
