// Minimal JSON value tree + recursive-descent parser.
//
// The one JSON reader in the tree: the bench gate (util/bench_gate.h)
// parses the manifests util/bench_report.h emits, serve its request and
// response frames and job specs (serve/protocol.h, serve/job.h), the
// journal its records (serve/journal.h), and `cograd lint --diff` its
// LINT.json reference (analysis/lint.h). Supports the full JSON grammar
// (objects, arrays, strings with escapes, numbers, booleans, null);
// object members preserve insertion order, matching the writer's
// line-aligned-diffs contract.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cogradio {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Default nesting ceiling for parse_json. The parser is recursive-descent,
// so input depth consumes C++ stack: an untrusted peer (the `cograd serve`
// socket reads line-JSON frames through this parser) could otherwise
// overflow the stack with "[[[[...". 96 levels is far beyond any manifest
// or protocol frame while keeping worst-case stack use a few tens of KiB.
inline constexpr int kJsonMaxDepth = 96;

// Parses `text` as one JSON document (trailing whitespace allowed, trailing
// garbage rejected). Containers nested deeper than `max_depth` are rejected
// with a clean parse error instead of recursing further. On failure returns
// nullopt and, if `error` is non-null, stores a one-line diagnostic with the
// byte offset.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error = nullptr,
                                    int max_depth = kJsonMaxDepth);

// Escapes `s` for embedding inside a JSON string literal (adds no quotes).
std::string json_escape(const std::string& s);

}  // namespace cogradio
