#ifndef ODE_UTIL_JSON_H_
#define ODE_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace ode {

// ---------------------------------------------------------------------------
// Minimal JSON emission, strict checking and reading
// ---------------------------------------------------------------------------
//
// The diagnostics pipeline (event-log drain, MetricsRegistry::RenderJson,
// StorageEngine::DumpDiagnostics) emits machine-readable JSON from several
// layers.  Hand-rolled string concatenation scattered across those sites is
// how malformed dumps happen, so the escaping and nesting bookkeeping live
// here once, beside the one strict parser that checks exported documents
// (IsWellFormedJson) and reads them back (ReadJson) for ode_top and tests.

/// Appends the JSON string-literal encoding of `s` (including the
/// surrounding quotes) to `out`.  Control characters are \u-escaped; the
/// input is treated as raw bytes (valid UTF-8 passes through unchanged).
void JsonAppendEscaped(std::string* out, std::string_view s);

/// Convenience: the escaped form as a fresh string.
std::string JsonEscape(std::string_view s);

/// Strict RFC 8259 structural validation of one complete document (nesting
/// capped at 64 levels).  On failure, `error` (if non-null) names the
/// problem and its byte offset.
bool IsWellFormedJson(std::string_view s, std::string* error = nullptr);

/// Flat view of one JSON document: each number and string leaf keyed by the
/// path of object keys and array indices leading to it, joined by '.'
/// ({"a":{"b":[7,"x"]}} gives numbers["a.b.0"] = 7, strings["a.b.1"] =
/// "x").  Strings are unescaped (\u escapes to UTF-8, surrogate halves
/// separately); a repeated key keeps its last value.
/// Booleans and nulls are not recorded.
struct JsonLeaves {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Reads one document with exactly IsWellFormedJson's grammar; malformed
/// input is InvalidArgument naming the problem and its byte offset.
StatusOr<JsonLeaves> ReadJson(std::string_view s);

/// Emits one JSON document into an owned buffer.  The caller drives the
/// nesting explicitly (BeginObject/EndObject, BeginArray/EndArray) and the
/// writer inserts commas; mismatched Begin/End pairs produce malformed
/// output rather than crashing, so tests assert on the parsed result.
///
/// Doubles are emitted in their shortest form that round-trips; NaN/Inf (not
/// representable in JSON) are emitted as 0.
class JsonWriter {
 public:
  JsonWriter() = default;

  // Values (inside an array, or as the root).
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Value(std::string_view s);
  void Value(const char* s) { Value(std::string_view(s)); }
  void Value(uint64_t v);
  void Value(int64_t v);
  void Value(uint32_t v) { Value(static_cast<uint64_t>(v)); }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(double v);
  void Value(bool v);
  void Null();

  // Key + value (inside an object).
  void Key(std::string_view k);
  template <typename T>
  void KV(std::string_view k, T v) {
    Key(k);
    Value(v);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Comma();

  std::string out_;
  // One bool per open container: true once the first element was written
  // (i.e. the next element needs a leading comma).
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

}  // namespace ode

#endif  // ODE_UTIL_JSON_H_
