#ifndef ODE_TESTS_TESTING_JSON_UTIL_H_
#define ODE_TESTS_TESTING_JSON_UTIL_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

// Lexical JSON probes for tests.  Tests validate exported documents with
// the strict checker in util/json.h (IsWellFormedJson) and then probe
// individual values here.  Probes assume the writer's compact output
// ("key":value, no spaces) and unique key names within the probed document —
// both true for every document the engine exports.

namespace ode {
namespace testing {

/// First numeric value keyed `"key":` anywhere in the document, or nullopt.
/// Lexical — safe because exported documents use distinct key names for
/// distinct quantities.
inline std::optional<double> FindJsonNumber(std::string_view json,
                                            std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string tail(json.substr(pos + needle.size(), 64));
  char* end = nullptr;
  const double value = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) return std::nullopt;
  return value;
}

/// First string value keyed `"key":"..."`, or nullopt.  Escapes are returned
/// verbatim (exported names never contain them).
inline std::optional<std::string> FindJsonString(std::string_view json,
                                                 std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const size_t start = pos + needle.size();
  std::string out;
  for (size_t i = start; i < json.size(); ++i) {
    if (json[i] == '\\' && i + 1 < json.size()) {
      out.push_back(json[i]);
      out.push_back(json[++i]);
    } else if (json[i] == '"') {
      return out;
    } else {
      out.push_back(json[i]);
    }
  }
  return std::nullopt;
}

}  // namespace testing
}  // namespace ode

#endif  // ODE_TESTS_TESTING_JSON_UTIL_H_
