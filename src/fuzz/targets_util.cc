#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzz.h"
#include "util/event_log.h"
#include "util/json.h"

// Harnesses for the diagnostics trust boundary: ODEJ journal exports read
// back by tooling, and the strict JSON checker and reader (util/json.h)
// that exported documents are validated and read with.

namespace ode {
namespace fuzz {
namespace {

/// ODEJ binary journal codec.  An accepted decode must re-encode to the
/// same record count and decode again identically.
int EventCodec(const uint8_t* data, size_t size) {
  std::vector<EventRecord> records;
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  if (!EventLog::DecodeBinary(input, &records)) return 0;
  std::string encoded;
  EventLog::EncodeBinary(records, &encoded);
  std::vector<EventRecord> again;
  ODE_FUZZ_REQUIRE(EventLog::DecodeBinary(encoded, &again));
  ODE_FUZZ_REQUIRE(again.size() == records.size());
  for (size_t i = 0; i < again.size(); ++i) {
    ODE_FUZZ_REQUIRE(again[i].seq == records[i].seq);
    ODE_FUZZ_REQUIRE(again[i].ts_micros == records[i].ts_micros);
    ODE_FUZZ_REQUIRE(again[i].tid == records[i].tid);
    ODE_FUZZ_REQUIRE(again[i].type == records[i].type);
  }
  return 0;
}

/// Strict JSON checker and reader over arbitrary bytes: neither crashes,
/// they agree on every accept and reject, and a rejection always names its
/// reason.
int JsonTarget(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  std::string error;
  const bool well_formed = IsWellFormedJson(input, &error);
  const StatusOr<JsonLeaves> read = ReadJson(input);
  ODE_FUZZ_REQUIRE(read.ok() == well_formed);
  if (!well_formed) {
    ODE_FUZZ_REQUIRE(!error.empty());
    ODE_FUZZ_REQUIRE(read.status().message().find(error) !=
                     std::string::npos);
  }
  return 0;
}

}  // namespace

void RegisterUtilTargets() {
  RegisterFuzzTarget("event_codec", "ODEJ binary journal codec", EventCodec);
  RegisterFuzzTarget("json", "JSON checker and reader", JsonTarget);
}

}  // namespace fuzz
}  // namespace ode
