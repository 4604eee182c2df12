#ifndef ODE_CORE_DIAGNOSTICS_H_
#define ODE_CORE_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace ode {

class Env;

// ---------------------------------------------------------------------------
// Flight-recorder dump files
// ---------------------------------------------------------------------------
//
// A diagnostics dump is one self-contained JSON document written into the
// database directory as DIAGNOSTICS-<seq>.json: the event journal, every
// metric instrument, the WAL durability watermarks, cache/buffer-pool/latch
// stats, vacuum progress, the recovery summary and the health verdict — the
// state a post-mortem needs, captured at the moment something went wrong
// (engine poison, crash-matrix failure) or on demand
// (Database::DumpDiagnostics, odedump diag).
//
// Sequence numbers are monotone per directory: a new dump takes
// max(existing) + 1, and retention deletes the oldest files beyond
// DatabaseOptions::diagnostics_retain.  The filename zero-pads seq so a
// lexical directory sort is also the chronological order.

/// Filename prefix of every dump file ("DIAGNOSTICS-<seq>.json").
inline constexpr std::string_view kDiagnosticsFilePrefix = "DIAGNOSTICS-";

/// Newest journal records a dump embeds (across all threads); older ones
/// are left out of the document, not out of the journal.
inline constexpr size_t kDiagnosticsJournalEvents = 8192;

/// Filename of the periodic metrics export (see
/// DatabaseOptions::stats_export_interval_ms); ode_top polls this file.
inline constexpr std::string_view kMetricsExportFileName = "METRICS.json";

/// Builds the dump filename for `seq` (zero-padded, .json suffix).
std::string DiagnosticsFileName(uint64_t seq);

/// Parses `name` as a dump filename.  Returns true and sets *seq on a match;
/// false for anything else (including a malformed sequence field).
bool ParseDiagnosticsFileName(std::string_view name, uint64_t* seq);

/// Lists the dump files in `dir` as (seq, filename) pairs, ascending seq.
/// Filenames are relative to `dir`.  A missing/empty directory is an empty
/// list, not an error.
StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListDiagnosticsDumps(
    Env* env, const std::string& dir);

/// Reads the whole dump file `path` through `env`.
StatusOr<std::string> ReadDiagnosticsFile(Env* env, const std::string& path);

}  // namespace ode

#endif  // ODE_CORE_DIAGNOSTICS_H_
