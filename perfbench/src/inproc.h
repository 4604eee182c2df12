// In-process read ops shared by the workloads that call Database directly
// (edit_session, history_reads).  Each op is timed, wrapped in spans around
// its Database calls, and checked against the model.
#ifndef ODE_PERFBENCH_INPROC_H_
#define ODE_PERFBENCH_INPROC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Generic dereference (ReadLatest) of object `idx`; one read sample.
void GenericDeref(Instance& inst, size_t idx, ThreadStats& st);

/// Specific dereference (ReadVersion) of the k-th live version of `idx`.
void SpecificDeref(Instance& inst, size_t idx, size_t k, ThreadStats& st);

/// T-chain walk of `idx` with a VersionCursor, then Dnext of one of its
/// versions; one traverse sample.
void Traverse(Instance& inst, size_t idx, Rng& rng, ThreadStats& st);

/// Picks a version index among `n`, biased toward recent versions with a
/// long tail deep into history.
size_t RecentBiased(Rng& rng, size_t n);

/// Span-based layer metrics of an in-process phase (database read/write
/// time, cursor time, load-generator self time), and the check that the
/// layer busy times plus the unattributed remainder add up to the
/// end-to-end op time, against the separately timed op latencies.
void InProcessLayers(const Phase& phase, Values* out,
                     std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_INPROC_H_
