/**
 * @file
 * The traced pass of one workload: spans around the workload's calls,
 * the isolated layer drives, and the paired obs / sched runs whose
 * outputs must be bit-identical.
 */

#pragma once

#include <cstdint>
#include <string>

namespace ndpb {

/** Prints the self-time table, then one JSON line of per-layer
 *  metrics; writes the raw spans to @p spans_path (if non-empty).
 *  Returns the process exit status. */
int runTraced(const std::string &workload, uint64_t seed,
              const std::string &spans_path);

} // namespace ndpb
