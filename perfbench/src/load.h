// rcbench's two halves: the load generator that drives a live rankcubed,
// and the traced in-process replay of the same request streams.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

enum class LoadMode {
  kPing,   ///< set-up and warm-up, then PING round trips
  kLoad,   ///< set-up, warm-up, timed closed-loop phase, answer check
};

struct LoadOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  uint16_t port = 0;
  double seconds = 10.0;
  LoadMode mode = LoadMode::kLoad;
  /// kLoad: where to write the raw latency samples for RunPool.
  std::string samples_path;
};

/// Runs against the daemon on 127.0.0.1:port. Prints "setup" once the
/// set-up is done, then one JSON report line; returns the exit code.
int RunLoad(const LoadOptions& options);

/// Pools the latency samples of several load runs and prints their read
/// and write summaries as one JSON line; returns the exit code.
int RunPool(const std::vector<std::string>& samples_paths);

struct TraceOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;    ///< scratch space for the durable data dirs
  std::string spans_path;  ///< where the traced spans are written
};

/// The traced replay; prints one JSON report line; returns the exit code.
int RunTrace(const TraceOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
