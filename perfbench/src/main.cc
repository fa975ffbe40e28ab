// rcbench: the benchmark's client program. run.py calls it as
//
//   rcbench args  --workload=W --seed=N --data_dir=D   (rankcubed's flags)
//   rcbench ping  --workload=W --seed=N --port=P   (set-up, warm-up, PINGs)
//   rcbench load  --workload=W --seed=N --port=P --seconds=S
//                 [--samples=FILE]
//   rcbench pool  --samples=FILE[,FILE...]           (pooled percentiles)
//   rcbench trace --workload=W --seed=N --seconds=S --work_dir=D
//                 [--spans=FILE]
//
// Every mode but args prints one JSON report as its last line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "load.h"
#include "workload.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rcbench args|ping|load|pool|trace --workload=W "
               "--seed=N [--port=P] [--seconds=S] [--data_dir=D] "
               "[--work_dir=D] [--spans=FILE] [--samples=FILE[,FILE...]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload, data_dir, work_dir, spans, samples, v;
  uint64_t seed = 1;
  long port = 0;
  double seconds = 10.0;
  for (int i = 2; i < argc; ++i) {
    if (Flag(argv[i], "--workload=", &v)) {
      workload = v;
    } else if (Flag(argv[i], "--seed=", &v)) {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--port=", &v)) {
      port = std::strtol(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds=", &v)) {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--data_dir=", &v)) {
      data_dir = v;
    } else if (Flag(argv[i], "--work_dir=", &v)) {
      work_dir = v;
    } else if (Flag(argv[i], "--spans=", &v)) {
      spans = v;
    } else if (Flag(argv[i], "--samples=", &v)) {
      samples = v;
    } else {
      std::fprintf(stderr, "rcbench: unknown flag '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (mode == "pool") {
    std::vector<std::string> paths;
    size_t start = 0;
    while (start <= samples.size()) {
      size_t comma = samples.find(',', start);
      if (comma == std::string::npos) comma = samples.size();
      if (comma > start) paths.push_back(samples.substr(start, comma - start));
      start = comma + 1;
    }
    if (paths.empty()) return Usage();
    return RunPool(paths);
  }
  std::optional<WorkloadSpec> spec = FindWorkload(workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "rcbench: unknown workload '%s'\n", workload.c_str());
    return Usage();
  }
  if (!(seconds > 0.0)) return Usage();

  if (mode == "args") {
    for (const std::string& arg : DaemonArgs(*spec, seed, data_dir)) {
      std::printf("%s\n", arg.c_str());
    }
    return 0;
  }
  if (mode == "trace") {
    if (work_dir.empty()) return Usage();
    return RunTrace({*spec, seed, seconds, work_dir, spans});
  }
  LoadOptions load{*spec, seed, 0, seconds, LoadMode::kLoad, samples};
  if (port <= 0 || port > 65535) return Usage();
  load.port = static_cast<uint16_t>(port);
  if (mode == "ping") {
    load.mode = LoadMode::kPing;
  } else if (mode != "load") {
    return Usage();
  }
  return RunLoad(load);
}
