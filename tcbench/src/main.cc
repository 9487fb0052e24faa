// tcbench: one run of one workload. Usage:
//   tcbench --workload <kg_browse|kg_curate|resolve_batch> --seed <n>
//           --seconds <s> --trace <0|1> --server <tecore-server>
//           --work-dir <dir>
// Prints a detail line (metrics with units and sample counts, output
// checks, environment) and, last, the result line. Exits nonzero when an
// output check fails or the run cannot complete.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"

int main(int argc, char** argv) {
  tcbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--server") {
      config.server_binary = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  config.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (config.nproc < 1) config.nproc = 1;
  if (config.nproc > 4) config.nproc = 4;
  tcbench::Report report;
  tcbench::Tracer tracer(config.trace);
  report.Env("load_threads", std::to_string(config.nproc));
  try {
    if (config.workload == "kg_browse") {
      tcbench::RunKgBrowse(config, &report, &tracer);
    } else if (config.workload == "kg_curate") {
      tcbench::RunKgCurate(config, &report, &tracer);
    } else if (config.workload == "resolve_batch") {
      tcbench::RunResolveBatch(config, &report, &tracer);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcbench: %s\n", e.what());
    return 1;
  }
  tracer.Write(config.work_dir + "/spans-" + config.workload + ".json");
  report.Print();
  return report.correct() ? 0 : 1;
}
