// segidx_perfbench: runs one benchmark workload and prints its report.
//
//   segidx_perfbench --workload=search_hot|ingest_disk|serve_mixed
//                    --seed=N --seconds=S --trace=0|1
//                    --workdir=DIR [--trace-out=FILE]
//
// The last line of stdout is a JSON object with every metric the workload
// measured (see README.md). The exit code is 0 when the run completed and
// every correctness check passed, 1 otherwise, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: segidx_perfbench "
               "--workload=search_hot|ingest_disk|serve_mixed --seed=N\n"
               "                        --seconds=S --trace=0|1 "
               "--workdir=DIR [--trace-out=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return Usage();
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage();
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args.seconds <= 0) return Usage();
    } else if (key == "trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (key == "workdir") {
      args.workdir = value;
    } else if (key == "trace-out") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (args.workdir.empty()) return Usage();
  if (args.trace && args.trace_path.empty()) return Usage();
  std::filesystem::create_directories(args.workdir);

  perfbench::Report report;
  int rc;
  if (args.workload == "search_hot") {
    rc = perfbench::RunSearchHot(args, &report);
  } else if (args.workload == "ingest_disk") {
    rc = perfbench::RunIngestDisk(args, &report);
  } else if (args.workload == "serve_mixed") {
    rc = perfbench::RunServeMixed(args, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  if (args.trace) {
    perfbench::Tracer& tracer = perfbench::Tracer::Get();
    tracer.SetEnabled(false);
    if (!tracer.WriteTo(args.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
      return 1;
    }
    report.Add("bench.spans_dropped", static_cast<double>(tracer.dropped()),
               "count");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
