// perfbench: end-to-end benchmark of the real engine.
//
//   perfbench --workload ingest|query --seed N --seconds S --trace 0|1
//
// Prints a table of metrics and, as its last line, one JSON object with the
// keys correct / attempted / failed / metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics, the per-layer budget
// table and a Chrome trace under .bench_build/out/. Exits nonzero when any
// output check fails.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload &&
         (options.workload == "ingest" || options.workload == "query");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload ingest|query --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  std::filesystem::create_directories(".bench_build/work");

  perfbench::Checks checks;
  const perfbench::Outcome outcome = options.workload == "ingest"
                                         ? perfbench::RunIngest(options, checks)
                                         : perfbench::RunQuery(options, checks);

  const auto& defs =
      options.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  for (const auto& def : defs) {
    checks.Expect(outcome.metrics.count(def.name) != 0,
                  std::string("metric not measured: ") + def.name);
  }
  checks.Expect(outcome.attempted > 0, "no operation attempted");
  checks.Expect(outcome.failed == 0, "operations failed");

  const bool correct = checks.Ok();
  perfbench::PrintReport(options, outcome, correct);
  if (!correct) {
    checks.PrintFailures();
    return 1;
  }
  return 0;
}
