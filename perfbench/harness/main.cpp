// Benchmark harness: runs one named workload for a fixed time from a seed and
// prints one JSON record with its metrics, counters, output-check failures
// and build provenance.  perfbench/run.py builds this binary and turns the
// record into the benchmark's result line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--trace-out <file>]
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

struct Args {
  std::string workload;
  perfbench::RunOptions options;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      args.options.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      std::size_t used = 0;
      args.options.seconds = std::stod(value, &used);
      if (used != value.size() || !(args.options.seconds >= 0.0)) {
        throw std::invalid_argument("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.options.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.options.trace_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (args.options.trace && args.options.trace_path.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-out");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    perfbench::RunResult result;
    if (args.workload == "fleet_stream") {
      result = perfbench::run_fleet_stream(args.options);
    } else if (args.workload == "fleet_whatif") {
      result = perfbench::run_fleet_whatif(args.options);
    } else if (args.workload == "offline_batch") {
      result = perfbench::run_offline_batch(args.options);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }

    std::ostringstream failures;
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
      failures << (i == 0 ? "" : ", ") << "\""
               << perfbench::json_escape(result.failures[i]) << "\"";
    }
    std::cout << "{\"workload\": \"" << perfbench::json_escape(args.workload)
              << "\", \"seed\": " << args.options.seed
              << ", \"seconds\": " << args.options.seconds
              << ", \"trace\": " << (args.options.trace ? 1 : 0)
              << ", \"failures\": [" << failures.str() << "]"
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed
              << ", \"input_digest\": \"" << result.input_digest << "\""
              << ", \"end_to_end\": " << result.end_to_end.to_json()
              << ", \"named\": " << result.named.to_json()
              << ", \"per_layer\": " << result.layer.to_json()
              << ", \"counters\": " << result.counters.to_json()
              << ", \"build\": {\"compiler\": \""
              << perfbench::json_escape(PERFBENCH_COMPILER)
              << "\", \"flags\": \"" << perfbench::json_escape(PERFBENCH_FLAGS)
              << "\", \"build_type\": \""
              << perfbench::json_escape(PERFBENCH_BUILD_TYPE)
              << "\", \"nproc\": " << std::thread::hardware_concurrency()
              << "}}" << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    return 1;
  }
}
