// polarx benchmark binary: runs one workload and prints its metrics, the
// last line being the JSON result object. See perfbench/README.md.
#include <cstdio>

#include "perfbench/src/bench.h"

int main(int argc, char** argv) {
  using namespace polarx::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  RunResult result;
  if (args.workload == "tpch_column") {
    result = RunTpch(args, /*mpp=*/false);
  } else if (args.workload == "tpch_mpp") {
    result = RunTpch(args, /*mpp=*/true);
  } else if (args.workload == "oltp_xdc") {
    result = RunOltpXdc(args);
  } else if (args.workload == "htap_tpcc") {
    result = RunHtapTpcc(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintResult(args, result);
  return result.correct ? 0 : 1;
}
