// qocbench: the repository's end-to-end benchmark.
//
//   qocbench --workload <train_pgp|serve_unique|serve_hot> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints human-readable notes, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics (from a traced run that
// also times an untraced pass, for the tracing overhead) with --trace 1.
// Exits 1 when any output check fails, 2 on a usage error.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  using namespace qocbench;
  now_s();  // process-start epoch of every set-up time
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else {
      std::cerr << "qocbench: unknown flag " << k << "\n";
      return 2;
    }
  }
  if (a.seconds <= 0.0 || (argc - 1) % 2 != 0) {
    std::cerr << "qocbench: bad arguments\n";
    return 2;
  }
  Report r;
  try {
    if (a.workload == "train_pgp") run_train_pgp(a, r);
    else if (a.workload == "serve_unique") run_serve_unique(a, r);
    else if (a.workload == "serve_hot") run_serve_hot(a, r);
    else {
      std::cerr << "qocbench: unknown workload '" << a.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "qocbench: " << a.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  r.print(a.trace);
  return r.correct() ? 0 : 1;
}
