// perfbench: runs one workload of the repository benchmark and prints
// one JSON report line (context, checks, every metric with its unit).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--smoke]
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the report still prints), 2 on bad arguments, 3 when the host cannot
// run the workload (too few CPUs); 2 and 3 print no report.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--spans" && has_value) {
      opt.span_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>] [--smoke]\n");
    return 2;
  }
  perfbench::Report r;
  r.context("workload", opt.workload);
  r.context("seed", static_cast<double>(opt.seed));
  r.context("trace", opt.trace ? 1 : 0);
  r.context("nproc", perfbench::online_cpus());
  r.context("cpu_model", perfbench::cpu_model());
#ifdef NDEBUG
  r.context("ndebug", 1);
#else
  r.context("ndebug", 0);
#endif
#ifdef TINT_DEBUG_CHECKS
  r.context("debug_checks", 1);
#else
  r.context("debug_checks", 0);
#endif

  if (opt.workload == "sim-fig11") {
    perfbench::run_sim_fig11(opt, r);
  } else if (perfbench::is_churn(opt.workload)) {
    std::string why;
    if (!perfbench::run_churn(opt, r, why)) {
      std::fprintf(stderr, "refusing to run: %s\n", why.c_str());
      return 3;
    }
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  std::printf("%s\n", r.to_json().c_str());
  return r.correct() ? 0 : 1;
}
