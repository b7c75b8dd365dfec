// Fig. 13: per-thread runtime in parallel sections, 16 threads / 4
// nodes, for each benchmark and policy.
//
// Paper exemplar reproduced in shape: for lbm, the max-min thread
// runtime spread under buddy is several times (paper: 4.38x) the spread
// under MEM+LLC, and the *maximum* thread runtime drops (~30.8%).
#include "bench/common.h"

using namespace tint;

int main(int argc, char** argv) {
  bench::print_banner("Fig. 13", "per-thread runtime (16_threads_4_nodes)");
  bench::JsonSink json(argc, argv);

  const double scale_env = bench::env_scale();
  const auto machine = bench::machine_for_scale(scale_env);
  runtime::ExperimentDriver driver(machine, bench::env_reps(), 2026);
  const auto config = runtime::make_config(machine.topo, 16, 4);
  const double scale = scale_env;

  for (const auto& spec : runtime::standard_suite()) {
    const auto cell = bench::run_cell(driver, spec.scaled(scale), config);

    Table table(spec.name + " -- per-thread runtime [Mcycles]");
    std::vector<std::string> header = {"policy"};
    for (unsigned t = 0; t < config.threads(); ++t) {
      std::string name = "t";
      name += std::to_string(t);
      header.push_back(std::move(name));
    }
    header.push_back("max/min");
    table.set_header(header);

    const auto row = [&](const char* name,
                         const runtime::AggregateResult& r) {
      std::vector<std::string> cells = {name};
      double mn = 1e300, mx = 0;
      for (const double b : r.thread_busy_mean) {
        cells.push_back(Table::fmt(b / 1e6, 1));
        mn = std::min(mn, b);
        mx = std::max(mx, b);
      }
      cells.push_back(Table::fmt(mx / std::max(mn, 1.0), 2));
      table.add_row(std::move(cells));
    };
    row("buddy", cell.buddy);
    row("BPM", cell.bpm);
    row("MEM+LLC", cell.memllc);
    row(std::string(core::to_string(cell.best_other.policy)).c_str(),
        cell.best_other.result);
    table.print();
    json.add(table);

    const double spread_ratio =
        cell.buddy.busy_spread.mean() /
        std::max(cell.memllc.busy_spread.mean(), 1.0);
    const double max_drop = 1.0 - cell.memllc.max_thread_busy.mean() /
                                      cell.buddy.max_thread_busy.mean();
    std::printf("  buddy spread / MEM+LLC spread = %.2fx ; max thread "
                "runtime drop = %.1f%%\n\n",
                spread_ratio, 100 * max_drop);
  }
  std::printf(
      "Shape check (paper, lbm): spread ratio well above 1 (paper 4.38x),\n"
      "max thread runtime drop around a third.\n");
  return 0;
}
