// Fig. 14: per-thread idle time at barriers, 16 threads / 4 nodes.
//
// Paper exemplar reproduced in shape: the maximum thread idle time of
// lbm drops by ~75% under MEM+LLC relative to buddy, and the idle
// profile flattens across threads.
#include "bench/common.h"

using namespace tint;

int main(int argc, char** argv) {
  bench::print_banner("Fig. 14", "per-thread idle time (16_threads_4_nodes)");
  bench::JsonSink json(argc, argv);

  const double scale_env = bench::env_scale();
  const auto machine = bench::machine_for_scale(scale_env);
  runtime::ExperimentDriver driver(machine, bench::env_reps(), 2026);
  const auto config = runtime::make_config(machine.topo, 16, 4);
  const double scale = scale_env;

  for (const auto& spec : runtime::standard_suite()) {
    const auto cell = bench::run_cell(driver, spec.scaled(scale), config);

    Table table(spec.name + " -- per-thread idle [Mcycles]");
    std::vector<std::string> header = {"policy"};
    for (unsigned t = 0; t < config.threads(); ++t) {
      std::string name = "t";
      name += std::to_string(t);
      header.push_back(std::move(name));
    }
    header.push_back("max");
    table.set_header(header);

    const auto row = [&](const char* name,
                         const runtime::AggregateResult& r) {
      std::vector<std::string> cells = {name};
      double mx = 0;
      for (const double b : r.thread_idle_mean) {
        cells.push_back(Table::fmt(b / 1e6, 2));
        mx = std::max(mx, b);
      }
      cells.push_back(Table::fmt(mx / 1e6, 2));
      table.add_row(std::move(cells));
    };
    row("buddy", cell.buddy);
    row("BPM", cell.bpm);
    row("MEM+LLC", cell.memllc);
    row(std::string(core::to_string(cell.best_other.policy)).c_str(),
        cell.best_other.result);
    table.print();
    json.add(table);

    const double max_idle_drop =
        1.0 - cell.memllc.max_thread_idle.mean() /
                  std::max(cell.buddy.max_thread_idle.mean(), 1.0);
    std::printf("  max thread idle drop under MEM+LLC = %.1f%%\n\n",
                100 * max_idle_drop);
  }
  std::printf("Shape check (paper, lbm): max thread idle drop ~75%%.\n");
  return 0;
}
