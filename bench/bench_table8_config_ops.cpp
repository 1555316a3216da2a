// Table 8: Cost of Lock Configuration Operations (paper: acquisition
// 30.75/33.92, configure(waiting policy) 9.87/14.45, configure(scheduler)
// 12.51/20.83, monitor(one state variable) 66.03/- microseconds).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  const bench::cost_row rows[] = {
      {"acquisition", 30.75, 33.92},
      {"configure(waiting policy)", 9.87, 14.45},
      {"configure(scheduler)", 12.51, 20.83},
      {"monitor (one state variable)", 66.03, -1},  // local only
  };
  double (*const probes[])(bool) = {perf::config_acquisition_us, perf::configure_policy_us,
                                    perf::configure_scheduler_us};
  bench::run_cost_table(argc, argv, "operation",
                        "Table 8: Cost of lock configuration operations (us)", nullptr, rows,
                        [&](std::size_t i, bool remote) {
                          return i < std::size(probes) ? probes[i](remote)
                                                       : perf::monitor_sample_us();
                        });
  return 0;
}
