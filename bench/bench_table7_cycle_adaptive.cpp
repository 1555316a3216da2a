// Table 7: Locking cycle of the adaptive lock pinned to a configuration
// (paper: configured as spin 90.21/101.38, configured as blocking
// 565.16/625.63 microseconds). The adaptive lock's cycle spans the static
// extremes depending on its current configuration.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  // Paper rows, in perf::table7_policies() order.
  const bench::cost_row rows[] = {
      {"configured as spin", 90.21, 101.38},
      {"configured as blocking", 565.16, 625.63},
  };
  const auto policies = perf::table7_policies();
  bench::run_cost_table(argc, argv, "configured as",
                        "Table 7: Locking cycle of the adaptive lock by configuration (us)",
                        "(adaptation disabled for the measurement: the policy is pinned)",
                        rows, [&](std::size_t i, bool remote) {
                          return perf::cycle_pinned_us(policies.at(i), remote);
                        });
  return 0;
}
