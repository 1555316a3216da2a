// Table 5: Cost of the Unlock operation for different locks, local vs.
// remote (paper: spin 4.99/7.23, backoff 5.01/7.25, blocking 62.32/73.45,
// adaptive 50.07/61.69 microseconds).
//
// The adaptive unlock's paper figure amortizes the every-other-unlock
// monitor sample; perf::unlock_op_us therefore reports the mean over a
// sample window.
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  // Paper rows, in perf::table5_kinds order.
  const bench::cost_row rows[] = {
      {"spin-lock", 4.99, 7.23},
      {"spin-with-backoff", 5.01, 7.25},
      {"blocking-lock", 62.32, 73.45},
      {"adaptive lock", 50.07, 61.69},
  };
  static_assert(std::size(rows) == std::size(perf::table5_kinds));
  bench::run_cost_table(argc, argv, "lock type",
                        "Table 5: Cost of the Unlock operation for different locks (us)",
                        "(uncontended; adaptive amortizes its every-2nd-unlock monitor "
                        "sample)",
                        rows, [](std::size_t i, bool remote) {
                          return perf::unlock_op_us(perf::table5_kinds[i], remote);
                        });
  return 0;
}
