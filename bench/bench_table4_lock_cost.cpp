// Table 4: Cost of the Lock operation for different locks, local vs. remote
// (paper: atomior 30.73/33.86, spin 40.79/41.10, backoff 40.79/41.15,
// blocking 88.59/91.73, adaptive 40.79/41.17 microseconds).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  // Paper rows, in perf::table4_kinds order.
  const bench::cost_row rows[] = {
      {"atomior", 30.73, 33.86},
      {"spin-lock", 40.79, 41.10},
      {"spin-with-backoff", 40.79, 41.15},
      {"blocking-lock", 88.59, 91.73},
      {"adaptive lock", 40.79, 41.17},
  };
  static_assert(std::size(rows) == std::size(perf::table4_kinds));
  bench::run_cost_table(argc, argv, "lock type",
                        "Table 4: Cost of the Lock operation for different locks (us)",
                        "(uncontended acquisition; lock word local vs. remote)", rows,
                        [](std::size_t i, bool remote) {
                          return perf::lock_op_us(perf::table4_kinds[i], remote);
                        });
  return 0;
}
