// Table 6: Cost of successive Unlock and Lock operation on an already
// "locked" lock — the locking cycle, release-to-acquire with a waiter
// present (paper: spin 45.13/47.89, backoff 320.36/356.95, blocking
// 510.55/563.79 microseconds).
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  // Paper rows, in perf::table6_kinds order.
  const bench::cost_row rows[] = {
      {"spin", 45.13, 47.89},
      {"spin-with-backoff", 320.36, 356.95},
      {"blocking-lock", 510.55, 563.79},
  };
  static_assert(std::size(rows) == std::size(perf::table6_kinds));
  bench::run_cost_table(argc, argv, "lock type",
                        "Table 6: Locking cycle (unlock then lock on a busy lock), static "
                        "locks (us)",
                        nullptr, rows, [](std::size_t i, bool remote) {
                          return perf::cycle_static_us(perf::table6_kinds[i], remote);
                        });
  return 0;
}
