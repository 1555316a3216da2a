// Host-time probes: the benchmark's own loops over each layer's public
// functions, shaped like the workload being traced. Each returns host
// nanoseconds per unit of that layer's work (event, window, round, dispatch,
// lock cycle, histogram record, telemetry publish), the median of three
// timed repetitions.
//
// A layer's est_share is its count from the workload's pass times the
// probe's ns per unit, divided by the pass's measured host time. It is an
// estimate: the probe runs the layer in isolation, with warm caches.
#pragma once

#include <string>

#include "locks/factory.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The workload features the probes copy.
struct probe_shape {
  unsigned workers{1};       ///< job_executor workers of the workload
  unsigned pending{256};     ///< events pending in a queue at once
  unsigned ct_procs{2};      ///< processors of one ct runtime
  unsigned ct_threads{4};    ///< threads of one ct runtime
};
[[nodiscard]] probe_shape shape_of(workload_id w);

/// sim: event_queue schedule + run, `pending` self-rescheduling events.
[[nodiscard]] double probe_event_ns(const probe_shape& s);
/// sim: sharded_event_queue::run(ex) over 8 sparse shards (one event per
/// shard per window); ns per window.
[[nodiscard]] double probe_window_ns(const probe_shape& s);
/// exec: one job_executor::for_each round over 8 trivial jobs.
[[nodiscard]] double probe_exec_round_ns(const probe_shape& s);
/// ct: runtime dispatch, threads alternating compute and yield; ns per
/// runtime::dispatches().
[[nodiscard]] double probe_dispatch_ns(const probe_shape& s);
/// locks: uncontended lock + unlock by one ct thread on a make_lock(kind).
[[nodiscard]] double probe_lock_cycle_ns(adx::locks::lock_kind kind);
/// policy/core: adaptive lock cycle with the feedback point sampling every
/// release (sample_period 1).
[[nodiscard]] double probe_feedback_ns();
/// obs: log_histogram::add of latency-like values.
[[nodiscard]] double probe_hist_record_ns();
/// telemetry: publish_adapt_event with no client active.
[[nodiscard]] double probe_publish_off_ns();
/// telemetry: publish_adapt_event into a client writing `dump_path`.
/// Throws if the client cannot be opened.
[[nodiscard]] double probe_publish_on_ns(const std::string& dump_path);

}  // namespace perfbench
