#include "workload/client_server.hpp"

#include <deque>
#include <memory>
#include <stdexcept>

#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "sim/event_domain.hpp"

namespace adx::workload {

const char* to_string(sched_kind k) {
  switch (k) {
    case sched_kind::fcfs: return "fcfs";
    case sched_kind::priority: return "priority";
    case sched_kind::handoff: return "handoff";
  }
  return "?";
}

namespace {

std::unique_ptr<locks::lock_scheduler> make_sched(sched_kind k) {
  switch (k) {
    case sched_kind::fcfs: return std::make_unique<locks::fcfs_scheduler>();
    case sched_kind::priority: return std::make_unique<locks::priority_scheduler>();
    case sched_kind::handoff: return std::make_unique<locks::handoff_scheduler>();
  }
  throw std::invalid_argument("bad sched_kind");
}

}  // namespace

client_server_result run_client_server(const client_server_config& cfg) {
  if (cfg.clients == 0 || cfg.clients + 1 > cfg.processors ||
      cfg.processors > cfg.machine.nodes) {
    throw std::invalid_argument("client_server: bad processor/client counts");
  }

  sim::event_domain dom(cfg.machine, {.shards = 1, .seed = cfg.seed});
  ct::runtime rt(cfg.machine, dom.queue_of(0));
  // The board lock: a reconfigurable lock in pure-sleep configuration so
  // every contended waiter goes through the scheduler's registration queue —
  // which is the component under test.
  locks::reconfigurable_lock board(0, cfg.cost, locks::waiting_policy::pure_sleep(),
                                   make_sched(cfg.sched));
  auto* handoff =
      cfg.sched == sched_kind::handoff
          ? dynamic_cast<locks::handoff_scheduler*>(&board.scheduler())
          : nullptr;

  ct::svar<std::int64_t> posted(0, 0);     // requests on the board
  ct::svar<std::int64_t> produced(0, 0);   // total posted so far
  ct::svar<std::int64_t> served(0, 0);     // total drained
  ct::svar<std::uint64_t> done(0, 0);
  std::deque<sim::vtime> board_times;      // post time of each pending request

  sim::accumulator server_wait;
  sim::accumulator client_wait;
  sim::accumulator request_latency;
  std::uint64_t server_rounds = 0;

  sim::rng jr(cfg.seed);
  std::vector<std::vector<double>> jitter(cfg.clients);
  for (auto& v : jitter) {
    v.reserve(cfg.total_requests);
    for (std::uint64_t i = 0; i < cfg.total_requests; ++i) {
      v.push_back(0.75 + 0.5 * jr.uniform01());
    }
  }

  const ct::thread_id server_tid = rt.fork(
      0,
      [&](ct::context& ctx) -> ct::task<void> {
        for (;;) {
          // Check for work with a plain read first: a server that grabs the
          // board lock just to find it empty starves the posting clients.
          if (co_await ctx.read(posted) == 0) {
            co_await ctx.sleep_for(sim::microseconds(40));
            continue;
          }
          const auto t0 = ctx.now();
          co_await board.lock(ctx);
          server_wait.add((ctx.now() - t0).us());
          ++server_rounds;
          // Drain a bounded batch inside the critical section.
          const auto n = co_await ctx.read(posted);
          const auto take =
              std::min<std::int64_t>(n, static_cast<std::int64_t>(cfg.server_batch));
          if (take > 0) {
            co_await ctx.compute(cfg.server_fixed + cfg.server_per_request * take);
            co_await ctx.write(posted, n - take);
            for (std::int64_t i = 0; i < take && !board_times.empty(); ++i) {
              request_latency.add((ctx.now() - board_times.front()).us());
              board_times.pop_front();
            }
          }
          co_await board.unlock(ctx);
          if (take > 0) {
            // Reply processing outside the lock — the serial server pipeline.
            co_await ctx.compute(cfg.server_post_per_request * take);
            const auto s = co_await ctx.read(served);
            co_await ctx.write(served, s + take);
            if (s + take >= static_cast<std::int64_t>(cfg.total_requests)) {
              co_await ctx.write(done, std::uint64_t{1});
              co_return;
            }
          } else {
            co_await ctx.sleep_for(sim::microseconds(40));
          }
        }
      },
      /*priority=*/10);

  for (unsigned c = 0; c < cfg.clients; ++c) {
    rt.fork(
        1 + c,
        [&, c](ct::context& ctx) -> ct::task<void> {
          for (std::uint64_t i = 0;; ++i) {
            if (co_await ctx.read(done) != 0) co_return;
            // Claim a production slot; stop once the quota is met.
            const auto p = co_await ctx.fetch_add(produced, std::int64_t{1});
            if (p >= static_cast<std::int64_t>(cfg.total_requests)) co_return;

            const auto t0 = ctx.now();
            co_await board.lock(ctx);
            client_wait.add((ctx.now() - t0).us());
            co_await ctx.compute(cfg.client_prep);
            const auto n = co_await ctx.read(posted);
            co_await ctx.write(posted, n + 1);
            board_times.push_back(ctx.now());
            if (handoff) handoff->designate(server_tid);
            co_await board.unlock(ctx);

            const auto think = sim::nanoseconds(static_cast<std::int64_t>(
                static_cast<double>(cfg.client_think.ns) *
                jitter[c][i % cfg.total_requests]));
            co_await ctx.sleep_for(think);
          }
        },
        /*priority=*/0);
  }

  const auto events = dom.run(nullptr, cfg.max_events);
  const auto run = rt.finish_all(events);

  client_server_result res;
  res.elapsed = run.end_time;
  res.server_rounds = server_rounds;
  res.mean_server_wait_us = server_wait.mean();
  res.mean_client_wait_us = client_wait.mean();
  res.mean_request_latency_us = request_latency.mean();
  const double secs = static_cast<double>(res.elapsed.ns) / 1e9;
  res.throughput =
      secs > 0 ? static_cast<double>(cfg.total_requests) / secs : 0.0;
  return res;
}

}  // namespace adx::workload
