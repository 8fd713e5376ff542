// Microbenchmarks for the simulator substrate: event scheduling throughput
// (events/sec), multicast fan-out cost (packets/sec), and whole-scenario
// figures. items_per_second in the output is the headline number for the
// first two.
#include <benchmark/benchmark.h>

#include "exp/testbed.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace mcc;

static void bm_schedule_and_run(benchmark::State& state) {
  for (auto _ : state) {
    sim::scheduler s;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      s.at(sim::microseconds(i), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_schedule_and_run)->Arg(1000)->Arg(100000);

static void bm_schedule_cancel_mix(benchmark::State& state) {
  // Timer-heavy workload: every event arms a timer that is cancelled before
  // it fires (the TCP RTO / FLID fallback pattern). The victim is scheduled
  // two ticks later than its canceller so the cancel always hits a pending
  // event, never the stale-handle no-op path.
  for (auto _ : state) {
    sim::scheduler s;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      const sim::time_ns t = 3 * sim::microseconds(i);
      sim::event_handle h = s.at(t + 2, [] {});
      s.at(t, [h]() mutable { h.cancel(); });
      s.at(t + 1, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(bm_schedule_cancel_mix)->Arg(30000);

static void bm_event_cancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::scheduler s;
    std::vector<sim::event_handle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(s.at(sim::microseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(bm_event_cancellation);

static void bm_wheel_vs_heap_pending(benchmark::State& state) {
  // A/B for the --sched policies: hold `pending` events in the queue, then
  // fire them all. Deadlines come from an LCG spread over ~16 s of simulated
  // time so the heap's log(n) sift and the wheel's bucket scan both see a
  // realistic mix; the schedule is identical under either policy. The wheel
  // should pull ahead of the heap once pending counts pass ~100k.
  const auto pending = state.range(0);
  const bool wheel = state.range(1) != 0;
  sim::scheduler_config cfg;
  cfg.policy = wheel ? sim::sched_policy::wheel : sim::sched_policy::heap;
  const auto window = static_cast<std::uint64_t>(sim::seconds(16.0));
  for (auto _ : state) {
    sim::scheduler s(cfg);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::int64_t i = 0; i < pending; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s.at(static_cast<sim::time_ns>(x % window), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * pending);
  state.SetLabel(wheel ? "wheel" : "heap");
}
BENCHMARK(bm_wheel_vs_heap_pending)
    ->ArgsProduct({{1000, 10000, 100000, 1000000}, {0, 1}});

static void bm_cascade_rollover(benchmark::State& state) {
  // Worst case for the wheel: every deadline sits beyond the top level's
  // rotation (2^42 ns at the default 1024 ns granularity), so firing it
  // costs a far-wheel cascade plus a descent through all four levels.
  // Guards the O(1)-amortized claim where it is weakest.
  sim::scheduler_config cfg;
  cfg.policy = sim::sched_policy::wheel;
  const sim::time_ns span = sim::time_ns{1} << 42;
  const auto n = state.range(0);
  for (auto _ : state) {
    sim::scheduler s(cfg);
    for (std::int64_t i = 0; i < n; ++i) {
      const sim::time_ns rotation = 1 + (i % 64);
      s.at(rotation * span + (i * 977) % span, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_cascade_rollover)->Arg(50000);

static void bm_multicast_fanout(benchmark::State& state) {
  // Cost of one router fanning a multicast data packet out to N receivers.
  // Packets carry a threshold-DELTA style share payload, so the per-branch
  // copy cost of the header body is part of what is measured.
  const int receivers = static_cast<int>(state.range(0));
  sim::scheduler s;
  sim::network net(s);
  const sim::group_addr group{1};
  const sim::node_id src = net.add_host("src");
  const sim::node_id rtr = net.add_router("rtr");
  sim::link_config fast;
  fast.bps = 1e12;
  fast.delay = sim::microseconds(1);
  auto [up, down] = net.connect(src, rtr, fast);
  (void)down;
  (void)up;
  for (int i = 0; i < receivers; ++i) {
    const sim::node_id h = net.add_host("h" + std::to_string(i));
    auto [fwd, rev] = net.connect(rtr, h, fast);
    (void)rev;
    net.get(h)->host_join(group);
    net.get(rtr)->graft(group, fwd);
  }
  net.finalize_routing();

  constexpr int kBatch = 64;
  sim::flid_data hdr;
  hdr.session_id = 1;
  hdr.group_index = 1;
  std::vector<sim::level_share> shares;
  for (int g = 1; g <= 10; ++g) {
    shares.push_back(sim::level_share{g, 7u, 11u});
  }
  hdr.level_shares = shares;

  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim::packet p;
      p.size_bytes = 576;
      p.dst = sim::dest::to_group(group);
      p.hdr = hdr;
      net.get(src)->send(std::move(p));
    }
    s.run();
    benchmark::DoNotOptimize(net.get(rtr)->stats().forwarded_multicast);
  }
  // One item = one fanned-out packet copy delivered to a receiver.
  state.SetItemsProcessed(state.iterations() * kBatch * receivers);
}
BENCHMARK(bm_multicast_fanout)->Arg(4)->Arg(32)->Arg(256);

static void bm_tcp_over_dumbbell(benchmark::State& state) {
  // Cost of simulating one second of a saturated 10 Mbps TCP transfer.
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;
    exp::testbed d(exp::dumbbell(cfg));
    d.add_tcp_flow();
    d.run_until(sim::seconds(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_tcp_over_dumbbell)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

static void bm_flid_ds_session_second(benchmark::State& state) {
  // Cost of simulating one second of a full FLID-DS session (sender, DELTA,
  // SIGMA control plane, receiver, edge enforcement).
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;
    exp::testbed d(exp::dumbbell(cfg));
    d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    d.run_until(sim::seconds(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_flid_ds_session_second)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

static void bm_attack_scenario(benchmark::State& state) {
  // The full Figure-7 scenario at 1/10th duration: useful to track the cost
  // of the headline experiment.
  for (auto _ : state) {
    exp::dumbbell_config cfg;
    cfg.bottleneck_bps = 1e6;
    exp::testbed d(exp::dumbbell(cfg));
    exp::receiver_options attacker;
    attacker.attack = adversary::inflate_once(sim::seconds(10.0));
    d.add_flid_session(exp::flid_mode::ds, {attacker});
    d.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
    d.add_tcp_flow();
    d.add_tcp_flow();
    d.run_until(sim::seconds(20.0));
    benchmark::DoNotOptimize(d.sched().executed_events());
  }
}
BENCHMARK(bm_attack_scenario)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
