// perfbench: end-to-end and per-layer benchmark over three reference worlds.
//
//   perfbench --workload farm32|flash_crowd|attack_matrix --seed N
//             --seconds S --trace 0|1
//
// Runs whole rounds of the workload's worlds until the next round would end
// past S seconds (at least one round), checks every world's outputs, and
// prints as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics (nothing
// armed); --trace 1 alternates untraced and traced rounds and reports the
// per-layer metrics. See README.md.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "profiler.h"
#include "worlds.h"

namespace perfbench {
namespace {

struct options {
  workload w = workload::farm32;
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "farm32|flash_crowd|attack_matrix --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!workload_from_name(value, o.w)) usage("unknown workload");
      o.name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// Peak resident set of this process image, MiB. VmHWM starts afresh at
/// exec, unlike getrusage's ru_maxrss, which keeps the peak of the process
/// that exec'd this one (run.py's Python).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One round reduced to the figures the report needs.
struct round_figures {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double analysis_s = 0.0;
  double snapshot_s = 0.0;
  double cell_s_max = 0.0;
  double idle_frac = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pkts = 0;
  std::uint64_t drops = 0;
  std::size_t max_pending = 0;
  layer_counts c;
};

round_figures reduce(const round_result& r) {
  round_figures f;
  f.wall_s = r.wall_s;
  double busy = 0.0;
  for (const world_result& w : r.worlds) {
    f.setup_s += w.t.setup_s;
    f.run_s += w.t.run_s;
    f.analysis_s += w.t.analysis_s;
    f.snapshot_s += w.t.snapshot_s;
    const double span = w.t.end_s - w.t.start_s;
    f.cell_s_max = std::max(f.cell_s_max, span);
    busy += span;
    f.events += w.obs.events;
    f.max_pending = std::max(f.max_pending, w.obs.max_pending);
    for (const link_obs& l : w.obs.links) {
      f.pkts += l.serialized;
      f.drops += l.dropped;
    }
    f.c.invalid_keys += w.c.invalid_keys;
    f.c.blocks_decoded += w.c.blocks_decoded;
    f.c.probation_blocks += w.c.probation_blocks;
    f.c.igmp_joins += w.c.igmp_joins;
    f.c.cm_lookups += w.c.cm_lookups;
    f.c.cm_capped += w.c.cm_capped;
    f.c.ctrl_msgs += w.c.ctrl_msgs;
    f.c.state_bytes = std::max(f.c.state_bytes, w.c.state_bytes);
  }
  // Share of the workers' time outside any world: thread start-up, the
  // sweep's hand-off, and waiting on the slowest cell at the end.
  f.idle_frac = 1.0 - busy / (static_cast<double>(r.threads) * r.wall_s);
  return f;
}

/// Failed checks of each world of one round. `first` is the first round's
/// result, which later rounds must reproduce.
std::vector<std::vector<failure>> judge(workload w, const round_result& r,
                                        const round_result* first) {
  std::vector<std::vector<failure>> fails(r.worlds.size());
  for (std::size_t i = 0; i < r.worlds.size(); ++i) {
    fails[i] = check_world(r.worlds[i].obs);
    if (first != nullptr) {
      std::string s = check_reproduced(first->worlds[i].obs, r.worlds[i].obs);
      if (!s.empty()) fails[i].push_back({std::move(s)});
    }
  }
  if (w == workload::flash_crowd) {
    // Worlds 0..3 hold 10^3 members, worlds 4..7 the same cells at 10^6.
    const std::size_t half = r.worlds.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      std::string s =
          check_state_flat(r.worlds[i].obs, r.worlds[i + half].obs);
      if (!s.empty()) {
        fails[i].push_back({s});
        fails[i + half].push_back({std::move(s)});
      }
    }
  }
  return fails;
}

std::uint64_t workload_fingerprint(const round_result& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (const world_result& w : r.worlds) {
    h ^= fingerprint(w.obs);
    h *= 1099511628211ull;
  }
  return h;
}

struct metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Layer-map spot checks: demangled names with a known layer.
std::vector<std::string> layer_map_self_test() {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mcc::sim::scheduler::run_until(long)", "sim.scheduler"},
      {"mcc::sim::event_fn::inline_ops<mcc::sim::link::on_deliver()::"
       "{lambda()#1}>()::{lambda(void*)#1}::_FUN(void*)",
       "sim.link"},
      {"void std::deque<mcc::sim::link::queued, std::allocator<mcc::sim::"
       "link::queued> >::_M_push_back_aux<mcc::sim::link::queued>(mcc::sim::"
       "link::queued&&)",
       "sim.link"},
      {"mcc::sim::node::receive(mcc::sim::packet, mcc::sim::link*)",
       "sim.node"},
      {"mcc::core::sigma_router_agent::on_subscribe(mcc::sim::packet const&)",
       "core.sigma"},
      {"mcc::core::honest_sigma_strategy::on_slot_end(long)", "core.delta"},
      {"mcc::exp::(anonymous namespace)::queue_bytes(double, double, long)",
       "exp"},
      {"std::_Function_handler<mcc::exp::sweep_row (mcc::exp::sweep_point "
       "const&), perfbench::(anonymous namespace)::f()::{lambda(mcc::exp::"
       "sweep_point const&)#1}>::_M_invoke(std::_Any_data const&, mcc::exp::"
       "sweep_point const&)",
       "unattributed"},
      {"operator new(unsigned long)", "runtime"},
      {"perfbench::(anonymous namespace)::reduce(perfbench::round_result "
       "const&)",
       "unattributed"},
  };
  std::vector<std::string> wrong;
  for (const auto& [sym, want] : cases) {
    if (prof::layer_of_symbol(sym) != want) {
      wrong.push_back("layer map: " + sym + " -> " +
                      prof::layer_of_symbol(sym) + ", want " + want);
    }
  }
  return wrong;
}

int run(const options& o) {
  bool correct = true;
  for (const std::string& s : self_test()) {
    std::printf("# self-test: check accepted its violating input: %s\n",
                s.c_str());
    correct = false;
  }
  for (const std::string& s : layer_map_self_test()) {
    std::printf("# self-test: %s\n", s.c_str());
    correct = false;
  }

  using steady = std::chrono::steady_clock;
  const steady::time_point t0 = steady::now();
  const auto elapsed = [t0] {
    return std::chrono::duration<double>(steady::now() - t0).count();
  };

  std::optional<round_result> first;  // later rounds must reproduce it
  std::vector<round_figures> untraced;
  std::vector<round_figures> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> reported;
  double traced_cpu = 0.0;
  std::uint64_t traced_allocs = 0;

  for (int round = 0;; ++round) {
    const std::size_t done = untraced.size() + traced.size();
    if (done > 0) {
      const double per_round = elapsed() / static_cast<double>(done);
      const bool traced_owed = o.trace && traced.empty();
      if (!traced_owed && elapsed() + per_round > o.seconds) break;
    }
    // Traced runs alternate, so both kinds of round see the same host load.
    const bool armed = o.trace && round % 2 == 1;
    const double cpu0 = prof::cpu_seconds();
    const std::uint64_t allocs0 = prof::allocations();
    if (armed) {
      prof::count_allocations(true);
      prof::start_sampling(1000);
    }
    round_result r = run_round(o.w, o.seed);
    if (armed) {
      prof::stop_sampling();
      prof::count_allocations(false);
      traced_cpu += prof::cpu_seconds() - cpu0;
      traced_allocs += prof::allocations() - allocs0;
    }

    const auto fails = judge(o.w, r, first.has_value() ? &*first : nullptr);
    if (!first.has_value()) {
      // Same cells again on this thread: the threaded grid must match them.
      for (const auto& [i, again] : serial_reruns(o.w)) {
        const std::string s = check_reproduced(r.worlds[i].obs, again.obs);
        if (!s.empty()) {
          std::printf("# FAIL on one thread: %s\n", s.c_str());
          correct = false;
        }
      }
    }
    for (std::size_t i = 0; i < r.worlds.size(); ++i) {
      ++attempted;
      if (fails[i].empty()) continue;
      ++failed;
      const world_result& w = r.worlds[i];
      for (const failure& f : fails[i]) {
        // Only a listed world's containment failure is expected; anything
        // else means the program's outputs are wrong.
        const bool expected = w.known_fault && f.containment;
        if (!expected) correct = false;
        if (!reported.insert(w.obs.name + f.what).second) continue;
        std::printf("# FAIL%s %s: %s\n", expected ? " (known fault)" : "",
                    w.obs.name.c_str(), f.what.c_str());
      }
    }
    (armed ? traced : untraced).push_back(reduce(r));
    if (!first.has_value()) first = std::move(r);
  }

  const round_figures& base = untraced.front();
  std::printf("# workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
              "rounds, %d thread(s)\n",
              o.name.c_str(), o.seed, untraced.size(), traced.size(),
              first->threads);
  std::printf("# operations attempted %" PRIu64 " failed %" PRIu64 "\n",
              attempted, failed);
  std::printf("# round wall_s:");
  for (const round_figures& f : untraced) std::printf(" %.3f", f.wall_s);
  for (const round_figures& f : traced) std::printf(" %.3f(traced)", f.wall_s);
  std::printf("\n");
  std::printf("# fingerprint %016" PRIx64 " (events %" PRIu64 ", packets %"
              PRIu64 ", max pending %zu)\n",
              workload_fingerprint(*first), base.events, base.pkts,
              base.max_pending);

  const auto med = [](const std::vector<round_figures>& rs, auto field) {
    std::vector<double> v;
    for (const round_figures& f : rs) v.push_back(field(f));
    return median(v);
  };
  const auto sum = [](const std::vector<round_figures>& rs, auto field) {
    double total = 0.0;
    for (const round_figures& f : rs) total += static_cast<double>(field(f));
    return total;
  };
  // Host time per round and packets per host second are taken over all the
  // run's rounds together: one round of a workload can run 10% slower than
  // the next on a shared host, and the mean uses every round where the
  // median of a handful keeps one.
  const auto per_round_s = [&](const std::vector<round_figures>& rs) {
    return sum(rs, [](auto& f) { return f.wall_s; }) /
           static_cast<double>(rs.size());
  };
  const auto per_run_s = [&](const std::vector<round_figures>& rs,
                             auto count) {
    return sum(rs, count) / sum(rs, [](auto& f) { return f.run_s; });
  };

  if (!o.trace) {
    print_result(
        correct, attempted, failed,
        {{"wall_s", per_round_s(untraced), "s"},
         {"setup_s", med(untraced, [](auto& f) { return f.setup_s; }), "s"},
         {"pkts_per_s", per_run_s(untraced, [](auto& f) { return f.pkts; }),
          "packets/s"},
         {"peak_rss_mb", peak_rss_mib(), "MiB"}});
    return 0;
  }

  const double traced_rounds = static_cast<double>(traced.size());
  const double traced_wall = per_round_s(traced);
  const double untraced_wall = per_round_s(untraced);
  std::printf("# tracing overhead: traced wall %.3f s - untraced wall %.3f s "
              "= %.3f s (%.1f%%)\n",
              traced_wall, untraced_wall, traced_wall - untraced_wall,
              100.0 * (traced_wall - untraced_wall) / untraced_wall);

  const std::vector<std::string>& layers = prof::layers();
  const std::vector<std::uint64_t> samples = prof::samples_by_layer();
  std::uint64_t total = 0;
  for (const std::uint64_t s : samples) total += s;
  const double cpu_per_round = traced_cpu / traced_rounds;
  const auto self_s = [&](const std::string& layer) {
    const auto at = std::find(layers.begin(), layers.end(), layer);
    const std::uint64_t n =
        samples[static_cast<std::size_t>(at - layers.begin())];
    return total == 0 ? 0.0
                      : cpu_per_round * static_cast<double>(n) /
                            static_cast<double>(total);
  };
  std::printf("# traced CPU %.3f s per round, %" PRIu64 " samples\n",
              cpu_per_round, total);

  const double pkts = static_cast<double>(base.pkts);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  print_result(
      correct, attempted, failed,
      {{"sim.scheduler.self_s", self_s("sim.scheduler"), "s"},
       {"sim.scheduler.events", count(base.events), "count"},
       {"sim.scheduler.events_per_s",
        per_run_s(untraced, [](auto& f) { return f.events; }), "1/s"},
       {"sim.scheduler.events_per_pkt", count(base.events) / pkts,
        "events/pkt"},
       {"sim.scheduler.max_pending", count(base.max_pending), "count"},
       {"sim.link.self_s", self_s("sim.link"), "s"},
       {"sim.link.pkts", pkts, "count"},
       {"sim.link.drops", count(base.drops), "count"},
       {"sim.node.self_s", self_s("sim.node"), "s"},
       {"flid.self_s", self_s("flid"), "s"},
       {"core.delta.self_s", self_s("core.delta"), "s"},
       {"core.sigma.self_s", self_s("core.sigma"), "s"},
       {"core.sigma.invalid_keys", count(base.c.invalid_keys), "count"},
       {"core.sigma.blocks_decoded", count(base.c.blocks_decoded), "count"},
       {"core.sigma.probation_blocks", count(base.c.probation_blocks),
        "count"},
       {"crypto.self_s", self_s("crypto"), "s"},
       {"mcast.self_s", self_s("mcast"), "s"},
       {"mcast.igmp_joins", count(base.c.igmp_joins), "count"},
       {"tcp.self_s", self_s("tcp"), "s"},
       {"cm.self_s", self_s("cm"), "s"},
       {"cm.lookups", count(base.c.cm_lookups), "count"},
       {"cm.capped_lookups", count(base.c.cm_capped), "count"},
       {"population.self_s", self_s("population"), "s"},
       {"population.state_bytes", static_cast<double>(base.c.state_bytes),
        "B"},
       {"adversary.self_s", self_s("adversary"), "s"},
       {"adversary.ctrl_msgs", count(base.c.ctrl_msgs), "count"},
       {"exp.self_s", self_s("exp"), "s"},
       {"exp.analysis_s", med(untraced, [](auto& f) { return f.analysis_s; }),
        "s"},
       {"exp.sweep.idle_frac",
        med(untraced, [](auto& f) { return f.idle_frac; }), "ratio"},
       {"exp.sweep.cell_s_max",
        med(untraced, [](auto& f) { return f.cell_s_max; }), "s"},
       {"obs.self_s", self_s("obs"), "s"},
       {"obs.snapshot_s", med(untraced, [](auto& f) { return f.snapshot_s; }),
        "s"},
       {"runtime.self_s", self_s("runtime"), "s"},
       {"runtime.allocs_per_pkt",
        static_cast<double>(traced_allocs) / traced_rounds / pkts,
        "allocs/pkt"},
       {"unattributed.self_s", self_s("unattributed"), "s"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
