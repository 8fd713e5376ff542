// Output checks of the benchmark's worlds.
//
// Every check is a pure function of one world's configuration and raw
// counters (link counters, bytes delivered to each receiver, the bottleneck
// rates the world was built with). None of them asks the program for a
// verdict: the containment check derives the fair share from the bottleneck
// rate and the flows crossing it, not from adversary::measure_containment.
// self_test() feeds each check an input built to violate it.
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Raw counters of one link after a run.
struct link_obs {
  std::string name;  // "from>to"
  double bps = 0.0;
  std::int64_t capacity_bytes = 0;
  std::uint64_t admitted = 0;       // sim::link_stats::enqueued
  std::uint64_t serialized = 0;     // sim::link_stats::delivered
  std::uint64_t dequeue_drops = 0;  // head drops; always 0 under drop-tail
  std::uint64_t dropped = 0;
  std::int64_t bytes_serialized = 0;
  std::int64_t bytes_dropped = 0;
};

/// One receiving endpoint: a FLID receiver, a population delegate, or a TCP
/// sink.
struct flow_obs {
  std::string name;
  int session = -1;          // multicast session id; -1 = unicast
  std::int64_t bytes = 0;    // delivered over the whole run
  double layers_bps = 0.0;   // session's all-layer cumulative rate; 0 = unicast
  double late_kbps = 0.0;    // goodput over the final stretch of the run
  bool attacker = false;
};

/// A backbone link and the flows whose receivers sit behind it.
struct bottleneck_obs {
  std::string link;
  double bps = 0.0;
  std::vector<std::size_t> flows;  // indices into world_obs::flows
};

struct world_obs {
  std::string name;
  double horizon_s = 0.0;
  std::uint64_t events = 0;
  std::size_t max_pending = 0;
  std::vector<link_obs> links;
  std::vector<flow_obs> flows;
  std::vector<bottleneck_obs> bottlenecks;
  std::int64_t population_state_bytes = 0;  // all populations' member state
};

/// Length of the final stretch over which attackers are judged.
inline constexpr double final_stretch_s = 40.0;

/// FNV-1a over the event count, every link's packet and byte counters and
/// every flow's delivered bytes.
[[nodiscard]] std::uint64_t fingerprint(const world_obs& w);

/// Population state bytes are equal in two worlds that differ only in size;
/// "" on success, else a one-line failure description.
[[nodiscard]] std::string check_state_flat(const world_obs& small,
                                           const world_obs& large);
/// A re-run reproduces the event count and link counters exactly; "" on
/// success, else a one-line failure description.
[[nodiscard]] std::string check_reproduced(const world_obs& first,
                                           const world_obs& again);

/// One failed check of a world.
struct failure {
  std::string what;
  bool containment = false;  // the attacker-containment check
};

/// Every single-world check (checks.cc lists them); empty = the world
/// passed.
[[nodiscard]] std::vector<failure> check_world(const world_obs& w);

/// Feeds every check an input built to violate it. Returns the names of the
/// checks that accepted their violating input (empty = all rejected).
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
