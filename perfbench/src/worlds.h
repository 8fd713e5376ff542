// The benchmark's three reference worlds, built through the public exp API.
//
// Every world is one operation: it is built (exp::testbed, its scenario
// factories, sessions, populations), run, analysed with the program's own
// roll-up and containment code, snapshotted through testbed::metrics(), and
// observed into a world_obs for the checks. Each of those calls is timed
// from here, outside the program.
#ifndef PERFBENCH_WORLDS_H
#define PERFBENCH_WORLDS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"

namespace perfbench {

enum class workload { farm32, flash_crowd, attack_matrix };

/// Host time of one world's phases, seconds.
struct world_times {
  double setup_s = 0.0;     // testbed, hosts, sessions, populations, routing
  double run_s = 0.0;       // testbed::run_until
  double analysis_s = 0.0;  // roll-up and containment analysis
  double snapshot_s = 0.0;  // testbed::metrics().snapshot()
  double start_s = 0.0;     // world start, from the round's start
  double end_s = 0.0;       // world end, from the round's start
};

/// Per-layer work counts of one world, read through testbed::metrics() and
/// the component stats() accessors.
struct layer_counts {
  std::uint64_t invalid_keys = 0;      // sigma.invalid_keys
  std::uint64_t blocks_decoded = 0;    // sigma.blocks_decoded
  std::uint64_t probation_blocks = 0;  // sigma.probation_blocks
  std::uint64_t igmp_joins = 0;        // igmp.joins
  std::uint64_t cm_lookups = 0;        // cm.lookups
  std::uint64_t cm_capped = 0;         // cm.capped_lookups
  std::uint64_t ctrl_msgs = 0;         // attackers' adversary::measure_cost
  std::int64_t state_bytes = 0;        // population.state_bytes
};

struct world_result {
  world_obs obs;
  world_times t;
  layer_counts c;
  /// A world the benchmark expects to fail its containment check until the
  /// named fault is fixed (see README.md).
  bool known_fault = false;
};

struct round_result {
  std::vector<world_result> worlds;
  double wall_s = 0.0;  // the whole round; the grid's makespan when threaded
  int threads = 1;
};

/// Parses a workload name; false if unknown.
bool workload_from_name(const std::string& name, workload& out);

/// Runs every world of the workload once. `seed` drives the inputs of the
/// worlds that hold no named fault (see README.md).
round_result run_round(workload w, std::uint64_t seed);

/// For a threaded workload, a few of its worlds re-run on the calling
/// thread, each with its index in the round, to compare against the grid.
/// Empty for single-thread workloads.
std::vector<std::pair<std::size_t, world_result>> serial_reruns(workload w);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H
