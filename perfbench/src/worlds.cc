#include "worlds.h"

#include <sched.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "exp/sweep.h"
#include "exp/testbed.h"

using namespace mcc;

namespace perfbench {

namespace {

using steady = std::chrono::steady_clock;

double since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

// Timing shared by every world, as in fig_attack_matrix, fig_flash_crowd and
// fig_session_farm: attacks start at 40 s, runs end at 120 s.
const sim::time_ns attack_at = sim::seconds(40.0);
const sim::time_ns horizon = sim::seconds(120.0);
/// Rate of every contested link outside the farm.
constexpr double path_bps = 1e6;

/// Routers from the default sender site to `site`, in order. The worlds use
/// the dumbbell ("l" -> "r"), the parking lot ("r0" -> "r1" -> "r2") and the
/// depth-2, fanout-2 tree ("root" -> "t1_<j/2>" -> "t2_<j>").
std::vector<std::string> router_path(const std::string& topo,
                                     const std::string& site) {
  if (topo == "dumbbell") return {"l", "r"};
  if (topo == "parking_lot") {
    std::vector<std::string> path;
    for (int i = 0; i <= std::stoi(site.substr(1)); ++i) {
      path.push_back("r" + std::to_string(i));
    }
    return path;
  }
  const int leaf = std::stoi(site.substr(3));
  return {"root", "t1_" + std::to_string(leaf / 2), site};
}

/// A receiving endpoint of a world, observed after the run.
struct placed_flow {
  std::string name;
  std::string site;
  int session = -1;
  sim::throughput_monitor* monitor = nullptr;
  double layers_bps = 0.0;
  bool attacker = false;
};

/// One testbed plus the receivers the benchmark watches in it.
class world {
 public:
  world(std::string name, std::string topo, exp::testbed_config cfg)
      : tb(std::move(cfg)), name_(std::move(name)), topo_(std::move(topo)) {}

  void watch(exp::flid_session& s,
             const std::vector<exp::receiver_options>& opts) {
    const double layers = s.config.cumulative_rate_bps(s.config.num_groups);
    for (std::size_t i = 0; i < opts.size(); ++i) {
      flows_.push_back({"session" + std::to_string(s.config.session_id) +
                            "/receiver" + std::to_string(i),
                        opts[i].at, s.config.session_id,
                        &s.receivers[i]->monitor(), layers,
                        opts[i].attack.attacks()});
    }
  }
  void watch(exp::flid_session& s, exp::flid_population& p,
             const std::string& site) {
    flows_.push_back({"session" + std::to_string(s.config.session_id) +
                          "/population",
                      site, s.config.session_id, &p.delegate->monitor(),
                      s.config.cumulative_rate_bps(s.config.num_groups),
                      false});
  }
  void watch(exp::tcp_flow& f, const std::string& site) {
    flows_.push_back({"tcp", site, -1, &f.sink->monitor(), 0.0, false});
  }

  [[nodiscard]] world_obs observe() {
    world_obs w;
    w.name = name_;
    w.horizon_s = sim::to_seconds(horizon);
    w.events = tb.sched().executed_events();
    w.max_pending = tb.sched().max_pending_events();
    std::map<std::string, std::size_t> by_name;
    for (const auto& owned : tb.net().links()) {
      const sim::link& l = *owned;
      const sim::link_stats& s = l.stats();
      link_obs o;
      o.name = l.from()->name() + ">" + l.to()->name();
      o.bps = l.config().bps;
      o.capacity_bytes = l.config().queue_capacity_bytes;
      o.admitted = s.enqueued;
      o.serialized = s.delivered;
      // CoDel drops the head packet at dequeue; drop-tail and RED drop only
      // arriving packets, which were never admitted.
      o.dequeue_drops =
          l.config().aqm.discipline == sim::qdisc::codel ? s.aqm_dropped : 0;
      o.dropped = s.dropped;
      o.bytes_serialized = s.bytes_delivered;
      o.bytes_dropped = s.bytes_dropped;
      by_name[o.name] = w.links.size();
      w.links.push_back(std::move(o));
    }
    std::map<std::string, std::size_t> bottleneck_of;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const placed_flow& f = flows_[i];
      w.flows.push_back({f.name, f.session, f.monitor->total_bytes(),
                         f.layers_bps,
                         f.monitor->average_kbps(
                             horizon - sim::seconds(final_stretch_s), horizon),
                         f.attacker});
      const std::vector<std::string> path = router_path(topo_, f.site);
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const std::string link = path[h] + ">" + path[h + 1];
        const auto found = by_name.find(link);
        if (found == by_name.end()) {
          throw std::runtime_error(name_ + ": no backbone link " + link);
        }
        auto [it, fresh] = bottleneck_of.emplace(link, w.bottlenecks.size());
        if (fresh) {
          w.bottlenecks.push_back({link, w.links[found->second].bps, {}});
        }
        w.bottlenecks[it->second].flows.push_back(i);
      }
    }
    return w;
  }

  exp::testbed tb;

 private:
  std::string name_;
  std::string topo_;
  std::vector<placed_flow> flows_;
};

/// Sums a snapshot's entries by metric name (labels dropped).
layer_counts count_layers(const obs::metric_snapshot& snap) {
  layer_counts c;
  for (const auto& [flat, value] : snap) {
    const std::string name = flat.substr(0, flat.find('{'));
    const auto v = static_cast<std::uint64_t>(value);
    if (name == "sigma.invalid_keys") c.invalid_keys += v;
    if (name == "sigma.blocks_decoded") c.blocks_decoded += v;
    if (name == "sigma.probation_blocks") c.probation_blocks += v;
    if (name == "igmp.joins") c.igmp_joins += v;
    if (name == "cm.lookups") c.cm_lookups += v;
    if (name == "cm.capped_lookups") c.cm_capped += v;
    if (name == "population.state_bytes") {
      c.state_bytes += static_cast<std::int64_t>(value);
    }
  }
  return c;
}

/// The phases every world goes through, timed from here. `build` adds the
/// world's hosts and returns the analysis to run after the simulation.
template <typename Build>
world_result run_world(steady::time_point round0, std::string name,
                       std::string topo, exp::testbed_config cfg,
                       Build&& build) {
  world_result r;
  r.t.start_s = since(round0);
  auto t0 = steady::now();
  auto w = std::make_unique<world>(std::move(name), std::move(topo),
                                   std::move(cfg));
  auto analyse = build(*w);
  // Finalizes routing; no event is due before t = 0, so none fires here.
  w->tb.run_until(-1);
  r.t.setup_s = since(t0);

  t0 = steady::now();
  w->tb.run_until(horizon);
  r.t.run_s = since(t0);

  t0 = steady::now();
  r.c.ctrl_msgs = analyse();
  r.t.analysis_s = since(t0);

  t0 = steady::now();
  const obs::metric_snapshot snap = w->tb.metrics().snapshot();
  r.t.snapshot_s = since(t0);

  const std::uint64_t ctrl = r.c.ctrl_msgs;
  r.c = count_layers(snap);
  r.c.ctrl_msgs = ctrl;
  r.obs = w->observe();
  r.obs.population_state_bytes = r.c.state_bytes;

  w.reset();
  r.t.end_s = since(round0);
  return r;
}

/// The program's containment report for one attacker, as the figures
/// compute it; returns the attacker's control messages.
using monitors = std::vector<const sim::throughput_monitor*>;

std::uint64_t containment(flid::flid_receiver& attacker,
                          const monitors& honest, const monitors& reference) {
  adversary::containment_config ccfg;
  ccfg.attack_start = attack_at;
  ccfg.horizon = horizon;
  ccfg.floor_kbps = path_bps / 1e3 / 3.0;
  adversary::containment_report rep = adversary::measure_containment(
      attacker.monitor(), honest, reference, ccfg);
  adversary::attach_cost(rep, adversary::measure_cost(attacker));
  return rep.cost.ctrl_msgs;
}

// --- farm32 ----------------------------------------------------------------

/// fig_session_farm's world seed for its n32/dumbbell/droptail/inflate_once
/// cell at the bench's default --seed 21 (FNV-1a of the cell coordinates).
std::uint64_t farm_seed() {
  std::uint64_t h = 1469598103934665603ull ^ (21ull * 1099511628211ull);
  for (const char ch : std::string("dumbbell") + "inflate_once") {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  h ^= 32u;
  h *= 1099511628211ull;
  h ^= static_cast<std::uint64_t>(sim::qdisc::droptail);
  h *= 1099511628211ull;
  return h;
}

world_result farm32_world(steady::time_point round0) {
  constexpr int sessions = 32;
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = sessions * 250e3;
  cfg.seed = farm_seed();
  cfg.cm = true;
  world_result r = run_world(
      round0, "farm32/dumbbell/droptail/n32/inflate_once/cm", "dumbbell",
      exp::dumbbell(cfg), [](world& w) {
        exp::receiver_options attacker;
        attacker.at = "r";
        attacker.attack =
            adversary::inflate_once(attack_at, adversary::key_mode::guess);
        exp::flid_session& rogue =
            w.tb.add_flid_session(exp::flid_mode::ds, {attacker});
        w.watch(rogue, {attacker});
        exp::receiver_options neighbour;
        neighbour.at = "r";
        std::vector<exp::flid_session*> honest = w.tb.add_session_array(
            sessions - 1, exp::flid_mode::ds, {neighbour});
        for (exp::flid_session* s : honest) w.watch(*s, {neighbour});
        return [&rogue, honest] {
          // fig_session_farm's roll-ups: pre-attack baseline and the
          // attack window.
          (void)exp::session_rollup_for(honest, sim::seconds(15.0),
                                        attack_at);
          (void)exp::session_rollup_for(honest, attack_at,
                                        attack_at + sim::seconds(40.0));
          return adversary::measure_cost(rogue.receiver(0)).ctrl_msgs;
        };
      });
  r.known_fault = true;
  return r;
}

// --- flash_crowd -----------------------------------------------------------

struct crowd_cell {
  std::int64_t members;
  std::string topo;
  bool attacked;
};

/// fig_flash_crowd's default grid, in its order.
const std::vector<crowd_cell>& crowd_cells() {
  static const std::vector<crowd_cell> cells = [] {
    std::vector<crowd_cell> v;
    for (const std::int64_t n : {std::int64_t{1000}, std::int64_t{1000000}}) {
      for (const char* t : {"dumbbell", "tree"}) {
        for (const bool a : {false, true}) v.push_back({n, t, a});
      }
    }
    return v;
  }();
  return cells;
}

world_result crowd_world(const crowd_cell& c, std::uint64_t seed,
                         steady::time_point round0) {
  exp::testbed_config cfg;
  std::string pop_site;
  std::string atk_site;
  if (c.topo == "dumbbell") {
    exp::dumbbell_config d;
    d.bottleneck_bps = path_bps;
    d.seed = seed;
    cfg = exp::dumbbell(d);
    pop_site = atk_site = "r";
  } else {
    exp::tree_config t;
    t.depth = 2;
    t.fanout = 2;
    t.edge_bps = path_bps;
    t.seed = seed;
    cfg = exp::balanced_tree(t);
    // The adversary hides on a sibling leaf of the population.
    pop_site = "t2_0";
    atk_site = "t2_1";
  }
  const std::string tcp_site = cfg.receiver_site;
  const std::string name = c.topo + "/droptail/pop" +
                           std::to_string(c.members) +
                           (c.attacked ? "/inflate_once" : "/none");
  world_result r = run_world(
      round0, name, c.topo, std::move(cfg), [&](world& w) {
        std::vector<exp::receiver_options> rogues;
        if (c.attacked) {
          exp::receiver_options attacker;
          attacker.at = atk_site;
          attacker.attack =
              adversary::inflate_once(attack_at, adversary::key_mode::guess);
          rogues.push_back(attacker);
        }
        exp::flid_session& session =
            w.tb.add_flid_session(exp::flid_mode::ds, rogues);
        w.watch(session, rogues);
        exp::population_options popts;
        popts.at = pop_site;
        popts.population.initial_members = c.members;
        popts.population.demand.k = population::demand_config::kind::zipf;
        popts.population.demand.zipf_s = 1.1;
        popts.population.churn.flash_at = sim::seconds(30.0);
        popts.population.churn.flash_members = c.members;
        exp::flid_population& pop = w.tb.add_population(session, popts);
        w.watch(session, pop, pop_site);
        exp::tcp_flow& tcp = w.tb.add_tcp_flow();
        w.watch(tcp, tcp_site);
        return [&session, &pop, &tcp,
                attacked = c.attacked]() -> std::uint64_t {
          const sim::time_ns from = attack_at + sim::seconds(5.0);
          auto& members = pop.aggregate->member_monitor();
          (void)members.average_kbps(from, horizon);
          (void)pop.delegate->monitor().average_kbps(from, horizon);
          (void)tcp.sink->monitor().average_kbps(from, horizon);
          if (!attacked) return 0;
          return containment(session.receiver(0),
                             {&members, &tcp.sink->monitor()}, {&members});
        };
      });
  return r;
}

// --- attack_matrix -----------------------------------------------------------

struct matrix_cell {
  adversary::strategy_kind strategy;
  std::string topo;
  bool keying;
  int memory;  // probation-memory window, slots (0 = off)
  std::size_t seed_index;
};

/// fig_attack_matrix's default grid, in its order: 7 strategies x 3
/// topologies x drop-tail x interface keying off/on x probation memory
/// off/8 slots.
const std::vector<matrix_cell>& matrix_cells() {
  static const std::vector<matrix_cell> cells = [] {
    std::vector<matrix_cell> v;
    std::size_t index = 0;
    for (const adversary::strategy_kind s : adversary::all_attacks()) {
      for (const char* t : {"dumbbell", "parking_lot", "tree"}) {
        for (const bool k : {false, true}) {
          for (const int m : {0, 8}) {
            v.push_back({s, t, k, m, index});
            ++index;
          }
        }
      }
    }
    return v;
  }();
  return cells;
}

std::string cell_name(const matrix_cell& c) {
  return std::string(adversary::strategy_name(c.strategy)) + "/" + c.topo +
         "/droptail" + (c.keying ? "/keyed" : "") +
         (c.memory > 0 ? "/mem" : "");
}

/// Cells whose attacker the containment check finds uncontained at the
/// commit this benchmark was written against (README.md, "Known faults").
bool matrix_known_fault(const matrix_cell& c) {
  static const std::set<std::string> cells = {
      "deaf_receiver/dumbbell/droptail/keyed/mem",
      "deaf_receiver/parking_lot/droptail/keyed/mem",
      "deaf_receiver/parking_lot/droptail/mem",
      "collusion/parking_lot/droptail/keyed/mem",
      "collusion/tree/droptail",
      "collusion/tree/droptail/mem",
  };
  return cells.count(cell_name(c)) > 0;
}

/// fig_attack_matrix's base seed (its --seed default).
constexpr std::uint64_t matrix_seed = 7;

world_result matrix_world(const matrix_cell& c, steady::time_point round0) {
  const std::uint64_t seed = exp::point_seed(matrix_seed, c.seed_index);
  exp::testbed_config cfg;
  std::string honest_site;
  std::string atk_site;
  std::string partner_site;
  if (c.topo == "dumbbell") {
    exp::dumbbell_config d;
    d.bottleneck_bps = path_bps;
    d.seed = seed;
    d.interface_keying = c.keying;
    d.probation_memory_slots = c.memory;
    cfg = exp::dumbbell(d);
    honest_site = atk_site = partner_site = "r";
  } else if (c.topo == "parking_lot") {
    exp::parking_lot_config p;
    p.bottlenecks = 2;
    p.bottleneck_bps = path_bps;
    p.seed = seed;
    p.interface_keying = c.keying;
    p.probation_memory_slots = c.memory;
    cfg = exp::parking_lot(p);
    honest_site = "r1";
    atk_site = "r2";
    partner_site = "r1";
  } else {
    exp::tree_config t;
    t.depth = 2;
    t.fanout = 2;
    t.edge_bps = path_bps;
    t.seed = seed;
    t.interface_keying = c.keying;
    t.probation_memory_slots = c.memory;
    cfg = exp::balanced_tree(t);
    honest_site = "t2_0";
    atk_site = "t2_1";
    partner_site = "t2_2";
  }
  const std::string tcp_site = cfg.receiver_site;
  const auto keys = adversary::key_mode::guess;
  const sim::time_ns pulse = sim::seconds(5.0);
  adversary::profile attack;
  switch (c.strategy) {
    case adversary::strategy_kind::inflate_once:
      attack = adversary::inflate_once(attack_at, keys);
      break;
    case adversary::strategy_kind::pulse_inflate:
      attack = adversary::pulse_inflate(attack_at, pulse, pulse, keys);
      break;
    case adversary::strategy_kind::churn_flap:
      attack = adversary::churn_flap(attack_at, 1);
      break;
    case adversary::strategy_kind::deaf_receiver:
      attack = adversary::deaf_receiver(attack_at);
      break;
    case adversary::strategy_kind::collusion:
      attack = adversary::collusion(attack_at);
      break;
    case adversary::strategy_kind::adaptive_pulse:
      attack = adversary::adaptive_pulse(attack_at, pulse, keys);
      break;
    case adversary::strategy_kind::adaptive_churn:
      attack = adversary::adaptive_churn(attack_at);
      break;
    default:
      throw std::logic_error("attack_matrix: unhandled strategy");
  }
  world_result r = run_world(
      round0, cell_name(c), c.topo, std::move(cfg), [&](world& w) {
        // A rogue session (two colluders for collusion), an honest session
        // and a TCP victim share the path, as in fig_attack_matrix.
        exp::receiver_options attacker;
        attacker.at = atk_site;
        attacker.attack = attack;
        std::vector<exp::receiver_options> rogues = {attacker};
        if (c.strategy == adversary::strategy_kind::collusion) {
          exp::receiver_options partner = attacker;
          partner.at = partner_site;
          rogues.push_back(partner);
        }
        exp::flid_session& rogue =
            w.tb.add_flid_session(exp::flid_mode::ds, rogues);
        w.watch(rogue, rogues);
        exp::receiver_options honest;
        honest.at = honest_site;
        exp::flid_session& honest_session =
            w.tb.add_flid_session(exp::flid_mode::ds, {honest});
        w.watch(honest_session, {honest});
        exp::tcp_flow& tcp = w.tb.add_tcp_flow();
        w.watch(tcp, tcp_site);
        return [&rogue, &honest_session, &tcp, n = rogues.size()] {
          auto* h = &honest_session.receiver(0).monitor();
          std::uint64_t msgs = 0;
          for (std::size_t a = 0; a < n; ++a) {
            msgs += containment(rogue.receiver(static_cast<int>(a)),
                                {h, &tcp.sink->monitor()}, {h});
          }
          return msgs;
        };
      });
  r.known_fault = matrix_known_fault(c);
  return r;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

bool workload_from_name(const std::string& name, workload& out) {
  if (name == "farm32") {
    out = workload::farm32;
  } else if (name == "flash_crowd") {
    out = workload::flash_crowd;
  } else if (name == "attack_matrix") {
    out = workload::attack_matrix;
  } else {
    return false;
  }
  return true;
}

round_result run_round(workload w, std::uint64_t seed) {
  round_result out;
  const steady::time_point round0 = steady::now();
  switch (w) {
    case workload::farm32:
      out.worlds.push_back(farm32_world(round0));
      break;
    case workload::flash_crowd:
      for (std::size_t i = 0; i < crowd_cells().size(); ++i) {
        out.worlds.push_back(
            crowd_world(crowd_cells()[i], exp::point_seed(seed, i), round0));
      }
      break;
    case workload::attack_matrix: {
      const auto& cells = matrix_cells();
      out.worlds.resize(cells.size());
      std::vector<double> xs(cells.size());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = static_cast<double>(i);
      }
      exp::sweep_options opts;
      opts.jobs = available_cpus();
      opts.base_seed = matrix_seed;
      out.threads = opts.jobs;
      // Each cell writes only its own slot; run_sweep joins its workers
      // before returning.
      (void)exp::run_sweep(xs, opts, [&](const exp::sweep_point& pt) {
        out.worlds[pt.index] = matrix_world(cells[pt.index], round0);
        return exp::sweep_row{};
      });
      break;
    }
  }
  out.wall_s = since(round0);
  return out;
}

std::vector<std::pair<std::size_t, world_result>> serial_reruns(workload w) {
  std::vector<std::pair<std::size_t, world_result>> out;
  if (w != workload::attack_matrix) return out;
  // fig07's single-session dumbbell under inflation, the cross-edge
  // collusion cell, and a known-fault cell.
  for (const char* name : {"inflate_once/dumbbell/droptail",
                           "collusion/tree/droptail/keyed",
                           "deaf_receiver/parking_lot/droptail/keyed/mem"}) {
    for (std::size_t i = 0; i < matrix_cells().size(); ++i) {
      if (cell_name(matrix_cells()[i]) != name) continue;
      out.emplace_back(i, matrix_world(matrix_cells()[i], steady::now()));
    }
  }
  return out;
}

}  // namespace perfbench
