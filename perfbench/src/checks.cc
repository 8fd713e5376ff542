#include "checks.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// The smallest packet any world sends (a SIGMA session-join is 20 bytes),
/// so a queue of capacity C bytes holds at most C / 20 packets.
constexpr std::int64_t smallest_packet_bytes = 20;
/// Slack of "one packet" in rate bounds: an Ethernet MTU, above the 576-byte
/// data packets these worlds send.
constexpr double one_packet_bytes = 1500.0;
/// One-layer containment bound of src/adversary/containment.h: layers are
/// spaced by a 1.5x rate multiplier, so 1.6x the fair share grants one
/// layer of quantization headroom.
constexpr double containment_factor = 1.6;

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

/// Flow groups crossing a bottleneck: each multicast session once, each
/// unicast flow on its own. Value = bytes of the group's best-served flow.
std::map<std::int64_t, std::int64_t> groups(const world_obs& w,
                                            const bottleneck_obs& b) {
  std::map<std::int64_t, std::int64_t> out;
  for (const std::size_t i : b.flows) {
    const flow_obs& f = w.flows[i];
    const std::int64_t key = f.session >= 0
                                 ? f.session
                                 : -1 - static_cast<std::int64_t>(i);
    out[key] = std::max(out[key], f.bytes);
  }
  return out;
}

// Each check returns "" on success, else a one-line failure description.

/// 0 <= admitted - serialized - dequeue drops <= capacity in packets + 1.
std::string check_conservation(const link_obs& l) {
  const auto in_queue = static_cast<std::int64_t>(l.admitted) -
                        static_cast<std::int64_t>(l.serialized) -
                        static_cast<std::int64_t>(l.dequeue_drops);
  const std::int64_t limit = l.capacity_bytes / smallest_packet_bytes + 1;
  if (in_queue >= 0 && in_queue <= limit) return "";
  return format("link %s: admitted %llu - serialized %llu - dequeue drops %llu"
                " = %lld, outside [0, %lld]",
                l.name.c_str(), static_cast<unsigned long long>(l.admitted),
                static_cast<unsigned long long>(l.serialized),
                static_cast<unsigned long long>(l.dequeue_drops),
                static_cast<long long>(in_queue),
                static_cast<long long>(limit));
}

/// bytes serialized x 8 <= line rate x simulated time + one packet.
std::string check_line_rate(const link_obs& l, double horizon_s) {
  const double bits = 8.0 * static_cast<double>(l.bytes_serialized);
  const double limit = l.bps * horizon_s + 8.0 * one_packet_bytes;
  if (bits <= limit) return "";
  return format("link %s: %.0f bits serialized in %.1f s exceed %.0f bps",
                l.name.c_str(), bits, horizon_s, l.bps);
}

/// A FLID receiver's goodput <= its session's all-layer cumulative rate.
std::string check_layer_cap(const flow_obs& f, double horizon_s) {
  if (f.layers_bps <= 0.0) return "";
  const double bps = 8.0 * static_cast<double>(f.bytes) / horizon_s;
  if (bps <= f.layers_bps) return "";
  return format("%s: goodput %.0f bps above the all-layer rate %.0f bps",
                f.name.c_str(), bps, f.layers_bps);
}

/// The goodputs of flows crossing a bottleneck sum to at most its rate (one
/// multicast session counts once, at its best-served receiver).
std::string check_bottleneck(const world_obs& w, const bottleneck_obs& b) {
  std::int64_t sum = 0;
  for (const auto& [key, bytes] : groups(w, b)) sum += bytes;
  const double limit = b.bps * w.horizon_s / 8.0 + one_packet_bytes;
  if (static_cast<double>(sum) <= limit) return "";
  return format("bottleneck %s: flows crossing it got %.0f bps, above %.0f",
                b.link.c_str(), 8.0 * static_cast<double>(sum) / w.horizon_s,
                b.bps);
}

/// Fair share of a flow: the least, over the bottlenecks it crosses, of
/// rate / number of flows crossing (sessions counted once). 0 if it crosses
/// none.
double fair_share_kbps(const world_obs& w, std::size_t flow) {
  double fair = 0.0;
  for (const bottleneck_obs& b : w.bottlenecks) {
    if (std::find(b.flows.begin(), b.flows.end(), flow) == b.flows.end()) {
      continue;
    }
    const double share =
        b.bps / 1e3 / static_cast<double>(groups(w, b).size());
    fair = fair == 0.0 ? share : std::min(fair, share);
  }
  return fair;
}

/// An attacker's final-stretch goodput <= 1.6 x its fair share.
std::string check_containment(const world_obs& w, std::size_t flow) {
  const flow_obs& f = w.flows[flow];
  const double fair = fair_share_kbps(w, flow);
  if (fair <= 0.0) {
    return format("%s: attacker crosses no bottleneck", f.name.c_str());
  }
  const double bound = containment_factor * fair;
  if (f.late_kbps <= bound) return "";
  return format("%s: uncontained, %.1f Kbps over the last %.0f s against a "
                "fair share of %.1f Kbps (bound %.1f)",
                f.name.c_str(), f.late_kbps, final_stretch_s, fair, bound);
}

}  // namespace

std::uint64_t fingerprint(const world_obs& w) {
  std::uint64_t h = 1469598103934665603ull;
  fnv(h, w.events);
  for (const link_obs& l : w.links) {
    fnv(h, l.admitted);
    fnv(h, l.serialized);
    fnv(h, l.dropped);
    fnv(h, static_cast<std::uint64_t>(l.bytes_serialized));
    fnv(h, static_cast<std::uint64_t>(l.bytes_dropped));
  }
  for (const flow_obs& f : w.flows) fnv(h, static_cast<std::uint64_t>(f.bytes));
  return h;
}

std::string check_state_flat(const world_obs& small, const world_obs& large) {
  if (small.population_state_bytes == large.population_state_bytes) return "";
  return format("population state %lld B in %s but %lld B in %s",
                static_cast<long long>(small.population_state_bytes),
                small.name.c_str(),
                static_cast<long long>(large.population_state_bytes),
                large.name.c_str());
}

std::string check_reproduced(const world_obs& first, const world_obs& again) {
  if (fingerprint(first) == fingerprint(again) &&
      first.events == again.events) {
    return "";
  }
  return format("%s: re-run not reproduced (events %llu vs %llu)",
                first.name.c_str(),
                static_cast<unsigned long long>(first.events),
                static_cast<unsigned long long>(again.events));
}

std::vector<failure> check_world(const world_obs& w) {
  std::vector<failure> fails;
  const auto keep = [&fails](std::string s, bool containment = false) {
    if (!s.empty()) fails.push_back({std::move(s), containment});
  };
  for (const link_obs& l : w.links) {
    keep(check_conservation(l));
    keep(check_line_rate(l, w.horizon_s));
  }
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    keep(check_layer_cap(w.flows[i], w.horizon_s));
    if (w.flows[i].attacker) keep(check_containment(w, i), true);
  }
  for (const bottleneck_obs& b : w.bottlenecks) keep(check_bottleneck(w, b));
  return fails;
}

std::vector<std::string> self_test() {
  // A one-bottleneck world in which every check passes: 1 Mbps for 100 s,
  // an honest session, an attacker session and a TCP flow.
  world_obs ok;
  ok.name = "self_test";
  ok.horizon_s = 100.0;
  ok.events = 1000;
  ok.links.push_back({"l>r", 1e6, 20000, 1000, 990, 0, 5, 10'000'000, 2880});
  ok.flows.push_back({"honest", 1, 3'000'000, 3.8e6, 250.0, false});
  ok.flows.push_back({"attacker", 2, 3'000'000, 3.8e6, 400.0, true});
  ok.flows.push_back({"tcp", -1, 3'000'000, 0.0, 300.0, false});
  ok.bottlenecks.push_back({"l>r", 1e6, {0, 1, 2}});
  ok.population_state_bytes = 624;

  std::vector<std::string> accepted;
  const auto expect = [&accepted](const char* name, bool passes, bool want) {
    if (passes != want) accepted.emplace_back(name);
  };
  expect("baseline world passes", check_world(ok).empty(), true);

  link_obs over = ok.links[0];
  over.admitted = over.serialized + 20000 / smallest_packet_bytes + 2;
  expect("conservation (queue overfull)", check_conservation(over).empty(),
         false);
  link_obs under = ok.links[0];
  under.serialized = under.admitted + 1;
  expect("conservation (more out than in)", check_conservation(under).empty(),
         false);

  link_obs fast = ok.links[0];
  fast.bytes_serialized = 12'600'000;  // 1.008 Mbps over 100 s
  expect("line rate", check_line_rate(fast, ok.horizon_s).empty(), false);

  flow_obs greedy = ok.flows[0];
  greedy.layers_bps = 200e3;  // 240 Kbps delivered
  expect("layer cap", check_layer_cap(greedy, ok.horizon_s).empty(), false);

  world_obs crowded = ok;
  crowded.flows[2].bytes = 7'000'000;  // 240 + 240 + 560 Kbps > 1 Mbps
  expect("bottleneck sum", check_bottleneck(crowded, crowded.bottlenecks[0])
                               .empty(),
         false);

  world_obs grabbing = ok;
  grabbing.flows[1].late_kbps = 540.0;  // > 1.6 x 1000 / 3
  expect("containment", check_containment(grabbing, 1).empty(), false);
  world_obs nowhere = ok;
  nowhere.bottlenecks[0].flows = {0, 2};
  expect("containment (no bottleneck)", check_containment(nowhere, 1).empty(),
         false);

  world_obs big = ok;
  big.population_state_bytes = 625;
  expect("state flat", check_state_flat(ok, big).empty(), false);

  world_obs drift = ok;
  drift.links[0].bytes_dropped += 576;
  expect("reproduced (link counter)", check_reproduced(ok, drift).empty(),
         false);
  world_obs extra = ok;
  extra.events += 1;
  expect("reproduced (event count)", check_reproduced(ok, extra).empty(),
         false);
  return accepted;
}

}  // namespace perfbench
