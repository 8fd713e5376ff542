#include "sim/aqm.h"

#include <algorithm>
#include <cmath>

namespace mcc::sim {

const char* qdisc_name(qdisc d) {
  switch (d) {
    case qdisc::droptail: return "droptail";
    case qdisc::ecn_threshold: return "ecn";
    case qdisc::red: return "red";
    case qdisc::codel: return "codel";
  }
  return "?";
}

std::optional<qdisc> qdisc_from_name(const std::string& name) {
  if (name == "droptail") return qdisc::droptail;
  if (name == "ecn") return qdisc::ecn_threshold;
  if (name == "red") return qdisc::red;
  if (name == "codel") return qdisc::codel;
  return std::nullopt;
}

aqm_decision aqm_policy::on_dequeue(const packet&, time_ns,
                                    const aqm_queue_view&, time_ns) {
  return aqm_decision::pass;
}

void aqm_policy::on_overflow(const packet&, const aqm_queue_view&, time_ns) {}

// --- droptail ---------------------------------------------------------------

aqm_decision droptail_aqm::on_arrival(const packet&, const aqm_queue_view&,
                                      time_ns) {
  return aqm_decision::pass;
}

// --- RED --------------------------------------------------------------------

red_aqm::red_aqm(const red_config& cfg, std::int64_t capacity_bytes,
                 double link_bps, std::uint64_t seed)
    : cfg_(cfg),
      min_th_(cfg.min_bytes > 0
                  ? cfg.min_bytes
                  : static_cast<std::int64_t>(
                        cfg.min_fraction * static_cast<double>(capacity_bytes))),
      max_th_(cfg.max_bytes > 0
                  ? cfg.max_bytes
                  : static_cast<std::int64_t>(
                        cfg.max_fraction * static_cast<double>(capacity_bytes))),
      // Idle decay granularity: the transmission time of a nominal packet,
      // the "typical" departure spacing of ns-2's m = idle / s estimate.
      mean_pkt_time_(std::max<time_ns>(1, transmission_time(500, link_bps))),
      rng_(seed) {
  threshold_mode_ = min_th_ == max_th_;
  if (threshold_mode_) {
    util::require(min_th_ >= 0, "red: need min_th >= 0");
  } else {
    util::require(min_th_ > 0 && min_th_ < max_th_,
                  "red: need 0 < min_th < max_th");
  }
  util::require(cfg_.max_prob > 0.0 && cfg_.max_prob <= 1.0,
                "red: max_prob out of (0,1]");
  util::require(cfg_.weight > 0.0 && cfg_.weight <= 1.0,
                "red: weight out of (0,1]");
}

double red_aqm::base_drop_probability(double avg_bytes) const {
  const auto min_d = static_cast<double>(min_th_);
  const auto max_d = static_cast<double>(max_th_);
  if (avg_bytes < min_d) return 0.0;
  if (avg_bytes < max_d) {
    return cfg_.max_prob * (avg_bytes - min_d) / (max_d - min_d);
  }
  if (cfg_.gentle && avg_bytes < 2.0 * max_d) {
    return cfg_.max_prob + (1.0 - cfg_.max_prob) * (avg_bytes - max_d) / max_d;
  }
  return 1.0;
}

void red_aqm::update_average(std::int64_t queued_bytes, time_ns now) {
  if (queued_bytes == 0 && idle_since_ >= 0) {
    // The queue sat empty: decay the average as if m small packets had
    // departed during the idle period.
    const double m = static_cast<double>(now - idle_since_) /
                     static_cast<double>(mean_pkt_time_);
    avg_ *= std::pow(1.0 - cfg_.weight, m);
  } else {
    avg_ = (1.0 - cfg_.weight) * avg_ +
           cfg_.weight * static_cast<double>(queued_bytes);
  }
  idle_since_ = -1;  // an arrival always ends the idle period
}

void red_aqm::on_overflow(const packet&, const aqm_queue_view& q,
                          time_ns now) {
  if (threshold_mode_) return;  // no average to keep honest
  // A forced tail drop is still an arrival: the average keeps tracking the
  // (full) queue and the inter-drop count restarts, exactly as if RED itself
  // had dropped the packet.
  update_average(q.queued_bytes, now);
  count_ = 0;
}

aqm_decision red_aqm::on_arrival(const packet& p, const aqm_queue_view& q,
                                 time_ns now) {
  if (threshold_mode_) {
    // Lowered ecn_threshold: mark ECN-capable packets whenever the
    // instantaneous queue is above the threshold; never drop, keep no
    // average and draw no randomness (the legacy policy's exact behaviour,
    // golden-digest pinned).
    if (cfg_.ecn && p.ecn_capable && q.queued_bytes > min_th_) {
      return aqm_decision::mark;
    }
    return aqm_decision::pass;
  }
  update_average(q.queued_bytes, now);

  if (avg_ < static_cast<double>(min_th_)) {
    count_ = 0;
    return aqm_decision::pass;
  }
  const double pb = base_drop_probability(avg_);
  if (pb >= 1.0) {
    // Forced region: drop regardless of ECN capability.
    count_ = 0;
    return aqm_decision::drop;
  }
  // count_ = packets admitted since the last drop/mark: the first packet
  // after a drop sees pa = pb, the next pb/(1-pb), ..., which makes the
  // inter-drop gap uniform on {1..floor(1/pb)} (Floyd & Jacobson 1993).
  const double cpb = static_cast<double>(count_) * pb;
  ++count_;
  const double pa = cpb >= 1.0 ? 1.0 : pb / (1.0 - cpb);
  if (rng_.uniform() < pa) {
    count_ = 0;
    return cfg_.ecn && p.ecn_capable ? aqm_decision::mark : aqm_decision::drop;
  }
  return aqm_decision::pass;
}

aqm_decision red_aqm::on_dequeue(const packet&, time_ns,
                                 const aqm_queue_view& q, time_ns now) {
  // Only bookkeeping: remember when the queue drains so the next arrival can
  // decay the average over the idle gap.
  if (q.queued_bytes == 0) idle_since_ = now;
  return aqm_decision::pass;
}

// --- CoDel ------------------------------------------------------------------

codel_aqm::codel_aqm(const codel_config& cfg) : cfg_(cfg) {
  util::require(cfg_.target > 0 && cfg_.interval > 0,
                "codel: target and interval must be positive");
}

time_ns codel_aqm::control_law(time_ns t) const {
  return t + static_cast<time_ns>(
                 static_cast<double>(cfg_.interval) /
                 std::sqrt(static_cast<double>(std::max(count_, 1))));
}

bool codel_aqm::ok_to_drop(time_ns sojourn, const aqm_queue_view& q,
                           time_ns now) {
  if (sojourn < cfg_.target || q.queued_bytes < cfg_.mtu_bytes) {
    first_above_time_ = 0;
    return false;
  }
  if (first_above_time_ == 0) {
    first_above_time_ = now + cfg_.interval;
    return false;
  }
  return now >= first_above_time_;
}

aqm_decision codel_aqm::on_arrival(const packet&, const aqm_queue_view&,
                                   time_ns) {
  return aqm_decision::pass;
}

aqm_decision codel_aqm::on_dequeue(const packet& p, time_ns enqueued_at,
                                   const aqm_queue_view& q, time_ns now) {
  const time_ns sojourn = now - enqueued_at;
  const bool ok = ok_to_drop(sojourn, q, now);
  if (dropping_) {
    if (!ok) {
      dropping_ = false;
      return aqm_decision::pass;
    }
    if (now >= drop_next_) {
      ++count_;
      drop_next_ = control_law(drop_next_);
      return cfg_.ecn && p.ecn_capable ? aqm_decision::mark
                                       : aqm_decision::drop;
    }
    return aqm_decision::pass;
  }
  if (ok) {
    dropping_ = true;
    // Re-entering shortly after the last dropping episode resumes near the
    // previous drop rate instead of restarting from one drop per interval.
    const int delta = count_ - lastcount_;
    count_ = (delta > 1 && now - drop_next_ < 16 * cfg_.interval) ? delta : 1;
    drop_next_ = control_law(now);
    lastcount_ = count_;
    return cfg_.ecn && p.ecn_capable ? aqm_decision::mark : aqm_decision::drop;
  }
  return aqm_decision::pass;
}

// --- factory ----------------------------------------------------------------

std::unique_ptr<aqm_policy> make_aqm(const aqm_config& cfg, double link_bps,
                                     std::int64_t capacity_bytes) {
  switch (cfg.discipline) {
    case qdisc::droptail:
      return std::make_unique<droptail_aqm>();
    case qdisc::ecn_threshold: {
      util::require(
          cfg.ecn_threshold_fraction >= 0.0 && cfg.ecn_threshold_fraction <= 1.0,
          "ecn_threshold: fraction out of [0,1]");
      // Lower to degenerate RED (min = max, weight 1): its threshold mode is
      // bit-equivalent to the old standalone ecn_threshold policy.
      red_config ecn;
      ecn.min_fraction = cfg.ecn_threshold_fraction;
      ecn.max_fraction = cfg.ecn_threshold_fraction;
      ecn.weight = 1.0;
      ecn.ecn = true;
      return std::make_unique<red_aqm>(ecn, capacity_bytes, link_bps, cfg.seed);
    }
    case qdisc::red:
      return std::make_unique<red_aqm>(cfg.red, capacity_bytes, link_bps,
                                       cfg.seed);
    case qdisc::codel:
      return std::make_unique<codel_aqm>(cfg.codel);
  }
  util::require(false, "make_aqm: unknown discipline");
  return nullptr;
}

}  // namespace mcc::sim
