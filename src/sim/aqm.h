// Pluggable active-queue-management policies for sim::link.
//
// A link delegates every per-packet queue decision to an aqm_policy: arriving
// packets are offered to on_arrival() (early drop / ECN mark / admit) and the
// head-of-line packet is offered to on_dequeue() just before serialization
// (CoDel's sojourn-time control law lives there). The link keeps one hard
// invariant for every policy — a packet never enters a queue beyond
// queue_capacity_bytes — so a policy only shapes behaviour *below* the
// physical limit and can never overflow the buffer.
//
// Four disciplines ship:
//   * droptail       — no early action; the link's capacity backstop is the
//                      only drop source (the seed simulator's behaviour).
//   * ecn_threshold  — drop-tail + mark ECN-capable packets above a fixed
//                      occupancy fraction (the simplified queue the paper's
//                      DELTA ECN variant runs against, section 3.1.2). Not a
//                      separate class: make_aqm lowers it to degenerate RED
//                      (min_th == max_th, weight 1), whose threshold mode is
//                      bit-equivalent — pure instantaneous-queue marking, no
//                      EWMA, no drops, no RNG draws.
//   * red            — Random Early Detection (Floyd & Jacobson 1993, ns-2
//                      flavour): EWMA average queue, min/max thresholds,
//                      count-based drop probability, optional gentle mode.
//                      Probabilistic decisions come from the link's seeded
//                      PRNG, so runs are bit-reproducible.
//   * codel          — Controlled Delay (Nichols & Jacobson 2012): per-packet
//                      sojourn time against a target, interval-gated entry
//                      into a dropping state whose drops are spaced by
//                      interval / sqrt(count).
//
// All state is per-link and all randomness is seeded, so AQM decisions are
// bit-identical across exp::sweep --jobs counts and across repeated runs.
#ifndef MCC_SIM_AQM_H
#define MCC_SIM_AQM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "crypto/prng.h"
#include "sim/time.h"
#include "sim/wire.h"

namespace mcc::sim {

/// Queueing discipline selector for a link's output buffer.
enum class qdisc {
  droptail,
  ecn_threshold,
  red,
  codel,
};

/// Canonical flag spelling ("droptail", "ecn", "red", "codel").
[[nodiscard]] const char* qdisc_name(qdisc d);
/// Inverse of qdisc_name; nullopt on unknown.
[[nodiscard]] std::optional<qdisc> qdisc_from_name(const std::string& name);

/// RED parameters. Thresholds may be given in bytes, or left 0 to be derived
/// from the link's queue capacity via the *_fraction fields when the policy
/// is instantiated — so the defaults track whatever capacity the link picked
/// (including the 2-BDP auto-size).
struct red_config {
  std::int64_t min_bytes = 0;  // 0 = min_fraction * capacity
  std::int64_t max_bytes = 0;  // 0 = max_fraction * capacity
  double min_fraction = 0.15;
  double max_fraction = 0.5;
  double max_prob = 0.1;   // max_p: drop probability as avg reaches max_th
  double weight = 0.002;   // EWMA weight w_q
  bool gentle = true;      // ramp to certain drop over [max_th, 2*max_th]
  bool ecn = true;         // mark ECN-capable packets instead of dropping
};

/// CoDel parameters (RFC 8289 defaults).
struct codel_config {
  time_ns target = milliseconds(5);     // acceptable standing sojourn time
  time_ns interval = milliseconds(100); // sliding window for the target
  std::int64_t mtu_bytes = 1500;        // exit dropping below one MTU queued
  bool ecn = true;                      // mark ECN-capable instead of dropping
};

/// Everything a link needs to instantiate its queue policy.
struct aqm_config {
  qdisc discipline = qdisc::droptail;
  /// ecn_threshold: mark ECN-capable packets above this occupancy fraction.
  double ecn_threshold_fraction = 0.5;
  red_config red;
  codel_config codel;
  /// PRNG stream seed for probabilistic policies. The network mixes a
  /// per-link counter into this when the link is created, so links sharing a
  /// config still draw independent (but reproducible) streams.
  std::uint64_t seed = 0;
};

/// Queue occupancy snapshot handed to policy hooks. At on_arrival the packet
/// under decision is NOT yet included; at on_dequeue the departing packet has
/// already been removed (queued_bytes is what remains behind it).
struct aqm_queue_view {
  std::int64_t queued_bytes = 0;
  std::int64_t capacity_bytes = 0;
};

/// Outcome of a policy hook. At arrival: pass = enqueue, mark = enqueue with
/// CE set (only honoured for ECN-capable packets), drop = reject. At
/// dequeue: pass = serialize, mark = serialize with CE set, drop = discard
/// the head packet and consult the policy about the next one.
enum class aqm_decision { pass, mark, drop };

class aqm_policy {
 public:
  virtual ~aqm_policy() = default;

  /// Offered every packet that fits the physical buffer, before it is queued.
  [[nodiscard]] virtual aqm_decision on_arrival(const packet& p,
                                                const aqm_queue_view& q,
                                                time_ns now) = 0;

  /// Offered the head-of-line packet as it leaves the queue for the wire.
  /// `enqueued_at` is the packet's arrival time (sojourn = now - enqueued_at).
  /// Default: deliver untouched (drop-tail, ECN-threshold, RED).
  [[nodiscard]] virtual aqm_decision on_dequeue(const packet& p,
                                                time_ns enqueued_at,
                                                const aqm_queue_view& q,
                                                time_ns now);

  /// Informs the policy of an arrival the link tail-dropped at the physical
  /// capacity backstop (such packets never reach on_arrival). RED keeps its
  /// average-queue estimate and drop count honest here — the Floyd-Jacobson
  /// law updates avg on every arrival, dropped or not. Default: ignore.
  virtual void on_overflow(const packet& p, const aqm_queue_view& q,
                           time_ns now);

  /// The policy's smoothed queue estimate in bytes (RED's EWMA average);
  /// negative when the policy keeps none.
  [[nodiscard]] virtual double smoothed_queue_bytes() const { return -1.0; }

  [[nodiscard]] virtual qdisc kind() const = 0;
};

/// No early action; the link's capacity backstop provides the tail drops.
class droptail_aqm final : public aqm_policy {
 public:
  [[nodiscard]] aqm_decision on_arrival(const packet& p, const aqm_queue_view& q,
                                        time_ns now) override;
  [[nodiscard]] qdisc kind() const override { return qdisc::droptail; }
};

/// Random Early Detection, ns-2 flavour.
///
/// Average queue: avg <- (1-w)*avg + w*q on every arrival; across an idle
/// period the average decays by (1-w)^m where m is the idle time divided by
/// the mean transmission time of a nominal packet.
///
/// Drop law: below min_th nothing drops (count resets); between min_th and
/// max_th the base probability pb = max_p*(avg-min)/(max-min) is corrected by
/// the packets-since-last-drop count, pa = pb/(1 - count*pb), which makes
/// inter-drop gaps uniform on {1..1/pb} (mean gap (1+1/pb)/2, so the
/// steady-state drop rate is 2*pb/(1+pb)); in gentle mode the probability
/// ramps linearly from max_p to 1 over [max_th, 2*max_th]; beyond that every
/// packet drops. ECN-capable packets are marked instead of dropped in the
/// probabilistic regions but still drop in the forced region.
///
/// Threshold mode: with min_th == max_th the policy degenerates to the
/// paper's simplified ECN queue — mark ECN-capable packets whenever the
/// instantaneous queue exceeds the threshold, never drop, keep no average
/// and draw no randomness. kind() reports qdisc::ecn_threshold in that mode
/// so factory round-trips are preserved.
class red_aqm final : public aqm_policy {
 public:
  red_aqm(const red_config& cfg, std::int64_t capacity_bytes, double link_bps,
          std::uint64_t seed);
  [[nodiscard]] aqm_decision on_arrival(const packet& p, const aqm_queue_view& q,
                                        time_ns now) override;
  [[nodiscard]] aqm_decision on_dequeue(const packet& p, time_ns enqueued_at,
                                        const aqm_queue_view& q,
                                        time_ns now) override;
  void on_overflow(const packet& p, const aqm_queue_view& q,
                   time_ns now) override;
  [[nodiscard]] double smoothed_queue_bytes() const override {
    return threshold_mode_ ? -1.0 : avg_;
  }
  [[nodiscard]] qdisc kind() const override {
    return threshold_mode_ ? qdisc::ecn_threshold : qdisc::red;
  }

  [[nodiscard]] std::int64_t min_threshold_bytes() const { return min_th_; }
  [[nodiscard]] std::int64_t max_threshold_bytes() const { return max_th_; }
  /// Base (pre-count-correction) drop probability at a given average queue;
  /// exposed so conformance tests can hand-compute the expected law.
  [[nodiscard]] double base_drop_probability(double avg_bytes) const;

 private:
  void update_average(std::int64_t queued_bytes, time_ns now);

  red_config cfg_;
  std::int64_t min_th_;
  std::int64_t max_th_;
  /// min_th == max_th: pure threshold marking (the lowered ecn_threshold).
  bool threshold_mode_ = false;
  double avg_ = 0.0;
  /// Packets admitted since the last drop/mark (reset below min_th).
  int count_ = 0;
  /// Start of the current idle period, or a negative sentinel while busy.
  time_ns idle_since_ = 0;
  time_ns mean_pkt_time_;
  crypto::prng rng_;
};

/// Controlled Delay. All decisions happen at dequeue: once the head packet's
/// sojourn time has exceeded `target` continuously for `interval`, the policy
/// enters a dropping state and discards (or CE-marks) head packets at times
/// spaced by interval/sqrt(count); it leaves the state as soon as a head
/// packet's sojourn is back under target (or the queue holds less than one
/// MTU). control_law() is public so tests can hand-compute the spacing.
class codel_aqm final : public aqm_policy {
 public:
  explicit codel_aqm(const codel_config& cfg);
  [[nodiscard]] aqm_decision on_arrival(const packet& p, const aqm_queue_view& q,
                                        time_ns now) override;
  [[nodiscard]] aqm_decision on_dequeue(const packet& p, time_ns enqueued_at,
                                        const aqm_queue_view& q,
                                        time_ns now) override;
  [[nodiscard]] qdisc kind() const override { return qdisc::codel; }

  [[nodiscard]] bool dropping() const { return dropping_; }
  [[nodiscard]] int drop_count() const { return count_; }
  /// Next-drop schedule: t + interval / sqrt(count).
  [[nodiscard]] time_ns control_law(time_ns t) const;

 private:
  [[nodiscard]] bool ok_to_drop(time_ns sojourn, const aqm_queue_view& q,
                                time_ns now);

  codel_config cfg_;
  time_ns first_above_time_ = 0;  // 0 = sojourn not continuously above target
  time_ns drop_next_ = 0;
  int count_ = 0;
  int lastcount_ = 0;
  bool dropping_ = false;
};

/// Instantiates the configured policy for a link with the given capacity and
/// rate (RED derives byte thresholds and its idle-decay granularity here).
[[nodiscard]] std::unique_ptr<aqm_policy> make_aqm(const aqm_config& cfg,
                                                   double link_bps,
                                                   std::int64_t capacity_bytes);

}  // namespace mcc::sim

#endif  // MCC_SIM_AQM_H
