// SIGMA edge-router behaviour: control-packet decoding, key validation,
// grace windows, probation, stale pruning, and attack containment.
#include "core/sigma_router.h"

#include <gtest/gtest.h>

#include "core/flid_ds.h"
#include "exp/testbed.h"

namespace mcc::core {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

struct sigma_fixture : ::testing::Test {
  sigma_fixture() {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 10e6;  // uncongested unless a test says otherwise
    d = std::make_unique<testbed>(dumbbell(cfg));
  }
  std::unique_ptr<testbed> d;
};

TEST_F(sigma_fixture, ctrl_blocks_decode_at_router) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(5.0));
  EXPECT_GT(d->sigma().stats().ctrl_shards, 0u);
  EXPECT_GT(d->sigma().stats().blocks_decoded, 0u);
  (void)session;
}

TEST_F(sigma_fixture, honest_receiver_is_admitted_and_climbs) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(60.0));
  EXPECT_EQ(session.receiver().level(), session.config.num_groups);
  EXPECT_GT(d->sigma().stats().valid_keys, 0u);
  EXPECT_EQ(d->sigma().stats().invalid_keys, 0u);
}

TEST_F(sigma_fixture, subscription_messages_flow_every_slot) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(20.0));
  // One subscription per evaluated slot (~4 slots/s at 250 ms).
  EXPECT_GT(d->sigma().stats().subscribe_msgs, 10u);
  (void)session;
}

TEST_F(sigma_fixture, raw_igmp_join_to_protected_group_is_refused) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  // A fresh host tries to IGMP-join group 5 of the protected session.
  const auto intruder = d->attach_host("intruder", "r");
  mcast::membership_client client(d->net(), intruder, d->router("r"));
  d->sched().at(sim::seconds(1.0),
                [&] { client.join(session.config.group(5)); });
  d->run_until(sim::seconds(10.0));
  // The intruder host received nothing.
  EXPECT_EQ(d->net().get(intruder)->stats().delivered_local, 0u);
}

TEST_F(sigma_fixture, session_join_lying_about_minimal_group_is_refused) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto intruder = d->attach_host("liar", "r");
  d->net().get(intruder)->host_join(session.config.group(8));
  d->sched().at(sim::seconds(1.0), [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    // Claim the high-rate group 8 is "minimal".
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(8)};
    d->net().get(intruder)->send(std::move(p));
  });
  d->run_until(sim::seconds(10.0));
  EXPECT_GT(d->sigma().stats().session_joins_refused, 0u);
  EXPECT_EQ(d->net().get(intruder)->stats().delivered_local, 0u);
}

TEST_F(sigma_fixture, keyless_session_join_gets_grace_then_cutoff) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  // A receiver that session-joins but never submits keys: gets the minimal
  // group for the grace window, then is cut off (probation block).
  const auto freeloader = d->attach_host("freeloader", "r");
  d->net().get(freeloader)->host_join(session.config.group(1));
  d->sched().at(sim::seconds(2.0), [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d->net().get(freeloader)->send(std::move(p));
  });
  d->run_until(sim::seconds(20.0));
  // It received the grace window's worth of packets...
  EXPECT_GT(d->net().get(freeloader)->stats().delivered_local, 0u);
  // ...but was then blocked.
  EXPECT_GT(d->sigma().stats().probation_blocks, 0u);
  // Grace is ~3 slots of the ~5.4 packet/slot minimal group: the freeloader
  // must not have kept receiving for the whole 18 s.
  EXPECT_LT(d->net().get(freeloader)->stats().delivered_local, 60u);
}

TEST_F(sigma_fixture, random_key_guessing_fails_and_is_tallied) {
  receiver_options attacker;
  attacker.attack = adversary::inflate_once(
      sim::seconds(5.0), misbehaving_sigma_strategy::key_mode::guess);
  auto& session = d->add_flid_session(flid_mode::ds, {attacker});
  d->run_until(sim::seconds(30.0));
  EXPECT_GT(d->sigma().stats().invalid_keys, 0u);
  // The attacker still reaches the top in an *uncongested* network — that is
  // its honest entitlement; guessing added nothing (all guesses invalid).
  (void)session;
  sim::link* iface = d->net().next_hop(
      d->router("r"), session.receivers.front()->host());
  EXPECT_GT(d->sigma().guess_tally(iface), 0u);
}

TEST_F(sigma_fixture, stale_authorization_is_pruned) {
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  d->run_until(sim::seconds(20.0));
  const auto before = d->net().get(d->router("r"))->stats().policy_denied;
  // Destroy the receiver so no more subscriptions arrive; the router must
  // prune within ~2 slots.
  session.receivers.clear();
  d->run_until(sim::seconds(30.0));
  EXPECT_GT(d->sigma().stats().stale_prunes, 0u);
  // After pruning, denials stop growing (traffic no longer reaches it).
  const auto mid = d->net().get(d->router("r"))->stats().policy_denied;
  d->run_until(sim::seconds(40.0));
  const auto after = d->net().get(d->router("r"))->stats().policy_denied;
  EXPECT_LE(after - mid, mid - before + 8);
}

TEST_F(sigma_fixture, guess_tally_decays_instead_of_accumulating) {
  // Regression for the unbounded guess_tally_ map: the tally is windowed by
  // slot, so a long run of steady guessing keeps a bounded recent count while
  // the cumulative invalid_keys counter grows with run length.
  receiver_options attacker;
  attacker.attack = adversary::inflate_once(
      sim::seconds(5.0), misbehaving_sigma_strategy::key_mode::guess);
  auto& session = d->add_flid_session(flid_mode::ds, {attacker});
  d->run_until(sim::seconds(40.0));
  sim::link* iface = d->net().next_hop(
      d->router("r"), session.receivers.front()->host());
  const std::uint64_t tally = d->sigma().guess_tally(iface);
  EXPECT_GT(tally, 0u);
  // ~35 s of guessing spans ~140 slots; the windowed tally must reflect only
  // the trailing handful of them, not the whole run.
  EXPECT_LT(2 * tally, d->sigma().stats().invalid_keys);
}

namespace {
/// Records the shim-tag slot of every data packet delivered to its host.
struct slot_recorder final : sim::agent {
  std::set<std::int64_t> seen;
  bool handle_packet(const sim::packet& p, sim::link*) override {
    if (p.tag.has_value()) seen.insert(p.tag->slot);
    return false;
  }
};
}  // namespace

TEST_F(sigma_fixture, probation_block_silences_at_least_one_complete_slot) {
  // Boundary pin for the ">= one time slot" cutoff of section 3.2.2: however
  // aggressively a keyless freeloader rejoins the moment its block expires,
  // every probation block must leave at least one tagged slot with zero
  // deliveries. A blocked_until that undershot the slot boundary would let
  // the rejoin's grace window reach back into the deny slot and shrink the
  // gap below one slot.
  auto& session = d->add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d->attach_host("freeloader", "r");
  d->net().get(freeloader)->host_join(session.config.group(1));
  slot_recorder rec;
  d->net().get(freeloader)->add_agent(&rec);

  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d->router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d->net().get(freeloader)->send(std::move(p));
  };
  d->sched().at(sim::seconds(2.0), send_join);
  // Poll-driven rejoiner: once a probation block fires, hammer session-joins
  // every 10 ms until one is admitted (joins during the block are refused and
  // change nothing), so re-admission lands within 10 ms of block expiry.
  std::uint64_t blocks_seen = 0;
  std::uint64_t joins_seen = 0;
  bool hammering = false;
  const auto poll = [&] {
    const auto& st = d->sigma().stats();
    if (st.probation_blocks > blocks_seen) {
      blocks_seen = st.probation_blocks;
      hammering = true;
    }
    if (st.session_joins > joins_seen) {
      joins_seen = st.session_joins;
      hammering = false;
    }
    if (hammering) send_join();
  };
  for (int k = 0; k < 1800; ++k) {
    d->sched().at(sim::seconds(2.0) + k * sim::milliseconds(10), poll);
  }
  d->run_until(sim::seconds(20.0));

  // Several grace -> block -> instant-rejoin cycles ran...
  EXPECT_GE(d->sigma().stats().probation_blocks, 3u);
  EXPECT_GE(d->sigma().stats().session_joins_refused, 1u);
  // ...and every cycle boundary skips the deny slot entirely: consecutive
  // delivered tags across a block always differ by >= 2 (the denied slot is
  // completely silent), and there are at least as many such gaps as cycles
  // minus the final (possibly truncated) one.
  const std::vector<std::int64_t> tags(rec.seen.begin(), rec.seen.end());
  ASSERT_GT(tags.size(), 3u);
  std::uint64_t gaps = 0;
  for (std::size_t i = 1; i < tags.size(); ++i) {
    if (tags[i] - tags[i - 1] > 1) {
      ++gaps;
      EXPECT_GE(tags[i] - tags[i - 1], 2);
    }
  }
  EXPECT_GE(gaps + 1, d->sigma().stats().probation_blocks);
  EXPECT_GE(gaps, 3u);
}

TEST(sigma_router_memory, rejoin_inherits_debt_and_still_blocked_means_refused) {
  // The adaptive_churn loophole, closed: unsubscribing mid-grace no longer
  // wipes the probation debt. A rejoin within the memory window inherits it
  // (no fresh grace), the cutoff escalates with each keyless rejoin, and a
  // join while a remembered cutoff is still running is refused outright.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 8;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d.attach_host("freeloader", "r");
  d.net().get(freeloader)->host_join(session.config.group(1));
  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d.net().get(freeloader)->send(std::move(p));
  };
  const auto send_unsub = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_unsubscribe{session.config.session_id,
                                   {session.config.group(1)}};
    d.net().get(freeloader)->send(std::move(p));
  };
  // The churn cycle, hand-scripted (slots are 250 ms):
  //   2.00  join            -> fresh grace window, packets flow
  //   2.30  unsubscribe     -> mid-grace wipe; debt (pending probation) is
  //                            remembered instead of vanishing
  //   2.60  join            -> inherits: NO fresh grace, first packet converts
  //                            to a 1-slot cutoff (k: 0 -> 1)
  //   3.20  unsubscribe     -> cutoff served but k = 1 is remembered
  //   3.40  join            -> inherits k = 1: graceless, first packet
  //                            converts to an escalated 2-slot cutoff (~0.5 s)
  //   3.60  unsubscribe     -> cutoff still running; remembered with deadline
  //   3.75  join            -> remembered cutoff still active: refused
  //                            (an unescalated 1-slot cutoff would already
  //                            have expired by now)
  d.sched().at(sim::seconds(2.0), send_join);
  d.sched().at(sim::seconds(2.3), send_unsub);
  d.sched().at(sim::seconds(2.6), send_join);
  d.sched().at(sim::seconds(3.2), send_unsub);
  d.sched().at(sim::seconds(3.4), send_join);
  d.sched().at(sim::seconds(3.6), send_unsub);
  d.sched().at(sim::seconds(3.75), send_join);
  d.run_until(sim::seconds(8.0));

  const auto& sg = d.sigma().stats();
  EXPECT_GE(sg.memory_records, 3u);
  EXPECT_GE(sg.memory_inherits, 2u);
  EXPECT_GE(sg.memory_refusals, 1u);
  EXPECT_GE(sg.probation_blocks, 2u);
  // Only the first window's packets ever arrived: the inherited rejoins were
  // graceless.
  const auto delivered = d.net().get(freeloader)->stats().delivered_local;
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 30u);
  (void)session;
}

TEST(sigma_router_memory, debt_expires_after_the_memory_window) {
  // The memory is a window, not a life sentence: a rejoin after
  // probation_memory_slots slots past the served cutoff starts a fresh grace
  // window again (the record was lazily GC'd).
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.probation_memory_slots = 4;  // 1 s at 250 ms slots
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  const auto freeloader = d.attach_host("freeloader", "r");
  d.net().get(freeloader)->host_join(session.config.group(1));
  const auto send_join = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_session_join{session.config.session_id,
                                    session.config.group(1)};
    d.net().get(freeloader)->send(std::move(p));
  };
  const auto send_unsub = [&] {
    sim::packet p;
    p.size_bytes = 20;
    p.dst = sim::dest::to_node(d.router("r"));
    p.hdr = sim::sigma_unsubscribe{session.config.session_id,
                                   {session.config.group(1)}};
    d.net().get(freeloader)->send(std::move(p));
  };
  d.sched().at(sim::seconds(2.0), send_join);
  d.sched().at(sim::seconds(2.3), send_unsub);  // mid-grace debt remembered
  const auto before_window = [&] {
    return d.net().get(freeloader)->stats().delivered_local;
  };
  std::uint64_t delivered_at_rejoin = 0;
  d.sched().at(sim::seconds(5.0), [&] {
    delivered_at_rejoin = before_window();
    send_join();  // 2.7 s > 4-slot window past the wipe: debt expired
  });
  d.run_until(sim::seconds(6.2));

  EXPECT_GE(d.sigma().stats().memory_records, 1u);
  EXPECT_EQ(d.sigma().stats().memory_inherits, 0u);
  EXPECT_EQ(d.sigma().stats().memory_refusals, 0u);
  // The late rejoin got a fresh grace window: packets flowed again.
  EXPECT_GT(d.net().get(freeloader)->stats().delivered_local,
            delivered_at_rejoin);
  (void)session;
}

TEST(sigma_router, unsubscribes_accompany_downgrades_under_congestion) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;  // the session must repeatedly shed layers
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  EXPECT_GT(session.receiver().stats().downgrades, 0u);
  EXPECT_GT(d.sigma().stats().unsubscribes, 0u);
}

}  // namespace
}  // namespace mcc::core
