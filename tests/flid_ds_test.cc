// FLID-DS integration: the protected protocol must behave like FLID-DL for
// honest receivers (Requirement 4) while DELTA+SIGMA wiring stays invisible.
#include "core/flid_ds.h"

#include <gtest/gtest.h>

#include "exp/testbed.h"

namespace mcc::core {
namespace {

using exp::dumbbell;
using exp::testbed;
using exp::dumbbell_config;
using exp::flid_mode;
using exp::receiver_options;

TEST(flid_ds, sender_bundle_wires_hook_and_tagging) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_NE(session.ds.delta, nullptr);
  EXPECT_NE(session.ds.emitter, nullptr);
  EXPECT_TRUE(d.net().is_sigma_protected(session.config.group(1)));
  EXPECT_TRUE(
      d.net().is_sigma_protected(session.config.group(session.config.num_groups)));
}

TEST(flid_ds, honest_receiver_matches_dl_throughput) {
  // Same bottleneck, one FLID-DL run and one FLID-DS run: average
  // throughputs must be comparable (paper Figure 8(c)).
  double dl_kbps;
  double ds_kbps;
  {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::dl, {receiver_options{}});
    d.run_until(sim::seconds(200.0));
    dl_kbps = s.receiver().monitor().average_kbps(sim::seconds(50.0),
                                                  sim::seconds(200.0));
  }
  {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 250e3;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
    d.run_until(sim::seconds(200.0));
    ds_kbps = s.receiver().monitor().average_kbps(sim::seconds(50.0),
                                                  sim::seconds(200.0));
  }
  EXPECT_GT(dl_kbps, 100.0);
  EXPECT_GT(ds_kbps, 100.0);
  EXPECT_NEAR(ds_kbps, dl_kbps, 0.35 * dl_kbps);
}

TEST(flid_ds, ds_overhead_stays_small) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(100.0));
  const auto& em = s.ds.emitter->stats();
  const auto& snd = s.sender->stats();
  ASSERT_GT(snd.data_bytes, 0);
  const double sigma_ratio =
      static_cast<double>(em.ctrl_bytes) / static_cast<double>(snd.data_bytes);
  // Paper Figure 9: SIGMA overhead under 0.6% of data traffic. Our control
  // packets carry simulator framing, so allow some slack — but the order of
  // magnitude must hold.
  EXPECT_LT(sigma_ratio, 0.05);
}

TEST(flid_ds, misbehaving_receiver_before_attack_behaves_honestly) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  receiver_options opt;
  opt.attack = adversary::inflate_once(sim::seconds(1e6));  // never triggers
  auto& s = d.add_flid_session(flid_mode::ds, {opt});
  d.run_until(sim::seconds(60.0));
  EXPECT_EQ(s.receiver().level(), s.config.num_groups);
  EXPECT_EQ(d.sigma().stats().invalid_keys, 0u);
}

TEST(flid_ds, replay_attack_is_rejected) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3;  // congested: honest level ~3
  testbed d(dumbbell(cfg));
  receiver_options attacker;
  attacker.attack = adversary::inflate_once(
      sim::seconds(30.0), misbehaving_sigma_strategy::key_mode::replay);
  auto& s = d.add_flid_session(flid_mode::ds, {attacker});
  d.run_until(sim::seconds(120.0));
  // Replayed (stale-slot) keys never validate: invalid submissions pile up
  // and throughput stays at the fair share.
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);
  const double after = s.receiver().monitor().average_kbps(
      sim::seconds(60.0), sim::seconds(120.0));
  EXPECT_LT(after, 300.0);
}

TEST(flid_ds, interface_keying_roundtrip_when_both_sides_enabled) {
  // Collusion countermeasure: receiver perturbs its keys, router validates
  // the perturbed image — an honest receiver still works.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  d.sigma().set_interface_keying(true);
  auto strategy = std::make_unique<honest_sigma_strategy>();
  strategy->set_interface_keying(true);

  flid::flid_config fc = d.default_flid_config(flid_mode::ds);
  fc.session_id = 77;
  fc.group_addr_base = 30'000;
  const auto sender_host = d.attach_host("if_src", "l");
  flid::flid_sender sender(d.net(), sender_host, fc, 42);
  auto ds = make_flid_ds_sender(d.net(), sender_host, sender, 43);
  sender.start(0);

  const auto rcv_host = d.attach_host("if_rcv", "r");
  flid::flid_receiver receiver(d.net(), rcv_host, d.router("r"), fc,
                               std::move(strategy));
  receiver.start(0);
  d.run_until(sim::seconds(60.0));
  EXPECT_GE(receiver.level(), 5);
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
}

TEST(flid_ds, interface_keying_blocks_unperturbed_keys) {
  // Receiver does NOT perturb; router expects perturbed keys -> every
  // submission is invalid and the receiver is repeatedly cut off. This is
  // exactly what a colluder replaying another interface's keys experiences.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  d.sigma().set_interface_keying(true);
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(30.0));
  EXPECT_GT(d.sigma().stats().invalid_keys, 0u);
  EXPECT_LT(s.receiver().level(), s.config.num_groups);
}

}  // namespace
}  // namespace mcc::core
