#include "scorer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

using scrubber::flowgen::AttackEvent;
using scrubber::net::Ipv4Address;

const Ipv4Address kVictim = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kOther = Ipv4Address::from_octets(10, 0, 0, 2);

/// One blackholed attack on kVictim over minutes [100, 110), announced at
/// minute 104, with 20 flows per minute.
AttackEvent announced_attack(TargetMinuteFlows& flows) {
  AttackEvent attack;
  attack.victim = kVictim;
  attack.start_minute = 100;
  attack.end_minute = 110;
  attack.announces_blackhole = true;
  attack.announce_minute = 104;
  attack.withdraw_minute = 120;
  for (std::uint32_t m = 100; m < 110; ++m) flows.add(kVictim, m, 20);
  return attack;
}

ScoreWindow window() {
  ScoreWindow w;
  w.first_minute = 50;
  w.end_minute = 200;
  w.min_flows_per_target = 8;
  w.beta = 0.5;
  return w;
}

TEST(Scorer, DetectionBeforeAnnouncementIsTruePositive) {
  TargetMinuteFlows flows;
  const std::vector<AttackEvent> attacks = {announced_attack(flows)};
  const std::vector<DetectionKey> detections = {{kVictim, 101}};
  const QualityScore score =
      score_detections(detections, attacks, flows, window());
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
  EXPECT_EQ(score.attack_minutes, 10u);
  EXPECT_DOUBLE_EQ(score.recall, 0.1);
}

TEST(Scorer, DetectionAfterAttackEndsIsFalsePositive) {
  TargetMinuteFlows flows;
  const std::vector<AttackEvent> attacks = {announced_attack(flows)};
  // Minute 110 is the exclusive end; the blackhole is still announced
  // there, but the attack is over.
  const std::vector<DetectionKey> detections = {{kVictim, 109},
                                                {kVictim, 110}};
  const QualityScore score =
      score_detections(detections, attacks, flows, window());
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_DOUBLE_EQ(score.precision, 0.5);
  EXPECT_EQ(score.attack_minutes_detected, 1u);
}

TEST(Scorer, SpuriousBlackholeTargetIsFalsePositive) {
  TargetMinuteFlows flows;
  const std::vector<AttackEvent> attacks = {announced_attack(flows)};
  // kOther was blackholed by an operator without any attack: it is not in
  // the attack schedule, so flagging it is wrong whatever its label says.
  flows.add(kOther, 105, 50);
  const std::vector<DetectionKey> detections = {{kOther, 105}};
  const QualityScore score =
      score_detections(detections, attacks, flows, window());
  EXPECT_EQ(score.true_positives, 0u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_DOUBLE_EQ(score.precision, 0.0);
  EXPECT_DOUBLE_EQ(score.recall, 0.0);
  EXPECT_DOUBLE_EQ(score.f_beta, 0.0);
}

TEST(Scorer, AttackBelowMinFlowsLeavesRecallDenominator) {
  TargetMinuteFlows flows;
  std::vector<AttackEvent> attacks = {announced_attack(flows)};
  AttackEvent small;
  small.victim = kOther;
  small.start_minute = 130;
  small.end_minute = 134;
  for (std::uint32_t m = 130; m < 134; ++m) flows.add(kOther, m, 7);
  attacks.push_back(small);

  std::vector<DetectionKey> detections;
  for (std::uint32_t m = 100; m < 110; ++m) detections.push_back({kVictim, m});
  const QualityScore score =
      score_detections(detections, attacks, flows, window());
  EXPECT_EQ(score.attacks_scored, 1u);
  EXPECT_EQ(score.attack_minutes, 10u);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
  EXPECT_DOUBLE_EQ(score.f_beta, 1.0);
}

TEST(Scorer, WarmupMinutesAndDuplicatesAreNotCounted) {
  TargetMinuteFlows flows;
  const std::vector<AttackEvent> attacks = {announced_attack(flows)};
  ScoreWindow w = window();
  w.first_minute = 105;  // the model only exists from minute 105 on
  const std::vector<DetectionKey> detections = {
      {kVictim, 106}, {kVictim, 106}, {kVictim, 107}};
  const QualityScore score = score_detections(detections, attacks, flows, w);
  EXPECT_EQ(score.detections, 2u);
  EXPECT_EQ(score.attack_minutes, 5u);
  EXPECT_DOUBLE_EQ(score.recall, 0.4);
  // F_0.5 weighs precision over recall: (1.25 * 1 * 0.4) / (0.25 + 0.4).
  EXPECT_NEAR(score.f_beta, 0.5 / 0.65, 1e-12);
}

}  // namespace
}  // namespace perfbench
