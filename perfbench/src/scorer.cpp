#include "scorer.hpp"

#include <unordered_set>

namespace perfbench {

void TargetMinuteFlows::add(scrubber::net::Ipv4Address target,
                            std::uint32_t minute, std::uint32_t flows) {
  counts_[key(target, minute)] += flows;
}

std::uint32_t TargetMinuteFlows::get(scrubber::net::Ipv4Address target,
                                     std::uint32_t minute) const {
  const auto it = counts_.find(key(target, minute));
  return it == counts_.end() ? 0 : it->second;
}

QualityScore score_detections(
    std::span<const DetectionKey> detections,
    std::span<const scrubber::flowgen::AttackEvent> attacks,
    const TargetMinuteFlows& flows, const ScoreWindow& window) {
  const auto key = [](scrubber::net::Ipv4Address target, std::uint32_t minute) {
    return (std::uint64_t{target.value()} << 32) | minute;
  };

  // Every minute some attack was running on its victim (overlapping
  // attacks on one victim count once), and the detectable subset.
  std::unordered_set<std::uint64_t> attacked;
  std::unordered_set<std::uint64_t> detectable;
  QualityScore score;
  for (const auto& attack : attacks) {
    bool scored = false;
    for (std::uint32_t m = attack.start_minute; m < attack.end_minute; ++m) {
      attacked.insert(key(attack.victim, m));
      if (m < window.first_minute || m >= window.end_minute) continue;
      if (flows.get(attack.victim, m) < window.min_flows_per_target) continue;
      detectable.insert(key(attack.victim, m));
      scored = true;
    }
    if (scored) ++score.attacks_scored;
  }
  score.attack_minutes = detectable.size();

  std::unordered_set<std::uint64_t> seen;
  for (const auto& detection : detections) {
    const std::uint64_t k = key(detection.target, detection.minute);
    if (!seen.insert(k).second) continue;
    ++score.detections;
    if (attacked.contains(k)) {
      ++score.true_positives;
      if (detectable.contains(k)) ++score.attack_minutes_detected;
    } else {
      ++score.false_positives;
    }
  }

  if (score.detections > 0) {
    score.precision = static_cast<double>(score.true_positives) /
                      static_cast<double>(score.detections);
  }
  if (score.attack_minutes > 0) {
    score.recall = static_cast<double>(score.attack_minutes_detected) /
                   static_cast<double>(score.attack_minutes);
  }
  const double b2 = window.beta * window.beta;
  const double denominator = b2 * score.precision + score.recall;
  if (denominator > 0.0) {
    score.f_beta = (1.0 + b2) * score.precision * score.recall / denominator;
  }
  return score;
}

}  // namespace perfbench
