#pragma once
// Ground-truth scorer: detections (target, minute) against the generator's
// attack schedule, the IXmon-style per-victim, per-minute view.
//
// Ground truth is the attack itself, not the blackhole label that trains
// the model: a detection inside [start_minute, end_minute) of an attack on
// that target is a true positive even if the victim had not announced a
// blackhole yet; a detection after the attack ended, or on a target that
// was blackholed without being attacked, is a false positive.
//
// Recall counts attack-minutes the detector could have flagged: inside the
// scored range (after warmup) and carrying at least `min_flows_per_target`
// flows towards the victim, the detector's own traffic threshold.

#include <cstdint>
#include <span>
#include <unordered_map>

#include "flowgen/generator.hpp"
#include "net/ipv4.hpp"

namespace perfbench {

/// One detection, reduced to what the scorer joins on.
struct DetectionKey {
  scrubber::net::Ipv4Address target;
  std::uint32_t minute = 0;
};

/// Flows per (target, minute) in the generated trace, kept for attack
/// victims only.
class TargetMinuteFlows {
 public:
  void add(scrubber::net::Ipv4Address target, std::uint32_t minute,
           std::uint32_t flows = 1);
  [[nodiscard]] std::uint32_t get(scrubber::net::Ipv4Address target,
                                  std::uint32_t minute) const;

 private:
  static std::uint64_t key(scrubber::net::Ipv4Address target,
                           std::uint32_t minute) noexcept {
    return (std::uint64_t{target.value()} << 32) | minute;
  }
  std::unordered_map<std::uint64_t, std::uint32_t> counts_;
};

struct ScoreWindow {
  std::uint32_t first_minute = 0;  ///< first scored minute (end of warmup)
  std::uint32_t end_minute = 0;    ///< exclusive
  std::uint32_t min_flows_per_target = 8;
  double beta = 0.5;
};

struct QualityScore {
  std::uint64_t detections = 0;       ///< distinct (target, minute) pairs
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t attack_minutes = 0;   ///< detectable, in the scored range
  std::uint64_t attack_minutes_detected = 0;
  std::uint64_t attacks_scored = 0;   ///< attacks with >= 1 detectable minute
  double precision = 0.0;
  double recall = 0.0;
  double f_beta = 0.0;
};

[[nodiscard]] QualityScore score_detections(
    std::span<const DetectionKey> detections,
    std::span<const scrubber::flowgen::AttackEvent> attacks,
    const TargetMinuteFlows& flows, const ScoreWindow& window);

}  // namespace perfbench
