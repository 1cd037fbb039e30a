#pragma once
// Shared types of the wire-to-verdict benchmark: the seeded input trace,
// the workload settings, the verdict stream and the per-run records.

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/message.hpp"
#include "core/live_detector.hpp"
#include "flowgen/generator.hpp"
#include "netio/listener.hpp"
#include "netio/loadgen.hpp"
#include "runtime/engine.hpp"
#include "scorer.hpp"

namespace perfbench {

namespace sc = scrubber;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// How a workload offers its trace to the program.
enum class Feed {
  kClosedLoop,    ///< in process, next datagram as soon as push returns
  kPacedMinutes,  ///< in process, each stream minute due on a fixed period
  kWire,          ///< UDP loopback, open-loop LoadGenerator at a fixed rate
};

/// One workload: only deployment settings and input shape. Every mechanism
/// option of the engine, listener and detector stays at its default.
struct Workload {
  std::string name;
  sc::flowgen::IxpProfile profile;
  std::uint32_t minutes = 0;        ///< trace length in stream minutes
  std::uint32_t sampling_rate = 1;  ///< sFlow 1-in-N of the exporter
  std::uint32_t warmup_min = 0;
  std::uint32_t retrain_interval_min = 0;
  Feed feed = Feed::kClosedLoop;
  double wire_rate = 0.0;  ///< datagrams/s (kWire)
};

/// Settings the benchmark chooses; the rest are library defaults.
sc::runtime::EngineConfig engine_config(const Workload& workload);
sc::core::LiveDetectorConfig detector_config(const Workload& workload);
sc::netio::ListenerConfig listener_config();

/// Seeded trace, pre-encoded to sFlow wire bytes (input preparation).
struct Trace {
  /// Wire bytes of each datagram. A wire run hands them to the sender and
  /// leaves this empty, so it must be the last run of the trace.
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<std::uint32_t> minutes;  ///< export minute of each datagram
  std::vector<std::pair<std::uint32_t, sc::bgp::UpdateMessage>> updates;
  std::vector<sc::flowgen::AttackEvent> attacks;
  TargetMinuteFlows victim_flows;
  std::uint64_t flows = 0;  ///< generated flow records
  std::uint32_t stream_minutes = 0;

  [[nodiscard]] std::size_t datagrams() const noexcept {
    return minutes.size();
  }
  [[nodiscard]] std::span<const std::uint8_t> datagram(std::size_t i) const {
    return wire[i];
  }
};

[[nodiscard]] Trace make_trace(const Workload& workload, std::uint64_t seed);

/// A detection as the verdict-identity check compares it, bit for bit.
struct Verdict {
  std::uint32_t minute = 0;
  std::uint32_t target = 0;
  double score = 0.0;
  std::uint32_t flow_count = 0;
  int vector = -1;  ///< DdosVector, -1 when none dominates
  std::vector<std::string> acl_entries;

  bool operator==(const Verdict&) const = default;
  static Verdict of(const sc::core::Detection& detection);
  [[nodiscard]] std::string to_string() const;
};

/// Everything both feeds of one trace must agree on.
struct VerdictStream {
  std::vector<Verdict> verdicts;
  std::uint64_t flows_out = 0;
  std::uint64_t minutes_merged = 0;

  bool operator==(const VerdictStream&) const = default;
};

/// One pass of the trace through Engine -> LiveDetector.
struct EngineRun {
  VerdictStream stream;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< first datagram offered -> last minute ingested
  double cpu_s = 0.0;   ///< process CPU over the same span, sender excluded
  std::uint64_t sent = 0;           ///< datagrams offered
  std::uint64_t flows_to_sink = 0;  ///< flows the minute sink received
  double push_wait_s = 0.0;         ///< producer time inside push calls
  double finish_drain_ms = 0.0;
  std::vector<double> lag_ms;       ///< one per closed stream minute
  std::vector<double> ingest_ms;    ///< LiveDetector::ingest_minute, per minute
  std::vector<double> retrain_ms;   ///< ingest_minute on retrain minutes
  std::uint32_t retrains = 0;
  std::size_t window_flows = 0;
  std::uint64_t schedule_late = 0;  ///< paced feed: minutes pushed late
  double send_late_p50_ms = 0.0;    ///< wire feed: median send past deadline
  sc::runtime::EngineSnapshot engine;
  std::optional<sc::netio::ListenerSnapshot> listener;
  std::optional<sc::netio::LoadGenSummary> sender;
  std::vector<std::string> failures;  ///< conservation violations

  /// Datagrams sent that never became flows.
  [[nodiscard]] std::uint64_t lost() const noexcept;
};

/// Runs the trace through the program with the workload's feed. A
/// closed-loop in-process feed is the verdict reference of every feed.
/// The wire feed moves the trace's wire bytes into the sender.
[[nodiscard]] EngineRun run_engine(const Workload& workload, Trace& trace,
                                   Feed feed, double seconds,
                                   std::uint64_t seed);

/// Constructs and starts the program's objects without feeding them and
/// returns the seconds that took (the set-up metric, sampled alone).
[[nodiscard]] double measure_setup(const Workload& workload,
                                   const Trace& trace);

}  // namespace perfbench
