#include "serial_replay.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>

#include "core/acl.hpp"
#include "core/collector.hpp"
#include "net/sflow.hpp"
#include "runtime/sharded_collector.hpp"

namespace perfbench {
namespace {

/// LiveDetector::ingest_minute and LiveDetector::retrain step by step
/// through IxpScrubber's public calls, with a span around each step. The
/// verdict-identity check against the engine run keeps this in step with
/// the detector it mirrors.
class SerialDetector {
 public:
  SerialDetector(sc::core::LiveDetectorConfig config, SerialReplay& out,
                 SpanRecorder* recorder)
      : config_(config), out_(out), recorder_(recorder) {
    sc::core::ScrubberConfig scrubber_config;
    scrubber_config.model = config_.model;
    scrubber_config.mining = config_.mining;
    scrubber_config.seed = config_.seed;
    scrubber_config.agg_threads = config_.agg_threads;
    scrubber_ = sc::core::IxpScrubber(scrubber_config);
  }

  void ingest_minute(std::uint32_t minute,
                     std::span<const sc::net::FlowRecord> flows) {
    const SpanScope span(recorder_, SpanKind::kIngestMinute);
    ++out_.minutes;
    if (!first_minute_) first_minute_ = minute;
    {
      const SpanScope balance(recorder_, SpanKind::kBalance);
      sc::core::Balancer balancer(config_.seed ^ minute);
      balancer.add_minute(minute, flows);
      auto balanced = balancer.take_balanced();
      if (!balanced.empty()) window_.emplace_back(minute, std::move(balanced));
      evict_window(minute);
    }

    const bool warmed_up = minute >= *first_minute_ + config_.warmup_min;
    const bool due = !scrubber_.trained() ||
                     minute >= last_retrain_minute_ + config_.retrain_interval_min;
    if (warmed_up && due) retrain(minute);
    if (!scrubber_.trained() || flows.empty()) return;

    ++out_.scored_minutes;
    sc::core::AggregatedDataset aggregated;
    {
      const SpanScope aggregate(recorder_, SpanKind::kAggregate);
      aggregated = scrubber_.aggregate(flows);
    }
    sc::ml::Dataset encoded;
    {
      const SpanScope woe(recorder_, SpanKind::kWoeEncode);
      encoded = scrubber_.pipeline().transform_dataset(aggregated.data);
    }
    std::vector<double> scores(encoded.n_rows(), 0.0);
    {
      const SpanScope forest(recorder_, SpanKind::kForest);
      scrubber_.pipeline().classifier().score_batch(encoded, scores);
    }
    for (std::size_t i = 0; i < aggregated.size(); ++i) {
      if (aggregated.meta[i].flow_count < config_.min_flows_per_target) continue;
      if (scores[i] < 0.5) continue;
      sc::core::Detection detection;
      detection.minute = minute;
      detection.target = aggregated.meta[i].target;
      detection.score = scores[i];
      detection.flow_count = aggregated.meta[i].flow_count;
      detection.vector = aggregated.meta[i].dominant_vector;
      for (const std::uint32_t tag : aggregated.meta[i].rule_tags)
        detection.acl_entries.push_back(
            sc::core::acl_entry(scrubber_.rules().rule_at(tag)));
      out_.stream.verdicts.push_back(Verdict::of(detection));
    }
  }

 private:
  [[nodiscard]] std::size_t window_flows() const noexcept {
    std::size_t total = 0;
    for (const auto& [minute, flows] : window_) total += flows.size();
    return total;
  }

  void evict_window(std::uint32_t now_minute) {
    while (!window_.empty() &&
           window_.front().first + config_.training_window_min <= now_minute) {
      window_.pop_front();
    }
  }

  void retrain(std::uint32_t now_minute) {
    ++out_.retrain_attempts;
    std::vector<sc::net::FlowRecord> training;
    {
      const SpanScope window(recorder_, SpanKind::kWindow);
      evict_window(now_minute);
      training.reserve(window_flows());
      for (const auto& [minute, flows] : window_)
        training.insert(training.end(), flows.begin(), flows.end());
    }
    if (training.empty()) return;

    sc::arm::RuleSet rules;
    {
      const SpanScope mine(recorder_, SpanKind::kMine);
      rules = scrubber_.mine_tagging_rules(training);
    }
    {
      const SpanScope curate(recorder_, SpanKind::kCurate);
      out_.rules_accepted = sc::core::accept_rules_above(
          rules, config_.rule_min_confidence, 0.0, config_.rule_min_items);
      scrubber_.set_rules(std::move(rules));
    }
    sc::core::AggregatedDataset aggregated;
    {
      const SpanScope aggregate(recorder_, SpanKind::kAggregateRetrain);
      aggregated = scrubber_.aggregate(training);
    }
    if (aggregated.size() < 20 || aggregated.data.positive_count() < 5) return;
    {
      const SpanScope train(recorder_, SpanKind::kTrain);
      scrubber_.train(aggregated);
    }
    last_retrain_minute_ = now_minute;
    ++out_.retrains;
  }

  sc::core::LiveDetectorConfig config_;
  SerialReplay& out_;
  SpanRecorder* recorder_;
  sc::core::IxpScrubber scrubber_;
  std::deque<std::pair<std::uint32_t, std::vector<sc::net::FlowRecord>>> window_;
  std::optional<std::uint32_t> first_minute_;
  std::uint32_t last_retrain_minute_ = 0;
};

}  // namespace

SerialReplay serial_replay(const Workload& workload, const Trace& trace,
                           bool traced) {
  SerialReplay out;
  SpanRecorder* recorder = traced ? &out.recorder : nullptr;
  SerialDetector detector(detector_config(workload), out, recorder);
  std::vector<sc::net::FlowRecord> merged;
  sc::core::Collector collector(
      engine_config(workload).collector,
      [&](std::uint32_t minute, std::span<const sc::net::FlowRecord> flows) {
        {
          const SpanScope merge(recorder, SpanKind::kMerge);
          merged.assign(flows.begin(), flows.end());
          std::sort(merged.begin(), merged.end(),
                    sc::runtime::canonical_flow_less);
        }
        out.stream.flows_out += merged.size();
        ++out.stream.minutes_merged;
        detector.ingest_minute(minute, merged);
      });

  std::vector<sc::net::SflowFlowSample> samples;
  std::size_t next_update = 0;
  std::uint32_t current = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t begin = now_ns();
  {
    const SpanScope root(recorder, SpanKind::kReplay);
    for (std::size_t i = 0; i < trace.datagrams(); ++i) {
      const std::uint32_t minute = trace.minutes[i];
      if (minute != current) {
        current = minute;
        const SpanScope bgp(recorder, SpanKind::kBgp);
        while (next_update < trace.updates.size() &&
               trace.updates[next_update].first <= minute) {
          collector.ingest_bgp(
              trace.updates[next_update].second,
              std::uint64_t{trace.updates[next_update].first} * 60'000);
          ++next_update;
        }
      }
      samples.clear();
      sc::net::SflowHeaderView header;
      sc::net::DecodeStatus status;
      {
        const SpanScope decode(recorder, SpanKind::kDecode);
        status = sc::net::SflowView::decode(
            trace.datagram(i), header,
            [&](const sc::net::SflowFlowSample& sample) {
              samples.push_back(sample);
            });
      }
      if (status != sc::net::DecodeStatus::kOk) {
        ++out.decode_errors;
        continue;
      }
      ++out.datagrams;
      const SpanScope collect(recorder, SpanKind::kCollect);
      collector.ingest_samples(header.uptime_ms, samples);
    }
    const SpanScope collect(recorder, SpanKind::kCollect);
    collector.flush();
  }
  out.wall_s = static_cast<double>(now_ns() - begin) / 1e9;
  return out;
}

}  // namespace perfbench
