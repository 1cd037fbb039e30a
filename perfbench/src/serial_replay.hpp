#pragma once
// Traced serial replay: the same trace walked on one thread through each
// layer's public functions, on LiveDetector's schedule, with a span
// around every call. Spans live in the benchmark only; nothing inside the
// program is instrumented. The replay must reproduce the engine's verdict
// stream exactly, so its per-layer times describe the same program.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kReplay,            ///< root: the whole replay loop
  kBgp,               ///< Collector::ingest_bgp
  kDecode,            ///< SflowView::decode
  kCollect,           ///< Collector::ingest_samples / flush
  kMerge,             ///< canonical minute sort (the engine's merge stage)
  kIngestMinute,      ///< the detector's per-minute step
  kBalance,           ///< Balancer + training-window update
  kWindow,            ///< training-window eviction and concatenation
  kMine,              ///< IxpScrubber::mine_tagging_rules
  kCurate,            ///< accept_rules_above + set_rules
  kAggregateRetrain,  ///< IxpScrubber::aggregate of the training window
  kTrain,             ///< IxpScrubber::train
  kAggregate,         ///< IxpScrubber::aggregate of a live minute
  kWoeEncode,         ///< Pipeline::transform_dataset
  kForest,            ///< Classifier::score_batch
  kCount,
};

/// Span names; the text before the first '.' is the layer (a module of
/// the program, or "bench" for the replay loop itself).
inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(SpanKind::kCount)>
    kSpanNames = {"bench.replay",   "bgp.ingest_bgp",
                  "net.decode",     "core.collect",
                  "runtime.merge",  "core.ingest_minute",
                  "core.balance",   "core.window",
                  "arm.mine",       "core.curate",
                  "core.aggregate_retrain", "ml.train",
                  "core.aggregate", "ml.woe_encode",
                  "ml.forest"};

struct Span {
  SpanKind kind = SpanKind::kReplay;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span log with an explicit parent stack (one thread).
class SpanRecorder {
 public:
  std::int32_t open(SpanKind kind) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{kind, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
    stack_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null recorder makes it free (the untraced replay).
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, SpanKind kind) : recorder_(recorder) {
    if (recorder_ != nullptr) index_ = recorder_->open(kind);
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_ = -1;
};

struct SerialReplay {
  VerdictStream stream;
  double wall_s = 0.0;
  std::uint64_t datagrams = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t minutes = 0;         ///< minutes the detector ingested
  std::uint64_t scored_minutes = 0;  ///< minutes aggregated and scored
  std::uint32_t retrain_attempts = 0;
  std::uint32_t retrains = 0;
  std::size_t rules_accepted = 0;    ///< accepted rules of the last retrain
  SpanRecorder recorder;
};

/// Replays `trace`; spans are recorded only when `traced`.
[[nodiscard]] SerialReplay serial_replay(const Workload& workload,
                                         const Trace& trace, bool traced);

}  // namespace perfbench
