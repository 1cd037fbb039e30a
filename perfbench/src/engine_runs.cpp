// Timed passes of a trace through the program: Engine -> LiveDetector,
// fed in process (closed loop or paced by stream minute) or over UDP
// loopback through netio::UdpListener from an open-loop LoadGenerator.

#include <sys/resource.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kNever = 0;

double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The program under test plus the benchmark's minute sink. The engine's
/// sink and the listener's minute feed capture `this`, so it never moves.
/// Members are destroyed listener first, then engine, then detector.
class Program {
 public:
  Program(const Workload& workload, const Trace& trace, bool wire)
      : trace_(trace),
        done_ns(trace.stream_minutes, kNever),
        detector(detector_config(workload),
                 [this](const sc::core::Detection& detection) {
                   stream.verdicts.push_back(Verdict::of(detection));
                 }),
        engine(engine_config(workload),
               [this](std::uint32_t minute,
                      std::span<const sc::net::FlowRecord> flows) {
                 ingest(minute, flows);
               }) {
    if (wire) {
      listener = std::make_unique<sc::netio::UdpListener>(
          listener_config(), engine,
          [this](std::uint32_t minute) { push_bgp_through(minute); });
      listener->start();
    }
  }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Pushes every BGP update effective at or before `minute` (producer
  /// thread only): the interleaving both feeds share.
  void push_bgp_through(std::uint32_t minute) {
    const auto& updates = trace_.updates;
    while (next_update_ < updates.size() &&
           updates[next_update_].first <= minute) {
      engine.push_bgp(updates[next_update_].second,
                      std::uint64_t{updates[next_update_].first} * 60'000);
      ++next_update_;
    }
  }

 private:
  /// Minute sink, on the engine's score thread.
  void ingest(std::uint32_t minute, std::span<const sc::net::FlowRecord> flows) {
    const std::uint32_t retrains = detector.retrain_count();
    const std::uint64_t begin = now_ns();
    detector.ingest_minute(minute, flows);
    const std::uint64_t end = now_ns();
    const double ms = static_cast<double>(end - begin) / 1e6;
    ingest_ms.push_back(ms);
    if (detector.retrain_count() != retrains) retrain_ms.push_back(ms);
    if (minute >= done_ns.size()) done_ns.resize(minute + 1, kNever);
    done_ns[minute] = end;
    flows_to_sink += flows.size();
  }

  const Trace& trace_;
  std::size_t next_update_ = 0;

 public:
  // Written on the score thread; read after the engine finished.
  VerdictStream stream;
  std::vector<std::uint64_t> done_ns;  ///< when ingest_minute(m) returned
  std::vector<double> ingest_ms;
  std::vector<double> retrain_ms;
  std::uint64_t flows_to_sink = 0;

  sc::core::LiveDetector detector;
  sc::runtime::Engine engine;
  std::unique_ptr<sc::netio::UdpListener> listener;
};

/// Lag per stream minute m: from when the input closing m was due (the
/// first datagram whose minute is past m + reorder slack) to when
/// ingest_minute(m) returned. `due_ns[m]` is the due time of minute m's
/// first datagram (0 for minutes without datagrams). Minutes only the
/// final flush closes have no closing input and are left out.
std::vector<double> verdict_lags(const std::vector<std::uint64_t>& due_ns,
                                 const std::vector<std::uint64_t>& done_ns,
                                 std::uint32_t slack) {
  std::vector<double> lags;
  const std::size_t minutes = due_ns.size();
  // closing[m]: first minute > m + slack that has a datagram.
  std::vector<std::size_t> next_with_data(minutes + 1, minutes);
  for (std::size_t m = minutes; m-- > 0;) {
    next_with_data[m] = due_ns[m] != kNever ? m : next_with_data[m + 1];
  }
  for (std::size_t m = 0; m < minutes && m < done_ns.size(); ++m) {
    if (done_ns[m] == kNever) continue;
    const std::size_t from = m + slack + 1;
    if (from >= minutes) break;
    const std::size_t closing = next_with_data[from];
    if (closing >= minutes) break;
    lags.push_back((static_cast<double>(done_ns[m]) -
                    static_cast<double>(due_ns[closing])) /
                   1e6);
  }
  return lags;
}

void finish_record(Program& program, EngineRun& run) {
  run.engine = program.engine.stats();
  run.stream.flows_out = run.engine.flows_out;
  run.stream.minutes_merged = run.engine.minutes_merged;
  run.stream.verdicts = std::move(program.stream.verdicts);
  run.flows_to_sink = program.flows_to_sink;
  run.ingest_ms = std::move(program.ingest_ms);
  run.retrain_ms = std::move(program.retrain_ms);
  run.retrains = program.detector.retrain_count();
  run.window_flows = program.detector.window_flows();
  if (run.engine.flows_out != run.flows_to_sink)
    run.failures.push_back("flows_out != flows handed to the minute sink");
}

EngineRun run_in_process(const Workload& workload, const Trace& trace,
                         Feed feed, double seconds) {
  EngineRun run;
  const std::uint64_t setup_begin = now_ns();
  Program program(workload, trace, /*wire=*/false);
  run.setup_s = static_cast<double>(now_ns() - setup_begin) / 1e9;

  const bool paced = feed == Feed::kPacedMinutes;
  const double period_ns =
      seconds * 1e9 / static_cast<double>(trace.stream_minutes);
  std::vector<std::uint64_t> due_ns(trace.stream_minutes, kNever);
  std::uint64_t push_wait_ns = 0;
  const double cpu_begin = cpu_seconds(RUSAGE_SELF);
  const std::uint64_t start = now_ns();
  std::uint32_t current = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < trace.datagrams(); ++i) {
    const std::uint32_t minute = trace.minutes[i];
    if (minute != current) {
      current = minute;
      std::uint64_t due = now_ns();
      if (paced) {
        due = start + static_cast<std::uint64_t>(period_ns * minute);
        const std::uint64_t now = now_ns();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        } else if (now - due > 1'000'000) {
          ++run.schedule_late;  // open loop: never rescheduled
        }
      }
      due_ns[minute] = due;
      const std::uint64_t begin = now_ns();
      program.push_bgp_through(minute);
      push_wait_ns += now_ns() - begin;
    }
    const auto bytes = trace.datagram(i);
    std::vector<std::uint8_t> wire(bytes.begin(), bytes.end());
    const std::uint64_t begin = now_ns();
    program.engine.push_wire(std::move(wire));
    push_wait_ns += now_ns() - begin;
  }
  const std::uint64_t drain_begin = now_ns();
  program.engine.finish();
  const std::uint64_t end = now_ns();
  run.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu_begin;
  run.wall_s = static_cast<double>(end - start) / 1e9;
  run.finish_drain_ms = static_cast<double>(end - drain_begin) / 1e6;
  run.push_wait_s = static_cast<double>(push_wait_ns) / 1e9;
  run.sent = trace.datagrams();

  finish_record(program, run);
  run.lag_ms = verdict_lags(due_ns, program.done_ns,
                            engine_config(workload).collector.reorder_slack_min);
  if (run.sent != run.engine.datagrams + run.engine.decode_errors +
                      run.engine.input_drops) {
    run.failures.push_back(
        "pushed != decoded + decode_errors + ring_drops");
  }
  return run;
}

EngineRun run_wire(const Workload& workload, Trace& trace,
                   std::uint64_t seed) {
  EngineRun run;
  const std::uint64_t setup_begin = now_ns();
  Program program(workload, trace, /*wire=*/true);
  run.setup_s = static_cast<double>(now_ns() - setup_begin) / 1e9;

  sc::netio::LoadGenConfig sender_config;
  sender_config.host = "127.0.0.1";
  sender_config.port = program.listener->port();
  sender_config.rate = workload.wire_rate;
  sender_config.seed = seed ^ 0x5C4EDULL;
  sc::netio::LoadGenerator sender(sender_config, std::move(trace.wire),
                                  trace.minutes);
  trace.wire.clear();

  // The sender runs on this thread; its CPU is the load generator's, not
  // the program's, and is subtracted from the process total.
  const double cpu_begin = cpu_seconds(RUSAGE_SELF);
  const double sender_cpu_begin = cpu_seconds(RUSAGE_THREAD);
  const std::uint64_t start = now_ns();
  run.sender = sender.run();
  const double sender_cpu = cpu_seconds(RUSAGE_THREAD) - sender_cpu_begin;
  const std::uint64_t sent_all = now_ns();
  program.listener->join();
  const std::uint64_t end = now_ns();
  run.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu_begin - sender_cpu;
  run.wall_s = static_cast<double>(end - start) / 1e9;
  run.finish_drain_ms = static_cast<double>(end - sent_all) / 1e6;
  run.sent = run.sender->sent;

  run.listener = program.listener->stats();
  const auto& listen = *run.listener;
  if (!listen.fin_seen) {
    run.failures.push_back("FIN sentinel never reached the listener");
    program.engine.finish();
  }
  finish_record(program, run);

  // Due times: LoadGenerator draws deadline[i] = start + sum of the first
  // i exponential gaps from its seed, up front; redraw the same schedule.
  // No send precedes its deadline, so send[i] - offset[i] >= start for
  // every i, and the smallest of them is the tightest anchor. The first
  // send alone is no anchor: it shifts every deadline by however late
  // that one send was, often more than a millisecond on a busy host.
  const auto& stamps = sender.stamps();
  std::vector<std::uint64_t> due_ns(trace.stream_minutes, kNever);
  if (stamps.size() == trace.minutes.size() && !stamps.empty()) {
    sc::util::Rng rng(sender_config.seed);
    std::vector<std::uint64_t> offsets(stamps.size());
    double cumulative_s = 0.0;
    std::uint64_t anchor = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      cumulative_s += rng.exponential(sender_config.rate);
      offsets[i] = static_cast<std::uint64_t>(cumulative_s * 1e9);
      anchor = std::min(anchor, stamps[i].send_ns - offsets[i]);
    }
    std::vector<double> late_ms(stamps.size());
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      const std::uint64_t due = anchor + offsets[i];
      late_ms[i] = static_cast<double>(stamps[i].send_ns - due) / 1e6;
      if (i == 0 || trace.minutes[i] != trace.minutes[i - 1])
        due_ns[trace.minutes[i]] = due;
    }
    // Most sends leave on time; a schedule redrawn from another seed would
    // put the typical send tens of milliseconds or more from its deadline.
    run.send_late_p50_ms = sc::util::quantile(late_ms, 0.5);
    if (run.send_late_p50_ms > 5.0)
      run.failures.push_back("sender schedule does not match its seed");
  } else {
    run.failures.push_back("missing send stamps");
  }
  run.lag_ms = verdict_lags(due_ns, program.done_ns,
                            engine_config(workload).collector.reorder_slack_min);

  // Datagram accounting across the wire and the engine.
  if (listen.expected_datagrams != run.sent)
    run.failures.push_back("FIN sentinel total != datagrams sent");
  if (run.sent != listen.stage.items_in + listen.kernel_drops)
    run.failures.push_back("sent != received + kernel_drops");
  if (listen.stage.items_in != run.engine.datagrams +
                                   run.engine.decode_errors +
                                   listen.stage.drops) {
    run.failures.push_back(
        "received != decoded + decode_errors + ring_drops");
  }
  return run;
}

}  // namespace

std::uint64_t EngineRun::lost() const noexcept {
  std::uint64_t lost = engine.decode_errors + engine.late_drops;
  if (listener) {
    lost += listener->kernel_drops + listener->stage.drops;
  } else {
    lost += engine.input_drops;
  }
  return lost;
}

EngineRun run_engine(const Workload& workload, Trace& trace, Feed feed,
                     double seconds, std::uint64_t seed) {
  if (feed == Feed::kWire) return run_wire(workload, trace, seed);
  return run_in_process(workload, trace, feed, seconds);
}

double measure_setup(const Workload& workload, const Trace& trace) {
  const std::uint64_t begin = now_ns();
  const Program program(workload, trace, workload.feed == Feed::kWire);
  return static_cast<double>(now_ns() - begin) / 1e9;
}

}  // namespace perfbench
