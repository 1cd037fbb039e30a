// Input preparation and the benchmark's deployment settings.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "core/collector.hpp"

namespace perfbench {

sc::runtime::EngineConfig engine_config(const Workload& workload) {
  sc::runtime::EngineConfig config;
  config.collector.sampling_rate = workload.sampling_rate;
  config.backpressure = sc::runtime::Backpressure::kBlock;
  return config;
}

sc::core::LiveDetectorConfig detector_config(const Workload& workload) {
  sc::core::LiveDetectorConfig config;
  config.warmup_min = workload.warmup_min;
  config.retrain_interval_min = workload.retrain_interval_min;
  return config;
}

sc::netio::ListenerConfig listener_config() {
  sc::netio::ListenerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;
  // A lost FIN sentinel ends the run instead of hanging it.
  config.idle_stop_ms = 30'000;
  return config;
}

Trace make_trace(const Workload& workload, std::uint64_t seed) {
  Trace trace;
  trace.stream_minutes = workload.minutes;
  sc::flowgen::TrafficGenerator generator(workload.profile, seed);
  const auto agent = sc::net::Ipv4Address::from_octets(10, 99, 0, 1);
  std::unordered_set<std::uint32_t> victims;
  bool victims_known = false;
  generator.generate_stream(
      0, workload.minutes,
      sc::flowgen::TrafficGenerator::Labeling::kBlackholeRegistry,
      [&](std::uint32_t, std::span<const sc::net::FlowRecord> flows) {
        // The attack schedule is drawn before the first minute streams.
        if (!victims_known) {
          for (const auto& attack : generator.attacks())
            victims.insert(attack.victim.value());
          victims_known = true;
        }
        trace.flows += flows.size();
        for (const auto& flow : flows) {
          if (victims.contains(flow.dst_ip.value()))
            trace.victim_flows.add(flow.dst_ip, flow.minute);
        }
        for (const auto& datagram : sc::core::flows_to_datagrams(
                 flows, workload.sampling_rate, agent)) {
          trace.wire.push_back(datagram.encode());
          trace.minutes.push_back(datagram.uptime_ms / 60'000);
        }
      },
      std::max(1U, std::thread::hardware_concurrency()));
  trace.updates = generator.updates();
  trace.attacks = generator.attacks();
  return trace;
}

Verdict Verdict::of(const sc::core::Detection& detection) {
  Verdict verdict;
  verdict.minute = detection.minute;
  verdict.target = detection.target.value();
  verdict.score = detection.score;
  verdict.flow_count = detection.flow_count;
  verdict.vector = detection.vector ? static_cast<int>(*detection.vector) : -1;
  verdict.acl_entries = detection.acl_entries;
  return verdict;
}

std::string Verdict::to_string() const {
  char line[160];
  std::snprintf(line, sizeof(line), "minute=%u target=%s score=%.17g flows=%u",
                minute, sc::net::Ipv4Address(target).to_string().c_str(), score,
                flow_count);
  std::string out = line;
  if (vector >= 0) {
    out += " vector=";
    out += sc::net::vector_name(static_cast<sc::net::DdosVector>(vector));
  }
  out += " acl=" + std::to_string(acl_entries.size());
  return out;
}

}  // namespace perfbench
