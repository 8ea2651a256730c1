#include "transport/channel.hpp"

#include <utility>

namespace resmon::transport {

Channel::Channel(const ChannelOptions& options)
    : options_(options), rng_(options.seed) {
  RESMON_REQUIRE(options.drop_probability >= 0.0 &&
                     options.drop_probability <= 1.0,
                 "drop probability must be in [0,1]");
}

void Channel::send(const MeasurementMessage& message) {
  ++messages_sent_;
  bytes_sent_ += message.wire_size();
  if (options_.drop_probability > 0.0 &&
      rng_.bernoulli(options_.drop_probability)) {
    ++messages_dropped_;
    return;
  }
  std::size_t delay = 0;
  if (options_.max_delay_slots > 0) {
    delay = rng_.index(options_.max_delay_slots + 1);
  }
  if (in_flight_ == queue_.size()) queue_.emplace_back();
  InFlight& entry = queue_[in_flight_++];
  entry.message = message;  // reuses the recycled entry's value storage
  entry.slots_remaining = delay;
}

std::span<MeasurementMessage> Channel::drain_into(
    std::vector<MeasurementMessage>& out) {
  std::size_t delivered = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in_flight_; ++i) {
    InFlight& entry = queue_[i];
    if (entry.slots_remaining == 0) {
      if (delivered == out.size()) out.emplace_back();
      out[delivered++] = entry.message;
    } else {
      --entry.slots_remaining;
      if (kept != i) std::swap(queue_[kept], entry);
      ++kept;
    }
  }
  in_flight_ = kept;
  return {out.data(), delivered};
}

std::vector<MeasurementMessage> Link::drain() {
  std::vector<MeasurementMessage> out;
  out.resize(drain_into(out).size());
  return out;
}

CentralStore::CentralStore(std::size_t num_nodes, std::size_t num_resources)
    : num_nodes_(num_nodes),
      num_resources_(num_resources),
      values_(num_nodes),
      last_step_(num_nodes, -1) {
  RESMON_REQUIRE(num_nodes > 0, "CentralStore needs at least one node");
  RESMON_REQUIRE(num_resources > 0,
                 "CentralStore needs at least one resource");
}

void CentralStore::apply(const MeasurementMessage& message) {
  RESMON_REQUIRE(message.node < num_nodes_,
                 "CentralStore: node index out of range");
  RESMON_REQUIRE(message.values.size() == num_resources_,
                 "CentralStore: measurement dimension mismatch");
  if (static_cast<long long>(message.step) <= last_step_[message.node] &&
      has(message.node)) {
    return;  // out-of-order duplicate; keep the fresher measurement
  }
  if (!has(message.node)) ++nodes_heard_;
  values_[message.node] = message.values;
  last_step_[message.node] = static_cast<long long>(message.step);
}

const std::vector<double>& CentralStore::stored(std::size_t node) const {
  RESMON_REQUIRE(node < num_nodes_, "CentralStore: node index out of range");
  if (!has(node)) {
    throw InvalidState("CentralStore: no measurement received from node " +
                       std::to_string(node));
  }
  return values_[node];
}

std::size_t CentralStore::last_update_step(std::size_t node) const {
  RESMON_REQUIRE(node < num_nodes_, "CentralStore: node index out of range");
  if (!has(node)) {
    throw InvalidState("CentralStore: no measurement received from node " +
                       std::to_string(node));
  }
  return static_cast<std::size_t>(last_step_[node]);
}

std::size_t CentralStore::staleness(std::size_t node,
                                    std::size_t current_step) const {
  const std::size_t last = last_update_step(node);
  RESMON_REQUIRE(current_step >= last,
                 "CentralStore: staleness query before last update");
  return current_step - last;
}

std::vector<double> CentralStore::resource_snapshot(
    std::size_t resource) const {
  RESMON_REQUIRE(resource < num_resources_,
                 "CentralStore: resource index out of range");
  std::vector<double> snap(num_nodes_);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    snap[i] = stored(i)[resource];
  }
  return snap;
}

}  // namespace resmon::transport
