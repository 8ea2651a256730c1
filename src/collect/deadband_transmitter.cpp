#include "collect/deadband_transmitter.hpp"

namespace resmon::collect {

DeadbandTransmitter::DeadbandTransmitter(const DeadbandOptions& options)
    : options_(options), delta_(options.delta) {
  validate(options_);
}

bool DeadbandTransmitter::decide(std::size_t /*t*/,
                                 std::span<const double> x) {
  RESMON_REQUIRE(!x.empty(), "measurement must be non-empty");
  const bool first = transmissions_ == 0;
  if (first) last_sent_.resize(x.size());
  RESMON_REQUIRE(x.size() == last_sent_.size(),
                 "measurement dimension changed between decisions");
  ++decisions_;
  const bool transmit = deadband_decide(options_, x, first, last_sent_, delta_);
  if (transmit) ++transmissions_;
  return transmit;
}

}  // namespace resmon::collect
