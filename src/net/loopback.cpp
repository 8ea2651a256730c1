#include "net/loopback.hpp"

namespace resmon::net {

void LoopbackLink::send(const transport::MeasurementMessage& message) {
  wire::encode_into(frame_bytes_, message);
  // One source of truth for bandwidth: the encoder must produce exactly
  // wire_size() bytes (what Channel::send charges below).
  if (frame_bytes_.size() != message.wire_size()) {
    throw InvalidState("LoopbackLink: encoder size disagrees with wire_size");
  }
  if (!decoder_.feed(frame_bytes_)) {
    throw InvalidState(std::string("LoopbackLink: self-decode failed: ") +
                       wire::wire_error_name(decoder_.error()));
  }
  if (!decoder_.next_into(decoded_) || !decoder_.at_frame_boundary() ||
      !std::holds_alternative<transport::MeasurementMessage>(decoded_)) {
    throw InvalidState("LoopbackLink: self-decode yielded no measurement");
  }
  channel_.send(std::get<transport::MeasurementMessage>(decoded_));
}

}  // namespace resmon::net
