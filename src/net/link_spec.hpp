#pragma once
// Network technology descriptors (§3.2 network independence). A medium is
// one broadcast domain of a given technology; nodes may attach interfaces
// to several media, and the middleware runs unchanged over any of them.

#include <cmath>
#include <string>

#include "common/time.hpp"

namespace ndsm::net {

struct LinkSpec {
  std::string name;
  double bandwidth_bps = 1e6;     // payload serialization rate
  Time propagation_delay = 0;     // fixed per-hop latency
  double loss_probability = 0.0;  // independent per-frame loss
  double bit_error_rate = 0.0;    // per-bit errors: long frames fail more often
  bool wireless = false;
  double range_m = 0.0;           // wireless communication range (ignored for wired)
  std::size_t header_bytes = 16;  // per-frame overhead on the wire
  std::size_t mtu_bytes = 1500;   // maximum frame payload; transport fragments above this
};

// The link physics of the simulated World. A frame of
// `payload_bytes` arrives after the propagation delay plus the time to
// serialize it and its header.
[[nodiscard]] inline Time transmission_delay(const LinkSpec& spec, std::size_t payload_bytes) {
  const double bits = static_cast<double>(payload_bytes + spec.header_bytes) * 8.0;
  return spec.propagation_delay + from_seconds(bits / spec.bandwidth_bps);
}

// Per-frame loss probability combining the flat loss and the BER term
// (also used by tests and for analytical sizing of transport parameters).
[[nodiscard]] inline double frame_loss_probability(const LinkSpec& spec, std::size_t wire_bytes) {
  double p = spec.loss_probability;
  if (spec.bit_error_rate > 0) {
    const double bits = static_cast<double>(wire_bytes) * 8.0;
    const double survive = std::pow(1.0 - spec.bit_error_rate, bits);
    p = 1.0 - (1.0 - p) * survive;
  }
  return p;
}

// Presets modelled on the technologies the paper names (§3.2): "local
// ethernet and ATM backbones ... Bluetooth, IEEE 802.11". Rates are
// era-appropriate (2003).
[[nodiscard]] inline LinkSpec ethernet100() {
  return LinkSpec{.name = "ethernet-100",
                  .bandwidth_bps = 100e6,
                  .propagation_delay = duration::micros(50),
                  .loss_probability = 0.0,
                  .wireless = false,
                  .range_m = 0,
                  .header_bytes = 18,
                  .mtu_bytes = 1500};
}

[[nodiscard]] inline LinkSpec atm155() {
  return LinkSpec{.name = "atm-155",
                  .bandwidth_bps = 155e6,
                  .propagation_delay = duration::micros(100),
                  .loss_probability = 0.0,
                  .wireless = false,
                  .range_m = 0,
                  .header_bytes = 5,
                  .mtu_bytes = 9180};
}

[[nodiscard]] inline LinkSpec wifi80211(double range_m = 100.0, double loss = 0.01) {
  return LinkSpec{.name = "802.11b",
                  .bandwidth_bps = 11e6,
                  .propagation_delay = duration::micros(200),
                  .loss_probability = loss,
                  .wireless = true,
                  .range_m = range_m,
                  .header_bytes = 34,
                  .mtu_bytes = 1500};
}

[[nodiscard]] inline LinkSpec bluetooth(double range_m = 10.0, double loss = 0.02) {
  return LinkSpec{.name = "bluetooth-1.1",
                  .bandwidth_bps = 723e3,
                  .propagation_delay = duration::micros(300),
                  .loss_probability = loss,
                  .wireless = true,
                  .range_m = range_m,
                  .header_bytes = 9,
                  .mtu_bytes = 339};
}

// Low-power sensor radio (the MiLAN target environment, §4).
[[nodiscard]] inline LinkSpec sensor_radio(double range_m = 30.0, double loss = 0.02) {
  return LinkSpec{.name = "sensor-radio",
                  .bandwidth_bps = 250e3,
                  .propagation_delay = duration::micros(500),
                  .loss_probability = loss,
                  .wireless = true,
                  .range_m = range_m,
                  .header_bytes = 11,
                  .mtu_bytes = 128};
}

}  // namespace ndsm::net
