// Core value types shared across the simulator: objects, requests, and the
// integer ids of objects and clients.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace webcache {

/// Dense integer identifying a distinct web object within a trace.
/// ObjectNum 0 is the most popular object of the synthetic workloads.
using ObjectNum = std::uint32_t;

/// Index of a client within its client cluster.
using ClientNum = std::uint32_t;

/// Simulated object size in bytes. The paper's experiments use unit-size
/// objects; the workload library still carries true sizes for trace tooling.
using ObjectSize = std::uint64_t;

/// One HTTP request as consumed by the simulator.
struct Request {
  std::uint64_t time = 0;   ///< logical timestamp (request sequence number)
  ClientNum client = 0;     ///< issuing client within its cluster
  ObjectNum object = 0;     ///< dense object id
  ObjectSize size = 1;      ///< object size (1 in the paper's experiments)
};

/// Prefix of every canonical object URL (see object_url).
inline constexpr std::string_view kObjectUrlPrefix = "http://origin.example.com/object/";

/// Stack buffer large enough for any canonical object URL: the 33-byte
/// prefix plus at most 10 decimal digits of a 32-bit id.
struct ObjectUrlBuffer {
  char data[48];
};

/// Formats the canonical URL of a dense object id into `buf` and returns a
/// view of it — no heap allocation, for hot loops that hash millions of URLs
/// (ring-placement table construction).
[[nodiscard]] inline std::string_view object_url(ObjectNum object, ObjectUrlBuffer& buf) {
  std::memcpy(buf.data, kObjectUrlPrefix.data(), kObjectUrlPrefix.size());
  const auto [end, ec] = std::to_chars(buf.data + kObjectUrlPrefix.size(),
                                       buf.data + sizeof(buf.data), object);
  (void)ec;  // cannot fail: the buffer fits any 32-bit value
  return {buf.data, static_cast<std::size_t>(end - buf.data)};
}

/// Canonical URL for a dense object id. The simulator mostly works with
/// dense ids; URLs only matter where the paper specifies SHA-1(URL), i.e.
/// when placing objects on the Pastry ring.
[[nodiscard]] inline std::string object_url(ObjectNum object) {
  ObjectUrlBuffer buf;
  return std::string(object_url(object, buf));
}

}  // namespace webcache
