#pragma once
// Wire protocol of the hyperpartd partitioning service.
//
// Every message — request and response alike — is one *frame*:
//
//   offset  size  field
//   0       4     magic  "HPF1" (0x48 0x50 0x46 0x31)
//   4       4     length of the payload in bytes, uint32 little-endian
//   8       len   payload: one UTF-8 JSON document (hp::obs::json dialect)
//
// The magic makes a stray text client (or a truncated stream joined
// mid-frame) fail immediately with kBadMagic instead of misreading a
// length. Payloads above the configured cap (default 64 MiB) are rejected
// before any allocation so a hostile length field cannot balloon memory.
// The request schema on top of the frame lives in request.hpp, responses
// in DESIGN.md ("Partitioning service"); the frame layer itself is
// JSON-agnostic and is unit-tested byte-by-byte in test_server.

#include <cstdint>
#include <optional>
#include <string>

namespace hp::server {

inline constexpr char kFrameMagic[4] = {'H', 'P', 'F', '1'};
inline constexpr std::uint32_t kDefaultMaxFrame = 64u << 20;  // 64 MiB

enum class FrameError : std::uint8_t {
  kNone = 0,   ///< a full frame was read / written
  kClosed,     ///< clean EOF on a frame boundary (peer hung up)
  kBadMagic,   ///< first four bytes were not "HPF1"
  kOversize,   ///< declared length exceeds the cap
  kTruncated,  ///< EOF in the middle of a frame
  kIo,         ///< read()/write() failed (errno-level error)
};

[[nodiscard]] const char* frame_error_name(FrameError e) noexcept;

/// Read one frame from fd into `payload` (replaced, not appended). Blocks
/// until a full frame, EOF, or error. kClosed is returned only for EOF
/// before the first magic byte; EOF anywhere later is kTruncated.
[[nodiscard]] FrameError read_frame(int fd, std::string& payload,
                                    std::uint32_t max_payload = kDefaultMaxFrame);

/// Write one frame (magic + length + payload) to fd, looping over partial
/// writes. Returns kNone, kOversize (payload beyond the protocol's 32-bit
/// length), or kIo.
[[nodiscard]] FrameError write_frame(int fd, const std::string& payload);

/// Client side: a connected stream socket to the unix socket at `path`, or
/// -1 with errno set. A path that does not fit sockaddr_un is refused
/// (ENAMETOOLONG) rather than truncated to some other socket's path.
[[nodiscard]] int connect_unix(const std::string& path);

/// Client side: a connected socket to 127.0.0.1:`port`, or -1 with errno
/// set.
[[nodiscard]] int connect_tcp(int port);

/// One request frame out, one response frame back; nullopt on any
/// transport or framing failure.
[[nodiscard]] std::optional<std::string> round_trip(int fd,
                                                    const std::string& payload);

}  // namespace hp::server
