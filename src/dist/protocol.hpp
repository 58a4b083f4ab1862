// SPDX-License-Identifier: MIT
//
// Wire protocol of the distributed campaign fabric: length-prefixed binary
// frames over TCP (localhost first; nothing here assumes one machine).
//
// Frame layout (all integers little-endian):
//   u32 payload-length | u8 frame-type | payload bytes
//
// Conversation:
//   worker  -> HELLO        protocol + journal-format versions, build info
//   coord   -> WELCOME      versions, build info, plan fingerprint, the
//                           rendered spec text (the worker re-plans from it
//                           and cross-checks the fingerprint — a stale
//                           worker binary whose planner diverged fails
//                           loudly here), worker id
//           |  REJECT       reason (version mismatch) — connection ends
//   worker  -> LEASE_REQUEST
//   coord   -> LEASE_GRANT  shard id + the job indices still pending in it
//           |  SHUTDOWN     campaign complete — worker exits
//   worker  -> JOB_RESULT   shard id, job index, serialized JobResult
//                           payload (the journal's own %.17g round-trip
//                           format, so a remotely computed result merges
//                           byte-identically to a local one)
//   worker  -> SHARD_DONE   shard id — every job of the lease was streamed
//   either  -> ERROR        fatal condition, human-readable reason
//
// Graph shipping (protocol v2): a worker whose plan references
// family=file graphs it does not have locally fetches them from the
// coordinator right after the handshake, before its lease loop:
//   worker  -> GRAPH_REQUEST  relative path, byte offset, max bytes
//   coord   -> GRAPH_DATA     total file size + the requested byte range
//           |  ERROR          unknown path (only paths named by the plan's
//                             own [graph] file= params are served — the
//                             coordinator is not a general file server)
// Ranges respect kMaxFramePayload, so arbitrarily large .cgr instances
// ship in bounded frames; the worker writes them to the same relative
// path and re-resolves it, keeping graph seeds and the plan fingerprint
// unchanged.
//
// Any frame from a worker renews its lease; a closed connection or an
// expired lease requeues the shard (see lease.hpp), and re-delivered
// results are dropped by job index at the journal merge.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cobra::dist {

/// Bumped on any incompatible change to framing or message layout; the
/// handshake rejects a mismatch outright. v2 added the GRAPH_REQUEST /
/// GRAPH_DATA graph-shipping exchange.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Hard ceiling on one frame's payload — a corrupt length prefix must not
/// become a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// All fabric transport/codec errors (socket failures, malformed frames,
/// handshake rejections) throw this.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kReject = 3,
  kLeaseRequest = 4,
  kLeaseGrant = 5,
  kShutdown = 6,
  kJobResult = 7,
  kShardDone = 8,
  kError = 9,
  kGraphRequest = 10,
  kGraphData = 11,
};

const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Append-only payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  /// u32 length prefix + raw bytes.
  void str(std::string_view value);

  const std::string& data() const noexcept { return data_; }
  std::string take() noexcept { return std::move(data_); }

 private:
  std::string data_;
};

/// Bounds-checked payload cursor; underflow throws ProtocolError (a
/// malformed frame must never read past its buffer).
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();

  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  const unsigned char* need(std::size_t bytes);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// RAII TCP stream socket with framed send/recv. Sends are whole-frame and
/// use MSG_NOSIGNAL (a peer death surfaces as ProtocolError, not SIGPIPE).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Connects to host:port (numeric IPv4 host, "127.0.0.1" for local
  /// fleets); throws ProtocolError on failure.
  static Socket connect_to(const std::string& host, std::uint16_t port);

  /// Writes one complete frame; throws ProtocolError on any short write.
  void send_frame(FrameType type, std::string_view payload);

  /// Reads one frame. Returns false on a clean EOF at a frame boundary
  /// (the peer closed); throws on a torn frame, oversized length, or
  /// socket error — a dead worker mid-frame is an error the caller turns
  /// into a lease requeue.
  bool recv_frame(Frame& frame);

  /// Shuts down both directions, unblocking a peer (or own thread) stuck
  /// in recv. Idempotent, never throws.
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  void send_all(const void* data, std::size_t bytes);
  bool recv_all(void* data, std::size_t bytes, bool eof_ok);

  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1 (port 0 = kernel-assigned; port()
/// reports the effective one so scripts can follow a --port-file).
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Listener bind_local(std::uint16_t port);

  std::uint16_t port() const noexcept { return port_; }
  bool valid() const noexcept { return fd_ >= 0; }

  /// Blocks for the next connection; returns an invalid Socket once the
  /// listener has been shut down (the accept loop's exit signal).
  Socket accept_connection();

  /// Stops accepting: a blocked or later accept_connection returns an
  /// invalid Socket. Safe to call while another thread is in
  /// accept_connection; idempotent.
  void shutdown() noexcept;

  /// Releases the socket and the port. Not safe against a concurrent
  /// accept_connection (the fd could be reused under it): shut down, join
  /// the accepting thread, then close. Idempotent.
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---- message codecs (payloads of the frames above) ----

struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::uint32_t journal_format = 0;
  std::string build_info;
};

struct WelcomeMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::uint32_t journal_format = 0;
  std::string build_info;
  std::uint64_t fingerprint = 0;
  std::uint64_t worker_id = 0;
  std::string spec_text;
};

struct LeaseGrantMsg {
  std::uint64_t shard = 0;
  std::vector<std::uint64_t> jobs;
};

struct JobResultMsg {
  std::uint64_t shard = 0;
  std::uint64_t job = 0;
  std::string payload;  ///< serialize_job_result() bytes
};

/// One byte range of a plan-referenced graph file. `max_bytes` caps the
/// reply chunk (the coordinator may return less at EOF, never more).
struct GraphRequestMsg {
  std::string path;  ///< as written in the plan's file= param
  std::uint64_t offset = 0;
  std::uint32_t max_bytes = 0;
};

struct GraphDataMsg {
  std::uint64_t file_size = 0;  ///< total bytes, so the worker can loop
  std::string bytes;            ///< the range [offset, offset + len)
};

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(std::string_view payload);
std::string encode_welcome(const WelcomeMsg& msg);
WelcomeMsg decode_welcome(std::string_view payload);
std::string encode_lease_grant(const LeaseGrantMsg& msg);
LeaseGrantMsg decode_lease_grant(std::string_view payload);
std::string encode_job_result(const JobResultMsg& msg);
JobResultMsg decode_job_result(std::string_view payload);
std::string encode_graph_request(const GraphRequestMsg& msg);
GraphRequestMsg decode_graph_request(std::string_view payload);
std::string encode_graph_data(const GraphDataMsg& msg);
GraphDataMsg decode_graph_data(std::string_view payload);
/// kReject / kError payloads are bare reason strings (not u32-prefixed).

}  // namespace cobra::dist
