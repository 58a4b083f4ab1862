// SPDX-License-Identifier: MIT
#include "dist/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cobra::dist {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ProtocolError(what + ": " + std::strerror(errno));
}

void put_le(std::string& out, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(const unsigned char* data, std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return value;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kWelcome: return "WELCOME";
    case FrameType::kReject: return "REJECT";
    case FrameType::kLeaseRequest: return "LEASE_REQUEST";
    case FrameType::kLeaseGrant: return "LEASE_GRANT";
    case FrameType::kShutdown: return "SHUTDOWN";
    case FrameType::kJobResult: return "JOB_RESULT";
    case FrameType::kShardDone: return "SHARD_DONE";
    case FrameType::kError: return "ERROR";
    case FrameType::kGraphRequest: return "GRAPH_REQUEST";
    case FrameType::kGraphData: return "GRAPH_DATA";
  }
  return "UNKNOWN";
}

// ---- WireWriter / WireReader ----

void WireWriter::u8(std::uint8_t value) { put_le(data_, value, 1); }
void WireWriter::u32(std::uint32_t value) { put_le(data_, value, 4); }
void WireWriter::u64(std::uint64_t value) { put_le(data_, value, 8); }

void WireWriter::str(std::string_view value) {
  if (value.size() > kMaxFramePayload) {
    throw ProtocolError("string field exceeds frame limit");
  }
  u32(static_cast<std::uint32_t>(value.size()));
  data_.append(value.data(), value.size());
}

const unsigned char* WireReader::need(std::size_t bytes) {
  if (data_.size() - pos_ < bytes) {
    throw ProtocolError("malformed frame: payload underflow");
  }
  const auto* at =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += bytes;
  return at;
}

std::uint8_t WireReader::u8() {
  return static_cast<std::uint8_t>(get_le(need(1), 1));
}
std::uint32_t WireReader::u32() {
  return static_cast<std::uint32_t>(get_le(need(4), 4));
}
std::uint64_t WireReader::u64() { return get_le(need(8), 8); }

std::string WireReader::str() {
  const std::uint32_t length = u32();
  const unsigned char* at = need(length);
  return std::string(reinterpret_cast<const char*>(at), length);
}

// ---- Socket ----

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ProtocolError("invalid host address '" + host +
                        "' (numeric IPv4 expected)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  // Lease/result frames are small and latency-sensitive; don't batch them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return socket;
}

void Socket::send_all(const void* data, std::size_t bytes) {
  const char* at = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t sent = ::send(fd_, at, bytes, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    at += sent;
    bytes -= static_cast<std::size_t>(sent);
  }
}

bool Socket::recv_all(void* data, std::size_t bytes, bool eof_ok) {
  char* at = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::recv(fd_, at + got, bytes - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::send_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("frame payload exceeds limit");
  }
  std::string header;
  put_le(header, payload.size(), 4);
  put_le(header, static_cast<std::uint8_t>(type), 1);
  send_all(header.data(), header.size());
  if (!payload.empty()) send_all(payload.data(), payload.size());
}

bool Socket::recv_frame(Frame& frame) {
  unsigned char header[5];
  if (!recv_all(header, sizeof header, /*eof_ok=*/true)) return false;
  const auto length = static_cast<std::uint32_t>(get_le(header, 4));
  if (length > kMaxFramePayload) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " exceeds limit (corrupt stream?)");
  }
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.resize(length);
  if (length > 0) recv_all(frame.payload.data(), length, /*eof_ok=*/false);
  return true;
}

// ---- Listener ----

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

void Listener::shutdown() noexcept {
  // Reads fd_ only, so it may race an accept_connection on another thread;
  // on Linux a shut-down listening socket fails accept with EINVAL.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener Listener::bind_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Listener listener;
  listener.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) throw_errno("listen");
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    throw_errno("getsockname");
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Socket Listener::accept_connection() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();  // listener shut down (EINVAL) — accept loop exits
  }
}

// ---- message codecs ----

std::string encode_hello(const HelloMsg& msg) {
  WireWriter w;
  w.u32(msg.protocol);
  w.u32(msg.journal_format);
  w.str(msg.build_info);
  return w.take();
}

HelloMsg decode_hello(std::string_view payload) {
  WireReader r(payload);
  HelloMsg msg;
  msg.protocol = r.u32();
  msg.journal_format = r.u32();
  msg.build_info = r.str();
  return msg;
}

std::string encode_welcome(const WelcomeMsg& msg) {
  WireWriter w;
  w.u32(msg.protocol);
  w.u32(msg.journal_format);
  w.str(msg.build_info);
  w.u64(msg.fingerprint);
  w.u64(msg.worker_id);
  w.str(msg.spec_text);
  return w.take();
}

WelcomeMsg decode_welcome(std::string_view payload) {
  WireReader r(payload);
  WelcomeMsg msg;
  msg.protocol = r.u32();
  msg.journal_format = r.u32();
  msg.build_info = r.str();
  msg.fingerprint = r.u64();
  msg.worker_id = r.u64();
  msg.spec_text = r.str();
  return msg;
}

std::string encode_lease_grant(const LeaseGrantMsg& msg) {
  WireWriter w;
  w.u64(msg.shard);
  w.u32(static_cast<std::uint32_t>(msg.jobs.size()));
  for (const std::uint64_t job : msg.jobs) w.u64(job);
  return w.take();
}

LeaseGrantMsg decode_lease_grant(std::string_view payload) {
  WireReader r(payload);
  LeaseGrantMsg msg;
  msg.shard = r.u64();
  const std::uint32_t count = r.u32();
  msg.jobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) msg.jobs.push_back(r.u64());
  return msg;
}

std::string encode_job_result(const JobResultMsg& msg) {
  WireWriter w;
  w.u64(msg.shard);
  w.u64(msg.job);
  w.str(msg.payload);
  return w.take();
}

JobResultMsg decode_job_result(std::string_view payload) {
  WireReader r(payload);
  JobResultMsg msg;
  msg.shard = r.u64();
  msg.job = r.u64();
  msg.payload = r.str();
  return msg;
}

std::string encode_graph_request(const GraphRequestMsg& msg) {
  WireWriter w;
  w.str(msg.path);
  w.u64(msg.offset);
  w.u32(msg.max_bytes);
  return w.take();
}

GraphRequestMsg decode_graph_request(std::string_view payload) {
  WireReader r(payload);
  GraphRequestMsg msg;
  msg.path = r.str();
  msg.offset = r.u64();
  msg.max_bytes = r.u32();
  return msg;
}

std::string encode_graph_data(const GraphDataMsg& msg) {
  WireWriter w;
  w.u64(msg.file_size);
  w.str(msg.bytes);
  return w.take();
}

GraphDataMsg decode_graph_data(std::string_view payload) {
  WireReader r(payload);
  GraphDataMsg msg;
  msg.file_size = r.u64();
  msg.bytes = r.str();
  return msg;
}

}  // namespace cobra::dist
