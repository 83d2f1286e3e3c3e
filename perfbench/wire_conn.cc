#include "wire_conn.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/frame.h"

namespace perfbench {

using shareddb::Status;
using shareddb::net::DecodeFrame;
using shareddb::net::DecodeStatus;
using shareddb::net::Frame;
using shareddb::net::FrameType;

namespace {

Status FrameError(DecodeStatus ds) {
  switch (ds) {
    case DecodeStatus::kBadCrc:
      return Status::IoError("response frame failed its checksum");
    case DecodeStatus::kOversized:
      return Status::IoError("oversized response frame");
    default:
      return Status::IoError("undecodable response frame");
  }
}

}  // namespace

WireConn::~WireConn() { Close(); }

void WireConn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WireConn::BlockingCall(uint8_t type, const std::string& body,
                              std::string* reply_body, uint8_t* reply_type) {
  const uint64_t rid = next_setup_rid_++;
  const std::string bytes =
      shareddb::net::SealFrame(static_cast<FrameType>(type), rid, body);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("send failed during setup");
    off += static_cast<size_t>(n);
  }
  for (;;) {
    Frame f;
    size_t consumed = 0;
    const DecodeStatus ds = DecodeFrame(in_, shareddb::net::kDefaultMaxPayload,
                                        &f, &consumed);
    if (ds == DecodeStatus::kFrame) {
      in_.erase(0, consumed);
      if (f.request_id != rid) return Status::Internal("setup reply id mismatch");
      *reply_body = std::move(f.body);
      *reply_type = static_cast<uint8_t>(f.type);
      return Status::OK();
    }
    if (ds != DecodeStatus::kNeedMore) return FrameError(ds);
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("connection closed during setup");
    in_.append(buf, static_cast<size_t>(n));
  }
}

Status WireConn::Connect(uint16_t port,
                         const std::vector<std::string>& statements) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IoError(std::string("connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  shareddb::net::HelloMsg hello;
  hello.client_name = "perfbench";
  std::string body;
  uint8_t type = 0;
  Status s = BlockingCall(static_cast<uint8_t>(FrameType::kHello),
                          shareddb::net::EncodeHello(hello), &body, &type);
  if (!s.ok()) return s;
  if (type != static_cast<uint8_t>(FrameType::kPong)) {
    return Status::Internal("handshake: expected PONG");
  }
  for (const std::string& name : statements) {
    shareddb::net::PrepareMsg m;
    m.name = name;
    s = BlockingCall(static_cast<uint8_t>(FrameType::kPrepare),
                     shareddb::net::EncodePrepare(m), &body, &type);
    if (!s.ok()) return s;
    shareddb::net::ResultHead head;
    std::vector<shareddb::Tuple> rows;
    if (type != static_cast<uint8_t>(FrameType::kResult) ||
        !shareddb::net::DecodeResultHead(body, &head, &rows)) {
      return Status::Internal("PREPARE " + name + " failed");
    }
    stmt_ids_[name] = static_cast<uint32_t>(head.handle);
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IoError("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

uint32_t WireConn::StatementId(const std::string& name) const {
  return stmt_ids_.at(name);
}

Status WireConn::SendExecute(uint64_t request_id, uint32_t statement_id,
                             const std::vector<shareddb::Value>& params) {
  shareddb::net::ExecuteMsg m;
  m.by_name = false;
  m.statement_id = statement_id;
  m.params = params;
  out_ += shareddb::net::SealFrame(FrameType::kExecute, request_id,
                                   shareddb::net::EncodeExecute(m));
  return Flush();
}

Status WireConn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Status::IoError("send failed");
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return Status::OK();
}

Status WireConn::ReadAvailable(
    const std::function<void(uint64_t, const WireResponse&)>& cb) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Status::IoError("connection closed by server");
  }
  for (;;) {
    Frame f;
    size_t consumed = 0;
    const DecodeStatus ds = DecodeFrame(in_, shareddb::net::kDefaultMaxPayload,
                                        &f, &consumed);
    if (ds == DecodeStatus::kNeedMore) break;
    if (ds != DecodeStatus::kFrame) return FrameError(ds);
    in_.erase(0, consumed);
    if (f.type == FrameType::kError) {
      shareddb::net::ErrorMsg e;
      WireResponse r;
      r.status = shareddb::net::DecodeError(f.body, &e)
                     ? shareddb::net::StatusFromError(e)
                     : Status::Internal("undecodable ERROR frame");
      partial_.erase(f.request_id);
      cb(f.request_id, r);
    } else if (f.type == FrameType::kResult) {
      shareddb::net::ResultHead head;
      std::vector<shareddb::Tuple> rows;
      if (!shareddb::net::DecodeResultHead(f.body, &head, &rows)) {
        return Status::Internal("undecodable RESULT frame");
      }
      WireResponse r;
      r.rows = head.total_rows;
      r.update_count = head.update_count;
      r.queue_ms = head.queue_ms;
      r.exec_ms = head.exec_ms;
      r.batches_waited = head.batches_waited;
      if (rows.size() >= head.total_rows) {
        cb(f.request_id, r);
      } else {
        partial_[f.request_id] = {r, head.total_rows - rows.size()};
      }
    } else if (f.type == FrameType::kRows) {
      auto it = partial_.find(f.request_id);
      shareddb::net::RowsMsg rows;
      if (it == partial_.end() || !shareddb::net::DecodeRows(f.body, &rows)) {
        return Status::Internal("unexpected ROWS continuation");
      }
      const uint64_t got = rows.rows.size();
      it->second.second -= got < it->second.second ? got : it->second.second;
      if (rows.done || it->second.second == 0) {
        const WireResponse r = it->second.first;
        partial_.erase(it);
        cb(f.request_id, r);
      }
    } else {
      return Status::Internal("unexpected response frame type");
    }
  }
  return Status::OK();
}

}  // namespace perfbench
