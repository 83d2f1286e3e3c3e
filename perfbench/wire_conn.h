// WireConn: a pipelining client connection for the SharedDB wire protocol.
//
// net::Client keeps one request outstanding per connection. An open-loop
// generator needs many: the server answers pipelined EXECUTE frames by
// request id, in completion order. WireConn sends EXECUTE frames without
// waiting, buffers what the socket will not take yet, and hands each
// complete response (RESULT head + ROWS continuations, or ERROR) to a
// callback. It is driven by one thread's poll loop and is not thread-safe.

#ifndef SHAREDDB_PERFBENCH_WIRE_CONN_H_
#define SHAREDDB_PERFBENCH_WIRE_CONN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace perfbench {

/// One complete response to a pipelined EXECUTE.
struct WireResponse {
  shareddb::Status status;  // engine status (ERROR frames) or OK
  uint64_t rows = 0;
  uint64_t update_count = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  uint64_t batches_waited = 0;
};

class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Connects, runs the HELLO/PONG handshake and PREPAREs `statements`
  /// (all blocking); the socket is nonblocking afterwards.
  shareddb::Status Connect(uint16_t port,
                           const std::vector<std::string>& statements);
  void Close();

  int fd() const { return fd_; }
  /// Statement id PREPAREd for `name` (Connect must have prepared it).
  uint32_t StatementId(const std::string& name) const;

  /// Queues one EXECUTE frame and writes what the socket takes.
  shareddb::Status SendExecute(uint64_t request_id, uint32_t statement_id,
                               const std::vector<shareddb::Value>& params);
  /// Writes buffered bytes until the socket would block.
  shareddb::Status Flush();
  bool want_write() const { return out_off_ < out_.size(); }

  /// Reads until the socket would block and calls `cb` once per complete
  /// response. A transport or framing failure returns non-OK.
  shareddb::Status ReadAvailable(
      const std::function<void(uint64_t, const WireResponse&)>& cb);

 private:
  shareddb::Status BlockingCall(uint8_t type, const std::string& body,
                                std::string* reply_body, uint8_t* reply_type);

  int fd_ = -1;
  uint64_t next_setup_rid_ = 1ull << 62;  // disjoint from generator ids
  std::string in_;
  std::string out_;
  size_t out_off_ = 0;
  std::unordered_map<std::string, uint32_t> stmt_ids_;
  // RESULT heads still waiting for ROWS continuations, by request id.
  std::unordered_map<uint64_t, std::pair<WireResponse, uint64_t>> partial_;
};

}  // namespace perfbench

#endif  // SHAREDDB_PERFBENCH_WIRE_CONN_H_
