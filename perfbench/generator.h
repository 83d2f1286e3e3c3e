// Open-loop load generation for the real-time TPC-W benchmark.
//
// Arrivals are due on a precomputed Poisson schedule whatever the server
// does; an interaction's statements run in order, each sent when the
// previous one completes; its response time is measured from the time it
// was due, so a stall charges every arrival it delays. Load comes from a
// few threads that each keep many requests in flight:
//
//  * TcpGenerator: one busy-polling thread over pipelined WireConns (TCP
//    front door);
//  * InprocGenerator: sender/receiver thread pairs over api::Session
//    ExecuteAsync (no network), one session per sender.

#ifndef SHAREDDB_PERFBENCH_GENERATOR_H_
#define SHAREDDB_PERFBENCH_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/server.h"
#include "tpcw/interactions.h"
#include "wire_conn.h"

namespace perfbench {

/// One web interaction (or one lookup statement) due at `due_ns`.
struct Arrival {
  int64_t due_ns = 0;  // offset from the phase start until Run() rebases it
  uint64_t id = 0;
  std::vector<shareddb::tpcw::StatementCall> calls;
  /// Lookup only: the key the single response row must carry.
  int64_t expect_key = -1;
};

struct PhaseSpec {
  std::string name;
  double rate = 0;        // arrivals per second
  double limit_ms = 0;    // WIRT limit; sizes the backlog abort
  bool abort_on_backlog = false;  // ladder steps end early on a collapse
  int64_t drain_ns = 0;   // completions later than last due + this = undrained
  bool trace = false;     // record interaction/statement spans
  bool track_dups = false;
  int gen_cpu = -1;       // core the generator threads are pinned to (-1 = none)
};

/// Outcome of one phase, merged over generator threads.
struct PhaseStats {
  std::vector<double> wirt_ms;      // per finished interaction; +inf = failed
  std::vector<double> stmt_us;      // send -> response, per statement
  std::vector<double> residual_us;  // stmt_us - (queue_ms + exec_ms)
  std::vector<double> queue_us;     // engine-reported queue wait
  std::vector<double> lag_ms;       // start time - due time, per arrival
  uint64_t arrivals = 0;
  uint64_t not_started = 0;         // skipped after a backlog abort
  uint64_t stmts_sent = 0;
  uint64_t stmts_failed = 0;
  uint64_t writes_sent = 0;
  uint64_t dup_inflight = 0;        // sent while an identical call was open
  uint64_t batches_waited = 0;
  uint64_t check_failures = 0;      // wrong lookup answers
  double gen_cpu_s = 0;
  bool aborted = false;
  bool undrained = false;
  std::string first_error;

  void Merge(PhaseStats&& o);
};

class Generator {
 public:
  virtual ~Generator() = default;
  /// Runs `schedule` (due offsets from now) to completion: every started
  /// interaction finishes before Run returns.
  virtual PhaseStats Run(const PhaseSpec& spec,
                         std::vector<Arrival> schedule) = 0;
};

/// One generator thread driving every connection.
std::unique_ptr<Generator> MakeTcpGenerator(std::vector<WireConn*> conns,
                                            const std::vector<std::string>& dml);

/// `pairs` sender/receiver thread pairs, one api::Session per sender.
std::unique_ptr<Generator> MakeInprocGenerator(shareddb::api::Server* server,
                                               int pairs);

/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // SHAREDDB_PERFBENCH_GENERATOR_H_
