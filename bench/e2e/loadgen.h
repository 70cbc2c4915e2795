// Load generator for the serving workloads. One process drives all load
// with at most kMaxGeneratorThreads threads, each owning one connection.
//
//   Open loop: every thread follows its own seeded Poisson schedule and
//   sends each request when it falls due, whether or not the server kept
//   up. Latency is timed from the due time, so a stall is charged to every
//   request it delayed; the generator's own lateness is recorded apart
//   (stats.h GeneratorLag) so a stalled generator never reads as a slow
//   server.
//   Closed loop: every thread sends its next request as soon as the last
//   one is answered — the completions per second are the capacity.
#ifndef PRIVIEW_BENCH_E2E_LOADGEN_H_
#define PRIVIEW_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace priview::e2e {

inline constexpr int kMaxGeneratorThreads = 4;

/// One scheduled request: when it falls due (seconds from the start of
/// the phase) and which operation of the workload it is.
struct Arrival {
  double due_s = 0.0;
  uint32_t op = 0;
};

/// Sends operation `op` and blocks until it is answered; true when the
/// answer was OK and passed the workload's checks. Called from one
/// generator thread only.
using IssueFn = std::function<bool(uint32_t op)>;

struct GeneratorPlan {
  std::vector<Arrival> arrivals;
  IssueFn issue;
};

/// What happened to one scheduled request (times in seconds from the start
/// of the phase).
struct RequestRecord {
  double due_s = 0.0;
  double done_s = 0.0;
  double lag_s = 0.0;
  uint32_t op = 0;
  bool ok = false;
};

/// Runs the plans open loop, one thread each (at most
/// kMaxGeneratorThreads). Records come back grouped by thread, each
/// thread's in schedule order.
std::vector<RequestRecord> RunOpenLoop(const std::vector<GeneratorPlan>& plans);

struct ClosedLoopResult {
  /// Completion times of the requests answered OK, in seconds from the
  /// start of the phase.
  std::vector<double> done_s;
  uint64_t failed = 0;
};

/// Runs `issuers.size()` threads closed loop for `seconds`; thread t sends
/// ops[t][0], ops[t][1], ... wrapping around its list.
ClosedLoopResult RunClosedLoop(const std::vector<IssueFn>& issuers,
                               const std::vector<std::vector<uint32_t>>& ops,
                               double seconds);

}  // namespace priview::e2e

#endif  // PRIVIEW_BENCH_E2E_LOADGEN_H_
