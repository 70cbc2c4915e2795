#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "stats.h"

namespace priview::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every thread starts against the same origin, a little in the future so
// that thread start-up is not charged to the first requests.
Clock::time_point PhaseOrigin() {
  return Clock::now() + std::chrono::milliseconds(20);
}

}  // namespace

std::vector<RequestRecord> RunOpenLoop(
    const std::vector<GeneratorPlan>& plans) {
  PRIVIEW_CHECK(plans.size() <= size_t{kMaxGeneratorThreads});
  std::vector<std::vector<RequestRecord>> per_thread(plans.size());
  const Clock::time_point origin = PhaseOrigin();
  std::vector<std::thread> threads;
  threads.reserve(plans.size());
  for (size_t t = 0; t < plans.size(); ++t) {
    threads.emplace_back([&, t] {
      const GeneratorPlan& plan = plans[t];
      std::vector<RequestRecord>& records = per_thread[t];
      records.reserve(plan.arrivals.size());
      double previous_done = 0.0;
      for (const Arrival& arrival : plan.arrivals) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrival.due_s)));
        RequestRecord record;
        record.due_s = arrival.due_s;
        record.op = arrival.op;
        record.lag_s = GeneratorLag(arrival.due_s, previous_done,
                                    SecondsSince(origin));
        record.ok = plan.issue(arrival.op);
        record.done_s = SecondsSince(origin);
        previous_done = record.done_s;
        records.push_back(record);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<RequestRecord> all;
  for (std::vector<RequestRecord>& records : per_thread) {
    all.insert(all.end(), records.begin(), records.end());
  }
  return all;
}

ClosedLoopResult RunClosedLoop(const std::vector<IssueFn>& issuers,
                               const std::vector<std::vector<uint32_t>>& ops,
                               double seconds) {
  PRIVIEW_CHECK(issuers.size() <= size_t{kMaxGeneratorThreads});
  PRIVIEW_CHECK(ops.size() == issuers.size());
  std::vector<std::vector<double>> done(issuers.size());
  std::atomic<uint64_t> failed{0};
  const Clock::time_point origin = PhaseOrigin();
  const Clock::time_point end =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(issuers.size());
  for (size_t t = 0; t < issuers.size(); ++t) {
    threads.emplace_back([&, t] {
      if (ops[t].empty()) return;
      std::this_thread::sleep_until(origin);
      for (size_t i = 0; Clock::now() < end; ++i) {
        if (issuers[t](ops[t][i % ops[t].size()])) {
          done[t].push_back(SecondsSince(origin));
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ClosedLoopResult result;
  for (const std::vector<double>& times : done) {
    result.done_s.insert(result.done_s.end(), times.begin(), times.end());
  }
  result.failed = failed.load();
  return result;
}

}  // namespace priview::e2e
