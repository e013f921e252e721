// Persistent fork/join thread pool (the SimFarm worker lanes).
//
// Workers park on an epoch counter between forks, spinning briefly, then
// yielding, then falling back to a condition variable — so back-to-back
// short forks never pay a futex round trip, while an idle pool does not
// burn a core. run() is the only entry point: it executes fn(lane)
// on every lane (lane 0 on the calling thread, which always participates)
// and returns once all lanes have finished; the epoch handoff gives
// release/acquire ordering both into and out of the fork, so plain memory
// written before run() is visible to workers, and worker writes are visible
// to the caller after run() returns.
//
// Not reentrant: run() must not be called from inside a pool task, and the
// task must not throw (workers run with exceptions unguarded; a throwing
// task terminates).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace essent::support {

class ThreadPool {
 public:
  // `threads` is the total lane count including the caller; 0 is clamped
  // to 1 (no worker threads are spawned, run() degenerates to fn(0)).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned numThreads() const { return numThreads_; }

  // Fork/join: every lane runs fn(lane); returns after all lanes complete.
  void run(const std::function<void(unsigned)>& fn);

  // ESSENT_THREADS when set to a positive integer, else the hardware
  // concurrency (minimum 1).
  static unsigned defaultThreadCount();

  // Test hook: when nonzero, worker spawns fail (throwing std::system_error
  // as an exhausted OS would) once `spawned` workers exist. Used to exercise
  // the graceful-degradation path without actually exhausting the machine.
  static void failSpawnsAfterForTest(unsigned spawned);

 private:
  void workerLoop(unsigned lane);

  unsigned numThreads_;
  std::vector<std::thread> workers_;
  const std::function<void(unsigned)>* fn_ = nullptr;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> pending_{0};
  std::atomic<uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};  // set (release) before the final epoch bump
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace essent::support
