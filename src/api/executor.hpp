#pragma once
// Job executor: the one mechanism every Study runs its job DAG on.
//
// The Study runner only needs fire-and-forget submission — DAG ordering is
// the runner's own bookkeeping (a job is submitted only once its
// dependencies finished), and completion is observed through the submitted
// closures themselves. Tasks never block on other tasks, so any pool of
// width >= 1 makes progress and several concurrent Studies can interleave
// their jobs on the same workers without deadlock.
//
// ThreadPool is the implementation. A Study without a caller-provided
// executor creates a local one of its resolved width; a host process (the
// serve daemon, the benchmark driver) shares one across concurrent Studies.

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace netsmith::api {

class JobExecutor {
 public:
  virtual ~JobExecutor() = default;

  // Enqueues `task` to run on some worker thread, at some later point.
  // Must not run the task inline (the caller may hold locks) and must not
  // drop it: every submitted task is eventually executed.
  virtual void submit(std::function<void()> task) = 0;
};

// Fixed-width worker pool implementing JobExecutor. submit() enqueues and
// never runs inline; the destructor drains every queued task, then joins.
// Width governs study parallelism for every Study sharing it.
class ThreadPool final : public JobExecutor {
 public:
  // width <= 0 picks hardware concurrency (min 1).
  explicit ThreadPool(int width = 0);
  ~ThreadPool() override;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task) override;

 private:
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace netsmith::api
