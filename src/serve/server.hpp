#pragma once
// netsmith serve daemon: a memory-resident study service. One process holds
// a SharedPool (the job executor every request's Study runs on) and an
// ArtifactStore (persistent, content-addressed), so concurrent requests
// share compute fairly and repeated specs are answered from cache — a warm
// identical spec performs zero synthesis/plan/sweep work.
//
// The one front end is a Unix-domain socket (ServerOptions::socket_path):
// newline-delimited JSON protocol (serve/protocol.hpp), one
// connection-handler thread per client, progress events streamed as jobs
// retire. Batch use against a shared store is `netsmith_run --cache DIR`.
//
// Deadlock rule: pool tasks never block on other tasks. The Study's
// executor-backed DAG (run_dag_on) only ever submits ready jobs, and the
// thread that waits for a study to finish is a connection handler, never a
// pool worker — so N concurrent studies share one pool of any width.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "api/executor.hpp"
#include "serve/store.hpp"
#include "util/json.hpp"

namespace netsmith::serve {

// The daemon's executor is the API's ThreadPool, shared by every request.
using SharedPool = api::ThreadPool;

struct ServerOptions {
  std::string socket_path;  // empty = no socket listener
  std::string cache_dir;    // empty = memory-only store
  std::size_t lru_bytes = 64ull << 20;
  int threads = 0;  // SharedPool width; 0 = hardware concurrency
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and launches the listener thread. Throws
  // std::runtime_error when the socket cannot be bound.
  void start();
  // Blocks until request_stop() (e.g. from a signal handler or a client
  // "shutdown" op), then joins every thread. The socket file is unlinked.
  void wait();
  // Async-signal-unfriendly parts (joins) happen in wait(); this only flags
  // and wakes, so it is safe to call from anywhere including handlers.
  void request_stop();
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  ArtifactStore& store() { return store_; }
  long requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connection-handler threads not yet joined. Finished handlers are joined
  // on each accept, so this tracks open connections, not connections ever
  // accepted.
  std::size_t unjoined_handlers() const;

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  void accept_loop();
  void handle_connection(int fd);
  void handle_run(int fd, const util::JsonValue& spec_json);
  // Joins and drops every finished handler; conn_mu_ must be held.
  void reap_connections();

  ServerOptions opts_;
  ArtifactStore store_;
  SharedPool pool_;
  std::atomic<bool> stop_{false};
  std::atomic<long> requests_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  mutable std::mutex conn_mu_;
  std::list<Connection> conns_;  // stable addresses: handlers flag `done`
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool started_ = false;
};

}  // namespace netsmith::serve
