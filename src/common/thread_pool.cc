#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.h"

namespace p2pdt {

namespace {

thread_local bool t_in_pool_worker = false;
// Set while the calling thread runs chunks of its own ParallelFor.
thread_local bool t_in_parallel_for = false;

constexpr std::size_t kMaxConcurrency = 256;

std::size_t ResolveConcurrencyFromEnvironment() {
  // Decimal digits only: strtoul would also take a sign (or leading space),
  // so "-1" would wrap to ULONG_MAX and resolve to the clamp.
  if (const char* env = std::getenv("P2PDT_THREADS")) {
    std::size_t v = 0;
    const char* p = env;
    for (; *p >= '0' && *p <= '9'; ++p) {
      v = std::min<std::size_t>(v * 10 + static_cast<std::size_t>(*p - '0'),
                                kMaxConcurrency);
    }
    if (p != env && *p == '\0' && v > 0) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

// Guards the global pool singleton and its configured concurrency.
std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;
std::size_t g_global_concurrency = 0;  // 0 = not yet resolved

}  // namespace

ThreadPool::ThreadPool(std::size_t num_workers, std::size_t max_queued)
    : max_queued_(std::max<std::size_t>(max_queued, 1)) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    try {
      task();
    } catch (const std::exception& e) {
      P2PDT_LOG(Error) << "thread pool task threw: " << e.what();
    } catch (...) {
      P2PDT_LOG(Error) << "thread pool task threw a non-std exception";
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    try {
      task();
    } catch (const std::exception& e) {
      P2PDT_LOG(Error) << "thread pool task threw: " << e.what();
    } catch (...) {
      P2PDT_LOG(Error) << "thread pool task threw a non-std exception";
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return stop_ || queue_.size() < max_queued_; });
    if (stop_) return;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  if (chunk == 0) chunk = 1;
  const std::size_t total = end - begin;
  const std::size_t num_chunks = (total + chunk - 1) / chunk;

  // Serial path: no workers, a single chunk, or a nested call — from inside
  // a worker, or from a caller running chunks of an outer loop (inline to
  // avoid queue deadlock and oversubscription; a nested caller would
  // otherwise wait for helpers queued behind the outer loop's own tasks).
  const std::size_t helpers = std::min(workers_.size(), num_chunks - 1);
  if (helpers == 0 || InWorker() || t_in_parallel_for) {
    body(begin, end);
    return;
  }

  // The shared state lives on the caller's stack; helper tasks hold only a
  // raw pointer. The completion handshake (active-count under done_mu)
  // guarantees every helper's last touch of the state happens-before the
  // caller wakes, so the caller alone owns, reads and destroys the
  // recorded exceptions — no cross-thread exception_ptr lifetime.
  struct SharedState {
    std::atomic<std::size_t> next{0};
    std::size_t begin, end, chunk, num_chunks;
    const std::function<void(std::size_t, std::size_t)>* body;
    // Exceptions recorded per chunk so the rethrown one is the
    // lowest-indexed — independent of scheduling order.
    std::vector<std::exception_ptr> errors;
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::size_t active = 0;
  };
  SharedState state;
  state.begin = begin;
  state.end = end;
  state.chunk = chunk;
  state.num_chunks = num_chunks;
  state.body = &body;
  state.errors.assign(num_chunks, nullptr);
  state.active = helpers;

  auto drain = [](SharedState& s) {
    for (;;) {
      std::size_t c = s.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s.num_chunks) return;
      std::size_t lo = s.begin + c * s.chunk;
      std::size_t hi = std::min(s.end, lo + s.chunk);
      try {
        (*s.body)(lo, hi);
      } catch (...) {
        s.errors[c] = std::current_exception();
      }
    }
  };

  SharedState* shared = &state;
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([shared, drain] {
      drain(*shared);
      std::lock_guard<std::mutex> lock(shared->done_mu);
      if (--shared->active == 0) shared->done_cv.notify_all();
    });
  }
  t_in_parallel_for = true;
  drain(state);  // the caller is a full participant
  t_in_parallel_for = false;
  {
    std::unique_lock<std::mutex> lock(state.done_mu);
    state.done_cv.wait(lock, [&] { return state.active == 0; });
  }
  for (std::exception_ptr& e : state.errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) {
    if (g_global_concurrency == 0) {
      g_global_concurrency = ResolveConcurrencyFromEnvironment();
    }
    g_global_pool = std::make_unique<ThreadPool>(g_global_concurrency - 1);
  }
  return *g_global_pool;
}

std::size_t ThreadPool::GlobalConcurrency() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_concurrency == 0) {
    g_global_concurrency = ResolveConcurrencyFromEnvironment();
  }
  return g_global_concurrency;
}

void ThreadPool::SetGlobalConcurrency(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_concurrency =
      threads > 0 ? threads : ResolveConcurrencyFromEnvironment();
  g_global_pool = std::make_unique<ThreadPool>(g_global_concurrency - 1);
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::Global().ParallelFor(begin, end, chunk, body);
}

void ComputeCommitPhase(
    std::size_t num_items,
    const std::function<UniqueFunction(std::size_t)>& work) {
  // Compute fan-out: each claimed item fills only its own commit slot, so
  // the phase needs no locks.
  std::vector<UniqueFunction> commits(num_items);
  ParallelFor(0, num_items, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t item = lo; item < hi; ++item) commits[item] = work(item);
  });
  // Commit serially in item order, independent of completion order.
  for (UniqueFunction& commit : commits) {
    if (commit) commit();
  }
}

}  // namespace p2pdt
