#include "src/util/thread_pool.h"

#include <atomic>
#include <exception>
#include <utility>

namespace vlsipart {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  submit_with_slot(
      [task = std::move(task)](std::size_t /*worker*/) { task(); });
}

void ThreadPool::submit_with_slot(
    std::function<void(std::size_t worker)> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::size_t slot) {
  while (true) {
    std::function<void(std::size_t)> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_dynamic(
    std::size_t n,
    const std::function<void(std::size_t worker, std::size_t index)>& body) {
  if (n == 0) return;

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // guarded_by(mutex)
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t drivers_left = 0;  // guarded_by(mutex)
  };
  Shared shared;
  const std::size_t drivers = std::min(num_threads(), n);
  // Published to the driver tasks only through the queue below, which
  // synchronizes through the pool mutex.
  // det-lint: allow(lock-discipline)
  shared.drivers_left = drivers;

  // Enqueue every driver under one lock and wake the workers with one
  // notify: a wake per driver would cost the calling thread a syscall
  // each, which dominates short rounds.
  std::unique_lock<std::mutex> queue_lock(mutex_);
  for (std::size_t w = 0; w < drivers; ++w) {
    queue_.push_back([&shared, &body, w, n](std::size_t /*worker*/) {
      while (!shared.failed.load(std::memory_order_relaxed)) {
        const std::size_t i =
            shared.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          body(w, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (!shared.error) shared.error = std::current_exception();
          shared.failed.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(shared.mutex);
      if (--shared.drivers_left == 0) shared.done_cv.notify_all();
    });
  }
  queue_lock.unlock();
  if (drivers == num_threads()) {
    work_available_.notify_all();
  } else {
    for (std::size_t w = 0; w < drivers; ++w) work_available_.notify_one();
  }

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done_cv.wait(lock, [&shared] { return shared.drivers_left == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
}

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t index)>& body) {
  parallel_for_dynamic(
      n, [&body](std::size_t /*worker*/, std::size_t index) { body(index); });
}

}  // namespace vlsipart
