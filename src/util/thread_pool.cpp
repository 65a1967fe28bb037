#include "hyperpart/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace hp {

namespace {

/// One submitted task batch. Lives on the submitter's stack for the
/// duration of run(); `next` hands out task indices, `done` counts
/// completions.
struct Batch {
  const std::vector<std::function<void()>>* tasks;
  std::size_t size;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // First exception thrown by any task; claimed once, rethrown by run().
  std::atomic<bool> error_claimed{false};
  std::exception_ptr error;
};

/// Execute one task, capturing the batch's first exception. The remaining
/// tasks still run; the `done` increment that follows the call publishes
/// the stored exception_ptr to the submitter.
void run_task(Batch* b, std::size_t i) {
  try {
    (*b->tasks)[i]();
  } catch (...) {
    if (!b->error_claimed.exchange(true, std::memory_order_acq_rel)) {
      b->error = std::current_exception();
    }
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers: queue non-empty or stopping
  std::condition_variable done_cv;   // submitters: batch completed
  std::deque<Batch*> queue;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> batches{0};
  bool stop = false;

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      work_cv.wait(lk, [&] { return stop || !queue.empty(); });
      if (stop) return;
      Batch* b = queue.front();
      const std::size_t i = b->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b->size) {
        // Batch exhausted; retire it if it is still queued.
        if (!queue.empty() && queue.front() == b) queue.pop_front();
        continue;
      }
      const std::size_t bsize = b->size;
      lk.unlock();
      run_task(b, i);
      // After this increment the submitter may return and destroy *b, so
      // the batch must not be dereferenced again.
      const std::size_t d = b->done.fetch_add(1, std::memory_order_acq_rel) + 1;
      lk.lock();
      if (d == bsize) done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
  const unsigned hw = default_threads();
  const unsigned workers = hw > 1 ? hw - 1 : 0;  // submitter is an executor
  impl_->workers.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::num_workers() const noexcept {
  return static_cast<unsigned>(impl_->workers.size());
}

std::uint64_t ThreadPool::batches_executed() const noexcept {
  return impl_->batches.load(std::memory_order_relaxed);
}

void ThreadPool::run(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  impl_->batches.fetch_add(1, std::memory_order_relaxed);
  Batch batch{&tasks, tasks.size(), {}, {}, {}, {}};
  if (!impl_->workers.empty()) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->queue.push_back(&batch);
    impl_->work_cv.notify_all();
  }
  // The submitter drains its own batch; with zero free workers this still
  // completes every task, which is what makes nested run() calls safe.
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.size) break;
    run_task(&batch, i);
    batch.done.fetch_add(1, std::memory_order_acq_rel);
  }
  if (!impl_->workers.empty()) {
    std::unique_lock<std::mutex> lk(impl_->mu);
    // The batch may still sit in the queue (no worker happened to touch
    // it); retire it so workers never see a dangling pointer after we
    // return.
    auto it = std::find(impl_->queue.begin(), impl_->queue.end(), &batch);
    if (it != impl_->queue.end()) impl_->queue.erase(it);
    impl_->done_cv.wait(
        lk, [&] { return batch.done.load(std::memory_order_acquire) >=
                         batch.size; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void run_parallel(const std::vector<std::function<void()>>& tasks,
                  unsigned threads) {
  if (tasks.empty()) return;
  const unsigned workers = std::max(
      1u, std::min<unsigned>(threads, static_cast<unsigned>(tasks.size())));
  if (workers == 1) {
    for (const auto& task : tasks) task();
    return;
  }
  ThreadPool& pool = ThreadPool::instance();
  if (workers >= tasks.size()) {
    pool.run(tasks);
    return;
  }
  // Honour the concurrency cap: `workers` drivers drain the full list.
  // Exceptions are trapped per task (not per driver) so a throwing task
  // never prevents the remaining tasks from running; the first exception
  // is rethrown to the caller once the batch completes.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> error_claimed{false};
  std::exception_ptr error;
  std::vector<std::function<void()>> drivers;
  drivers.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    drivers.push_back([&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) return;
        try {
          tasks[i]();
        } catch (...) {
          if (!error_claimed.exchange(true, std::memory_order_acq_rel)) {
            error = std::current_exception();
          }
        }
      }
    });
  }
  pool.run(drivers);
  if (error) std::rethrow_exception(error);
}

void parallel_for_grain(
    std::uint64_t count, std::uint64_t grain, unsigned threads,
    const std::function<void(std::size_t, std::uint64_t, std::uint64_t)>&
        fn) {
  if (count == 0) return;  // no chunks — schedule nothing, not no-op tasks
  const std::uint64_t g = grain == 0 ? kStableGrain : grain;
  const std::size_t chunks = num_grain_chunks(count, g);
  const unsigned workers = std::max<unsigned>(
      1, static_cast<unsigned>(std::min<std::uint64_t>(
             threads == 0 ? 1 : threads, chunks)));
  if (workers == 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      fn(c, c * g, std::min<std::uint64_t>(count, (c + 1) * g));
    }
    return;
  }
  // One task per chunk; run_parallel caps concurrency at `workers` with its
  // own drivers, so a fine grain never floods the pool. Which executor runs
  // which chunk is scheduling noise — the (chunk, begin, end) triples are
  // fixed by count and g alone.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t begin = c * g;
    const std::uint64_t end = std::min<std::uint64_t>(count, begin + g);
    tasks.push_back([c, begin, end, &fn]() { fn(c, begin, end); });
  }
  run_parallel(tasks, workers);
}

unsigned default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace hp
