#pragma once
// Persistent worker pool for the library's shared-memory parallelism.
//
// A single lazily-initialized pool of std::threads serves every parallel
// region (coarsening rounds and dedup, tracker construction, synchronous
// FM, the initial-partitioning tries), so hot paths that enter and leave parallel
// sections thousands of times do not pay thread spawn/join each call.
// Batches are drained from a condition-variable task queue; the submitting
// thread participates in its own batch, which both removes one context
// switch and makes nested submissions (a pool task calling run()) safe:
// progress never depends on a free worker.

#include <cstdint>
#include <functional>
#include <vector>

namespace hp {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use with default_threads()−1
  /// workers (the submitter is the remaining executor).
  static ThreadPool& instance();

  /// Execute tasks[0..n) and block until all complete. The calling thread
  /// drains tasks alongside the workers, so this is safe to call from
  /// inside a pool task. If tasks throw, every task still runs and the
  /// first exception is rethrown on the calling thread afterwards.
  void run(const std::vector<std::function<void()>>& tasks);

  /// Resident worker threads (not counting submitters).
  [[nodiscard]] unsigned num_workers() const noexcept;

  /// Batches executed since process start; observable evidence that the
  /// pool persists across calls (used by tests).
  [[nodiscard]] std::uint64_t batches_executed() const noexcept;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  ~ThreadPool();

  struct Impl;
  Impl* impl_;
};

/// Run tasks[0..n) across at most `threads` executors (1 = inline on the
/// calling thread). Blocks until all tasks complete. A throwing task does
/// not stop the others; once every task has run, the first exception is
/// rethrown to the caller. Backed by the persistent ThreadPool; no threads
/// are spawned per call.
void run_parallel(const std::vector<std::function<void()>>& tasks,
                  unsigned threads);

/// Fixed grain used by parallel_for_grain / parallel_reduce_stable when the
/// caller passes grain == 0. A constant (never thread-derived) so chunk
/// boundaries are a pure function of the item count.
inline constexpr std::uint64_t kStableGrain = 4096;

/// Chunks [0, count) splits into at fixed grain g (ceil division).
[[nodiscard]] constexpr std::size_t num_grain_chunks(
    std::uint64_t count, std::uint64_t grain) noexcept {
  return grain == 0 ? num_grain_chunks(count, kStableGrain)
                    : static_cast<std::size_t>((count + grain - 1) / grain);
}

/// Deterministic parallel for over [0, count) at a FIXED grain: chunk c
/// covers [c·g, min((c+1)·g, count)), a pure function of count and g — the
/// thread count only decides which executor runs which chunk. Per-chunk
/// outputs indexed by the chunk id and merged in chunk order are therefore
/// bit-identical at any parallelism, which is the contract the
/// deterministic coarsening / synchronous-FM propose phases build on.
/// fn(chunk, begin, end) with dense chunk ids [0, num_grain_chunks).
/// grain == 0 selects kStableGrain. Schedules nothing when count == 0.
void parallel_for_grain(
    std::uint64_t count, std::uint64_t grain, unsigned threads,
    const std::function<void(std::size_t, std::uint64_t, std::uint64_t)>& fn);

/// Stable parallel reduction: `map(begin, end) -> T` per fixed-grain chunk,
/// then a sequential left fold of the per-chunk values in chunk order:
/// fold(fold(init, map(chunk 0)), map(chunk 1)) ... — identical at any
/// thread count even when fold does not commute (first-occurrence merges,
/// float sums, concatenation).
template <typename T, typename MapFn, typename FoldFn>
[[nodiscard]] T parallel_reduce_stable(std::uint64_t count,
                                       std::uint64_t grain, unsigned threads,
                                       T init, const MapFn& map,
                                       const FoldFn& fold) {
  const std::size_t chunks = num_grain_chunks(count, grain);
  const std::uint64_t g = grain == 0 ? kStableGrain : grain;
  std::vector<T> partial(chunks);
  parallel_for_grain(count, g, threads,
                     [&](std::size_t c, std::uint64_t begin,
                         std::uint64_t end) { partial[c] = map(begin, end); });
  T acc = std::move(init);
  for (T& p : partial) acc = fold(std::move(acc), std::move(p));
  return acc;
}

/// A sensible default thread count (hardware concurrency, at least 1).
[[nodiscard]] unsigned default_threads() noexcept;

}  // namespace hp
