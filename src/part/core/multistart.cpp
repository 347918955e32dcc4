#include "src/part/core/multistart.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace vlsipart {

namespace {

constexpr Weight kNoCut = std::numeric_limits<Weight>::max();
constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// Thread-local best of the starts one worker executed.  Merging worker
/// bests by lexicographic (cut, index) min reproduces the serial
/// selection rule — lowest start index among the minimum-cut feasible
/// starts — independent of how starts were scheduled.
struct LocalBest {
  Weight cut = kNoCut;
  std::size_t index = kNoIndex;
  std::vector<PartId> parts;

  void offer(Weight c, std::size_t i, const std::vector<PartId>& p) {
    if (c < cut || (c == cut && i < index)) {
      cut = c;
      index = i;
      parts = p;
    }
  }
};

LocalBest merge_bests(std::vector<LocalBest>& bests) {
  LocalBest merged;
  for (LocalBest& b : bests) {
    if (b.index == kNoIndex) continue;
    if (b.cut < merged.cut || (b.cut == merged.cut && b.index < merged.index)) {
      merged.cut = b.cut;
      merged.index = b.index;
      merged.parts = std::move(b.parts);
    }
  }
  return merged;
}

/// One private engine per worker slot; empty when the engine does not
/// support cloning (callers then fall back to the serial path).
std::vector<std::unique_ptr<Bipartitioner>> make_worker_engines(
    const Bipartitioner& partitioner, std::size_t num_workers) {
  std::vector<std::unique_ptr<Bipartitioner>> engines;
  engines.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    auto engine = partitioner.clone();
    if (!engine) return {};
    engines.push_back(std::move(engine));
  }
  return engines;
}

}  // namespace

Weight MultistartResult::min_cut() const {
  Weight best = std::numeric_limits<Weight>::max();
  for (const auto& s : starts) {
    if (s.feasible) best = std::min(best, s.cut);
  }
  if (best == std::numeric_limits<Weight>::max()) {
    // No feasible start: report the raw minimum so tables stay readable.
    for (const auto& s : starts) best = std::min(best, s.cut);
  }
  return best;
}

double MultistartResult::avg_cut() const {
  if (starts.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : starts) sum += static_cast<double>(s.cut);
  return sum / static_cast<double>(starts.size());
}

double MultistartResult::avg_cpu_seconds() const {
  if (starts.empty()) return 0.0;
  return total_cpu_seconds / static_cast<double>(starts.size());
}

Sample MultistartResult::cut_sample() const {
  Sample s;
  s.reserve(starts.size());
  for (const auto& r : starts) s.add(static_cast<double>(r.cut));
  return s;
}

Sample MultistartResult::time_sample() const {
  Sample s;
  s.reserve(starts.size());
  for (const auto& r : starts) s.add(r.cpu_seconds);
  return s;
}

MultistartResult run_multistart(const PartitionProblem& problem,
                                Bipartitioner& partitioner,
                                std::size_t num_starts, std::uint64_t seed,
                                std::size_t num_threads) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(num_threads, num_starts));
  std::vector<std::unique_ptr<Bipartitioner>> engines;
  if (workers > 1) engines = make_worker_engines(partitioner, workers);

  MultistartResult result;
  WallTimer wall;
  Rng base(seed);

  if (engines.empty()) {
    // Serial path (also the fallback for non-clonable engines).
    const UpdateWork work_before = partitioner.update_work();
    result.starts.reserve(num_starts);
    std::vector<PartId> parts;
    Weight best = kNoCut;
    for (std::size_t i = 0; i < num_starts; ++i) {
      Rng rng = base.fork(i);
      // Process CPU, not the calling thread's: an engine with its own
      // pool (evo with evo_threads > 1) does part of the start on
      // workers while this thread blocks.
      CpuTimer timer;
      const Weight cut = partitioner.run(problem, rng, parts);
      StartRecord record;
      record.cut = cut;
      record.cpu_seconds = timer.elapsed();
      record.feasible = check_solution(problem, parts).empty();
      result.total_cpu_seconds += record.cpu_seconds;
      if (record.feasible && cut < best) {
        best = cut;
        result.best_parts = parts;
      }
      result.starts.push_back(record);
    }
    result.best_cut = (best == kNoCut) ? 0 : best;
    result.wall_seconds = wall.elapsed();
    result.threads_used = 1;
    // The caller's engine may carry counters from earlier harness calls;
    // report only the work this call added.
    result.update_work =
        UpdateWork::delta(partitioner.update_work(), work_before);
    return result;
  }

  result.starts.resize(num_starts);
  std::vector<LocalBest> bests(workers);
  std::vector<std::vector<PartId>> parts_buf(workers);

  ThreadPool pool(workers);
  pool.parallel_for_dynamic(num_starts, [&](std::size_t w, std::size_t i) {
    Rng rng = base.fork(i);
    ThreadCpuTimer timer;
    const Weight cut = engines[w]->run_start(problem, rng, parts_buf[w], i);
    StartRecord record;
    record.cut = cut;
    record.cpu_seconds = timer.elapsed();
    record.feasible = check_solution(problem, parts_buf[w]).empty();
    result.starts[i] = record;  // distinct index per call: race-free
    if (record.feasible) bests[w].offer(cut, i, parts_buf[w]);
  });

  for (const StartRecord& r : result.starts) {
    result.total_cpu_seconds += r.cpu_seconds;
  }
  // Worker engines are fresh clones, so their counters are exactly this
  // call's work; integer sums over a fixed start set are independent of
  // which worker ran which start.
  for (const auto& engine : engines) {
    result.update_work.absorb(engine->update_work());
  }
  LocalBest merged = merge_bests(bests);
  result.best_cut = (merged.index == kNoIndex) ? 0 : merged.cut;
  result.best_parts = std::move(merged.parts);
  result.wall_seconds = wall.elapsed();
  result.threads_used = workers;
  return result;
}

PrunedMultistartResult run_multistart_pruned(const PartitionProblem& problem,
                                             const FmConfig& config,
                                             std::size_t num_starts,
                                             std::uint64_t seed,
                                             const PruneConfig& prune,
                                             std::size_t num_threads) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(num_threads, num_starts));

  PrunedMultistartResult out;
  MultistartResult& result = out.result;
  WallTimer wall;
  Rng base(seed);

  FmConfig pass1_config = config;
  pass1_config.max_passes = 1;

  if (workers <= 1) {
    result.starts.reserve(num_starts);
    Weight best = kNoCut;
    Weight best_pass1 = kNoCut;
    for (std::size_t i = 0; i < num_starts; ++i) {
      Rng rng = base.fork(i);
      ThreadCpuTimer timer;

      auto parts = random_initial(problem, rng);
      PartitionState state(*problem.graph);
      state.assign(parts);
      FmRefiner pass1(problem, pass1_config);
      pass1.refine(state, rng);
      const Weight pass1_cut = state.cut();

      StartRecord record;
      const bool doomed =
          best_pass1 != kNoCut &&
          static_cast<double>(pass1_cut) >
              prune.factor * static_cast<double>(best_pass1);
      best_pass1 = std::min(best_pass1, pass1_cut);

      if (doomed) {
        record.cut = pass1_cut;
        record.cpu_seconds = timer.elapsed();
        record.feasible = false;  // discarded; never competes for best
        ++out.pruned_starts;
        out.pruned_cpu_seconds += record.cpu_seconds;
      } else {
        FmRefiner rest(problem, config);
        rest.refine(state, rng);
        record.cut = state.cut();
        record.cpu_seconds = timer.elapsed();
        record.feasible = check_solution(problem, state.parts()).empty();
        if (record.feasible && record.cut < best) {
          best = record.cut;
          result.best_parts = state.parts();
        }
      }
      result.total_cpu_seconds += record.cpu_seconds;
      result.starts.push_back(record);
    }
    result.best_cut = (best == kNoCut) ? 0 : best;
    result.wall_seconds = wall.elapsed();
    result.threads_used = 1;
    return out;
  }

  // Parallel path.  Determinism hinges on the pruning threshold: start i
  // must be judged against the best first-pass cut of starts 0..i-1, not
  // against whatever happened to finish first.  Every start therefore
  // publishes its first-pass cut, a prefix pointer advances over the
  // published values in index order, and a worker briefly waits until the
  // prefix covers its own index before deciding.  Lower indices are
  // always handed out first, so the wait is bounded by in-flight first
  // passes, never by a full refinement.
  result.starts.resize(num_starts);
  std::vector<std::uint8_t> pruned_flag(num_starts, 0);
  std::vector<Weight> pass1_cuts(num_starts, 0);
  std::vector<std::uint8_t> published(num_starts, 0);
  std::vector<Weight> prefix_best(num_starts, 0);
  std::size_t frontier = 0;  // starts [0, frontier) are published
  std::mutex mutex;
  std::condition_variable prefix_advanced;

  std::vector<LocalBest> bests(workers);
  struct WorkerScratch {
    std::unique_ptr<PartitionState> state;
    std::unique_ptr<FmRefiner> pass1;
    std::unique_ptr<FmRefiner> rest;
  };
  std::vector<WorkerScratch> scratch(workers);
  for (auto& s : scratch) {
    s.state = std::make_unique<PartitionState>(*problem.graph);
    s.pass1 = std::make_unique<FmRefiner>(problem, pass1_config);
    s.rest = std::make_unique<FmRefiner>(problem, config);
  }

  // Every issued start MUST publish a first-pass cut (even on exception,
  // with a harmless sentinel) or waiters on the prefix would deadlock.
  auto publish = [&](std::size_t i, Weight pass1_cut) {
    std::lock_guard<std::mutex> lock(mutex);
    pass1_cuts[i] = pass1_cut;
    published[i] = 1;
    while (frontier < num_starts && published[frontier]) {
      prefix_best[frontier] =
          frontier == 0
              ? pass1_cuts[0]
              : std::min(prefix_best[frontier - 1], pass1_cuts[frontier]);
      ++frontier;
    }
    prefix_advanced.notify_all();
  };

  ThreadPool pool(workers);
  pool.parallel_for_dynamic(num_starts, [&](std::size_t w, std::size_t i) {
    Rng rng = base.fork(i);
    ThreadCpuTimer timer;

    PartitionState& state = *scratch[w].state;
    Weight pass1_cut = 0;
    try {
      auto parts = random_initial(problem, rng);
      state.assign(parts);
      scratch[w].pass1->refine(state, rng);
      pass1_cut = state.cut();
    } catch (...) {
      publish(i, kNoCut);
      throw;
    }
    publish(i, pass1_cut);

    bool doomed = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      prefix_advanced.wait(lock, [&] { return frontier > i; });
      doomed = i > 0 && static_cast<double>(pass1_cut) >
                            prune.factor *
                                static_cast<double>(prefix_best[i - 1]);
    }

    StartRecord record;
    if (doomed) {
      record.cut = pass1_cut;
      record.cpu_seconds = timer.elapsed();
      record.feasible = false;
      pruned_flag[i] = 1;
    } else {
      scratch[w].rest->refine(state, rng);
      record.cut = state.cut();
      record.cpu_seconds = timer.elapsed();
      record.feasible = check_solution(problem, state.parts()).empty();
      if (record.feasible) bests[w].offer(record.cut, i, state.parts());
    }
    result.starts[i] = record;
  });

  for (std::size_t i = 0; i < num_starts; ++i) {
    result.total_cpu_seconds += result.starts[i].cpu_seconds;
    if (pruned_flag[i]) {
      ++out.pruned_starts;
      out.pruned_cpu_seconds += result.starts[i].cpu_seconds;
    }
  }
  LocalBest merged = merge_bests(bests);
  result.best_cut = (merged.index == kNoIndex) ? 0 : merged.cut;
  result.best_parts = std::move(merged.parts);
  result.wall_seconds = wall.elapsed();
  result.threads_used = workers;
  return out;
}

MultistartResult run_multistart_budgeted(const PartitionProblem& problem,
                                         Bipartitioner& partitioner,
                                         double cpu_budget_seconds,
                                         std::uint64_t seed,
                                         std::size_t max_starts,
                                         std::size_t num_threads) {
  std::size_t workers = std::max<std::size_t>(1, num_threads);
  if (max_starts > 0) workers = std::min(workers, max_starts);
  std::vector<std::unique_ptr<Bipartitioner>> engines;
  if (workers > 1) engines = make_worker_engines(partitioner, workers);

  MultistartResult result;
  WallTimer wall;
  Rng base(seed);

  if (engines.empty()) {
    std::vector<PartId> parts;
    Weight best = kNoCut;
    std::size_t i = 0;
    while (true) {
      Rng rng = base.fork(i);
      CpuTimer timer;  // process CPU, as in run_multistart's serial path
      const Weight cut = partitioner.run(problem, rng, parts);
      StartRecord record;
      record.cut = cut;
      record.cpu_seconds = timer.elapsed();
      record.feasible = check_solution(problem, parts).empty();
      result.total_cpu_seconds += record.cpu_seconds;
      if (record.feasible && cut < best) {
        best = cut;
        result.best_parts = parts;
      }
      result.starts.push_back(record);
      ++i;
      if (result.total_cpu_seconds >= cpu_budget_seconds) break;
      if (max_starts > 0 && i >= max_starts) break;
    }
    result.best_cut = (best == kNoCut) ? 0 : best;
    result.wall_seconds = wall.elapsed();
    result.threads_used = 1;
    return result;
  }

  // Parallel path.  Starts run speculatively; admission replays the
  // serial rule in index order: the admitted set is the minimal prefix
  // whose accumulated per-start CPU reaches the budget (or the max_starts
  // cap).  Indices past the determined cutoff are discarded — their CPU
  // is charged neither to the records nor to total_cpu_seconds, exactly
  // as if they had never been launched.
  struct Shared {
    std::vector<StartRecord> records;
    std::vector<std::uint8_t> done;
    std::size_t frontier = 0;  // records [0, frontier) are final
    double cum_cpu = 0.0;
    bool cutoff_set = false;
    std::size_t cutoff = 0;  // last admitted index once cutoff_set
    bool aborted = false;
    std::exception_ptr error;
    std::mutex mutex;
  };
  Shared shared;

  ThreadPool pool(workers);
  std::vector<std::vector<PartId>> parts_buf(workers);
  std::atomic<std::size_t> next{0};
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&, w] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (max_starts > 0 && i >= max_starts) return;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (shared.aborted || (shared.cutoff_set && i > shared.cutoff)) {
            return;
          }
        }
        StartRecord record;
        try {
          Rng rng = base.fork(i);
          ThreadCpuTimer timer;
          const Weight cut =
              engines[w]->run_start(problem, rng, parts_buf[w], i);
          record.cut = cut;
          record.cpu_seconds = timer.elapsed();
          record.feasible = check_solution(problem, parts_buf[w]).empty();
        } catch (...) {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (!shared.error) shared.error = std::current_exception();
          shared.aborted = true;
          return;
        }
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (shared.records.size() <= i) {
            shared.records.resize(i + 1);
            shared.done.resize(i + 1, 0);
          }
          shared.records[i] = record;
          shared.done[i] = 1;
          while (shared.frontier < shared.done.size() &&
                 shared.done[shared.frontier]) {
            if (!shared.cutoff_set) {
              shared.cum_cpu += shared.records[shared.frontier].cpu_seconds;
              if (shared.cum_cpu >= cpu_budget_seconds) {
                shared.cutoff_set = true;
                shared.cutoff = shared.frontier;
              }
            }
            ++shared.frontier;
          }
        }
      }
    });
  }
  pool.wait_idle();
  if (shared.error) std::rethrow_exception(shared.error);

  // Workers only exit on the max_starts cap or a determined cutoff, so
  // the admitted prefix is well-defined here.
  const std::size_t last =
      shared.cutoff_set ? shared.cutoff : max_starts - 1;
  result.starts.assign(shared.records.begin(),
                       shared.records.begin() +
                           static_cast<std::ptrdiff_t>(last + 1));
  Weight best = kNoCut;
  std::size_t best_index = kNoIndex;
  for (std::size_t i = 0; i <= last; ++i) {
    result.total_cpu_seconds += result.starts[i].cpu_seconds;
    if (result.starts[i].feasible && result.starts[i].cut < best) {
      best = result.starts[i].cut;
      best_index = i;
    }
  }
  result.best_cut = (best == kNoCut) ? 0 : best;
  if (best_index != kNoIndex) {
    // Regenerate the winning assignment (starts are pure functions of
    // their fork, so this is exact) instead of retaining every start's
    // parts vector during the run.
    Rng rng = base.fork(best_index);
    engines[0]->run_start(problem, rng, result.best_parts, best_index);
  }
  result.wall_seconds = wall.elapsed();
  result.threads_used = workers;
  return result;
}

}  // namespace vlsipart
