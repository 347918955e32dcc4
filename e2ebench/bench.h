// Shared pieces of the end-to-end benchmark: options, the metric record,
// sample statistics with percentile discipline, output verification and
// the span recorder of the traced run.
//
// The benchmark drives the library only through its public functions.
// Every span, counter and clock reading lives in this directory; the
// program under test is unchanged.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/part/core/partition_state.h"

namespace vlsipart::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" is the benchmark; "small" shrinks instances and work lists so
  /// the benchmark's own test runs every workload in seconds.
  bool small = false;
  /// Where the traced run writes its spans (empty = not written).
  std::string trace_out;
};

/// One reported number.  `samples` is how many measurements it summarizes
/// (0 = a derived ratio or count), printed in the human-readable report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

struct RunResult {
  bool correct = true;
  /// Median host factor of the run (see HostProbe); 0 when not probed.
  double host_factor = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// First few verification failures, printed before the result line.
  std::vector<std::string> errors;
  /// Human-readable lines (per-instance breakdowns and the like).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {}) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  void fail(std::string why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU (user + system, every thread) in seconds.
double process_cpu_now();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ------------------------------------------------------------ host speed

/// Host-speed probe.  The shared hosts this benchmark runs on change
/// speed by up to 1.6x for minutes at a time, mostly in memory latency,
/// and no repetition inside one run averages that out.  The probe is a
/// dependent random walk over a 4 MiB table (more than one core's L2),
/// timed between units of work; the engines' pass times track it (per-pass
/// correlation 0.7-0.97 on a 4-vCPU Xeon host), so every end-to-end time
/// is reported at the reference speed: raw time / host factor, where the
/// host factor is the probe's read time over kReferenceReadSeconds.
class HostProbe {
 public:
  HostProbe();
  /// Walks `reads` further steps of the cycle; returns seconds per read.
  double seconds_per_read(std::size_t reads = 16384);

 private:
  std::vector<std::uint32_t> next_;  ///< one random cycle over the table
  std::uint32_t at_ = 0;
};

/// Probe read time that counts as host factor 1.
constexpr double kReferenceReadSeconds = 100e-9;

/// Host factor of a stretch of work: the median of the probe read times
/// taken during it, over kReferenceReadSeconds (1 when none were taken).
double host_factor(const std::vector<double>& read_seconds);

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/// exp(mean(log x)); 0 when empty.  Inputs must be positive.
double geomean(const std::vector<double>& v);

/// Minimum samples for the q-quantile (0 < q < 1) to have at least ten
/// samples beyond it on each side that matters.
std::size_t samples_needed(double q);

/// The q-quantile (nearest rank) when `v` holds enough samples for it
/// (samples_needed), else NaN.  Infinite samples (failed requests) sort
/// last, so a failure always counts as missing the latency limit.
double disciplined_quantile(std::vector<double> v, double q);

// ---------------------------------------------------------- verification

/// Recompute the cut of `parts` and audit it against the problem
/// (assignment, fixed vertices, balance).  Returns an empty string when
/// the partition is valid and its cut equals `claimed_cut`.
std::string verify_partition(const PartitionProblem& problem,
                             const std::vector<PartId>& parts,
                             Weight claimed_cut);

/// splitmix64: derives independent seeds from (run seed, stream ids).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                       std::uint64_t c = 0);

// ----------------------------------------------------------------- spans

/// In-memory span recorder for one thread.  A span has a name, start and
/// end (seconds since the process-wide trace epoch), the index of its
/// parent span (-1 at the root) and a request id (-1 when none), plus the
/// process CPU clock at both ends (for pool busy-core ratios).  Spans are
/// only written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double cpu_start = 0.0;
    double cpu_end = 0.0;
    int parent = -1;
    std::int64_t request = -1;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] Scope span(const std::string& name,
                           std::int64_t request = -1);

  /// Sum over spans called `name` of duration minus the part of it that
  /// child spans cover.
  double self_seconds(const std::string& name) const;
  /// Summed wall and CPU duration of spans called `name`.
  double total_seconds(const std::string& name) const;
  double total_cpu_seconds(const std::string& name) const;

  /// Append another thread's spans (parent indices are rebased).
  void merge(const Tracer& other);

  /// Write every span as one JSON array.  Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  void close(int index);

  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace vlsipart::e2e
