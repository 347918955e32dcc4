#include "e2ebench/bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>

namespace vlsipart::e2e {

namespace {

const Clock::time_point kTraceEpoch = Clock::now();

double trace_now() {
  return std::chrono::duration<double>(Clock::now() - kTraceEpoch).count();
}

}  // namespace

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostProbe::HostProbe() : next_(std::size_t{1} << 20) {
  // Sattolo's shuffle: a single cycle through every slot, so the walk
  // never settles into a short, cache-resident loop.
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t state = 0x5eed;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    state = mix_seed(state, i);
    std::swap(next_[i], next_[state % i]);
  }
}

double HostProbe::seconds_per_read(std::size_t reads) {
  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = at_;
  for (std::size_t i = 0; i < reads; ++i) at = next_[at];
  const double elapsed = seconds_since(t0);
  at_ = at;  // the dependency chain keeps the walk from being elided
  return elapsed / static_cast<double>(reads);
}

double host_factor(const std::vector<double>& read_seconds) {
  return read_seconds.empty() ? 1.0
                              : median(read_seconds) / kReferenceReadSeconds;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

std::size_t nearest_rank(double q, std::size_t n) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (n - nearest_rank(q, n) < 10) ++n;
  return n;
}

double disciplined_quantile(std::vector<double> v, double q) {
  if (v.size() < samples_needed(q)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  return v[nearest_rank(q, v.size()) - 1];
}

std::string verify_partition(const PartitionProblem& problem,
                             const std::vector<PartId>& parts,
                             Weight claimed_cut) {
  if (parts.size() != problem.graph->num_vertices()) {
    return "partition has " + std::to_string(parts.size()) +
           " entries for " + std::to_string(problem.graph->num_vertices()) +
           " vertices";
  }
  const Weight cut = compute_cut(*problem.graph, parts);
  if (cut != claimed_cut) {
    return "recomputed cut " + std::to_string(cut) + " != reported " +
           std::to_string(claimed_cut);
  }
  return check_solution(problem, parts);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
  x = x * 0xbf58476d1ce4e5b9ULL + c + 0x632be59bd9b4e019ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

Tracer::Scope Tracer::span(const std::string& name, std::int64_t request) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.request = request;
  s.cpu_start = process_cpu_now();
  s.start = trace_now();
  spans_.push_back(std::move(s));
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = trace_now();
  s.cpu_end = process_cpu_now();
  open_ = s.parent;
}

double Tracer::self_seconds(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - child[i];
    }
  }
  return total;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double Tracer::total_cpu_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.cpu_end - s.cpu_start;
  }
  return total;
}

void Tracer::merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"cpu_s\":%.9f,\"parent\":%d,"
                 "\"request\":%lld}",
                 i == 0 ? "" : ",\n", i, s.name.c_str(), s.start, s.end,
                 s.cpu_end - s.cpu_start, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

}  // namespace vlsipart::e2e
