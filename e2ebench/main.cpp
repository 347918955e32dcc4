// End-to-end benchmark program.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--trace-out PATH] [--commit ID] [--source-digest D]
//
// Workloads: ml-serial, flat-fm, ml-threads2, vpartd-closed.  The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.  The line before it is the run
// record (host, build type, commit, seed, trace overhead).  Exit code 0
// on a completed run (correct or not), 2 on bad arguments or a
// non-Release build.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace vlsipart::e2e {
namespace {

using MetricNames = std::vector<std::pair<std::string, std::string>>;

const MetricNames kEndToEnd = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"cpu_s", "s"},             {"start_s_geomean", "s"},
    {"cut_avg_geomean", "count"}, {"cut_min_geomean", "count"},
    {"ok_frac", "fraction"},    {"peak_rss_mb", "MiB"},
    {"req_per_s", "1/s"},
};

const MetricNames kPerLayer = {
    {"gen.generate_s", "s"},
    {"ml.coarsen.self_s", "s"},
    {"ml.coarsen.levels", "count"},
    {"ml.coarsen.coarsest_vertices", "count"},
    {"ml.coarsen.shrink_p50", "ratio"},
    {"ml.coarsen.stall_frac", "fraction"},
    {"ml.initial.self_s", "s"},
    {"core.fm.self_s", "s"},
    {"core.fm.passes", "count"},
    {"core.fm.moves_made", "count"},
    {"core.fm.nets_walked", "count"},
    {"core.fm.skip_rate", "fraction"},
    {"core.fm.keep_ratio", "fraction"},
    {"core.fm.corked_frac", "fraction"},
    {"ml.vcycle.self_s", "s"},
    {"ml.vcycle.accept_ratio", "fraction"},
    {"util.pool.busy_cores", "cores"},
    {"service.solve_ms_p50", "ms"},
    {"service.solve_ms_p90", "ms"},
    {"service.hit_ms_p50", "ms"},
    {"service.submit_ms_p50", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p90", "ms"},
    {"service.latency_ms_p50", "ms"},
    {"service.instance_hit_ratio", "fraction"},
    {"service.result_hit_ratio", "fraction"},
    {"service.shed", "count"},
    {"service.failed", "count"},
    {"trace.overhead_frac", "fraction"},
    {"trace.cut_match", "fraction"},
};

const std::vector<std::string> kWorkloads = {"ml-serial", "flat-fm",
                                             "ml-threads2", "vpartd-closed"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "ml-serial|flat-fm|ml-threads2|vpartd-closed --seed N "
               "--seconds S --trace 0|1 [--small] [--trace-out PATH] "
               "[--commit ID] [--source-digest D]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const std::size_t a = s.find_first_not_of(' ');
  return a == std::string::npos ? "unknown" : s.substr(a);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const Metric* find(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace
}  // namespace vlsipart::e2e

int main(int argc, char** argv) {
  using namespace vlsipart::e2e;
  Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--source-digest") {
      source_digest = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_trace) usage("--workload and --trace are required");
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == options.workload;
  if (!known) usage("unknown workload " + options.workload);
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "e2e_bench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE);
    return 2;
  }

  RunResult result = options.workload == "vpartd-closed"
                         ? run_service_workload(options)
                         : run_engine_workload(options);

  const MetricNames& wanted = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : wanted) {
    const Metric* m = find(result, name);
    if (m == nullptr) {
      // A per-layer metric of a layer this workload does not exercise.
      result.add(name, 0.0, unit, 0, "layer not exercised by this workload");
    } else if (m->unit != unit) {
      result.fail(name + " measured in " + m->unit + ", declared in " + unit);
    }
  }

  std::printf("# e2ebench workload=%s seed=%llu trace=%d seconds=%g%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, options.seconds,
              options.small ? " size=small" : "");
  for (const std::string& note : result.notes) {
    std::printf("#   %s\n", note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("# ERROR %s\n", error.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("# %-30s %14.6g %-8s n=%-5zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }

  const Metric* overhead = find(result, "trace.overhead_frac");
  std::printf(
      "{\"run_record\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"size\": %s, \"nproc\": %u, \"cpu_model\": %s, "
      "\"build_type\": %s, \"git_commit\": %s, \"source_digest\": %s, "
      "\"trace_overhead_frac\": %s, \"host_factor\": %s}}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      json_number(options.seconds).c_str(),
      json_string(options.small ? "small" : "full").c_str(),
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(E2E_BUILD_TYPE).c_str(), json_string(commit).c_str(),
      json_string(source_digest).c_str(),
      overhead != nullptr ? json_number(overhead->value).c_str() : "null",
      json_number(result.host_factor).c_str());

  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    const Metric* m = find(result, name);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(m->value) +
               ", \"unit\": " + json_string(unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      result.correct && result.failed == 0 ? "true" : "false",
      std::max<std::size_t>(1, result.attempted), result.failed,
      metrics.c_str());
  return 0;
}
