// vpartd-closed: an in-process PartitionService (2 workers, serial
// engines, default caches: 8 instances, 256 results) driven as a closed
// loop from 2 client connections — each client sends its next request
// only after the previous reply, as vpartd callers do.
//
// Each client's list repeats the pattern fresh, fresh, repeat:
//   * fresh  — an ML solve (starts=2, vcycles=1) with a new seed over one
//     of 12 fixed generator variants of ibm01–ibm03, visited in seeded
//     shuffles of the set.  Twelve variants exceed
//     the 8-entry instance cache, so LRU evictions and rebuilds happen;
//   * repeat — an exact copy of one of the client's last two fresh
//     requests, which the result cache answers.
// Hits and solves are classified by the server's reply and never pooled.
// Every reply carries its parts (include_parts) and is verified after the
// pass against a locally generated copy of the instance.  Each
// repetition of the list runs on a fresh server, so hit/miss patterns
// repeat.  Each client runs the host probe before every request; a
// pass's times are divided by its host factor and reported as the median
// over the passes.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "e2ebench/workloads.h"
#include "src/gen/netlist_gen.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/service/client.h"
#include "src/service/server.h"

namespace vlsipart::e2e {

namespace {

using service::PartitionReply;
using service::PartitionService;
using service::ServiceClient;
using service::ServiceConfig;
using service::SubmitRequest;

const std::vector<std::string> kPresets = {"ibm01", "ibm02", "ibm03"};
constexpr std::size_t kSeedsPerPreset = 4;  // 12 variants
constexpr std::size_t kClients = 2;

struct Variant {
  std::size_t preset = 0;
  std::uint64_t gen_seed = 0;
  Hypergraph graph;
  PartitionProblem problem;
};

struct Request {
  SubmitRequest submit;
  std::size_t variant = 0;
  bool repeat = false;
};

/// One reply as the client saw it.
struct Outcome {
  double latency_s = 0.0;
  double submit_s = 0.0;
  bool hit = false;
  bool transport_ok = false;
  std::string error;
  PartitionReply reply;
};

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<std::vector<Outcome>> outcomes;  // [client][request]
  service::MetricsSnapshot server;
  double host_factor = 1.0;
};

class ServiceWorkload {
 public:
  ServiceWorkload(const Options& options, RunResult& result)
      : options_(options), result_(result) {}

  void run();

 private:
  double scale() const { return options_.small ? 0.05 : 1.0; }
  /// One timed set-up: generate the 12 variants and start a server
  /// (stopped again untimed; every pass starts its own).  With `keep` the
  /// variants become the live ones used for verification; other samples
  /// are discarded, so set-up time is sampled at several points of the
  /// run rather than once at its start.
  void time_setup(bool keep);
  void build_requests();
  std::unique_ptr<PartitionService> start_server();
  Pass run_pass(std::unique_ptr<PartitionService> server, bool traced);
  void verify(Pass& pass);
  void check_determinism(const Pass& pass);
  void report_end_to_end(const std::vector<Pass>& passes);
  void report_per_layer(const Pass& plain, const Pass& traced);

  const Options& options_;
  RunResult& result_;
  std::vector<Variant> variants_;
  std::vector<std::vector<Request>> requests_;  // [client][i]
  std::vector<double> generate_s_;
  std::vector<double> setup_s_;
  std::vector<HostProbe> probes_ = std::vector<HostProbe>(kClients);
  Tracer tracer_;
};

void ServiceWorkload::time_setup(bool keep) {
  std::vector<double> probe;
  for (int i = 0; i < 4; ++i) probe.push_back(probes_[0].seconds_per_read());
  const double factor = host_factor(probe);
  const Clock::time_point t0 = Clock::now();
  std::vector<Variant> variants(kPresets.size() * kSeedsPerPreset);
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    for (std::size_t k = 0; k < kSeedsPerPreset; ++k) {
      Variant& v = variants[p * kSeedsPerPreset + k];
      v.preset = p;
      // A fixed suite, like the engine workloads' presets: the run seed
      // picks the requests, not the instances.  Non-zero: 0 asks the
      // server for the preset's default seed.
      v.gen_seed = mix_seed(0x9e17, p * kSeedsPerPreset + k) %
                       2147483647ULL + 1;
      GenConfig config = preset(kPresets[p]).scaled(scale());
      config.seed = v.gen_seed;
      v.graph = generate_netlist(config);
    }
  }
  generate_s_.push_back(seconds_since(t0) / factor);
  for (Variant& v : variants) {
    v.problem.graph = &v.graph;
    v.problem.balance = BalanceConstraint::from_tolerance(
        v.graph.total_vertex_weight(), SubmitRequest{}.tolerance);
  }
  const std::unique_ptr<PartitionService> server = start_server();
  setup_s_.push_back(seconds_since(t0) / factor);
  server->stop();
  // Moving the vector keeps its buffer, so the problems' graph pointers
  // stay valid.
  if (keep) variants_ = std::move(variants);
}

void ServiceWorkload::build_requests() {
  // The untraced run makes short passes, so that the median over the
  // passes can drop a slow one; the traced run makes one pass, long
  // enough for a p90 with ten samples beyond it.
  const std::size_t fresh_per_client =
      options_.small ? 6 : (options_.trace ? 50 : 25);
  requests_.assign(kClients, {});
  for (std::size_t c = 0; c < kClients; ++c) {
    std::vector<Request>& list = requests_[c];
    // Fresh requests visit the variants in seeded shuffles of the whole
    // set, so every preset gets the same share of solves at any seed.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < fresh_per_client; ++i) {
      const std::uint64_t r = mix_seed(options_.seed, 0xc11e + c, i);
      if (i % variants_.size() == 0) {
        order.resize(variants_.size());
        for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
        for (std::size_t k = order.size() - 1; k > 0; --k) {
          std::swap(order[k], order[mix_seed(r, k) % (k + 1)]);
        }
      }
      Request req;
      req.variant = order[i % variants_.size()];
      const Variant& v = variants_[req.variant];
      req.submit.instance.preset = kPresets[v.preset];
      req.submit.instance.scale = scale();
      req.submit.instance.gen_seed = v.gen_seed;
      req.submit.engine = "ml";
      req.submit.starts = 2;
      req.submit.vcycles = 1;
      req.submit.seed = (r >> 20) % 2147483647ULL + 1;
      req.submit.include_parts = true;
      list.push_back(req);
      if (i % 2 == 1) {
        // Repeat one of this client's last two fresh requests.
        Request again = list[list.size() - 1 - ((r >> 8) & 1)];
        again.repeat = true;
        list.push_back(again);
      }
    }
  }
}

std::unique_ptr<PartitionService> ServiceWorkload::start_server() {
  ServiceConfig config;
  config.endpoint.tcp_port = 0;  // kernel-assigned loopback port
  config.workers = 2;
  auto server = std::make_unique<PartitionService>(std::move(config));
  server->start();
  return server;
}

Pass ServiceWorkload::run_pass(std::unique_ptr<PartitionService> server,
                               bool traced) {
  Pass pass;
  pass.outcomes.resize(kClients);
  std::vector<Tracer> tracers(kClients);
  std::vector<std::vector<double>> probe(kClients);
  std::vector<ServiceClient> clients(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    if (!clients[c].connect(server->bound_endpoint())) {
      result_.fail("client connect failed: " + clients[c].error());
    }
  }
  const double cpu0 = process_cpu_now();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient& client = clients[c];
      Tracer& tracer = tracers[c];
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Request& req = requests_[c][i];
        probe[c].push_back(probes_[c].seconds_per_read());
        Outcome out;
        const Clock::time_point start = Clock::now();
        const auto request_id = static_cast<std::int64_t>(c * 100000 + i);
        std::int64_t job = -1;
        if (traced) {
          auto span = tracer.span("service.request", request_id);
          {
            auto s = tracer.span("service.submit", request_id);
            job = client.submit(req.submit);
          }
          out.submit_s = seconds_since(start);
          if (job >= 0) {
            auto s = tracer.span("service.fetch", request_id);
            out.reply = client.fetch_result(job);
          }
        } else {
          job = client.submit(req.submit);
          out.submit_s = seconds_since(start);
          if (job >= 0) out.reply = client.fetch_result(job);
        }
        out.latency_s = seconds_since(start);
        out.transport_ok = job >= 0;
        if (job < 0) out.error = "submit refused: " + client.error();
        out.hit = out.reply.cache == "result";
        pass.outcomes[c].push_back(std::move(out));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall = seconds_since(t0);
  pass.cpu = process_cpu_now() - cpu0;
  for (ServiceClient& client : clients) client.close();
  pass.server = server->metrics().snapshot();
  server->stop();
  for (const Tracer& t : tracers) tracer_.merge(t);
  std::vector<double> reads;
  for (const std::vector<double>& p : probe) {
    reads.insert(reads.end(), p.begin(), p.end());
  }
  pass.host_factor = host_factor(reads);
  verify(pass);
  return pass;
}

void ServiceWorkload::verify(Pass& pass) {
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < pass.outcomes[c].size(); ++i) {
      Outcome& out = pass.outcomes[c][i];
      const Request& req = requests_[c][i];
      std::string error = out.error;
      if (error.empty() && (!out.reply.ok || out.reply.state != "done")) {
        error = "state=" + out.reply.state + " error=" + out.reply.error +
                " " + out.reply.message;
      }
      if (error.empty()) {
        error = verify_partition(variants_[req.variant].problem,
                                 out.reply.parts, out.reply.cut);
      }
      if (error.empty() && req.repeat && !out.hit) {
        error = "repeated request was not answered from the result cache";
      }
      if (!error.empty()) {
        out.transport_ok = false;
        out.error = error;
        result_.fail("client " + std::to_string(c) + " request " +
                     std::to_string(i) + ": " + error);
      }
      out.reply.parts.clear();
      out.reply.parts.shrink_to_fit();
    }
  }
}

/// The determinism contract of protocol.h: a solve's result equals a
/// direct library call for the same request.  Checked on the first two
/// fresh requests of client 0 (every fresh request in a small run).
void ServiceWorkload::check_determinism(const Pass& pass) {
  const std::size_t limit = options_.small ? requests_[0].size() : 2;
  std::size_t checked = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < requests_[0].size() && checked < limit; ++i) {
    const Request& req = requests_[0][i];
    if (req.repeat) continue;
    MlPartitioner engine{MlConfig{}};
    const MultistartResult direct =
        run_hmetis_like(variants_[req.variant].problem, engine,
                        req.submit.starts, req.submit.vcycles,
                        req.submit.seed);
    ++checked;
    if (direct.best_cut == pass.outcomes[0][i].reply.cut) {
      ++matched;
    } else {
      result_.fail("request " + std::to_string(i) + ": service cut " +
                   std::to_string(pass.outcomes[0][i].reply.cut) +
                   " != direct library cut " +
                   std::to_string(direct.best_cut));
    }
  }
  result_.notes.push_back("determinism: " + std::to_string(matched) + "/" +
                          std::to_string(checked) +
                          " service solves equal the direct library call");
}

void ServiceWorkload::run() {
  const Clock::time_point start = Clock::now();
  // Set-up, three times here and once more after every pass; reported
  // as the median.
  time_setup(true);
  time_setup(false);
  time_setup(false);
  build_requests();

  std::vector<Pass> passes;
  passes.push_back(run_pass(start_server(), false));
  time_setup(false);
  check_determinism(passes.front());
  if (options_.trace) {
    const Pass traced = run_pass(start_server(), true);
    report_end_to_end(passes);
    report_per_layer(passes.front(), traced);
    return;
  }
  // Passes go on while another one fits in --seconds.
  while (
         seconds_since(start) / static_cast<double>(passes.size()) *
                 static_cast<double>(passes.size() + 1) <=
             options_.seconds) {
    passes.push_back(run_pass(start_server(), false));
    time_setup(false);
  }
  report_end_to_end(passes);
}

void ServiceWorkload::report_end_to_end(const std::vector<Pass>& passes) {
  // Median over the repetitions (identical requests on a fresh server)
  // of each time at the reference host speed.
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> factors;
  std::vector<double> raw;
  for (const Pass& pass : passes) {
    walls.push_back(pass.wall / pass.host_factor);
    cpus.push_back(pass.cpu / pass.host_factor);
    factors.push_back(pass.host_factor);
    raw.push_back(pass.wall);
  }
  const double wall = median(walls);
  const double cpu = median(cpus);
  result_.host_factor = median(factors);
  char host[160];
  std::snprintf(host, sizeof host,
                "host factor median %.4f (min %.4f, max %.4f over %zu "
                "passes); unadjusted wall_s %.4f",
                result_.host_factor,
                *std::min_element(factors.begin(), factors.end()),
                *std::max_element(factors.begin(), factors.end()),
                passes.size(), median(raw));
  result_.notes.emplace_back(host);
  std::vector<std::vector<double>> solve_s(kPresets.size());
  std::vector<double> cut_sum(kPresets.size(), 0.0);
  std::vector<double> cut_min(kPresets.size(),
                              std::numeric_limits<double>::max());
  std::size_t requests = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < requests_[c].size(); ++i) {
      const Request& req = requests_[c][i];
      const std::size_t preset = variants_[req.variant].preset;
      const Weight cut = passes.front().outcomes[c][i].reply.cut;
      // A failed request counts as missing every latency limit.
      std::vector<double> latency;
      for (const Pass& pass : passes) {
        const Outcome& out = pass.outcomes[c][i];
        ++result_.attempted;
        if (!out.transport_ok) ++result_.failed;
        if (out.reply.cut != cut) {
          result_.fail("request " + std::to_string(i) +
                       " cut changed between repetitions");
        }
        latency.push_back(out.transport_ok
                              ? out.latency_s / pass.host_factor
                              : std::numeric_limits<double>::infinity());
      }
      ++requests;
      if (req.repeat) continue;
      solve_s[preset].push_back(median(latency));
      cut_sum[preset] += static_cast<double>(cut);
      cut_min[preset] = std::min(cut_min[preset], static_cast<double>(cut));
    }
  }
  std::vector<double> start_s;
  std::vector<double> cut_avg;
  std::vector<double> cut_lo;
  std::size_t solves = 0;
  for (std::size_t p = 0; p < kPresets.size(); ++p) {
    if (solve_s[p].empty()) continue;
    solves += solve_s[p].size();
    start_s.push_back(geomean(solve_s[p]));
    cut_avg.push_back(cut_sum[p] / static_cast<double>(solve_s[p].size()));
    cut_lo.push_back(cut_min[p]);
    char line[256];
    std::snprintf(line, sizeof line,
                  "preset %s solves=%zu solve_s_geomean=%.4f cut_avg=%.1f "
                  "cut_min=%.0f",
                  kPresets[p].c_str(), solve_s[p].size(), start_s.back(),
                  cut_avg.back(), cut_lo.back());
    result_.notes.emplace_back(line);
  }
  const std::string how = "median of " + std::to_string(passes.size()) +
                          " host-adjusted repetitions";
  result_.add("setup_s", median(setup_s_), "s", setup_s_.size(),
              "median of set-ups spread over the run");
  result_.add("wall_s", wall, "s", passes.size(), how);
  result_.add("cpu_s", cpu, "s", passes.size(), how);
  result_.add("start_s_geomean", geomean(start_s), "s",
              solves * passes.size(),
              "geomean over presets of per-preset geomean of solve "
              "latency");
  result_.add("cut_avg_geomean", geomean(cut_avg), "count", solves);
  result_.add("cut_min_geomean", geomean(cut_lo), "count", solves);
  result_.add("ok_frac",
              static_cast<double>(result_.attempted - result_.failed) /
                  static_cast<double>(result_.attempted),
              "fraction", result_.attempted);
  result_.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result_.add("req_per_s", static_cast<double>(requests) / wall, "1/s",
              passes.size());
}

void ServiceWorkload::report_per_layer(const Pass& plain, const Pass& traced) {
  std::vector<double> solve;
  std::vector<double> hit;
  std::vector<double> submit;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const Outcome& out : traced.outcomes[c]) {
      const double latency = out.transport_ok
                                 ? out.latency_s
                                 : std::numeric_limits<double>::infinity();
      (out.hit ? hit : solve).push_back(latency);
      submit.push_back(out.submit_s);
    }
  }
  auto quantile = [&](const char* name, const std::vector<double>& s,
                      double q) {
    const double v = disciplined_quantile(s, q) * 1e3;
    result_.add(name, std::isnan(v) ? 0.0 : v, "ms", s.size(),
                std::isnan(v) ? "too few samples for this percentile" : "");
  };
  // Server histograms report bucket upper bounds (powers of two in us).
  auto histogram = [&](const char* name, const LatencyHistogram& h,
                       double q) {
    const bool enough = h.count() >= samples_needed(q);
    result_.add(name, enough ? h.quantile(q) * 1e3 : 0.0, "ms", h.count(),
                enough ? "histogram bucket bound"
                       : "too few samples for this percentile");
  };
  const service::MetricsSnapshot& m = traced.server;
  const double jobs = static_cast<double>(std::max<std::uint64_t>(1, m.submitted));
  result_.add("gen.generate_s", median(generate_s_), "s", generate_s_.size(),
              "host-adjusted");
  quantile("service.solve_ms_p50", solve, 0.5);
  quantile("service.solve_ms_p90", solve, 0.9);
  quantile("service.hit_ms_p50", hit, 0.5);
  quantile("service.submit_ms_p50", submit, 0.5);
  histogram("service.queue_wait_ms_p50", m.queue_wait, 0.5);
  histogram("service.queue_wait_ms_p90", m.queue_wait, 0.9);
  histogram("service.latency_ms_p50", m.latency, 0.5);
  result_.add("service.instance_hit_ratio",
              static_cast<double>(m.instance_cache_hits) / jobs, "fraction",
              m.submitted);
  result_.add("service.result_hit_ratio",
              static_cast<double>(m.result_cache_hits) / jobs, "fraction",
              m.submitted);
  result_.add("service.shed", static_cast<double>(m.shed), "count");
  result_.add("service.failed", static_cast<double>(m.failed), "count");
  result_.add("trace.overhead_frac", traced.wall / plain.wall - 1.0,
              "fraction", 1, "traced pass wall over untraced pass wall");
  // The determinism contract makes every traced reply equal the untraced
  // one for the same request.
  std::size_t checks = 0;
  std::size_t matches = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < traced.outcomes[c].size(); ++i) {
      ++checks;
      ++result_.attempted;
      if (!traced.outcomes[c][i].transport_ok) ++result_.failed;
      if (traced.outcomes[c][i].reply.cut == plain.outcomes[c][i].reply.cut) {
        ++matches;
      }
    }
  }
  result_.add("trace.cut_match",
              static_cast<double>(matches) / static_cast<double>(checks),
              "fraction", checks);
  if (!options_.trace_out.empty() && !tracer_.write_json(options_.trace_out)) {
    result_.notes.push_back("could not write spans to " + options_.trace_out);
  }
}

}  // namespace

RunResult run_service_workload(const Options& options) {
  RunResult result;
  ServiceWorkload(options, result).run();
  return result;
}

}  // namespace vlsipart::e2e
