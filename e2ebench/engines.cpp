// Engine workloads: ml-serial, ml-threads2 and flat-fm.
//
// A workload is a fixed list of units, each one call into the library's
// public harness for one (instance, engine) group and one derived seed:
//   ml-*     run_hmetis_like(problem, ml, 1 start, 1 V-cycle, seed)
//   flat-fm  run_multistart(problem, flat, 1 start, seed)
// Every unit returns a partition, which is verified.  The untraced run
// makes passes over the list while another fits in --seconds, at least
// two (same seeds, so cuts must repeat exactly).  A host probe runs
// before every unit; each unit's time is divided by its pass's host
// factor and reported as the median over the passes.
//
// The traced run makes one pass in which every unit runs untraced and
// then again through the stage functions MlPartitioner::run_internal
// calls, in the same order and with the same Rng streams, wrapping each
// call in a span.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "e2ebench/workloads.h"
#include "src/gen/netlist_gen.h"
#include "src/hypergraph/contraction.h"
#include "src/part/core/multistart.h"
#include "src/part/core/parallel_refine.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/part/ml/parallel_coarsen.h"
#include "src/util/thread_pool.h"

namespace vlsipart::e2e {

namespace {

/// Tolerance of every problem (vpart's default).
constexpr double kTolerance = 0.02;

struct InstanceSpec {
  std::string name;
  /// Units per (instance, engine) group, each with its own seed.  Small
  /// instances get more: their per-start times and cuts vary more
  /// relative to their size, and they are cheap.
  std::size_t calls = 1;
};

struct WorkloadSpec {
  std::vector<InstanceSpec> instances;
  double scale = 1.0;
  bool ml = true;
  MlConfig ml_config;
  std::vector<std::pair<std::string, FmConfig>> flat_engines;
};

WorkloadSpec make_spec(const Options& o) {
  WorkloadSpec spec;
  // The ML workloads run the presets at a quarter of their size: at full
  // size their working sets spill to the shared L3 and DRAM, whose
  // latency on a shared host drifts too far between runs (and too
  // independently of the host probe) for a steady figure.
  spec.scale = 0.25;
  if (o.workload == "ml-serial") {
    spec.instances = {{"ibm01", 6}, {"ibm05", 4}, {"ibm10", 3},
                      {"ibm14", 3}, {"ibm18", 3}};
  } else if (o.workload == "ml-threads2") {
    spec.instances = {{"ibm10", 4}, {"ibm14", 4}, {"ibm18", 4}};
    spec.ml_config.coarsen.coarsen_threads = 2;
    spec.ml_config.refine.refine_threads = 2;
  } else {  // flat-fm
    // Fifteen seeds per group: the work of one flat start varies a lot
    // with its seed, and the sum must not.
    spec.instances = {{"ibm05", 15}, {"ibm10", 15}, {"ibm14", 15}};
    spec.ml = false;
    // The paper's Table-1 flat baselines, "our LIFO" and "our CLIP".
    spec.flat_engines = {{"lifo", bench::our_lifo()},
                         {"clip", bench::our_clip()}};
    spec.scale = 0.1;
  }
  if (o.small) {
    spec.scale = 0.05;
    for (InstanceSpec& i : spec.instances) i.calls = 2;
  }
  return spec;
}

struct Group {
  std::string label;
  std::size_t instance = 0;
  std::unique_ptr<MlPartitioner> ml;
  std::unique_ptr<FlatFmPartitioner> flat;
  // Traced-path scratch.
  ContractionMemory memory;
  std::unique_ptr<PartitionState> state;
  std::unique_ptr<FmRefiner> refiner;
};

struct Unit {
  std::size_t group = 0;
  std::uint64_t seed = 0;
};

/// What one unit produced, for cross-checks between passes.
struct UnitOutcome {
  Weight start_cut = 0;  ///< cut of the engine start (before V-cycles)
  Weight cut = 0;        ///< cut of the returned partition
  bool ok = false;
};

struct Pass {
  double wall = 0.0;
  std::vector<double> unit_wall;
  std::vector<double> unit_cpu;
  std::vector<UnitOutcome> outcomes;
  /// Host probe read times taken before each unit, and their factor.
  std::vector<double> probe;
  double host_factor = 1.0;
};

// ------------------------------------------------------ per-layer counts

struct FmCounters {
  std::size_t passes = 0;
  std::size_t moves_made = 0;
  std::size_t moves_kept = 0;
  std::size_t nets_walked = 0;
  std::size_t nets_skipped = 0;
  std::size_t clip_passes = 0;
  std::size_t clip_zero_move_passes = 0;

  void absorb(const FmResult& r, bool clip) {
    passes += r.passes;
    for (const FmPassStats& s : r.pass_stats) {
      moves_made += s.moves_made;
      moves_kept += s.moves_kept;
    }
    const UpdateWork w = r.update_work();
    nets_walked += w.nets_walked;
    nets_skipped += w.nets_skipped_noncritical;
    if (clip) {
      clip_passes += r.passes;
      clip_zero_move_passes += r.zero_move_passes;
    }
  }
  void absorb(const ParallelFmResult& r) {
    passes += r.rounds;
    for (const ParallelRoundStats& s : r.round_stats) {
      moves_made += s.applied;
      moves_kept += s.kept;
    }
    nets_walked += r.update_work().nets_walked;
  }
};

struct LayerStats {
  FmCounters fm;
  std::vector<double> coarsest;
  std::map<std::string, std::vector<double>> coarsest_by_group;
  std::vector<double> levels;
  std::vector<double> shrink;
  std::size_t stalled = 0;
  std::size_t vcycles = 0;
  std::size_t vcycles_accepted = 0;
  std::size_t cut_checks = 0;
  std::size_t cut_matches = 0;
};

struct TraceContext {
  Tracer& tracer;
  LayerStats& stats;
  ThreadPool* pool;
  std::int64_t request;
};

void traced_refine(TraceContext& ctx, const PartitionProblem& problem,
                   const FmConfig& fm, PartitionState& state, Rng& rng) {
  auto span = ctx.tracer.span("core.fm", ctx.request);
  if (fm.refine_threads > 1) {
    ParallelFmRefiner refiner(problem, fm, ctx.pool);
    ctx.stats.fm.absorb(refiner.refine(state, rng));
  } else {
    FmRefiner refiner(problem, fm);
    ctx.stats.fm.absorb(refiner.refine(state, rng), fm.clip);
  }
}

/// One unrestricted multilevel start, driven through the public stage
/// functions in MlPartitioner::run_internal's order.
Weight traced_ml_start(TraceContext& ctx, const MlConfig& config,
                       const PartitionProblem& problem, Rng& rng,
                       ContractionMemory* memory, std::vector<PartId>& parts) {
  const Hypergraph& fine = *problem.graph;
  CoarsenConfig coarsen_config = config.coarsen;
  coarsen_config.respect_parts = false;
  std::vector<CoarsenLevel> levels;
  {
    auto span = ctx.tracer.span("ml.coarsen", ctx.request);
    levels = coarsen_config.coarsen_threads > 1
                 ? parallel_build_hierarchy(fine, coarsen_config,
                                            problem.fixed, {}, ctx.pool,
                                            memory)
                 : build_hierarchy(fine, coarsen_config, problem.fixed, {},
                                   rng, memory);
  }
  std::size_t in = fine.num_vertices();
  for (const CoarsenLevel& level : levels) {
    ctx.stats.shrink.push_back(
        static_cast<double>(level.coarse.num_vertices()) /
        static_cast<double>(in));
    in = level.coarse.num_vertices();
  }
  ctx.stats.levels.push_back(static_cast<double>(levels.size()));
  ctx.stats.coarsest.push_back(static_cast<double>(in));
  if (in > coarsen_config.coarsen_to) ++ctx.stats.stalled;

  std::vector<std::vector<PartId>> fixed_at_level;
  fixed_at_level.push_back(problem.fixed);
  for (const CoarsenLevel& level : levels) {
    const auto& prev = fixed_at_level.back();
    fixed_at_level.push_back(
        prev.empty() ? std::vector<PartId>{}
                     : project_fixed(prev, level.fine_to_coarse,
                                     level.coarse.num_vertices()));
  }
  const Hypergraph* coarsest = levels.empty() ? &fine : &levels.back().coarse;
  PartitionProblem coarse_problem;
  coarse_problem.graph = coarsest;
  coarse_problem.balance = problem.balance;
  coarse_problem.fixed = fixed_at_level.back();

  std::vector<PartId> coarse_parts;
  {
    auto span = ctx.tracer.span("ml.initial", ctx.request);
    const bool par_refine = config.refine.refine_threads > 1;
    std::unique_ptr<FmRefiner> serial_refiner;
    std::unique_ptr<ParallelFmRefiner> parallel_refiner;
    if (par_refine) {
      parallel_refiner = std::make_unique<ParallelFmRefiner>(
          coarse_problem, config.refine, ctx.pool);
    } else {
      serial_refiner =
          std::make_unique<FmRefiner>(coarse_problem, config.refine);
    }
    Weight best = std::numeric_limits<Weight>::max();
    for (std::size_t t = 0; t < std::max<std::size_t>(1, config.initial_tries);
         ++t) {
      std::vector<PartId> trial =
          make_initial(coarse_problem, config.initial_scheme, t, rng);
      PartitionState state(*coarsest);
      state.assign(trial);
      {
        auto fm_span = ctx.tracer.span("core.fm", ctx.request);
        if (par_refine) {
          ctx.stats.fm.absorb(parallel_refiner->refine(state, rng));
        } else {
          ctx.stats.fm.absorb(serial_refiner->refine(state, rng),
                              config.refine.clip);
        }
      }
      const bool feasible =
          check_solution(coarse_problem, state.parts()).empty();
      const Weight cut = state.cut();
      if (coarse_parts.empty() || (feasible && cut < best)) {
        if (feasible || coarse_parts.empty()) {
          best = feasible ? cut : best;
          coarse_parts = state.parts();
        }
      }
    }
  }

  {
    auto span = ctx.tracer.span("ml.uncoarsen", ctx.request);
    for (std::size_t i = levels.size(); i-- > 0;) {
      const Hypergraph* level_graph = (i == 0) ? &fine : &levels[i - 1].coarse;
      coarse_parts = project_partition(levels[i].fine_to_coarse, coarse_parts);
      PartitionProblem level_problem;
      level_problem.graph = level_graph;
      level_problem.balance = problem.balance;
      level_problem.fixed = fixed_at_level[i];
      PartitionState state(*level_graph);
      state.assign(coarse_parts);
      traced_refine(ctx, level_problem, config.refine, state, rng);
      coarse_parts = state.parts();
    }
  }
  parts = std::move(coarse_parts);
  return compute_cut(fine, parts);
}

/// Seed-stream constant of run_hmetis_like's trailing V-cycles.  If the
/// library changes it, trace.cut_match drops below 1 and the split is
/// reported stale rather than failing the run.
constexpr std::uint64_t kVcycleStream = 0x5ec5eedc0ffeeULL;

// ------------------------------------------------------------- workload

class EngineWorkload {
 public:
  EngineWorkload(const Options& options, RunResult& result)
      : options_(options), spec_(make_spec(options)), result_(result) {}

  void run();

 private:
  /// One timed set-up: generate every instance and build its problem
  /// and engines.  With `keep` the result becomes the live inputs; other
  /// samples are built and discarded, so set-up time is sampled at
  /// several points of the run rather than once at its start.
  double time_setup(bool keep);
  /// One pass over the work list; with `traced`, each unit also runs
  /// traced right after its untraced run.
  void run_pass(Pass& plain, Pass* traced);
  UnitOutcome run_unit(const Unit& unit);
  UnitOutcome run_traced_unit(std::size_t index, const Unit& unit);
  bool check_outcome(const Unit& unit, const MultistartResult& r,
                     const char* what);
  void report_end_to_end(const std::vector<Pass>& passes);
  void report_per_layer(const Pass& plain, const Pass& traced);

  const Options& options_;
  WorkloadSpec spec_;
  RunResult& result_;
  std::vector<Hypergraph> graphs_;
  std::vector<PartitionProblem> problems_;
  std::vector<Group> groups_;
  std::vector<Unit> units_;
  std::vector<double> generate_s_;
  std::vector<double> setup_s_;
  std::vector<double> pass_factors_;
  HostProbe probe_;
  std::unique_ptr<ThreadPool> trace_pool_;
  Tracer tracer_;
  LayerStats stats_;
};

double EngineWorkload::time_setup(bool keep) {
  std::vector<double> probe;
  for (int i = 0; i < 4; ++i) probe.push_back(probe_.seconds_per_read());
  const double factor = host_factor(probe);
  const Clock::time_point t0 = Clock::now();
  std::vector<Hypergraph> graphs;
  graphs.reserve(spec_.instances.size());
  for (const InstanceSpec& instance : spec_.instances) {
    graphs.push_back(
        generate_netlist(preset(instance.name).scaled(spec_.scale)));
  }
  generate_s_.push_back(seconds_since(t0) / factor);
  std::vector<PartitionProblem> problems(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    problems[i].graph = &graphs[i];
    problems[i].balance = BalanceConstraint::from_tolerance(
        graphs[i].total_vertex_weight(), kTolerance);
  }
  const std::size_t engines = spec_.ml ? 1 : spec_.flat_engines.size();
  std::vector<Group> groups(engines * spec_.instances.size());
  std::size_t g = 0;
  for (std::size_t e = 0; e < engines; ++e) {
    for (std::size_t i = 0; i < spec_.instances.size(); ++i, ++g) {
      Group& group = groups[g];
      group.instance = i;
      if (spec_.ml) {
        group.label = spec_.instances[i].name;
        group.ml = std::make_unique<MlPartitioner>(spec_.ml_config);
      } else {
        const auto& [name, fm] = spec_.flat_engines[e];
        group.label = name + "/" + spec_.instances[i].name;
        group.flat = std::make_unique<FlatFmPartitioner>(fm, name);
        group.state = std::make_unique<PartitionState>(graphs[i]);
        group.refiner = std::make_unique<FmRefiner>(problems[i], fm);
      }
    }
  }
  const double elapsed = seconds_since(t0) / factor;
  setup_s_.push_back(elapsed);
  if (keep) {
    // Moving the vectors keeps their buffers, so the problems' graph
    // pointers and the engines' problem pointers stay valid.
    graphs_ = std::move(graphs);
    problems_ = std::move(problems);
    groups_ = std::move(groups);
  }
  return elapsed;
}

bool EngineWorkload::check_outcome(const Unit& unit,
                                   const MultistartResult& r,
                                   const char* what) {
  const Group& group = groups_[unit.group];
  std::string error = r.best_parts.empty()
                          ? std::string("no feasible partition returned")
                          : verify_partition(problems_[group.instance],
                                             r.best_parts, r.best_cut);
  if (error.empty()) return true;
  result_.fail(std::string(what) + " " + group.label + " seed " +
               std::to_string(unit.seed) + ": " + error);
  return false;
}

UnitOutcome EngineWorkload::run_unit(const Unit& unit) {
  Group& group = groups_[unit.group];
  const PartitionProblem& problem = problems_[group.instance];
  const MultistartResult r =
      spec_.ml ? run_hmetis_like(problem, *group.ml, 1, 1, unit.seed, 1)
               : run_multistart(problem, *group.flat, 1, unit.seed, 1);
  UnitOutcome out;
  out.start_cut = r.starts.empty() ? 0 : r.starts.front().cut;
  out.cut = r.best_cut;
  out.ok = check_outcome(unit, r, "unit");
  return out;
}

UnitOutcome EngineWorkload::run_traced_unit(std::size_t index,
                                            const Unit& unit) {
  Group& group = groups_[unit.group];
  const PartitionProblem& problem = problems_[group.instance];
  TraceContext ctx{tracer_, stats_, trace_pool_.get(),
                   static_cast<std::int64_t>(index)};
  auto unit_span = tracer_.span("unit", ctx.request);
  // run_multistart with one start: start 0 draws from Rng(seed).fork(0).
  const Rng base(unit.seed);
  Rng rng = base.fork(0);
  MultistartResult r;
  std::vector<PartId> parts;
  Weight cut = 0;
  if (spec_.ml) {
    {
      auto span = tracer_.span("ml.start", ctx.request);
      cut = traced_ml_start(ctx, spec_.ml_config, problem, rng,
                            &group.memory, parts);
    }
    stats_.coarsest_by_group[group.label].push_back(stats_.coarsest.back());
    // run_hmetis_like: V-cycle the best start (default vcycles = 0, so
    // the start itself ran none).
    r.starts.push_back({cut, 0.0, check_solution(problem, parts).empty()});
    if (r.starts.front().feasible) {
      r.best_parts = parts;
      Rng vrng(unit.seed ^ kVcycleStream);
      auto span = tracer_.span("ml.vcycle", ctx.request);
      const Weight improved = group.ml->vcycle(problem, vrng, r.best_parts);
      ++stats_.vcycles;
      if (improved < cut) {
        ++stats_.vcycles_accepted;
        cut = improved;
      }
    }
  } else {
    {
      auto span = tracer_.span("core.initial", ctx.request);
      parts = make_initial(problem, InitialScheme::kRandom, 0, rng);
    }
    group.state->assign(parts);
    {
      auto span = tracer_.span("core.fm", ctx.request);
      stats_.fm.absorb(group.refiner->refine(*group.state, rng),
                       group.refiner->config().clip);
    }
    cut = group.state->cut();
    r.starts.push_back(
        {cut, 0.0, check_solution(problem, group.state->parts()).empty()});
    if (r.starts.front().feasible) r.best_parts = group.state->parts();
  }
  r.best_cut = cut;
  UnitOutcome out;
  out.start_cut = r.starts.front().cut;
  out.cut = cut;
  out.ok = check_outcome(unit, r, "traced unit");
  return out;
}

void EngineWorkload::run_pass(Pass& plain, Pass* traced) {
  auto timed = [&](Pass& pass, std::size_t u, bool trace) {
    const double cpu0 = process_cpu_now();
    const Clock::time_point t0 = Clock::now();
    pass.outcomes.push_back(trace ? run_traced_unit(u, units_[u])
                                  : run_unit(units_[u]));
    const double wall = seconds_since(t0);
    pass.unit_cpu.push_back(process_cpu_now() - cpu0);
    pass.wall += wall;
    pass.unit_wall.push_back(wall);
  };
  for (std::size_t u = 0; u < units_.size(); ++u) {
    plain.probe.push_back(probe_.seconds_per_read());
    timed(plain, u, false);
    // The traced replay runs right after the same unit untraced, so both
    // see the same host conditions and the overhead ratio stays fair.
    if (traced != nullptr) timed(*traced, u, true);
  }
  plain.host_factor = host_factor(plain.probe);
  pass_factors_.push_back(plain.host_factor);
}

void EngineWorkload::run() {
  const Clock::time_point start = Clock::now();
  // Set-up: instance generation and problem/engine construction, three
  // times here and once more after every pass; reported as the median.
  time_setup(true);
  time_setup(false);
  time_setup(false);
  if (spec_.ml_config.coarsen.coarsen_threads > 1 && options_.trace) {
    trace_pool_ = std::make_unique<ThreadPool>(
        std::max(spec_.ml_config.coarsen.coarsen_threads,
                 spec_.ml_config.refine.refine_threads));
  }
  // Work list: each group's seeds, groups interleaved round by round.
  std::size_t rounds = 0;
  for (const InstanceSpec& i : spec_.instances) rounds = std::max(rounds, i.calls);
  for (std::size_t c = 0; c < rounds; ++c) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (c < spec_.instances[groups_[g].instance].calls) {
        units_.push_back({g, mix_seed(options_.seed, g + 1, c + 1)});
      }
    }
  }

  std::vector<Pass> passes(1);
  if (options_.trace) {
    Pass traced;
    run_pass(passes.front(), &traced);
    for (std::size_t u = 0; u < units_.size(); ++u) {
      ++stats_.cut_checks;
      const UnitOutcome& a = passes.front().outcomes[u];
      const UnitOutcome& b = traced.outcomes[u];
      if (a.start_cut == b.start_cut && a.cut == b.cut) ++stats_.cut_matches;
      ++result_.attempted;
      if (!b.ok) ++result_.failed;
    }
    time_setup(false);
    report_end_to_end(passes);
    report_per_layer(passes.front(), traced);
    return;
  }
  // Passes go on while another one fits in --seconds, so a slow host
  // gives fewer passes rather than a longer run.
  run_pass(passes.front(), nullptr);
  time_setup(false);
  while (passes.size() < 2 ||
         seconds_since(start) / static_cast<double>(passes.size()) *
                 static_cast<double>(passes.size() + 1) <=
             options_.seconds) {
    run_pass(passes.emplace_back(), nullptr);
    time_setup(false);
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (passes.back().outcomes[u].cut != passes.front().outcomes[u].cut) {
        result_.fail("unit " + std::to_string(u) + " (" +
                     groups_[units_[u].group].label +
                     ") cut changed between repetitions of the same seed");
      }
    }
  }
  report_end_to_end(passes);
}

void EngineWorkload::report_end_to_end(const std::vector<Pass>& passes) {
  for (const Pass& p : passes) {
    for (const UnitOutcome& o : p.outcomes) {
      ++result_.attempted;
      if (!o.ok) ++result_.failed;
    }
  }
  // Each unit's time is the median over the passes of its time at the
  // reference host speed (raw time over its pass's host factor).
  std::vector<double> unit_wall(units_.size());
  std::vector<double> unit_cpu(units_.size());
  double wall = 0.0;
  double cpu = 0.0;
  double raw_wall = 0.0;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> raw;
    for (const Pass& p : passes) {
      walls.push_back(p.unit_wall[u] / p.host_factor);
      cpus.push_back(p.unit_cpu[u] / p.host_factor);
      raw.push_back(p.unit_wall[u]);
    }
    unit_wall[u] = median(walls);
    unit_cpu[u] = median(cpus);
    wall += unit_wall[u];
    cpu += unit_cpu[u];
    raw_wall += median(raw);
  }
  result_.host_factor = median(pass_factors_);
  char host[160];
  std::snprintf(host, sizeof host,
                "host factor median %.4f (min %.4f, max %.4f over %zu "
                "passes); unadjusted wall_s %.4f",
                result_.host_factor,
                *std::min_element(pass_factors_.begin(), pass_factors_.end()),
                *std::max_element(pass_factors_.begin(), pass_factors_.end()),
                pass_factors_.size(), raw_wall);
  result_.notes.emplace_back(host);
  // Per group: geometric mean of unit time; mean and min cut over the
  // group's seeds.
  std::vector<double> start_s;
  std::vector<double> cut_avg;
  std::vector<double> cut_min;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::vector<double> times;
    double sum = 0.0;
    double min = std::numeric_limits<double>::max();
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (units_[u].group != g) continue;
      times.push_back(unit_wall[u]);
      const double cut = static_cast<double>(passes.front().outcomes[u].cut);
      sum += cut;
      min = std::min(min, cut);
    }
    start_s.push_back(geomean(times));
    cut_avg.push_back(sum / static_cast<double>(times.size()));
    cut_min.push_back(min);
    char line[256];
    std::snprintf(line, sizeof line,
                  "group %-12s starts=%zu start_s_geomean=%.4f "
                  "cut_avg=%.1f cut_min=%.0f",
                  groups_[g].label.c_str(), times.size(), start_s.back(),
                  cut_avg.back(), cut_min.back());
    result_.notes.emplace_back(line);
  }
  const std::size_t units = units_.size();
  const std::string how = "sum over units of median-of-" +
                          std::to_string(passes.size()) +
                          " host-adjusted unit time";
  result_.add("setup_s", median(setup_s_), "s", setup_s_.size(),
              "median of set-ups spread over the run");
  result_.add("wall_s", wall, "s", units * passes.size(), how);
  result_.add("cpu_s", cpu, "s", units * passes.size(), how);
  result_.add("start_s_geomean", geomean(start_s), "s", units * passes.size(),
              "geomean over groups of per-group geomean of unit time");
  result_.add("cut_avg_geomean", geomean(cut_avg), "count", units);
  result_.add("cut_min_geomean", geomean(cut_min), "count", units);
  result_.add("ok_frac",
              static_cast<double>(result_.attempted - result_.failed) /
                  static_cast<double>(result_.attempted),
              "fraction", result_.attempted);
  result_.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result_.add("req_per_s", static_cast<double>(units) / wall, "1/s",
              units * passes.size());
}

void EngineWorkload::report_per_layer(const Pass& plain, const Pass& traced) {
  const FmCounters& fm = stats_.fm;
  result_.add("gen.generate_s", median(generate_s_), "s", generate_s_.size(),
              "host-adjusted");
  result_.add("ml.coarsen.self_s", tracer_.self_seconds("ml.coarsen"), "s");
  result_.add("ml.coarsen.levels", median(stats_.levels), "count",
              stats_.levels.size(), "median per hierarchy");
  result_.add("ml.coarsen.coarsest_vertices",
              stats_.coarsest.empty() ? 0.0 : geomean(stats_.coarsest),
              "count", stats_.coarsest.size(), "geomean per hierarchy");
  const double shrink = disciplined_quantile(stats_.shrink, 0.5);
  result_.add("ml.coarsen.shrink_p50", std::isnan(shrink) ? 0.0 : shrink,
              "ratio", stats_.shrink.size(),
              std::isnan(shrink) ? "too few levels for a median" : "");
  for (const auto& [label, sizes] : stats_.coarsest_by_group) {
    result_.notes.push_back("group " + label + " coarsest_vertices_median=" +
                            std::to_string(median(sizes)));
  }
  result_.add("ml.coarsen.stall_frac",
              stats_.levels.empty()
                  ? 0.0
                  : static_cast<double>(stats_.stalled) /
                        static_cast<double>(stats_.levels.size()),
              "fraction", stats_.levels.size());
  result_.add("ml.initial.self_s", tracer_.self_seconds("ml.initial"), "s");
  result_.add("core.fm.self_s", tracer_.self_seconds("core.fm"), "s");
  result_.add("core.fm.passes", static_cast<double>(fm.passes), "count");
  result_.add("core.fm.moves_made", static_cast<double>(fm.moves_made),
              "count");
  result_.add("core.fm.nets_walked", static_cast<double>(fm.nets_walked),
              "count");
  const std::size_t visits = fm.nets_walked + fm.nets_skipped;
  result_.add("core.fm.skip_rate",
              visits == 0 ? 0.0
                          : static_cast<double>(fm.nets_skipped) /
                                static_cast<double>(visits),
              "fraction", visits);
  result_.add("core.fm.keep_ratio",
              fm.moves_made == 0 ? 0.0
                                 : static_cast<double>(fm.moves_kept) /
                                       static_cast<double>(fm.moves_made),
              "fraction", fm.moves_made);
  result_.add("core.fm.corked_frac",
              fm.clip_passes == 0
                  ? 0.0
                  : static_cast<double>(fm.clip_zero_move_passes) /
                        static_cast<double>(fm.clip_passes),
              "fraction", fm.clip_passes);
  result_.add("ml.vcycle.self_s", tracer_.self_seconds("ml.vcycle"), "s",
              stats_.vcycles);
  result_.add("ml.vcycle.accept_ratio",
              stats_.vcycles == 0
                  ? 0.0
                  : static_cast<double>(stats_.vcycles_accepted) /
                        static_cast<double>(stats_.vcycles),
              "fraction", stats_.vcycles);
  // Pool busy cores: CPU over wall inside the stage calls that run on
  // the pool (parallel coarsening and round-based refinement).
  double busy = 0.0;
  if (trace_pool_ != nullptr) {
    const double wall_in =
        tracer_.total_seconds("ml.coarsen") + tracer_.total_seconds("core.fm");
    const double cpu_in = tracer_.total_cpu_seconds("ml.coarsen") +
                          tracer_.total_cpu_seconds("core.fm");
    busy = wall_in > 0.0 ? cpu_in / wall_in : 0.0;
  }
  result_.add("util.pool.busy_cores", busy, "cores");
  result_.add("trace.overhead_frac", traced.wall / plain.wall - 1.0,
              "fraction", 1, "traced pass wall over untraced pass wall");
  result_.add("trace.cut_match",
              static_cast<double>(stats_.cut_matches) /
                  static_cast<double>(stats_.cut_checks),
              "fraction", stats_.cut_checks);
  if (!options_.trace_out.empty() && !tracer_.write_json(options_.trace_out)) {
    result_.notes.push_back("could not write spans to " + options_.trace_out);
  }
}

}  // namespace

RunResult run_engine_workload(const Options& options) {
  RunResult result;
  EngineWorkload(options, result).run();
  return result;
}

}  // namespace vlsipart::e2e
