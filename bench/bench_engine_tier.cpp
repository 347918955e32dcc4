// Engine-tier comparison: the four --engine choices of vpart (flat LIFO,
// flat CLIP, ML, memetic) head to head on ibm-class instances — min/avg
// cut and CPU per engine at equal multistart budgets, plus each engine's
// best-seen cut so the evo acceptance bar ("beat the flat-FM best seen")
// is read straight off the table.
//
// The evo engine runs fewer starts (each start is an entire population
// evolution, ~population + generations*offspring ML descents); its
// --runs are divided by the configured work factor so the table compares
// comparable CPU, and the CPU column reports what was actually spent.
//
// Default: ibm01-03 at scale 0.3, 20 runs.  EXPERIMENTS.md tables use
// --cases ibm01,ibm02,ibm03 --scale 0.3 --runs 20 --csv.
#include <memory>

#include "bench/bench_common.h"
#include "src/part/evo/evo_partitioner.h"

using namespace vlsipart;
using namespace vlsipart::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.3);

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  std::printf(
      "Engine tier: min/avg cut and CPU, 10%% balance, %zu runs, scale "
      "%.2f\n\n",
      opt.runs, opt.scale);

  struct EngineSpec {
    const char* name;
    std::size_t runs_divisor;  // evo amortizes many ML descents per start
  };
  const EngineSpec specs[] = {
      {"flat", 1}, {"clip", 1}, {"ml", 1}, {"evo", 4},
  };

  std::vector<std::string> header = {"Engine", "Metric"};
  for (const auto& name : opt.cases) header.push_back(name);
  TextTable table(std::move(header));

  for (const EngineSpec& spec : specs) {
    const std::size_t runs =
        std::max<std::size_t>(1, opt.runs / spec.runs_divisor);
    std::vector<std::string> min_row = {spec.name, "min cut"};
    std::vector<std::string> avg_row = {spec.name, "avg cut"};
    std::vector<std::string> cpu_row = {spec.name, "CPU s"};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.10);
      std::unique_ptr<Bipartitioner> engine;
      if (std::string(spec.name) == "flat") {
        engine = std::make_unique<FlatFmPartitioner>(opt.apply(our_lifo()));
      } else if (std::string(spec.name) == "clip") {
        engine = std::make_unique<FlatFmPartitioner>(opt.apply(our_clip()));
      } else if (std::string(spec.name) == "ml") {
        engine = std::make_unique<MlPartitioner>(ml_config(our_lifo(), opt));
      } else {
        EvoConfig config;
        config.ml = ml_config(our_lifo(), opt);
        engine = std::make_unique<EvoPartitioner>(config);
      }
      const MultistartResult r =
          run_multistart(problem, *engine, runs, opt.seed, opt.threads);
      min_row.push_back(std::to_string(r.min_cut()));
      avg_row.push_back(fmt_fixed(r.avg_cut(), 1));
      cpu_row.push_back(fmt_fixed(r.total_cpu_seconds, 2));
    }
    table.add_row(std::move(min_row));
    table.add_row(std::move(avg_row));
    table.add_row(std::move(cpu_row));
  }
  emit(table, opt, "Engine tier (" + std::to_string(opt.runs) +
                       " starts; evo amortized)");
  return 0;
}
