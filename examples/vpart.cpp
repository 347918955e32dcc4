// vpart — command-line hypergraph partitioner (shmetis-style tool).
//
// The adoption-path entry point for this library: reads an hMetis .hgr
// file, an ISPD98 .netD/.are pair, or a built-in synthetic preset;
// partitions 2-way or k-way; writes an hMetis-style .part file and
// prints a report with multiple objectives.
//
// Usage:
//   vpart --hgr circuit.hgr      [options]
//   vpart --ispd98 path/ibm01    [options]   (reads .netD/.are)
//   vpart --case ibm01 [--scale 0.5]         (synthetic preset)
// Options:
//   --k 2           number of parts (k > 2 uses recursive bisection)
//   --tolerance 0.02
//   --engine ml|flat|clip|evo   (default ml; --help lists them)
//   --starts 4      independent starts (best kept)
//   --vcycles 1     V-cycles applied to the best result (k = 2 only)
//   --seed 1
//   --out out.part  solution file (default <input>.part.<k>)
// FM policy knobs (the paper's Sec. 2.2 implicit decisions, explicit):
//   --tie-break away|part0|toward      --zero-gain all|nonzero
//   --insert-order lifo|fifo|random    --best-choice first|last|balance
//   --illegal-head bucket|side         --look-beyond-first
//   --lookahead R   --lookahead-scan N
//   --max-passes N  --max-moves-past-best N  --exclude-oversized
//   --audit off|pass|moves  --audit-every N
//   --refine-threads N  (1 = serial FM; >1 = synchronous-round engine,
//                        run on the calling thread)
// Multilevel knobs (ml engine):
//   --initial-tries N  --coarsen-to N  --min-reduction X
//   --coarsen-threads N (1 = serial; >1 = deterministic sub-rounds, run
//                        on the calling thread)
// Memetic knobs (evo engine; nests the full ml surface):
//   --population N  --generations N  --offspring N
//   --mutation-period N  --mutation-size N  --evo-threads N
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/eval/objectives.h"
#include "src/gen/netlist_gen.h"
#include "src/hypergraph/stats.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/io/partition_io.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/evo/evo_partitioner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/timer.h"

using namespace vlsipart;

namespace {

/// Engine registry: the closed --engine vocabulary with the one-line
/// descriptions --help prints.
struct EngineInfo {
  const char* name;
  const char* blurb;
};
constexpr EngineInfo kEngines[] = {
    {"ml", "multilevel FM (hMetis-like: coarsen, refine, V-cycle the best)"},
    {"flat", "flat FM with LIFO gain buckets (the paper's baseline)"},
    {"clip", "flat FM with CLIP gain keys and corking"},
    {"evo",
     "memetic: population of ml starts evolved by recombination V-cycles"},
};

std::vector<std::string> engine_names() {
  std::vector<std::string> names;
  for (const EngineInfo& e : kEngines) names.push_back(e.name);
  return names;
}

void print_help() {
  std::printf("usage: vpart --hgr FILE | --ispd98 PREFIX | --case NAME "
              "[options]\n\nengines (--engine NAME, default ml):\n");
  for (const EngineInfo& e : kEngines) {
    std::printf("  %-8s %s\n", e.name, e.blurb);
  }
  std::printf("\nsee the header comment of examples/vpart.cpp (or DESIGN.md "
              "\"Knob reference\") for the full option list.\n");
}

/// Map a --flag value to an enum through a (name, value) table; throws
/// with the full vocabulary on an unknown spelling.
template <typename Enum>
Enum parse_choice(const CliArgs& args, const std::string& flag,
                  std::initializer_list<std::pair<const char*, Enum>> table,
                  Enum fallback) {
  const std::string value = args.get(flag, "");
  if (value.empty()) return fallback;
  std::string allowed;
  for (const auto& [name, v] : table) {
    if (value == name) return v;
    if (!allowed.empty()) allowed += "|";
    allowed += name;
  }
  throw std::runtime_error("unknown --" + flag + " (" + allowed +
                           "): " + value);
}

/// The full FM policy surface from flags (defaults = FmConfig defaults).
FmConfig fm_config_from_args(const CliArgs& args) {
  FmConfig fm;
  fm.tie_break = parse_choice(args, "tie-break",
                              {{"away", TieBreak::kAway},
                               {"part0", TieBreak::kPart0},
                               {"toward", TieBreak::kToward}},
                              fm.tie_break);
  fm.zero_gain_update = parse_choice(args, "zero-gain",
                                     {{"all", ZeroGainUpdate::kAll},
                                      {"nonzero", ZeroGainUpdate::kNonzero}},
                                     fm.zero_gain_update);
  fm.insert_order = parse_choice(args, "insert-order",
                                 {{"lifo", InsertOrder::kLifo},
                                  {"fifo", InsertOrder::kFifo},
                                  {"random", InsertOrder::kRandom}},
                                 fm.insert_order);
  fm.best_choice = parse_choice(args, "best-choice",
                                {{"first", BestChoice::kFirst},
                                 {"last", BestChoice::kLast},
                                 {"balance", BestChoice::kBalance}},
                                fm.best_choice);
  fm.illegal_head =
      parse_choice(args, "illegal-head",
                   {{"bucket", IllegalHeadPolicy::kSkipBucket},
                    {"side", IllegalHeadPolicy::kSkipSide}},
                   fm.illegal_head);
  fm.exclude_oversized = args.get_bool("exclude-oversized",
                                       fm.exclude_oversized);
  fm.look_beyond_first = args.get_bool("look-beyond-first",
                                       fm.look_beyond_first);
  fm.lookahead_depth = static_cast<int>(
      args.get_int("lookahead", fm.lookahead_depth));
  fm.lookahead_scan_limit = static_cast<std::size_t>(args.get_int(
      "lookahead-scan", static_cast<std::int64_t>(fm.lookahead_scan_limit)));
  fm.max_passes = static_cast<int>(args.get_int("max-passes",
                                                fm.max_passes));
  fm.max_moves_past_best = static_cast<std::size_t>(args.get_int(
      "max-moves-past-best",
      static_cast<std::int64_t>(fm.max_moves_past_best)));
  fm.audit.mode = parse_choice(args, "audit",
                               {{"off", AuditMode::kOff},
                                {"pass", AuditMode::kPerPass},
                                {"moves", AuditMode::kPerMoves}},
                               fm.audit.mode);
  fm.audit.every_moves = static_cast<std::size_t>(args.get_int(
      "audit-every", static_cast<std::int64_t>(fm.audit.every_moves)));
  fm.refine_threads = static_cast<std::size_t>(args.get_int(
      "refine-threads", static_cast<std::int64_t>(fm.refine_threads)));
  return fm;
}

/// The ml engine's knob surface (also nested inside the evo engine).
MlConfig ml_config_from_args(const CliArgs& args, const FmConfig& fm) {
  MlConfig config;
  config.refine = fm;
  config.initial_tries = static_cast<std::size_t>(args.get_int(
      "initial-tries", static_cast<std::int64_t>(config.initial_tries)));
  config.coarsen.coarsen_to = static_cast<std::size_t>(args.get_int(
      "coarsen-to", static_cast<std::int64_t>(config.coarsen.coarsen_to)));
  config.coarsen.min_reduction =
      args.get_double("min-reduction", config.coarsen.min_reduction);
  config.coarsen.coarsen_threads = static_cast<std::size_t>(args.get_int(
      "coarsen-threads",
      static_cast<std::int64_t>(config.coarsen.coarsen_threads)));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    args.check_known({"hgr", "ispd98", "case", "scale", "k", "tolerance",
                      "ubfactor", "engine", "starts", "vcycles", "seed",
                      "out", "help", "tie-break", "zero-gain", "insert-order",
                      "best-choice", "illegal-head", "exclude-oversized",
                      "look-beyond-first", "lookahead", "lookahead-scan",
                      "max-passes", "max-moves-past-best", "audit",
                      "audit-every", "initial-tries", "coarsen-to",
                      "min-reduction", "refine-threads", "coarsen-threads",
                      "population", "generations", "offspring",
                      "mutation-period", "mutation-size", "evo-threads"});
    if (args.get_bool("help")) {
      print_help();
      return 0;
    }
    // Validate the engine choice before reading or generating the
    // instance, so a typo fails fast even on a large netlist.
    const std::string engine_name = CliArgs::check_known_value(
        "engine", args.get("engine", "ml"), engine_names());
    const auto k = static_cast<std::size_t>(args.get_int("k", 2));
    if (k != 2 && engine_name == "evo") {
      throw std::runtime_error(
          "--engine evo is a bipartitioner; k > 2 (recursive bisection) "
          "supports ml|flat|clip");
    }
    Hypergraph h;
    std::string source;
    if (args.has("hgr")) {
      source = args.get("hgr", "");
      h = read_hmetis_file(source);
    } else if (args.has("ispd98")) {
      source = args.get("ispd98", "");
      h = read_ispd98_files(source).hypergraph;
    } else {
      const std::string name = args.get("case", "ibm01");
      source = name;
      h = generate_netlist(
          preset(name).scaled(args.get_double("scale", 0.5)));
    }
    std::printf("%s\n\n", compute_stats(h).to_string(h.name()).c_str());

    // hMetis "UBfactor" parity: UBfactor b means parts within
    // (50 +- b)% of the total, i.e. tolerance = 2b/100.
    double tolerance = args.get_double("tolerance", 0.02);
    if (args.has("ubfactor")) {
      tolerance = 2.0 * args.get_double("ubfactor", 1.0) / 100.0;
    }
    const auto starts = static_cast<std::size_t>(args.get_int("starts", 4));
    const auto vcycles =
        static_cast<std::size_t>(args.get_int("vcycles", 1));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    FmConfig fm = fm_config_from_args(args);
    if (engine_name == "clip") {
      fm.clip = true;
      fm.exclude_oversized = true;
    }

    std::vector<PartId> parts;
    Weight cut = 0;
    CpuTimer timer;
    if (k == 2) {
      PartitionProblem problem;
      problem.graph = &h;
      problem.balance = BalanceConstraint::from_tolerance(
          h.total_vertex_weight(), tolerance);
      if (engine_name == "ml") {
        MlPartitioner engine(ml_config_from_args(args, fm));
        const MultistartResult r =
            run_hmetis_like(problem, engine, starts, vcycles, seed);
        parts = r.best_parts;
        cut = r.best_cut;
      } else if (engine_name == "evo") {
        EvoConfig config;
        config.ml = ml_config_from_args(args, fm);
        config.population = static_cast<std::size_t>(args.get_int(
            "population", static_cast<std::int64_t>(config.population)));
        config.generations = static_cast<std::size_t>(args.get_int(
            "generations", static_cast<std::int64_t>(config.generations)));
        config.offspring = static_cast<std::size_t>(args.get_int(
            "offspring", static_cast<std::int64_t>(config.offspring)));
        config.mutation_period = static_cast<std::size_t>(args.get_int(
            "mutation-period",
            static_cast<std::int64_t>(config.mutation_period)));
        config.mutation_size = static_cast<std::size_t>(args.get_int(
            "mutation-size",
            static_cast<std::int64_t>(config.mutation_size)));
        config.evo_threads = static_cast<std::size_t>(args.get_int(
            "evo-threads", static_cast<std::int64_t>(config.evo_threads)));
        EvoPartitioner engine(config);
        const MultistartResult r =
            run_multistart(problem, engine, starts, seed);
        parts = r.best_parts;
        cut = r.best_cut;
      } else {
        FlatFmPartitioner engine(fm);
        const MultistartResult r =
            run_multistart(problem, engine, starts, seed);
        parts = r.best_parts;
        cut = r.best_cut;
      }
      if (parts.empty()) {
        std::fprintf(stderr, "no feasible solution found\n");
        return 1;
      }
      const std::string violation = check_solution(problem, parts);
      if (!violation.empty()) {
        std::fprintf(stderr, "solution audit failed: %s\n",
                     violation.c_str());
        return 1;
      }
    } else {
      KwayConfig config;
      config.k = k;
      config.tolerance = tolerance;
      config.use_ml = (engine_name == "ml");
      config.fm = fm;
      config.starts_per_level = starts;
      config.seed = seed;
      const KwayResult r = recursive_bisection(h, config);
      parts = r.parts;
      cut = r.cut;
      const std::string violation = check_kway(h, parts, k, tolerance);
      if (!violation.empty()) {
        std::fprintf(stderr, "warning: %s\n", violation.c_str());
      }
    }
    const double cpu = timer.elapsed();

    TextTable report({"metric", "value"});
    report.add_row({"parts", std::to_string(k)});
    report.add_row({"cut", std::to_string(cut)});
    if (k == 2) {
      report.add_row({"ratio cut", fmt_fixed(ratio_cut(h, parts) * 1e9, 3) +
                                       "e-9"});
      report.add_row({"absorption", fmt_fixed(absorption(h, parts), 1)});
      report.add_row(
          {"SOED", std::to_string(sum_of_external_degrees(h, parts))});
    }
    report.add_row({"CPU seconds", fmt_fixed(cpu, 3)});
    std::printf("%s\n", report.to_string().c_str());

    const std::string out = args.get(
        "out", (args.has("hgr") || args.has("ispd98") ? source : h.name()) +
                   ".part." + std::to_string(k));
    write_partition_file(parts, out);
    std::printf("solution written to %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vpart: %s\n", e.what());
    return 1;
  }
}
