// Constraint-mining throughput and determinism over synthetic FootballDB.
//
// Measures the new src/mine/ pass at several KB sizes: mining wall time,
// candidates considered vs rules emitted, and whether the noisy
// `playsFor` disjointness the generator plants ranks first by support.
// Also times the .tq parser on a 1-executor pool against a 4-executor
// pool, and asserts two determinism contracts: the mined `.tcr`
// document and the serialized graph are byte-identical at 1, 2 and 4
// threads.
//
// `--smoke` shrinks the workload for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "mine/miner.h"
#include "rdf/io.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace tecore;  // NOLINT

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{500, 2000}
            : std::vector<size_t>{2000, 6500, 20000};
  Table table({"players", "facts", "load ms", "par load ms", "mine ms",
               "considered", "pairs", "emitted", "top rule", "deterministic"});
  bool shape_ok = true;

  for (size_t players : sizes) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    rdf::TemporalGraph graph =
        std::move(datagen::GenerateFootballDb(gen).graph);
    const std::string text = rdf::WriteGraphText(graph);

    // The one parser on a 1-executor and a 4-executor pool. On a 1-core CI
    // box the times match; the byte-identity assertion below is the point.
    util::ThreadPool one(1);
    rdf::ParseOptions serial_options;
    serial_options.pool = &one;
    util::ThreadPool four(4);
    rdf::ParseOptions par;
    par.pool = &four;
    Timer serial_timer;
    auto serial = rdf::ParseGraphText(text, serial_options);
    const double serial_ms = serial_timer.ElapsedMillis();
    if (!serial.ok()) {
      std::fprintf(stderr, "%s\n", serial.status().ToString().c_str());
      return 1;
    }

    Timer par_timer;
    auto parallel = rdf::ParseGraphText(text, par);
    const double par_ms = par_timer.ElapsedMillis();
    if (!parallel.ok()) {
      std::fprintf(stderr, "%s\n", parallel.status().ToString().c_str());
      return 1;
    }
    const bool load_identical =
        rdf::WriteGraphText(*serial) == rdf::WriteGraphText(*parallel);

    util::ThreadPool sequential(1);
    mine::MiningOptions options;
    options.pool = &sequential;
    Timer mine_timer;
    const mine::MiningReport report = mine::Miner(options).Mine(*serial);
    const double mine_ms = mine_timer.ElapsedMillis();
    const std::string canonical =
        mine::WriteMinedRulesText(report, options);

    // Determinism: mined document byte-identical at 1, 2 and 4 threads.
    bool mine_identical = true;
    for (int threads : {2, 4}) {
      util::ThreadPool pool(threads);
      mine::MiningOptions threaded = options;
      threaded.pool = &pool;
      const mine::MiningReport again =
          mine::Miner(threaded).Mine(*parallel);
      mine_identical = mine_identical &&
                       mine::WriteMinedRulesText(again, threaded) ==
                           canonical;
    }

    const std::string top_rule =
        report.rules.empty() ? "(none)" : report.rules.front().rule.name;
    const bool top_is_disjoint = top_rule == "disjoint_playsFor";
    const bool deterministic = load_identical && mine_identical;
    shape_ok = shape_ok && deterministic && top_is_disjoint;

    table.AddRow({std::to_string(players),
                  std::to_string(serial->NumLiveFacts()),
                  StringPrintf("%.1f", serial_ms),
                  StringPrintf("%.1f", par_ms),
                  StringPrintf("%.1f", mine_ms),
                  std::to_string(report.patterns_considered),
                  std::to_string(report.pairs_examined),
                  std::to_string(report.rules.size()), top_rule,
                  deterministic ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape (planted disjoint_playsFor first by support, output "
              "byte-identical at 1/2/4 threads): %s\n",
              shape_ok ? "MATCH" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
