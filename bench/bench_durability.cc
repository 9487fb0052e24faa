// WAL overhead on the write path, and recovery cost.
//
// Durability is bought per acknowledged batch: serialize the edit script,
// append one CRC-framed record, optionally fsync. This bench pins down
// what that costs relative to the in-memory engine — first at the raw log
// level (records/s with and without fsync), then end-to-end through
// api::Engine::ApplyEditScript in three modes (no storage, --fsync never,
// --fsync always), then boot-time recovery of the store those writes
// produced.
//
// `--smoke` shrinks the workload for CI.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "storage/fs.h"
#include "storage/kb_storage.h"
#include "storage/wal.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

std::string BenchDir(const std::string& name) {
  return "bench_durability_tmp/" + name;
}

/// Mean ms per ApplyEditScript batch on a durable (or in-memory) engine.
double EditBatchMs(const std::shared_ptr<api::Engine>& engine,
                   size_t batches) {
  core::ResolveOptions options;
  Timer timer;
  for (size_t i = 0; i < batches; ++i) {
    const std::string script = StringPrintf(
        "+ player%zu playsFor team%zu [%zu,%zu] 0.7 .", i, i % 7, 1990 + i,
        1995 + i);
    auto applied = engine->ApplyEditScript(script, options);
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
      std::exit(1);
    }
  }
  return timer.ElapsedMillis() / static_cast<double>(batches);
}

std::shared_ptr<api::Engine> DurableEngine(const std::string& dir,
                                           storage::FsyncPolicy fsync) {
  storage::StorageOptions options;
  options.fsync = fsync;
  auto storage = storage::KbStorage::Open(dir, options);
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.status().ToString().c_str());
    std::exit(1);
  }
  auto engine = std::make_shared<api::Engine>();
  Status attached = engine->AttachStorage(*storage);
  if (!attached.ok()) {
    std::fprintf(stderr, "%s\n", attached.ToString().c_str());
    std::exit(1);
  }
  return engine;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_durability [--smoke]\n");
      return 2;
    }
  }
  storage::RemoveDirRecursive("bench_durability_tmp");

  std::printf("=== durability: WAL append overhead & recovery ===\n\n");

  // ---- raw log appends: the floor the engine modes sit on.
  const size_t raw_records = smoke ? 200 : 2000;
  const std::string payload(128, 'x');
  for (const bool sync : {false, true}) {
    storage::MakeDirs("bench_durability_tmp");
    const std::string path = BenchDir(sync ? "raw_sync.log" : "raw.log");
    storage::Wal wal;
    if (!wal.Open(path).ok()) return 1;
    storage::WalRecord record;
    record.type = storage::WalRecordType::kEditBatch;
    record.payload = payload;
    Timer timer;
    for (size_t i = 0; i < raw_records; ++i) {
      record.version = i + 1;
      if (!wal.Append(record, sync).ok()) return 1;
    }
    if (!sync && !wal.Sync().ok()) return 1;  // one fsync for the batch
    const double ms = timer.ElapsedMillis();
    const double per_record_us = 1000.0 * ms / raw_records;
    std::printf("raw append (%s): %zu records, %.2f us/record\n",
                sync ? "fsync each" : "fsync once", raw_records,
                per_record_us);
  }
  std::printf("\n");

  // ---- end-to-end: ApplyEditScript with and without the durability tax.
  const size_t batches = smoke ? 20 : 200;
  datagen::FootballDbOptions gen;
  gen.num_players = smoke ? 100 : 400;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  const std::string graph_text = rdf::WriteGraphText(kg.graph);

  std::printf("end-to-end: %zu edit batches per mode\n", batches);
  Table table({"mode", "ms/batch", "overhead"});
  double baseline_ms = 0.0;
  struct Mode {
    const char* name;
    bool durable;
    storage::FsyncPolicy fsync;
  };
  const Mode kModes[] = {
      {"in-memory", false, storage::FsyncPolicy::kNever},
      {"wal, fsync never", true, storage::FsyncPolicy::kNever},
      {"wal, fsync always", true, storage::FsyncPolicy::kAlways},
  };
  for (const Mode& mode : kModes) {
    std::shared_ptr<api::Engine> engine;
    if (mode.durable) {
      engine = DurableEngine(BenchDir(std::string("kb_") + mode.name),
                             mode.fsync);
    } else {
      engine = std::make_shared<api::Engine>();
    }
    if (!engine->LoadGraphText(graph_text).ok()) return 1;
    const double ms = EditBatchMs(engine, batches);
    if (!mode.durable) baseline_ms = ms;
    const double overhead =
        baseline_ms > 0.0 ? (ms - baseline_ms) / baseline_ms : 0.0;
    table.AddRow({mode.name, StringPrintf("%.3f", ms),
                  StringPrintf("%+.1f%%", 100.0 * overhead)});
  }
  std::printf("%s\n", table.ToAscii().c_str());

  // ---- recovery: reopen the fsync-always store (checkpoint + WAL tail).
  Timer recover_timer;
  auto recovered =
      DurableEngine(BenchDir("kb_wal, fsync always"),
                    storage::FsyncPolicy::kAlways);
  const double recover_ms = recover_timer.ElapsedMillis();
  std::printf("recovery: version %llu, %zu facts, %.1f ms\n",
              (unsigned long long)recovered->version(),
              recovered->snapshot()->has_graph()
                  ? recovered->snapshot()->graph->NumLiveFacts()
                  : 0,
              recover_ms);

  storage::RemoveDirRecursive("bench_durability_tmp");
  return 0;
}
