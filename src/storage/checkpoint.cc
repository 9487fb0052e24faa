#include "storage/checkpoint.h"

#include <utility>

#include "storage/crc32.h"
#include "storage/fault.h"
#include "storage/fs.h"
#include "util/json.h"
#include "util/string_util.h"

namespace tecore {
namespace storage {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr int64_t kManifestFormat = 1;

std::string GraphFileName(uint64_t version) {
  return StringPrintf("graph-%llu.tq", static_cast<unsigned long long>(version));
}

std::string RulesFileName(uint64_t version) {
  return StringPrintf("rules-%llu.tcr",
                      static_cast<unsigned long long>(version));
}

/// An integer MANIFEST field (`fallback` when absent). A number that is
/// not an exact integer marks the manifest corrupt.
Result<int64_t> ManifestInt(const util::Json& object, const char* key,
                            int64_t fallback, const std::string& dir) {
  auto value = object.GetInt(key, fallback);
  if (!value.ok()) {
    return Status::IoError(StringPrintf("MANIFEST in %s is corrupt: %s",
                                        dir.c_str(),
                                        value.status().message().c_str()));
  }
  return value;
}

/// Describe one data file in the manifest.
util::Json FileEntry(const std::string& name, const std::string& contents) {
  util::Json entry = util::Json::Object();
  entry.Set("file", util::Json::Str(name));
  entry.Set("bytes", util::Json::Int(static_cast<int64_t>(contents.size())));
  entry.Set("crc32", util::Json::Int(static_cast<int64_t>(Crc32(contents))));
  return entry;
}

Result<std::string> LoadVerifiedFile(const std::string& dir,
                                     const util::Json& manifest,
                                     const char* key) {
  const util::Json* entry = manifest.Find(key);
  if (entry == nullptr || !entry->is_object()) {
    return Status::IoError(StringPrintf("MANIFEST in %s missing %s entry",
                                        dir.c_str(), key));
  }
  const std::string name = entry->GetString("file", "");
  if (name.empty()) {
    return Status::IoError(StringPrintf("MANIFEST in %s: %s entry has no file",
                                        dir.c_str(), key));
  }
  TECORE_ASSIGN_OR_RETURN(contents, ReadFile(JoinPath(dir, name)));
  TECORE_ASSIGN_OR_RETURN(bytes, ManifestInt(*entry, "bytes", -1, dir));
  TECORE_ASSIGN_OR_RETURN(crc, ManifestInt(*entry, "crc32", -1, dir));
  const auto expected_bytes = static_cast<uint64_t>(bytes);
  const auto expected_crc = static_cast<uint32_t>(crc);
  if (contents.size() != expected_bytes) {
    return Status::IoError(StringPrintf(
        "checkpoint file %s/%s: %zu bytes, manifest says %llu", dir.c_str(),
        name.c_str(), contents.size(),
        static_cast<unsigned long long>(expected_bytes)));
  }
  if (Crc32(contents) != expected_crc) {
    return Status::IoError(StringPrintf("checkpoint file %s/%s failed CRC32",
                                        dir.c_str(), name.c_str()));
  }
  return contents;
}

}  // namespace

bool CheckpointExists(const std::string& dir) {
  return PathExists(JoinPath(dir, kManifestName));
}

Status WriteCheckpoint(const std::string& dir, const Checkpoint& cp) {
  if (ShouldFailIo("checkpoint:write")) {
    return Status::IoError("injected checkpoint write failure");
  }
  TECORE_RETURN_NOT_OK(MakeDirs(dir));

  const std::string graph_name = GraphFileName(cp.version);
  const std::string rules_name = RulesFileName(cp.version);
  TECORE_RETURN_NOT_OK(
      AtomicWriteFile(JoinPath(dir, graph_name), cp.graph_text));
  TECORE_RETURN_NOT_OK(
      AtomicWriteFile(JoinPath(dir, rules_name), cp.rules_text));

  // Data is durable but the manifest still points at the previous
  // checkpoint — a crash here must recover the *old* state cleanly.
  MaybeCrash("checkpoint:before_manifest");

  util::Json manifest = util::Json::Object();
  manifest.Set("format", util::Json::Int(kManifestFormat));
  manifest.Set("version", util::Json::Int(static_cast<int64_t>(cp.version)));
  manifest.Set("has_graph", util::Json::Bool(cp.has_graph));
  manifest.Set("graph", FileEntry(graph_name, cp.graph_text));
  manifest.Set("rules", FileEntry(rules_name, cp.rules_text));
  TECORE_RETURN_NOT_OK(
      AtomicWriteFile(JoinPath(dir, kManifestName), manifest.Dump()));

  // Sweep data files from superseded (or crashed, never-published)
  // checkpoints. Best effort: a leftover file is wasted space, not a
  // correctness problem, and must not fail the write that just succeeded.
  auto entries = ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      const bool is_data = name.rfind("graph-", 0) == 0 ||
                           name.rfind("rules-", 0) == 0;
      if (is_data && name != graph_name && name != rules_name) {
        RemoveFile(JoinPath(dir, name));
      }
    }
  }
  return Status::OK();
}

Result<Checkpoint> LoadCheckpoint(const std::string& dir) {
  const std::string manifest_path = JoinPath(dir, kManifestName);
  if (!PathExists(manifest_path)) {
    return Status::NotFound(
        StringPrintf("no checkpoint manifest in %s", dir.c_str()));
  }
  TECORE_ASSIGN_OR_RETURN(manifest_text, ReadFile(manifest_path));
  auto parsed = util::Json::Parse(manifest_text);
  if (!parsed.ok()) {
    return Status::IoError(StringPrintf("MANIFEST in %s is not valid JSON: %s",
                                        dir.c_str(),
                                        parsed.status().message().c_str()));
  }
  const util::Json& manifest = *parsed;
  TECORE_ASSIGN_OR_RETURN(format, ManifestInt(manifest, "format", -1, dir));
  if (format != kManifestFormat) {
    return Status::IoError(StringPrintf(
        "MANIFEST in %s has unsupported format %lld", dir.c_str(),
        static_cast<long long>(format)));
  }
  TECORE_ASSIGN_OR_RETURN(version, ManifestInt(manifest, "version", 0, dir));
  Checkpoint cp;
  cp.version = static_cast<uint64_t>(version);
  cp.has_graph = manifest.GetBool("has_graph", true);
  TECORE_ASSIGN_OR_RETURN(graph_text,
                          LoadVerifiedFile(dir, manifest, "graph"));
  TECORE_ASSIGN_OR_RETURN(rules_text,
                          LoadVerifiedFile(dir, manifest, "rules"));
  cp.graph_text = std::move(graph_text);
  cp.rules_text = std::move(rules_text);
  return cp;
}

}  // namespace storage
}  // namespace tecore
