// The sharpcq command-line tool: durable databases end to end.
//
//   sharpcq ingest  --out FILE rel=data.csv...            CSV -> snapshot
//   sharpcq ingest  --catalog DIR --name DB rel=csv...    CSV -> catalog gen
//   sharpcq inspect FILE [--verify]                       header/stats dump
//   sharpcq count   --snapshot FILE [options] 'QUERY'     count answers
//   sharpcq count   --catalog DIR --name DB [options] 'QUERY'
//   sharpcq bench-load --snapshot FILE [rel=csv...]       cold-start timing
//
// Exit codes: 0 success, 1 runtime error (corrupt snapshot, bad query),
// 2 usage error, 3 input file missing, 4 CSV parse error. The distinction
// between 3 and 4 exists because an operator typo and bad data need
// different fixes (the CsvStatus satellite of ISSUE 4).

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/csv.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/count_int.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitFileMissing = 3;
constexpr int kExitParseError = 4;

int Usage() {
  std::fprintf(stderr, R"(usage:
  sharpcq ingest  --out FILE rel=data.csv [rel=data.csv...]
  sharpcq ingest  --catalog DIR --name DB rel=data.csv [rel=data.csv...]
  sharpcq inspect FILE [--verify]
  sharpcq count   (--snapshot FILE | --catalog DIR --name DB)
                  [--mode owned|mmap] [--strategy auto|sharp|ps13|hybrid|backtracking]
                  [--max-query-bytes N] [--trace] [--json]
                  'Q(X,Y) <- r(X,Z), s(Z,Y)'
  sharpcq bench-load --snapshot FILE [--iters N] [rel=data.csv...]
)");
  return kExitUsage;
}

int CsvExitCode(const CsvResult& result) {
  switch (result.status) {
    case CsvStatus::kFileMissing:
      return kExitFileMissing;
    case CsvStatus::kParseError:
      return kExitParseError;
    default:
      return kExitRuntime;
  }
}

struct RelationCsvArg {
  std::string relation;
  std::string path;
};

// Parses trailing rel=path.csv arguments.
std::optional<std::vector<RelationCsvArg>> ParseRelationArgs(
    const std::vector<std::string>& args) {
  std::vector<RelationCsvArg> out;
  for (const std::string& arg : args) {
    std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) {
      std::fprintf(stderr, "sharpcq: expected rel=path.csv, got '%s'\n",
                   arg.c_str());
      return std::nullopt;
    }
    out.push_back({arg.substr(0, eq), arg.substr(eq + 1)});
  }
  return out;
}

// Streams every CSV into `writer`; returns an exit code (kExitOk on
// success) and prints the offending file otherwise.
int IngestCsvs(const std::vector<RelationCsvArg>& csvs, SnapshotWriter* writer,
               ValueDict* dict) {
  for (const RelationCsvArg& csv : csvs) {
    CsvResult result =
        LoadRelationCsvFileIntoWriter(csv.path, csv.relation, writer, dict);
    if (!result.ok()) {
      std::fprintf(stderr, "sharpcq: ingest %s (relation %s): %s\n",
                   csv.path.c_str(), csv.relation.c_str(),
                   result.message.c_str());
      return CsvExitCode(result);
    }
    std::printf("ingested %s: %zu tuples from %s\n", csv.relation.c_str(),
                result.tuples, csv.path.c_str());
  }
  return kExitOk;
}

int CmdIngest(const std::string& out_path, const std::string& catalog_root,
              const std::string& db_name,
              const std::vector<std::string>& rest) {
  auto csvs = ParseRelationArgs(rest);
  if (!csvs.has_value() || csvs->empty()) return Usage();

  ValueDict dict;
  Status error;
  if (!out_path.empty()) {
    SnapshotWriter writer;
    if (int code = IngestCsvs(*csvs, &writer, &dict); code != kExitOk) {
      return code;
    }
    auto stats = writer.Finish(out_path, &dict, &error);
    if (!stats.has_value()) {
      std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
      return kExitRuntime;
    }
    std::printf("snapshot %s: %zu relations, %zu tuples, %llu bytes\n",
                out_path.c_str(), stats->relations, stats->tuples,
                static_cast<unsigned long long>(stats->bytes));
    return kExitOk;
  }

  // Catalog mode: ingest into the next generation of a named database.
  // The writer-canonicalized database is rebuilt owned so the catalog's
  // WriteSnapshot sees a Database; streaming through a Database here is
  // fine — the direct --out path is the memory-lean one.
  Database db;
  for (const RelationCsvArg& csv : *csvs) {
    CsvResult result = LoadRelationCsvFile(csv.path, csv.relation, &db, &dict);
    if (!result.ok()) {
      std::fprintf(stderr, "sharpcq: ingest %s (relation %s): %s\n",
                   csv.path.c_str(), csv.relation.c_str(),
                   result.message.c_str());
      return CsvExitCode(result);
    }
    std::printf("ingested %s: %zu tuples from %s\n", csv.relation.c_str(),
                result.tuples, csv.path.c_str());
  }
  Catalog catalog(catalog_root);
  auto generation = catalog.Ingest(db_name, db, &dict, &error);
  if (!generation.has_value()) {
    std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
    return kExitRuntime;
  }
  std::printf("database %s: generation %llu installed under %s\n",
              db_name.c_str(),
              static_cast<unsigned long long>(*generation),
              catalog_root.c_str());
  return kExitOk;
}

int CmdInspect(const std::string& path, bool verify) {
  Status error;
  auto info = ReadSnapshotInfo(path, &error);
  if (!info.has_value()) {
    std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
    return kExitRuntime;
  }
  std::printf("snapshot %s\n", path.c_str());
  std::printf("  version: %u\n", info->version);
  std::printf("  bytes: %llu\n",
              static_cast<unsigned long long>(info->file_bytes));
  std::printf("  dictionary entries: %llu\n",
              static_cast<unsigned long long>(info->dict_count));
  std::printf("  relations: %zu (%llu tuples)\n", info->relations.size(),
              static_cast<unsigned long long>(info->TotalTuples()));
  for (const SnapshotRelationInfo& rel : info->relations) {
    std::printf("    %-20s arity %-2d rows %-8llu first-column offset %llu\n",
                rel.name.c_str(), rel.arity,
                static_cast<unsigned long long>(rel.rows),
                static_cast<unsigned long long>(
                    rel.columns.empty() ? 0 : rel.columns[0].offset));
    // v2 snapshots carry a per-column data profile; v1 files have none
    // (stats are recomputed lazily at load time instead).
    for (std::size_t c = 0; c < rel.stats.size(); ++c) {
      const ColumnStats& stats = rel.stats[c];
      std::printf("      col %zu: distinct %llu max-group %llu avg-group %.2f\n",
                  c, static_cast<unsigned long long>(stats.distinct),
                  static_cast<unsigned long long>(stats.max_group),
                  stats.AvgGroup(rel.rows));
    }
  }
  if (verify) {
    if (!VerifySnapshot(path, &error)) {
      std::fprintf(stderr, "sharpcq: verify FAILED: %s\n", error.ToString().c_str());
      return kExitRuntime;
    }
    std::printf("  verify: all checksums OK\n");
  }
  return kExitOk;
}

int RunCount(const Database& db, const ValueDict& dict,
             CountingEngine* engine, const std::string& strategy,
             const std::string& query_text, bool with_trace, bool as_json) {
  auto options =
      PlannerOptionsForStrategy(strategy, engine->options().planner);
  if (!options.has_value()) {
    std::fprintf(stderr, "sharpcq: unknown strategy '%s'\n", strategy.c_str());
    return kExitUsage;
  }
  std::string error;
  ValueDict parse_dict = dict;  // query constants may intern new names
  auto query = ParseQuery(query_text, &parse_dict, &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "sharpcq: bad query: %s\n", error.c_str());
    return kExitUsage;
  }
  std::optional<Trace> trace;
  if (with_trace) trace.emplace();
  CountResult result = engine->Count(*query, db, *options, /*cancel=*/nullptr,
                                     trace.has_value() ? &*trace : nullptr);
  if (as_json) {
    std::string out = "{\"count\":\"" + CountToString(result.count) + "\"";
    out += ",\"status\":\"";
    AppendJsonEscaped(&out, CountStatusName(result.status));
    out += "\",\"method\":\"";
    AppendJsonEscaped(&out, result.method);
    out += "\",\"width\":" + std::to_string(result.width);
    char ms[64];
    std::snprintf(ms, sizeof(ms), ",\"planner_ms\":%.3f,\"execute_ms\":%.3f",
                  result.planner_ms, result.execute_ms);
    out += ms;
    out += ",\"cache\":\"";
    out += result.cache_hit ? "hit" : "miss";
    out += "\",\"cost_model\":\"";
    out += result.cost_model_steered ? "steered" : "off-path";
    out += "\",\"cost_reorders\":" + std::to_string(result.cost_reorders);
    out += ",\"filter_hits\":" + std::to_string(result.filter_hits);
    out += ",\"filter_passes\":" + std::to_string(result.filter_passes);
    out += ",\"morsels\":" + std::to_string(result.morsels);
    out += ",\"worklist_iterations\":" +
           std::to_string(result.worklist_iterations);
    if (trace.has_value()) {
      out += ",\"trace\":" + RenderTraceJson(trace->root());
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    // The JSON carries the status either way; the exit code still tells
    // scripts an aborted count from a successful one.
    return result.ok() ? kExitOk : kExitRuntime;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "sharpcq: count aborted: %s",
                 CountStatusName(result.status));
    if (result.status == CountStatus::kResourceExhausted) {
      std::fprintf(stderr, " (refused allocation of %llu bytes)",
                   static_cast<unsigned long long>(result.mem_refused_bytes));
    }
    std::fprintf(stderr, "\n");
    return kExitRuntime;
  }
  std::printf("count: %s\n", CountToString(result.count).c_str());
  std::printf("method: %s\n", result.method.c_str());
  std::printf("planner_ms: %.3f execute_ms: %.3f cache: %s\n",
              result.planner_ms, result.execute_ms,
              result.cache_hit ? "hit" : "miss");
  std::printf("cost_model: %s reorders: %llu\n",
              result.cost_model_steered ? "steered" : "off-path",
              static_cast<unsigned long long>(result.cost_reorders));
  if (trace.has_value()) {
    std::printf("trace:\n%s", SerializeTraceNode(trace->root()).c_str());
  }
  return kExitOk;
}

int CmdCount(const std::string& snapshot_path, const std::string& catalog_root,
             const std::string& db_name, const std::string& mode_name,
             const std::string& strategy, const std::string& query_text,
             bool with_trace, bool as_json,
             std::uint64_t max_query_bytes) {
  SnapshotLoadMode mode = SnapshotLoadMode::kMapped;
  if (mode_name == "owned") {
    mode = SnapshotLoadMode::kOwned;
  } else if (!mode_name.empty() && mode_name != "mmap") {
    std::fprintf(stderr, "sharpcq: unknown --mode '%s'\n", mode_name.c_str());
    return kExitUsage;
  }
  Status error;
  if (!snapshot_path.empty()) {
    auto loaded = LoadSnapshot(snapshot_path, mode, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
      return kExitRuntime;
    }
    EngineOptions engine_options;
    engine_options.max_query_bytes = max_query_bytes;
    CountingEngine engine(engine_options);
    return RunCount(loaded->db, loaded->dict, &engine, strategy, query_text,
                    with_trace, as_json);
  }
  Catalog::Options catalog_options;
  catalog_options.load_mode = mode;
  catalog_options.engine.max_query_bytes = max_query_bytes;
  Catalog catalog(catalog_root, catalog_options);
  auto entry = catalog.Open(db_name, &error);
  if (entry == nullptr) {
    std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
    return kExitRuntime;
  }
  if (!as_json) {
    std::printf("database: %s generation: %llu\n", entry->name.c_str(),
                static_cast<unsigned long long>(entry->generation));
  }
  return RunCount(*entry->db, *entry->dict, entry->engine.get(), strategy,
                  query_text, with_trace, as_json);
}

int CmdBenchLoad(const std::string& snapshot_path, int iters,
                 const std::vector<std::string>& rest) {
  auto csvs = ParseRelationArgs(rest);
  if (!csvs.has_value()) return Usage();
  Status error;

  double owned_ms = 0.0;
  double mapped_ms = 0.0;
  std::uint64_t tuples = 0;
  for (int i = 0; i < iters; ++i) {
    MonotonicClock::time_point start = MonotonicNow();
    auto owned = LoadSnapshot(snapshot_path, SnapshotLoadMode::kOwned, &error);
    if (!owned.has_value()) {
      std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
      return kExitRuntime;
    }
    owned_ms += ElapsedMs(start);
    tuples = owned->info.TotalTuples();

    start = MonotonicNow();
    auto mapped =
        LoadSnapshot(snapshot_path, SnapshotLoadMode::kMapped, &error);
    if (!mapped.has_value()) {
      std::fprintf(stderr, "sharpcq: %s\n", error.ToString().c_str());
      return kExitRuntime;
    }
    mapped_ms += ElapsedMs(start);
  }
  std::printf("snapshot %s: %llu tuples, %d iterations\n",
              snapshot_path.c_str(), static_cast<unsigned long long>(tuples),
              iters);
  std::printf("owned_load_ms:  %.3f\n", owned_ms / iters);
  std::printf("mapped_load_ms: %.3f\n", mapped_ms / iters);

  if (!csvs->empty()) {
    double csv_ms = 0.0;
    for (int i = 0; i < iters; ++i) {
      MonotonicClock::time_point start = MonotonicNow();
      Database db;
      ValueDict dict;
      for (const RelationCsvArg& csv : *csvs) {
        CsvResult result =
            LoadRelationCsvFile(csv.path, csv.relation, &db, &dict);
        if (!result.ok()) {
          std::fprintf(stderr, "sharpcq: %s: %s\n", csv.path.c_str(),
                       result.message.c_str());
          return CsvExitCode(result);
        }
      }
      db.DedupAll();
      csv_ms += ElapsedMs(start);
    }
    std::printf("csv_ingest_ms:  %.3f\n", csv_ms / iters);
    if (mapped_ms > 0.0) {
      std::printf("mmap_speedup_vs_csv: %.1fx\n", csv_ms / mapped_ms);
    }
  }
  return kExitOk;
}

int Main(int argc, char** argv) {
  failpoint::ArmFromEnv();  // SHARPCQ_FAILPOINTS, for fault-injection runs
  if (argc < 2) return Usage();
  std::string command = argv[1];

  // Shared flag scan: --flag value pairs anywhere after the command;
  // everything else is positional.
  std::string out_path, catalog_root, db_name, snapshot_path, mode, strategy;
  bool verify = false;
  bool with_trace = false;
  bool as_json = false;
  int iters = 5;
  std::uint64_t max_query_bytes = 0;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    // The next argument as a number in [0, max]; nullopt when it is
    // missing or not one (a usage error).
    auto next_number =
        [&](std::uint64_t max = UINT64_MAX) -> std::optional<std::uint64_t> {
      auto v = next();
      if (!v) return std::nullopt;
      return ParseUnsigned(*v, max);
    };
    if (arg == "--out") {
      auto v = next();
      if (!v) return Usage();
      out_path = *v;
    } else if (arg == "--catalog") {
      auto v = next();
      if (!v) return Usage();
      catalog_root = *v;
    } else if (arg == "--name") {
      auto v = next();
      if (!v) return Usage();
      db_name = *v;
    } else if (arg == "--snapshot") {
      auto v = next();
      if (!v) return Usage();
      snapshot_path = *v;
    } else if (arg == "--mode") {
      auto v = next();
      if (!v) return Usage();
      mode = *v;
    } else if (arg == "--strategy") {
      auto v = next();
      if (!v) return Usage();
      strategy = *v;
    } else if (arg == "--iters") {
      auto v = next_number(INT_MAX);
      if (!v || *v == 0) return Usage();
      iters = static_cast<int>(*v);
    } else if (arg == "--max-query-bytes") {
      auto v = next_number();
      if (!v) return Usage();
      max_query_bytes = *v;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--trace") {
      with_trace = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sharpcq: unknown flag '%s'\n",
                   std::string(arg).c_str());
      return Usage();
    } else {
      positional.emplace_back(arg);
    }
  }
  if (strategy.empty()) strategy = "auto";

  if (command == "ingest") {
    if (out_path.empty() == (catalog_root.empty() || db_name.empty())) {
      return Usage();  // exactly one of --out / (--catalog + --name)
    }
    return CmdIngest(out_path, catalog_root, db_name, positional);
  }
  if (command == "inspect") {
    if (positional.size() != 1) return Usage();
    return CmdInspect(positional[0], verify);
  }
  if (command == "count") {
    if (positional.size() != 1) return Usage();
    bool from_snapshot = !snapshot_path.empty();
    bool from_catalog = !catalog_root.empty() && !db_name.empty();
    if (from_snapshot == from_catalog) return Usage();
    return CmdCount(snapshot_path, catalog_root, db_name, mode, strategy,
                    positional[0], with_trace, as_json, max_query_bytes);
  }
  if (command == "bench-load") {
    if (snapshot_path.empty()) return Usage();
    return CmdBenchLoad(snapshot_path, iters, positional);
  }
  return Usage();
}

}  // namespace
}  // namespace sharpcq

int main(int argc, char** argv) { return sharpcq::Main(argc, argv); }
