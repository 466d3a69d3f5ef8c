// perfbench: end-to-end benchmark of LaFP over the paper sweeps, the
// query service and the shard executor, with a per-layer traced run.
//
//   perfbench --workload <paper_csv_s|paper_lfc_l|serve_mix|shard_scan>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints human-readable lines, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any operation failed or produced a wrong output. perfbench/run.py
// builds this binary and is the entry point; README.md describes the
// workloads, the metrics and what each layer metric should move.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "perfbench/stats.h"
#include "perfbench/workload.h"
#include "script/analyze.h"

namespace lafp::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string source_digest = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

constexpr const char* kConfigs[] = {"pandas", "lpandas", "modin", "lmodin",
                                    "dask",   "ldask",   "shard"};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "paper_csv_s") return MakePaperWorkload(false, args.seed);
  if (args.workload == "paper_lfc_l") return MakePaperWorkload(true, args.seed);
  if (args.workload == "serve_mix") return MakeServeWorkload(args.seed);
  if (args.workload == "shard_scan") return MakeShardWorkload(args.seed);
  return nullptr;
}

/// Run facts a reader needs to interpret the times. modin_s/dask_s carry
/// the harness's simulated per-task dispatch sleep.
void PrintRunFacts(const Args& args) {
#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("nproc %u build %s compiler %s source %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              compiler, args.source_digest.c_str());
  std::printf(
      "harness partition_rows 8192 backend_threads 4 task_sleep_us "
      "modin 120 dask 250 paper_budget_mb 100 (paper_csv_s only)\n");
  bool debug = std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0;
#ifndef NDEBUG
  debug = true;
#endif
  if (debug) std::printf("WARNING: debug build; times are not comparable\n");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::printf("WARNING: sanitizer build; times are not comparable\n");
#endif
}

// -------------------------------------------------------------- probes

/// "read_csv(<path>, usecols=[a,b], dtypes=2)" -> path and columns.
bool ParseScanOp(const std::string& op, const std::string& kind,
                 std::string* path, std::vector<std::string>* usecols) {
  if (op.rfind(kind + "(", 0) != 0) return false;
  size_t begin = kind.size() + 1;
  size_t end = op.find_first_of(",)", begin);
  if (end == std::string::npos) return false;
  *path = op.substr(begin, end - begin);
  usecols->clear();
  size_t u = op.find("usecols=[", end);
  if (u == std::string::npos) return true;
  size_t close = op.find(']', u);
  if (close == std::string::npos) return true;
  std::string list = op.substr(u + 9, close - u - 9);
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    usecols->push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return true;
}

/// Column sets the rewrite picked per scanned file, from node spans.
std::map<std::string, std::set<std::vector<std::string>>> PickedColumns(
    const SpanIndex& spans, const std::string& kind) {
  std::map<std::string, std::set<std::vector<std::string>>> picked;
  for (const auto& s : spans.spans()) {
    if (s.name != "node") continue;
    std::string path;
    std::vector<std::string> cols;
    if (ParseScanOp(StrArg(s, "op"), kind, &path, &cols) && !cols.empty()) {
      picked[path].insert(cols);
    }
  }
  return picked;
}

/// Million rows per second over full reads and the rewrite's column
/// sets, timed around the public readers. 0 when there are no files.
template <typename Read>
double ScanRate(const std::vector<std::string>& files,
                const std::map<std::string, std::set<std::vector<std::string>>>&
                    picked,
                Read&& read) {
  double rows = 0.0, seconds = 0.0;
  for (const auto& file : files) {
    std::vector<std::vector<std::string>> column_sets = {{}};
    auto it = picked.find(file);
    if (it != picked.end()) {
      column_sets.insert(column_sets.end(), it->second.begin(),
                         it->second.end());
    }
    for (const auto& cols : column_sets) {
      const double t0 = NowSeconds();
      int64_t n = read(file, cols);
      seconds += NowSeconds() - t0;
      rows += static_cast<double>(n);
    }
  }
  return seconds > 0 ? rows / seconds / 1e6 : 0.0;
}

/// Mean ms of script::Analyze per program (median of three each).
double AnalyzeMs(const std::vector<std::string>& sources) {
  if (sources.empty()) return 0.0;
  double total = 0.0;
  for (const auto& source : sources) {
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = NowSeconds();
      auto result = script::Analyze(source);
      ms.push_back((NowSeconds() - t0) * 1e3);
      if (!result.ok()) return 0.0;
    }
    total += Median(ms);
  }
  return total / static_cast<double>(sources.size());
}

// --------------------------------------------------------- layer metrics

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

Metrics LayerMetrics(const Window& untraced, const Window& traced,
                     const SpanIndex& spans,
                     const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const Inputs& inputs) {
  Metrics m;
  // Times and counts from the trace are per pass of the traced window.
  const double passes = traced.passes > 0 ? traced.passes : 1.0;
  auto count = [&](const std::string& counter) {
    return static_cast<double>(Delta(before, after, counter)) / passes;
  };
  auto self_ms = [&](auto&& pred) { return spans.SumSelf(pred) / 1e3 / passes; };
  auto busy_ms = [&](auto&& pred) {
    return spans.SumDuration(pred) / 1e3 / passes;
  };
  auto named = [](const char* name) {
    return [name](const trace::Event& e) { return e.name == name; };
  };
  auto node_op = [](const char* prefix) {
    return [prefix](const trace::Event& e) {
      return e.name == "node" && StartsWith(StrArg(e, "op"), prefix);
    };
  };

  // io
  MemoryTracker tracker(0);
  m["io.csv_mrows_per_s"] = {
      ScanRate(inputs.csv_files, PickedColumns(spans, "read_csv"),
               [&](const std::string& f, const std::vector<std::string>& c) {
                 io::CsvReadOptions o;
                 o.usecols = c;
                 auto frame = io::ReadCsv(f, o, &tracker);
                 return frame.ok() ? static_cast<int64_t>(frame->num_rows())
                                   : 0;
               }),
      "Mrows/s"};
  m["io.lfc_mrows_per_s"] = {
      ScanRate(inputs.lfc_files, PickedColumns(spans, "read_lfc"),
               [&](const std::string& f, const std::vector<std::string>& c) {
                 io::LfcReadOptions o;
                 o.usecols = c;
                 auto frame = io::ReadLfcFile(f, o, &tracker);
                 return frame.ok() ? static_cast<int64_t>(frame->num_rows())
                                   : 0;
               }),
      "Mrows/s"};
  m["io.scan_ms"] = {self_ms([](const trace::Event& e) {
                       return e.name == "csv:read" || e.name == "lfc:read";
                     }),
                     "ms"};
  m["csv.chunks"] = {count("csv.chunks"), "count"};
  m["lfc.chunks_skipped"] = {count("lfc.chunks_skipped"), "count"};

  // dataframe
  m["dataframe.kernel_ms"] = {count("kernel.micros.sum") / 1e3, "ms"};
  m["dataframe.morsels"] = {count("kernel.morsels"), "count"};
  // A node span's children are the backend's execute span and the
  // kernels, so its self time is only the scheduler's wrapper: the
  // operator's cost is the node's whole duration.
  m["node.groupby_ms"] = {busy_ms(node_op("groupby")), "ms"};
  m["node.merge_ms"] = {busy_ms(node_op("merge")), "ms"};
  m["node.filter_ms"] = {busy_ms(node_op("filter")), "ms"};
  m["node.sort_ms"] = {busy_ms(node_op("sort")), "ms"};

  // script, optimizer, lazy
  m["script.analyze_ms"] = {AnalyzeMs(inputs.program_sources), "ms"};
  m["optimizer.pass_ms"] = {busy_ms([](const trace::Event& e) {
                              return StartsWith(e.name, "pass:");
                            }),
                            "ms"};
  m["lazy.rounds"] = {count("session.rounds"), "count"};
  m["lazy.round_self_ms"] = {self_ms([](const trace::Event& e) {
                               return StartsWith(e.name, "round:");
                             }),
                             "ms"};
  m["lazy.fallbacks"] = {count("session.fallbacks"), "count"};

  // exec
  double partitions = 0;
  for (const auto& s : spans.spans()) partitions += s.name == "partition";
  m["exec.partitions"] = {partitions / passes, "count"};
  m["exec.partition_ms"] = {busy_ms(named("partition")), "ms"};
  // Dask's streaming evaluator runs inside plan nodes (mostly prints
  // that force computation) and records no spans of its own: its time is
  // the self time of node spans in Dask and LDask sessions.
  m["exec.dask_unattributed_ms"] = {
      self_ms([&](const trace::Event& e) {
        if (e.category != "node") return false;
        const trace::Event* session =
            spans.Ancestor(e, [](const trace::Event& a) {
              return StartsWith(a.name, "session:");
            });
        return session != nullptr && session->name == "session:dask";
      }),
      "ms"};
  m["spill.writes"] = {count("spill.writes"), "count"};
  for (const char* config : kConfigs) {
    auto it = untraced.config_s.find(config);
    m[std::string("exec.") + config + "_s"] = {
        it == untraced.config_s.end() ? 0.0 : Median(it->second), "s"};
    auto peak = untraced.config_peak_mb.find(config);
    m[std::string("memory.peak_mb.") + config] = {
        peak == untraced.config_peak_mb.end() ? 0.0 : peak->second, "MB"};
  }

  // result cache, serve
  Ratio hits = HitRatio(Delta(before, after, "cache.hits"),
                        Delta(before, after, "cache.misses"));
  m["cache.hit_ratio"] = {hits.value, "ratio"};
  m["cache.lookups"] = {hits.base / passes, "count"};
  m["cache.evictions"] = {count("cache.evictions"), "count"};
  m["cache.splices"] = {count("cache.splices"), "count"};
  m["serve.rejected"] = {count("serve.rejected"), "count"};
  m["serve.errors"] = {count("serve.errors"), "count"};
  auto tail = ChooseTail(untraced.all_latency_ms, {0.99});
  m["serve.req_ms_p99"] = {tail ? tail->value : 0.0, "ms"};

  // shard
  m["shard.rpc_ms"] = {busy_ms([](const trace::Event& e) {
                         return e.name == "shard:send" || e.name == "shard:recv";
                       }),
                       "ms"};
  m["shard.calls"] = {count("shard.calls"), "count"};
  m["shard.bytes_shipped"] = {count("shard.bytes_shipped"), "bytes"};
  m["shard.worker_restarts"] = {count("shard.worker_restarts"), "count"};

  // The traced window against the untraced one, by throughput.
  const double u_rate = untraced.ops / untraced.seconds;
  const double t_rate = traced.ops / traced.seconds;
  m["trace.overhead_pct"] = {100.0 * (u_rate / t_rate - 1.0), "%"};
  return m;
}

/// Self and busy time per span name over the traced window, largest
/// self time first: where a pass spends its time, layer by layer.
void PrintSpanTable(const SpanIndex& spans, double passes) {
  struct Row {
    int64_t count = 0, self = 0, busy = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans.spans()) {
    std::string name = s.name;
    if (StartsWith(name, "round:")) name = "round:*";
    if (StartsWith(name, "bench:")) name = "bench:*";
    Row& row = rows[name];
    ++row.count;
    row.self += spans.SelfMicros(s);
    row.busy += s.dur_micros;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::printf("traced window: %zu spans; per pass:\n", spans.spans().size());
  std::printf("  %-22s %10s %12s %12s\n", "span", "count", "self_ms",
              "busy_ms");
  for (const auto& [name, row] : sorted) {
    std::printf("  %-22s %10.1f %12.3f %12.3f\n", name.c_str(),
                row.count / passes, row.self / 1e3 / passes,
                row.busy / 1e3 / passes);
  }
}

Metrics EndToEnd(const Window& w, const std::vector<double>& setup_s) {
  Metrics m;
  m["setup_s"] = {Median(setup_s), "s"};
  m["req_ms_geomean"] = {GeoMean(w.latency_ms), "ms"};
  m["req_per_s"] = {w.ops / w.seconds, "1/s"};
  m["peak_mb"] = {Median(w.pass_peak_mb), "MB"};
  return m;
}

/// Human-readable detail of the untraced window: the per-configuration
/// split and the tail, with its sample count.
void PrintWindow(const Window& w) {
  std::printf("window %.3f s, %lld operations, %.2f passes\n", w.seconds,
              static_cast<long long>(w.ops), w.passes);
  for (const auto& [config, secs] : w.config_s) {
    std::printf("  %s_s %.4f s per pass (median of %zu)\n", config.c_str(),
                Median(secs), secs.size());
  }
  std::printf("  latency p50 %.3f ms over %zu samples", Median(w.all_latency_ms),
              w.all_latency_ms.size());
  if (auto tail = ChooseTail(w.all_latency_ms)) {
    std::printf(", p%g %.3f ms (%zu beyond)", tail->q * 100, tail->value,
                tail->beyond);
  } else {
    std::printf(", no percentile above p50 has 10 samples beyond it");
  }
  std::printf("\n");
}

void PrintJson(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--source-digest <hex>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintRunFacts(args);
  std::fflush(stdout);

  // Inputs live in a directory keyed by workload (which fixes the scale)
  // and seed. Set-up runs from scratch several times, reporting the
  // median: 2 to 7 times, until 4 s are spent (once when tracing). The
  // cheap set-ups (0.3 s) move by 30% from one to the next.
  namespace fs = std::filesystem;
  const std::string dir = args.work_dir + "/" + args.workload + "_seed" +
                          std::to_string(args.seed);
  std::vector<double> setup_s;
  const int max_setups = args.trace ? 1 : 7;
  double setup_total = 0.0;
  for (int i = 0; i < max_setups && (i < 2 || setup_total < 4.0); ++i) {
    workload->Teardown();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const double t0 = NowSeconds();
    Status st = workload->Setup(dir);
    setup_s.push_back(NowSeconds() - t0);
    setup_total += setup_s.back();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  Status prepared = workload->Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }

  Window untraced = workload->Measure(args.seconds);
  Metrics metrics = EndToEnd(untraced, setup_s);
  PrintWindow(untraced);
  for (const auto& [name, metric] : metrics) {
    std::printf("%s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  if (args.trace) {
    trace::Tracer* tracer = trace::Tracer::Global();
    tracer->Clear();
    auto before = metrics::Registry::Global()->Scrape();
    tracer->set_enabled(true);
    Window traced = workload->Measure(args.seconds);
    tracer->set_enabled(false);
    auto after = metrics::Registry::Global()->Scrape();
    SpanIndex spans(tracer->Snapshot());
    tracer->Clear();
    PrintSpanTable(spans, traced.passes);
    metrics = LayerMetrics(untraced, traced, spans, before, after,
                           workload->inputs());
  }

  Tally tally = workload->Verify();
  workload->Teardown();
  fs::remove_all(dir);
  std::printf("verified %lld operations, %lld failed, %lld wrong outputs\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.mismatches));
  PrintJson(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lafp::perfbench

int main(int argc, char** argv) { return lafp::perfbench::Main(argc, argv); }
