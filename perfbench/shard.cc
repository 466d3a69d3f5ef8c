// shard_scan: the bench_shard pipeline (scan -> filter -> 3-aggregate
// groupby -> sort -> collect) over a seeded 2M-row CSV, through
// lazy::FatDataFrame on the Pandas backend and on ShardBackend with 2
// workers. One pass is one Pandas run followed by one shard run; the
// shard output must be byte-identical to the Pandas output.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/trace.h"
#include "lazy/fat_dataframe.h"
#include "perfbench/workload.h"

namespace lafp::perfbench {
namespace {

constexpr size_t kRows = 2'000'000;
constexpr int kWorkers = 2;

struct PipelineRun {
  double seconds = 0.0;
  int64_t peak_bytes = 0;
  Status status;
  std::string output;
};

PipelineRun RunPipeline(const std::string& csv, exec::BackendKind backend) {
  PipelineRun run;
  MemoryTracker tracker(0);
  lazy::SessionOptions opts;
  opts.backend = backend;
  opts.backend_config.shards = backend == exec::BackendKind::kShard ? kWorkers : 0;
  opts.backend_config.partition_rows = 65536;
  opts.tracker = &tracker;
  std::stringstream sink;
  opts.output = &sink;
  trace::Span span("perfbench:pipeline", "perfbench");  // parents the session
  lazy::Session session(opts);
  const double t0 = NowSeconds();
  auto pipeline = [&]() -> Result<std::string> {
    using lazy::FatDataFrame;
    LAFP_ASSIGN_OR_RETURN(auto frame, FatDataFrame::ReadCsv(&session, csv));
    LAFP_ASSIGN_OR_RETURN(auto v, frame.Col("v"));
    LAFP_ASSIGN_OR_RETURN(
        auto mask, v.CompareTo(df::CompareOp::kLt, df::Scalar::Int(800)));
    LAFP_ASSIGN_OR_RETURN(auto filtered, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        filtered.GroupByAgg({"grp"}, {{"v", df::AggFunc::kSum, "vs"},
                                      {"v", df::AggFunc::kMean, "vm"},
                                      {"id", df::AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto sorted, grouped.SortValues({"grp"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto eager, sorted.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto out = pipeline();
  run.seconds = NowSeconds() - t0;
  run.peak_bytes = tracker.peak();
  if (out.ok()) {
    run.output = std::move(*out);
  } else {
    run.status = out.status();
  }
  return run;
}

class ShardWorkload : public Workload {
 public:
  explicit ShardWorkload(uint64_t seed) : seed_(seed) {}

  Status Setup(const std::string& dir) override {
    csv_ = dir + "/facts_" + std::to_string(kRows) + ".csv";
    std::ofstream out(csv_);
    out << "id,v,grp\n";
    Rng rng(seed_);
    char line[64];
    for (size_t i = 0; i < kRows; ++i) {
      uint64_t r = rng.Next();
      int n = std::snprintf(line, sizeof(line), "%zu,%u,%u\n", i,
                            static_cast<unsigned>(r % 1000),
                            static_cast<unsigned>((r >> 32) % 32));
      out.write(line, n);
    }
    out.flush();
    return out.good() ? Status::OK() : Status::IOError("cannot write " + csv_);
  }

  /// One untimed pair first: the first shard run in a process takes up
  /// to 1.7x a later one, a start-up cost a long-lived process pays once.
  Status Prepare() override {
    for (auto backend : {exec::BackendKind::kPandas, exec::BackendKind::kShard}) {
      LAFP_RETURN_NOT_OK(RunPipeline(csv_, backend).status);
    }
    return Status::OK();
  }

  Window Measure(double seconds) override {
    Window w;
    const double start = NowSeconds();
    do {
      PipelineRun pandas = RunPipeline(csv_, exec::BackendKind::kPandas);
      PipelineRun shard = RunPipeline(csv_, exec::BackendKind::kShard);
      w.latency_ms.push_back(shard.seconds * 1e3);
      for (const PipelineRun* r : {&pandas, &shard}) {
        w.all_latency_ms.push_back(r->seconds * 1e3);
      }
      w.config_s["pandas"].push_back(pandas.seconds);
      w.config_s["shard"].push_back(shard.seconds);
      w.pass_peak_mb.push_back((pandas.peak_bytes + shard.peak_bytes) / 1e6);
      for (const auto& [name, r] :
           {std::pair{"pandas", &pandas}, std::pair{"shard", &shard}}) {
        double& worst = w.config_peak_mb[name];
        worst = std::max(worst, r->peak_bytes / 1e6);
      }
      if (reference_.empty() && pandas.status.ok()) reference_ = pandas.output;
      pairs_.push_back({std::move(pandas), std::move(shard)});
      w.ops += 2;
      w.passes += 1;
    } while (NowSeconds() - start < seconds);
    w.seconds = NowSeconds() - start;
    return w;
  }

  Tally Verify() override {
    Tally tally;
    for (const auto& [pandas, shard] : pairs_) {
      for (const PipelineRun* r : {&pandas, &shard}) {
        Outcome o;
        o.status_error = !r->status.ok();
        o.mismatch = r->status.ok() &&
                     (reference_.empty() || r->output != reference_);
        if (!tally.Record(o)) {
          std::fprintf(stderr, "FAILED %s pipeline: %s\n",
                       r == &pandas ? "pandas" : "shard",
                       o.mismatch ? "output differs from Pandas"
                                  : r->status.ToString().c_str());
        }
      }
    }
    return tally;
  }

  Inputs inputs() const override { return Inputs{{csv_}, {}, {}}; }

 private:
  const uint64_t seed_;
  std::string csv_;
  std::string reference_;  // first Pandas output
  std::vector<std::pair<PipelineRun, PipelineRun>> pairs_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardWorkload(uint64_t seed) {
  return std::make_unique<ShardWorkload>(seed);
}

}  // namespace lafp::perfbench
