// paper_csv_s / paper_lfc_l: the 10 paper programs x 6 configurations
// through script::RunProgram (bench/harness RunBenchmark). Every run's checksum lines must equal the Pandas-on-CSV
// reference for that program and seed (paper §5.2). A pass is one
// sweep; a window runs at least two.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <mutex>
#include <set>

#include "bench/harness.h"
#include "bench/programs.h"
#include "common/trace.h"
#include "io/columnar.h"
#include "meta/metadata.h"
#include "perfbench/workload.h"

namespace lafp::perfbench {
namespace {

// Two sweeps per window at least: a sweep takes 12-20 s, longer than the
// window, and one sweep alone moves by up to 10% between runs.
constexpr double kMinSweeps = 2;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

class PaperWorkload : public Workload {
 public:
  PaperWorkload(bool lfc, uint64_t seed)
      : lfc_(lfc),
        seed_(seed),
        scale_(lfc ? 9 : 1),
        // At L the budget is off: 22 of 60 runs would OOM, and a time sum
        // over the survivors would read a memory fix as a slowdown.
        budget_(lfc ? 0 : bench::DefaultMemoryBudget()) {}

  Status Setup(const std::string& dir) override {
    dir_ = dir;
    MemoryTracker tracker(0);
    meta::MetaStore metastore(dir + "/metastore");
    std::mutex mu;
    std::map<std::string, std::string> input_of;  // csv -> program input
    // Runs on the generating thread right after each file is written.
    auto finish = [&](const std::string& csv) -> Status {
      std::string input = csv;
      if (lfc_) {
        input = csv.substr(0, csv.size() - 4) + ".lfc";
        LAFP_RETURN_NOT_OK(io::ConvertCsvToLfc(csv, input, {}, {}, &tracker));
      } else {
        // §3.6 metadata, collected now so the first sweep does not pay.
        LAFP_RETURN_NOT_OK(metastore.GetOrCompute(csv).status());
      }
      std::lock_guard<std::mutex> lock(mu);
      input_of[csv] = input;
      return Status::OK();
    };
    LAFP_ASSIGN_OR_RETURN(csv_paths_,
                          GeneratePaperData(dir, scale_, seed_, finish));
    paths_ = csv_paths_;
    for (auto& [program, m] : paths_) {
      for (auto& [name, path] : m) path = input_of[path];
    }
    return Status::OK();
  }

  Window Measure(double seconds) override {
    Window w;
    const double start = NowSeconds();
    do {
      Sweep(&w);
    } while (NowSeconds() - start < seconds || w.passes < kMinSweeps);
    w.seconds = NowSeconds() - start;
    return w;
  }

  Tally Verify() override {
    std::map<std::string, std::string> reference = References();
    Tally tally;
    for (const auto& r : runs_) {
      Outcome o;
      o.status_error = !r.ok;
      const std::string& want = reference[r.program];
      o.mismatch = r.ok && (want.empty() || r.checksums != want);
      if (!tally.Record(o)) {
        std::fprintf(stderr, "FAILED %s/%s: %s\n", r.program.c_str(),
                     r.config.c_str(),
                     o.mismatch ? "checksum differs from Pandas on CSV"
                                : r.error.c_str());
      }
    }
    return tally;
  }

  Inputs inputs() const override {
    Inputs in;
    std::set<std::string> files;
    for (const auto& [program, m] : paths_) {
      for (const auto& [name, path] : m) files.insert(path);
      auto source = bench::ProgramSource(program, m);
      if (source.ok()) in.program_sources.push_back(*source);
    }
    (lfc_ ? in.lfc_files : in.csv_files).assign(files.begin(), files.end());
    return in;
  }

 private:
  struct Run {
    std::string program;
    std::string config;
    bool ok = false;
    std::string error;
    std::string checksums;
  };

  void Sweep(Window* w) {
    double pass_peak = 0.0;
    std::map<std::string, double> config_s;
    for (const auto& program : bench::ProgramNames()) {
      for (const auto& config : bench::AllConfigs(budget_)) {
        const std::string name = Lower(bench::ConfigName(config));
        trace::Span span("perfbench:run", "perfbench");
        if (span.active()) {
          span.AddArg("program", program);
          span.AddArg("config", name);
        }
        const double t0 = NowSeconds();
        bench::BenchResult r =
            bench::RunBenchmark(program, paths_[program], config, dir_);
        const double secs = NowSeconds() - t0;
        const double peak_mb = r.peak_bytes / 1e6;
        runs_.push_back({program, name, r.success, r.status.ToString(),
                         r.checksums});
        w->latency_ms.push_back(secs * 1e3);
        w->all_latency_ms.push_back(secs * 1e3);
        config_s[name] += secs;
        pass_peak += peak_mb;
        double& worst = w->config_peak_mb[name];
        worst = std::max(worst, peak_mb);
        ++w->ops;
      }
    }
    for (const auto& [name, secs] : config_s) w->config_s[name].push_back(secs);
    w->pass_peak_mb.push_back(pass_peak);
    w->passes += 1;
  }

  /// Pandas on the CSV inputs, no budget: the §5.2 reference. On CSV
  /// workloads the window's own Pandas runs are that reference.
  std::map<std::string, std::string> References() {
    std::map<std::string, std::string> reference;
    if (!lfc_) {
      for (const auto& r : runs_) {
        if (r.config == "pandas" && r.ok && !reference.count(r.program)) {
          reference[r.program] = r.checksums;
        }
      }
    }
    std::vector<std::string> missing;
    for (const auto& program : bench::ProgramNames()) {
      if (!reference.count(program)) missing.push_back(program);
    }
    std::mutex mu;
    std::vector<std::function<Status()>> jobs;
    for (const auto& program : missing) {
      jobs.push_back([&, program]() -> Status {
        bench::BenchConfig pandas;  // Pandas, eager, unlimited
        bench::BenchResult r = bench::RunBenchmark(
            program, csv_paths_[program], pandas, dir_);
        std::lock_guard<std::mutex> lock(mu);
        if (r.success) reference[program] = r.checksums;
        return Status::OK();
      });
    }
    (void)RunParallel(std::move(jobs), 4);
    return reference;
  }

  const bool lfc_;
  const uint64_t seed_;
  const int scale_;
  const int64_t budget_;
  std::string dir_;
  std::map<std::string, std::map<std::string, std::string>> csv_paths_;
  std::map<std::string, std::map<std::string, std::string>> paths_;
  std::vector<Run> runs_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperWorkload(bool lfc, uint64_t seed) {
  return std::make_unique<PaperWorkload>(lfc, seed);
}

}  // namespace lafp::perfbench
