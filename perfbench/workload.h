#ifndef LAFP_PERFBENCH_WORKLOAD_H_
#define LAFP_PERFBENCH_WORKLOAD_H_

// The workload interface main.cc runs: set up from a seed, measure for
// a window, then verify every output against its reference. Workloads
// touch the system only through its public entry points.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "perfbench/stats.h"

namespace lafp::perfbench {

/// What one measurement window saw. A "pass" is the workload's unit of
/// repeated work: one 10 x 6 sweep, one Pandas + shard pipeline pair, or
/// 100 served requests.
struct Window {
  double seconds = 0.0;  // wall time of the window
  int64_t ops = 0;       // operations finished, failed ones included
  double passes = 0.0;
  /// Latencies of the workload's headline operations, in ms: every
  /// program run, the repeat (cache-served) requests, the shard runs.
  std::vector<double> latency_ms;
  /// Every operation's latency (the tail comes from these).
  std::vector<double> all_latency_ms;
  /// Sum of the MemoryTracker peaks of one pass's operations, per pass.
  std::vector<double> pass_peak_mb;
  /// Seconds spent per pass in each configuration ("pandas", "lmodin",
  /// "shard", ...), one entry per pass.
  std::map<std::string, std::vector<double>> config_s;
  /// Largest single-operation peak per configuration.
  std::map<std::string, double> config_peak_mb;
};

/// Files and sources the per-layer probes time from outside.
struct Inputs {
  std::vector<std::string> csv_files;
  std::vector<std::string> lfc_files;
  std::vector<std::string> program_sources;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs under `dir` (empty, keyed by seed and scale) and
  /// start what the window drives. Timed as set-up.
  virtual Status Setup(const std::string& dir) = 0;
  /// Undo Setup (stop servers); main.cc then removes `dir`.
  virtual void Teardown() {}
  /// Untimed work between set-up and the first window (references).
  virtual Status Prepare() { return Status::OK(); }
  /// Run for at least `seconds`, in whole passes where passes exist.
  virtual Window Measure(double seconds) = 0;
  /// Account every operation of every window so far and run the
  /// after-window checks; a wrong output is a failed operation.
  virtual Tally Verify() = 0;
  virtual Inputs inputs() const = 0;
};

std::unique_ptr<Workload> MakePaperWorkload(bool lfc, uint64_t seed);
std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeShardWorkload(uint64_t seed);

// ------------------------------------------------------------- shared

/// splitmix64: the benchmark's seeded draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Generate the datasets of every paper program at `scale` into `dir`
/// with `seed`, a few files at a time, calling `then` (when set) on each
/// CSV file right after it is written. Returns program -> (dataset ->
/// CSV path). Lookup tables keep their size at every scale, as in
/// testing::GenerateForProgram.
Result<std::map<std::string, std::map<std::string, std::string>>>
GeneratePaperData(const std::string& dir, int scale, uint64_t seed,
                  const std::function<Status(const std::string&)>& then = {});

/// Run `jobs` on up to `threads` threads; the first error wins.
Status RunParallel(std::vector<std::function<Status()>> jobs, int threads);

double NowSeconds();

}  // namespace lafp::perfbench

#endif  // LAFP_PERFBENCH_WORKLOAD_H_
