#ifndef LAFP_PERFBENCH_STATS_H_
#define LAFP_PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept apart from the workloads so that
// stats_test.cc can pin it: percentile choice, failure counting, the
// cache hit ratio and span self time.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"

namespace lafp::perfbench {

// ---------------------------------------------------------------- timings

/// Nearest-rank percentile (q in (0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// Median (nearest rank, so always one of the samples).
double Median(std::vector<double> samples);

/// Geometric mean of positive samples; 0 when empty. The typical
/// latency of a population that spans orders of magnitude (a Dask run
/// next to an LPandas run), where the median sits in a gap between
/// classes and jumps between runs.
double GeoMean(const std::vector<double>& samples);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double q = 0.0;       // e.g. 0.99
  double value = 0.0;   // the sample at that rank
  size_t beyond = 0;    // samples strictly above the rank
};

/// The highest percentile in `candidates` that has at least `min_beyond`
/// samples beyond its nearest rank, or nullopt when none does (then only
/// the median may be reported). With 1000 samples p99 qualifies (10
/// beyond); with 999 it does not.
std::optional<Tail> ChooseTail(const std::vector<double>& samples,
                               const std::vector<double>& candidates = {
                                   0.999, 0.99, 0.95, 0.9, 0.75},
                               size_t min_beyond = 10);

// --------------------------------------------------------------- failures

/// How one operation ended. An operation fails when any of these is
/// set; it is counted once however many apply.
struct Outcome {
  bool transport_error = false;  // no reply, socket failure
  int http_status = 200;         // non-200 = failed (429 included)
  bool status_error = false;     // an error or OOM lafp::Status
  bool mismatch = false;         // output differs from its reference
};

/// Failures counted against the number attempted.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;  // subset of failed: wrong output

  /// Count one operation; returns true when it succeeded.
  bool Record(const Outcome& outcome);
};

// ------------------------------------------------------------------ cache

/// Hits over lookups. The base is hits + misses: inserts, splices and
/// requests that never consulted the cache do not count.
struct Ratio {
  double value = 0.0;
  int64_t base = 0;
};
Ratio HitRatio(int64_t hits, int64_t misses);

// ------------------------------------------------------------------ spans

/// Length of the union of `[begin, end)` intervals, each clipped to
/// `[lo, hi)`. Overlapping intervals (partition spans running on several
/// worker threads at once) are counted once.
int64_t CoveredMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// Span tree over a trace snapshot; instants are dropped.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<trace::Event> events);

  const std::vector<trace::Event>& spans() const { return spans_; }

  /// Duration minus the part of it covered by the union of the span's
  /// direct children.
  int64_t SelfMicros(const trace::Event& span) const;

  /// The nearest ancestor of `span` accepted by `pred`, or null.
  template <typename Pred>
  const trace::Event* Ancestor(const trace::Event& span, Pred&& pred) const {
    auto it = by_id_.find(span.parent_id);
    while (it != by_id_.end()) {
      const trace::Event& parent = spans_[it->second];
      if (pred(parent)) return &parent;
      it = by_id_.find(parent.parent_id);
    }
    return nullptr;
  }

  /// Sum of SelfMicros over spans accepted by `pred`.
  template <typename Pred>
  int64_t SumSelf(Pred&& pred) const {
    int64_t total = 0;
    for (const auto& s : spans_) {
      if (pred(s)) total += SelfMicros(s);
    }
    return total;
  }

  /// Sum of durations (busy time) over spans accepted by `pred`.
  template <typename Pred>
  int64_t SumDuration(Pred&& pred) const {
    int64_t total = 0;
    for (const auto& s : spans_) {
      if (pred(s)) total += s.dur_micros;
    }
    return total;
  }

 private:
  std::vector<trace::Event> spans_;
  std::map<uint64_t, std::vector<size_t>> children_;  // parent -> indexes
  std::map<uint64_t, size_t> by_id_;
};

/// The string argument `key` of an event ("" when absent).
std::string StrArg(const trace::Event& event, const std::string& key);

/// Difference of two metrics::Registry::Scrape() results for `name`.
int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name);

}  // namespace lafp::perfbench

#endif  // LAFP_PERFBENCH_STATS_H_
