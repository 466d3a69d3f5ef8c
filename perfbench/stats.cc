#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>

namespace lafp::perfbench {

namespace {

/// 1-based nearest rank of percentile q among n samples.
size_t NearestRank(size_t n, double q) {
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), q) - 1];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : samples) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

std::optional<Tail> ChooseTail(const std::vector<double>& samples,
                               const std::vector<double>& candidates,
                               size_t min_beyond) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> qs = candidates;
  std::sort(qs.begin(), qs.end(), std::greater<>());
  for (double q : qs) {
    if (sorted.empty() || q <= 0.5) break;
    size_t rank = NearestRank(sorted.size(), q);
    size_t beyond = sorted.size() - rank;
    if (beyond >= min_beyond) return Tail{q, sorted[rank - 1], beyond};
  }
  return std::nullopt;
}

bool Tally::Record(const Outcome& outcome) {
  ++attempted;
  const bool ok = !outcome.transport_error && outcome.http_status == 200 &&
                  !outcome.status_error && !outcome.mismatch;
  if (!ok) ++failed;
  if (outcome.mismatch) ++mismatches;
  return ok;
}

Ratio HitRatio(int64_t hits, int64_t misses) {
  Ratio r;
  r.base = hits + misses;
  r.value = r.base > 0 ? static_cast<double>(hits) / r.base : 0.0;
  return r;
}

int64_t CoveredMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (open && b <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = b;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

SpanIndex::SpanIndex(std::vector<trace::Event> events) {
  for (auto& e : events) {
    if (e.dur_micros < 0) continue;
    spans_.push_back(std::move(e));
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    children_[spans_[i].parent_id].push_back(i);
    by_id_[spans_[i].span_id] = i;
  }
}

int64_t SpanIndex::SelfMicros(const trace::Event& span) const {
  const int64_t lo = span.ts_micros;
  const int64_t hi = span.ts_micros + span.dur_micros;
  auto it = children_.find(span.span_id);
  if (it == children_.end()) return span.dur_micros;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(it->second.size());
  for (size_t i : it->second) {
    const auto& c = spans_[i];
    intervals.emplace_back(c.ts_micros, c.ts_micros + c.dur_micros);
  }
  return span.dur_micros - CoveredMicros(std::move(intervals), lo, hi);
}

std::string StrArg(const trace::Event& event, const std::string& key) {
  for (const auto& a : event.args) {
    if (a.key == key && a.is_string) return a.string_value;
  }
  return "";
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name) {
  auto value = [&](const std::map<std::string, int64_t>& m) -> int64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

}  // namespace lafp::perfbench
