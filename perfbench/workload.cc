#include "perfbench/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "bench/programs.h"
#include "testing/datagen.h"

namespace lafp::perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status RunParallel(std::vector<std::function<Status()>> jobs, int threads) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status first = Status::OK();
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
      Status s = jobs[i]();
      std::lock_guard<std::mutex> lock(mu);
      if (!s.ok() && first.ok()) first = s;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return first;
}

Result<std::map<std::string, std::map<std::string, std::string>>>
GeneratePaperData(const std::string& dir, int scale, uint64_t seed,
                  const std::function<Status(const std::string&)>& then) {
  std::set<std::string> names;
  for (const auto& program : bench::ProgramNames()) {
    for (const auto& name : testing::DatasetsForProgram(program)) {
      names.insert(name);
    }
  }
  std::map<std::string, std::string> path_of;
  std::vector<std::function<Status()>> jobs;
  std::mutex mu;
  for (const auto& name : names) {
    int64_t rows = testing::BaseRows(name);
    if (name != "vendors" && name != "schools" && name != "movies") {
      rows *= scale;
    }
    jobs.push_back([&, name, rows]() -> Status {
      LAFP_ASSIGN_OR_RETURN(auto ds,
                            testing::Generate(name, dir, rows, seed));
      if (then) LAFP_RETURN_NOT_OK(then(ds.path));
      std::lock_guard<std::mutex> lock(mu);
      path_of[name] = ds.path;
      return Status::OK();
    });
  }
  LAFP_RETURN_NOT_OK(RunParallel(std::move(jobs), 4));
  std::map<std::string, std::map<std::string, std::string>> paths;
  for (const auto& program : bench::ProgramNames()) {
    for (const auto& name : testing::DatasetsForProgram(program)) {
      paths[program][name] = path_of[name];
    }
  }
  return paths;
}

}  // namespace lafp::perfbench
