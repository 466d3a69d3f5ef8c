// serve_mix: a closed loop of 4 clients, one request outstanding each,
// against an in-process serve::QueryService with its shipped defaults on
// an ephemeral loopback port. Three requests in four post a paper
// program verbatim (served from the result cache once warm); the fourth
// posts a paper program whose column-filter literal is replaced by a
// seeded value, so its plan is new to the cache. The order is seeded;
// the proportions are exact.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench/harness.h"
#include "bench/programs.h"
#include "lazy/session.h"
#include "optimizer/passes.h"
#include "script/analyze.h"
#include "perfbench/workload.h"
#include "serve/server.h"

namespace lafp::perfbench {
namespace {

constexpr int kClients = 4;
constexpr size_t kNovelChecks = 8;

/// A filter literal of a paper program that a novel request rewrites:
/// `text` becomes `lhs` followed by a value drawn from [lo, lo + span).
struct NovelSpec {
  const char* program;
  const char* text;
  const char* lhs;
  double lo;
  double span;
};

constexpr NovelSpec kNovel[] = {
    {"taxi", "df.fare_amount > 0", "df.fare_amount > ", 0, 20},
    {"movie", "ratings.rating >= 3.0", "ratings.rating >= ", 1, 3},
    {"startup", "alive.funding_total > 50.0", "alive.funding_total > ", 0,
     100},
    {"emp", "df.age > 50", "df.age > ", 25, 30},
    {"stu", "df.total > 150.0", "df.total > ", 100, 80},
    {"weather", "df.rainfall > 20.0", "df.rainfall > ", 0, 30},
    {"flights", "df.arr_delay > 0", "df.arr_delay > ", -10, 40},
    {"sales", "df.amount > 50000.0", "df.amount > ", 10000, 80000},
};

struct Reply {
  bool transport_error = true;
  int status = 0;
  std::string body;
};

/// One request on its own connection; the server closes after replying.
Reply Post(int port, const std::string& body) {
  Reply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string req = "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t r =
        ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (r <= 0) break;
    sent += static_cast<size_t>(r);
  }
  std::string raw;
  char buf[8192];
  while (true) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    raw.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  size_t head_end = raw.find("\r\n\r\n");
  if (sent < req.size() || raw.size() < 12 || head_end == std::string::npos) {
    return reply;
  }
  reply.transport_error = false;
  reply.status = std::atoi(raw.substr(9, 3).c_str());
  reply.body = raw.substr(head_end + 4);
  return reply;
}

size_t ProgramIndex(const std::string& program) {
  static const std::vector<std::string> names = bench::ProgramNames();
  return std::find(names.begin(), names.end(), program) - names.begin();
}

std::string ChecksumLines(const std::string& output) {
  std::istringstream in(output);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) out += line + "\n";
  }
  return out;
}

/// The program output the query service returns for `source` with its
/// shipped defaults (LaFP mode on Pandas, no result cache), computed
/// in-process. `peak_bytes` receives the run's tracked peak.
Result<std::string> ServeEquivalentRun(const std::string& source,
                                       int64_t* peak_bytes) {
  // Mirrors QueryService::HandleRun for a request without parameters.
  MemoryTracker tracker(0);
  std::stringstream output;
  lazy::SessionOptions opts;
  opts.backend = exec::BackendKind::kPandas;
  opts.tracker = &tracker;
  opts.output = &output;
  opts.mode = lazy::ExecutionMode::kLazy;
  opts.lazy_print = true;
  opts.exec.num_threads = 4;  // ServeOptions::session_threads default
  lazy::Session session(opts);
  opt::InstallDefaultOptimizer(&session);
  script::RunOptions run_opts;
  run_opts.analyze = true;
  LAFP_RETURN_NOT_OK(script::RunProgram(source, &session, run_opts));
  if (peak_bytes != nullptr) *peak_bytes = tracker.peak();
  return output.str();
}

/// Seeded draws without replacement: each round of n is a shuffled
/// permutation, so every value comes up equally often and a run's mix
/// does not drift with the seed.
class Deck {
 public:
  Deck(size_t n, Rng* rng) : order_(n), rng_(rng) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next() {
    if (pos_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_->Below(i)]);
      }
    }
    size_t v = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return v;
  }

 private:
  std::vector<size_t> order_;
  size_t pos_ = 0;
  Rng* rng_;
};

/// One client's request stream: 3 repeats and 1 novel request in every
/// 4, each repeat program and each novel literal equally often.
struct Draws {
  Draws(uint64_t seed, size_t programs)
      : rng(seed),
        kind(4, &rng),
        repeat(programs, &rng),
        novel(std::size(kNovel), &rng) {}
  Rng rng;
  Deck kind;
  Deck repeat;
  Deck novel;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(uint64_t seed) : seed_(seed) {}

  Status Setup(const std::string& dir) override {
    dir_ = dir;
    LAFP_ASSIGN_OR_RETURN(paths_, GeneratePaperData(dir, 1, seed_));
    sources_.clear();
    for (const auto& program : bench::ProgramNames()) {
      LAFP_ASSIGN_OR_RETURN(auto source,
                            bench::ProgramSource(program, paths_[program]));
      sources_.push_back(source);
    }
    serve::ServeOptions options;  // shipped defaults
    options.port = 0;
    server_ = std::make_unique<serve::QueryService>(options);
    LAFP_RETURN_NOT_OK(server_->Start());
    // Fill the result cache so the window starts warm.
    for (const auto& source : sources_) {
      Reply r = Post(server_->port(), source);
      if (r.status != 200) {
        return Status::IOError("warm-up request failed: HTTP " +
                               std::to_string(r.status));
      }
    }
    return Status::OK();
  }

  void Teardown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  Status Prepare() override {
    references_.clear();
    peak_mb_.clear();
    for (const auto& source : sources_) {
      int64_t peak = 0;
      LAFP_ASSIGN_OR_RETURN(auto out, ServeEquivalentRun(source, &peak));
      references_.push_back(out);
      peak_mb_.push_back(peak / 1e6);
    }
    for (const auto& spec : kNovel) {
      const std::string& source = sources_[ProgramIndex(spec.program)];
      if (source.find(spec.text) == std::string::npos) {
        return Status::Invalid(std::string("no literal '") + spec.text +
                               "' in program " + spec.program);
      }
    }
    return Status::OK();
  }

  Window Measure(double seconds) override {
    const double deadline = NowSeconds() + seconds;
    std::vector<std::vector<Op>> per_client(kClients);
    std::vector<std::thread> clients;
    const uint64_t window = windows_++;
    const double start = NowSeconds();
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Draws draws(seed_ * 0x100000001b3ULL + window * kClients + c,
                    sources_.size());
        while (NowSeconds() < deadline) {
          per_client[c].push_back(Request(&draws));
        }
      });
    }
    for (auto& t : clients) t.join();
    Window w;
    w.seconds = NowSeconds() - start;
    for (auto& ops : per_client) {
      for (auto& op : ops) {
        if (!op.novel) w.latency_ms.push_back(op.ms);
        w.all_latency_ms.push_back(op.ms);
        ops_.push_back(std::move(op));
      }
    }
    w.ops = static_cast<int64_t>(w.all_latency_ms.size());
    w.passes = w.ops / 100.0;
    double sum = 0.0, worst = 0.0;
    for (double mb : peak_mb_) {
      sum += mb;
      worst = std::max(worst, mb);
    }
    w.pass_peak_mb.push_back(sum);
    w.config_peak_mb["lpandas"] = worst;
    return w;
  }

  Tally Verify() override {
    // The in-process references must themselves match Pandas on CSV.
    std::vector<bool> reference_ok(sources_.size());
    for (size_t p = 0; p < sources_.size(); ++p) {
      const std::string program = bench::ProgramNames()[p];
      bench::BenchResult r = bench::RunBenchmark(
          program, paths_[program], bench::BenchConfig{}, dir_);
      reference_ok[p] =
          r.success && r.checksums == ChecksumLines(references_[p]);
      if (!reference_ok[p]) {
        std::fprintf(stderr, "FAILED %s: served output differs from Pandas\n",
                     program.c_str());
      }
    }
    // Re-run a seeded sample of the novel replies in-process.
    std::vector<size_t> novel;
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].novel && ops_[i].status == 200) novel.push_back(i);
    }
    Rng rng(seed_ ^ 0x5eed5eedULL);
    for (size_t i = 0; i < novel.size() && i < kNovelChecks; ++i) {
      std::swap(novel[i], novel[i + rng.Below(novel.size() - i)]);
      Op& op = ops_[novel[i]];
      auto want = ServeEquivalentRun(op.body, nullptr);
      op.mismatch = !want.ok() || *want != op.reply;
    }
    Tally tally;
    for (const auto& op : ops_) {
      Outcome o;
      o.transport_error = op.transport_error;
      o.http_status = op.status;
      o.mismatch =
          op.mismatch || (!op.novel && !reference_ok[op.program]);
      if (!tally.Record(o)) {
        std::fprintf(stderr, "FAILED %s request for %s: HTTP %d%s\n",
                     op.novel ? "novel" : "repeat",
                     bench::ProgramNames()[op.program].c_str(), op.status,
                     o.mismatch ? ", wrong output" : "");
      }
    }
    return tally;
  }

  Inputs inputs() const override {
    Inputs in;
    for (const auto& [program, m] : paths_) {
      for (const auto& [name, path] : m) {
        if (std::find(in.csv_files.begin(), in.csv_files.end(), path) ==
            in.csv_files.end()) {
          in.csv_files.push_back(path);
        }
      }
    }
    in.program_sources = sources_;
    return in;
  }

 private:
  struct Op {
    bool novel = false;
    size_t program = 0;
    std::string body;   // request body, kept for novel requests
    std::string reply;  // reply body, kept for novel requests
    bool transport_error = false;
    int status = 0;
    bool mismatch = false;
    double ms = 0.0;
  };

  Op Request(Draws* draws) {
    Op op;
    std::string body;
    if (draws->kind.Next() < 3) {
      op.program = draws->repeat.Next();
      body = sources_[op.program];
    } else {
      const NovelSpec& spec = kNovel[draws->novel.Next()];
      op.novel = true;
      op.program = ProgramIndex(spec.program);
      char value[64];
      std::snprintf(value, sizeof(value), "%.6f",
                    spec.lo + spec.span * draws->rng.Uniform());
      body = sources_[op.program];
      body.replace(body.find(spec.text), std::string(spec.text).size(),
                   std::string(spec.lhs) + value);
    }
    const double t0 = NowSeconds();
    Reply reply = Post(server_->port(), body);
    op.ms = (NowSeconds() - t0) * 1e3;
    op.transport_error = reply.transport_error;
    op.status = reply.status;
    if (op.novel) {
      op.body = std::move(body);
      op.reply = std::move(reply.body);
    } else if (op.status == 200) {
      op.mismatch = reply.body != references_[op.program];
    }
    return op;
  }

  const uint64_t seed_;
  std::string dir_;
  std::map<std::string, std::map<std::string, std::string>> paths_;
  std::vector<std::string> sources_;
  std::vector<std::string> references_;
  std::vector<double> peak_mb_;
  std::unique_ptr<serve::QueryService> server_;
  uint64_t windows_ = 0;
  std::vector<Op> ops_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed);
}

}  // namespace lafp::perfbench
