// End-to-end benchmark of the JOCL ingest -> serve path.
//
//   jocl_e2ebench --workload <ingest-longtail|ingest-head|serve-churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--inject wrong-body|lost-generation]
//                 [--trace-out <path>]
//
// Every step goes through public calls only: JoclSession::AddTriples ->
// BuildCanonStore -> CanonServer::Publish -> a keep-alive
// HttpConnection::Get that retries until X-Jocl-Generation shows the new
// generation. The last stdout line is one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). README.md in this directory lists
// the workloads, metrics and the steadiness study.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/runtime.h"
#include "core/session.h"
#include "core/shard.h"
#include "core/signals.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "eval/linking_metrics.h"
#include "obs/trace.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/response_cache.h"
#include "serve/server.h"

namespace jocl {
namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// The worlds are fixed, like the paper's datasets: --seed picks the
// stream (held-back pool, batch order) and the read mix, never the world,
// so the quality metrics of the final state repeat exactly across runs.
constexpr uint64_t kReVerbWorldSeed = 42;
constexpr uint64_t kNyTimesWorldSeed = 43;

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string inject;  // "", "wrong-body" or "lost-generation"
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else if (flag == "--inject") {
      if (value != "wrong-body" && value != "lost-generation") return false;
      args->inject = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         (args->workload == "ingest-longtail" ||
          args->workload == "ingest-head" || args->workload == "serve-churn");
}

// ---- workload configuration ------------------------------------------------

/// The fixed thread and connection budget, the same for every workload.
/// Nothing is left at 0 ("one per hardware thread") or at a library
/// default, and the peak stays within the 4 hardware threads the
/// benchmark is sized for.
struct ThreadBudget {
  size_t session_threads = 2;     ///< SessionOptions::num_threads and
                                  ///< RuntimeOptions::num_threads
  size_t frontend_threads = 2;    ///< SessionOptions::frontend_threads
  size_t event_threads = 1;       ///< ServeOptions::num_workers
  size_t client_connections = 2;  ///< closed-loop keep-alive readers
  /// Threads runnable at once. An ingest step runs the front-end, then
  /// the session pool, then publish and one visibility GET, one after the
  /// other for the blocked bench thread. Reads run on the client threads
  /// beside the event thread and the bench thread, which republishes in
  /// serve-churn.
  size_t Peak() const {
    return std::max({session_threads, frontend_threads,
                     event_threads + client_connections + 1});
  }
};

/// Ingest runs alternate ingest steps and one read window per cycle of
/// about this length.
constexpr double kCycleSeconds = 2.0;
/// serve-churn reads are summarised over windows of about this length.
constexpr double kServeWindowSeconds = 1.0;
/// Reads in the first part of a read phase are not recorded: they time
/// waking the idle client and event threads, not the read path.
constexpr double kReadWarmupSeconds = 0.02;

struct Workload {
  std::string name;
  bool serve = false;  ///< serve-churn; otherwise an ingest workload
  bool head = false;   ///< ingest-head; otherwise ingest-longtail
  double scale = 1.0;
  size_t batch_triples = 0;
  /// Held-back pool size, drawn from outside the giant component
  /// (longtail) or inside it (head).
  size_t pool_triples = 0;
  int setup_reps = 2;
  /// ingest: share of each cycle for its read window after the steps
  double read_share = 0.2;
  double publish_interval_s = 0.0;  ///< serve-churn republish period
  double serve_drop_share = 0.0;    ///< serve-churn: triples absent from B
  double visible_timeout_s = 10.0;
  ThreadBudget budget;
};

Workload MakeWorkload(const Args& args) {
  Workload w;
  w.name = args.workload;
  w.serve = w.name == "serve-churn";
  w.head = w.name == "ingest-head";
  if (w.name == "ingest-longtail") {
    w.scale = 2.5;
    w.batch_triples = 6;
    w.pool_triples = 2000;
  } else if (w.head) {
    // Scale 0.7, not 1: at scale 1 a head batch takes ~0.4 s, too few
    // batches per run for a p90 with ten samples beyond it.
    w.scale = 0.7;
    w.batch_triples = 2;
    w.pool_triples = 280;
    w.setup_reps = 3;
    w.read_share = 0.12;  // leaves >= 100 batches of ~0.2 s to the stream
  } else {
    w.scale = 2.0;
    w.publish_interval_s = 0.08;
    w.serve_drop_share = 0.02;
  }
  if (args.smoke) {
    w.scale = w.serve ? 0.3 : 0.4;
    w.setup_reps = 1;
    w.visible_timeout_s = 1.0;
    if (w.serve) w.publish_interval_s = 0.05;
  }
  return w;
}

// ---- small helpers -----------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Deterministic Fisher-Yates (std::shuffle's draw pattern is not fixed
/// by the standard).
template <typename T>
void Shuffle(std::vector<T>* items, std::mt19937_64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>((*rng)() % i);
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

/// A fixed CPU + memory loop over an 8 MiB table, so it lands in the
/// shared last-level cache, where other tenants of the host contend; its
/// time tracks host speed, not the program. Median of five timings.
double HostCalibrationSeconds() {
  std::vector<uint32_t> table(1u << 21);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>((i * 2654435761u) & (table.size() - 1));
  }
  std::vector<double> times;
  uint64_t sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    uint32_t cursor = 1;
    for (int round = 0; round < 1000000; ++round) {
      cursor = table[cursor ^ static_cast<uint32_t>(round & 1023)];
      sum += cursor * 31u + static_cast<uint64_t>(round);
    }
    times.push_back(SecondsSince(start));
  }
  if (sum == 42) std::printf(" ");  // keeps the loop observable
  return Median(times);
}

/// Hypervisor steal and total CPU ticks so far (first line of
/// /proc/stat); {0, 0} when unreadable.
std::pair<uint64_t, uint64_t> StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {0};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

/// The run's host diagnostics, taken at its start and end: the
/// calibration loop and the share of CPU time the hypervisor stole.
/// Neither measures the program; they tell host drift from a regression.
class HostWatch {
 public:
  HostWatch() : start_calib_(HostCalibrationSeconds()), start_(StealTicks()) {}
  /// Times the loop again and prints both diagnostics; returns the mean
  /// of the two calibration times.
  double Finish() {
    const double end_calib = HostCalibrationSeconds();
    const std::pair<uint64_t, uint64_t> end = StealTicks();
    const uint64_t total = end.second - start_.second;
    std::printf("host calib: start %.4fs end %.4fs; steal %.1f%% of CPU "
                "time\n",
                start_calib_, end_calib,
                total > 0 ? 100.0 * static_cast<double>(end.first -
                                                        start_.first) /
                                static_cast<double>(total)
                          : 0.0);
    return (start_calib_ + end_calib) / 2.0;
  }

 private:
  double start_calib_;
  std::pair<uint64_t, uint64_t> start_;
};

bool SameResultBytes(const JoclResult& a, const JoclResult& b) {
  return a.np_cluster == b.np_cluster && a.rp_cluster == b.rp_cluster &&
         a.np_link == b.np_link && a.rp_link == b.rp_link &&
         a.triples == b.triples &&
         a.diagnostics.marginals == b.diagnostics.marginals;
}

struct Quality {
  double np_avg_f1 = 0.0;
  double rp_avg_f1 = 0.0;
  double entity_link_acc = 0.0;
  double relation_link_acc = 0.0;
};

/// The paper's four quality numbers over the result's triples (mention
/// order: subject, object per triple for NPs; one RP per triple).
Quality ScoreResult(const Dataset& ds, const JoclResult& result) {
  std::vector<size_t> gold_np, gold_rp, linkable_np, linkable_rp;
  std::vector<int64_t> gold_entity, gold_relation;
  for (size_t i = 0; i < result.triples.size(); ++i) {
    const size_t t = result.triples[i];
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2]));
    gold_np.push_back(static_cast<size_t>(ds.gold_np_group[t * 2 + 1]));
    gold_rp.push_back(static_cast<size_t>(ds.gold_rp_group[t]));
    gold_entity.push_back(ds.gold_subject_entity[t]);
    gold_entity.push_back(ds.gold_object_entity[t]);
    gold_relation.push_back(ds.gold_relation[t]);
    if (ds.gold_subject_entity[t] != kNilId) linkable_np.push_back(i * 2);
    if (ds.gold_object_entity[t] != kNilId) linkable_np.push_back(i * 2 + 1);
    if (ds.gold_relation[t] != kNilId) linkable_rp.push_back(i);
  }
  Quality q;
  q.np_avg_f1 = EvaluateClustering(result.np_cluster, gold_np).average_f1;
  q.rp_avg_f1 = EvaluateClustering(result.rp_cluster, gold_rp).average_f1;
  q.entity_link_acc =
      LinkingAccuracySubset(result.np_link, gold_entity, linkable_np);
  q.relation_link_acc =
      LinkingAccuracySubset(result.rp_link, gold_relation, linkable_rp);
  return q;
}

// ---- result reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void FailN(uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed_ += n;
    std::printf("FAILED (%llu): %s\n", static_cast<unsigned long long>(n),
                what.c_str());
  }
  uint64_t failed() const { return failed_; }

  /// Human-readable lines first, then the one-line JSON result.
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- reads -------------------------------------------------------------------

/// Read targets and, per served generation, the reference body of each
/// target rendered by HandleCanonRequest from the published store.
struct ReadBook {
  std::vector<std::string> targets;
  std::vector<int64_t> generations;
  std::vector<std::vector<std::string>> bodies;  ///< [generation slot][target]

  void AddGeneration(const CanonStore& store) {
    generations.push_back(static_cast<int64_t>(store.generation));
    bodies.emplace_back();
    bodies.back().reserve(targets.size());
    for (const std::string& target : targets) {
      int status = 0;
      bodies.back().push_back(
          HandleCanonRequest(&store, "GET", target, ServeCounters{}, &status));
    }
  }
  const std::vector<std::string>* BodiesOf(int64_t generation) const {
    for (size_t i = 0; i < generations.size(); ++i) {
      if (generations[i] == generation) return &bodies[i];
    }
    return nullptr;
  }
};

/// /lookup and /link targets over surfaces present in every given store.
std::vector<std::string> SurfaceTargets(
    const std::vector<const CanonStore*>& stores) {
  std::vector<std::string> targets;
  const CanonStore& first = *stores.front();
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const char* kind_param = kind == CanonKind::kNp ? "" : "&kind=rp";
    for (size_t s = 0; s < first.section(kind).surface_count(); ++s) {
      const std::string_view surface = first.SurfaceText(kind, s);
      bool everywhere = true;
      for (const CanonStore* store : stores) {
        everywhere = everywhere && store->FindSurface(kind, surface) >= 0;
      }
      if (!everywhere) continue;
      const std::string encoded = UrlEncode(surface);
      targets.push_back("/lookup?surface=" + encoded + kind_param);
      targets.push_back("/link?surface=" + encoded + kind_param);
    }
  }
  return targets;
}

struct ReadStats {
  /// (seconds from the end of the warm-up to the GET, latency in us) of
  /// every answered GET after the warm-up; reserved up front so the read
  /// loop does not allocate.
  std::vector<std::pair<float, float>> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// One closed-loop keep-alive client: issues the next GET only after the
/// previous answer arrived, checks each answer against the reference
/// body of the generation it names, and runs until \p deadline. Reads
/// are traced 1 in 16 so the traced run stays comparable.
void ReadLoop(int port, const ReadBook* book, uint64_t seed, size_t client,
              Clock::time_point record_from, Clock::time_point deadline,
              bool corrupt_one, ReadStats* stats) {
  TraceTrackScope track("client/", client);
  std::mt19937_64 rng(seed * 1000003u + client);
  Result<HttpConnection> connected = HttpConnection::Connect(port);
  if (!connected.ok()) {
    ++stats->attempted;
    ++stats->failed;
    stats->first_error = connected.status().ToString();
    return;
  }
  HttpConnection conn = connected.MoveValueOrDie();
  auto note = [&](const std::string& what) {
    ++stats->failed;
    if (stats->first_error.empty()) stats->first_error = what;
  };
  while (Clock::now() < deadline) {
    const size_t pick = static_cast<size_t>(rng() % book->targets.size());
    const std::string& target = book->targets[pick];
    ++stats->attempted;
    const Clock::time_point start = Clock::now();
    Result<HttpResponse> got = [&]() {
      if ((stats->attempted & 15) != 0) return conn.Get(target);
      ScopedSpan span("bench.read_get");
      return conn.Get(target);
    }();
    const Clock::time_point end = Clock::now();
    if (!got.ok()) {
      note("GET " + target + ": " + got.status().ToString());
      Result<HttpConnection> again = HttpConnection::Connect(port);
      if (!again.ok()) return;
      conn = again.MoveValueOrDie();
      continue;
    }
    HttpResponse response = got.MoveValueOrDie();
    if (start >= record_from) {
      stats->samples.emplace_back(
          std::chrono::duration<float>(start - record_from).count(),
          std::chrono::duration<float, std::micro>(end - start).count());
    }
    if (corrupt_one && stats->attempted == 100) response.body.push_back('x');
    const std::vector<std::string>* bodies =
        book->BodiesOf(response.generation);
    if (response.status != 200) {
      note("GET " + target + ": status " + std::to_string(response.status));
    } else if (bodies == nullptr) {
      note("GET " + target + ": unknown generation " +
           std::to_string(response.generation));
    } else if (response.body != (*bodies)[pick]) {
      note("GET " + target + ": body differs from the reference render");
    }
  }
}

/// Read rate and latency percentiles of one window of a read phase.
struct ReadWindow {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// The read metrics are medians over fixed windows: a host episode that
/// stalls the clients for a second or two spoils the tail of the windows
/// it covers, not the run.
struct ReadPhase {
  std::vector<ReadWindow> windows;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double MedianOf(double ReadWindow::*field) const {
    std::vector<double> values;
    for (const ReadWindow& w : windows) values.push_back(w.*field);
    return Median(values);
  }
};

/// Runs \p clients ReadLoops for \p seconds, splits the part after the
/// warm-up into windows of about \p window_s, and appends one ReadWindow
/// per window to \p phase.
/// \p meanwhile, when set, runs on the calling thread.
void RunClients(int port, const ReadBook& book, uint64_t seed,
                size_t clients, double seconds, double window_s,
                bool corrupt_one, const std::function<void()>& meanwhile,
                ReadPhase* phase, Report* report) {
  if (book.targets.empty()) {
    report->Attempt();
    report->Fail("no read targets");
    return;
  }
  std::vector<ReadStats> stats(clients);
  for (ReadStats& s : stats) {
    s.samples.reserve(static_cast<size_t>(seconds * 150000.0) + 1000);
  }
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Seconds(seconds);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(ReadLoop, port, &book, seed, c,
                         start + Seconds(kReadWarmupSeconds), deadline,
                         corrupt_one && c == 0, &stats[c]);
  }
  if (meanwhile) meanwhile();
  for (std::thread& t : threads) t.join();

  const double recorded = seconds - kReadWarmupSeconds;
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(std::lround(recorded / window_s)));
  const double length = recorded / static_cast<double>(count);
  std::vector<std::vector<double>> latencies(count);
  for (ReadStats& s : stats) {
    for (const auto& [at, us] : s.samples) {
      latencies[std::min(count - 1, static_cast<size_t>(at / length))]
          .push_back(us);
    }
    phase->attempted += s.attempted;
    phase->failed += s.failed;
    if (!s.first_error.empty()) std::printf("read error: %s\n",
                                            s.first_error.c_str());
    report->Attempt(s.attempted);
    report->FailN(s.failed, "reads that were not the reference body");
  }
  for (const std::vector<double>& window : latencies) {
    phase->windows.push_back({static_cast<double>(window.size()) / length,
                              Percentile(window, 0.5),
                              Percentile(window, 0.99)});
  }
}

// ---- visibility ----------------------------------------------------------------

struct Visible {
  bool seen = false;
  uint64_t retries = 0;
  HttpResponse response;
};

/// GETs \p target until the response names \p generation or the timeout
/// passes. Publish swaps synchronously, so a healthy server needs no
/// retry; the loop is what would expose an asynchronous publish.
Visible AwaitGeneration(HttpConnection* conn, int port,
                        const std::string& target, int64_t generation,
                        double timeout_s) {
  ScopedSpan span("bench.visible_get");
  Visible out;
  const Clock::time_point start = Clock::now();
  while (true) {
    Result<HttpResponse> got = conn->Get(target);
    if (got.ok()) {
      out.response = got.MoveValueOrDie();
      if (out.response.generation == generation) {
        out.seen = true;
        return out;
      }
    } else {
      Result<HttpConnection> again = HttpConnection::Connect(port);
      if (again.ok()) *conn = again.MoveValueOrDie();
    }
    if (SecondsSince(start) > timeout_s) return out;
    ++out.retries;
  }
}

double NonOkResponses(const ServeCounters& counters) {
  return static_cast<double>(counters.not_found + counters.bad_request +
                             counters.unavailable);
}

// ---- /metrics parsing --------------------------------------------------------

/// Median server-side service time of /lookup + /link, interpolated
/// inside the log2 histogram buckets of jocl_request_latency_seconds.
double ServerRequestP50Us(int port) {
  Result<HttpConnection> connected = HttpConnection::Connect(port);
  if (!connected.ok()) return 0.0;
  HttpConnection conn = connected.MoveValueOrDie();
  Result<HttpResponse> got = conn.Get("/metrics");
  if (!got.ok()) return 0.0;
  const std::string& text = got.ValueOrDie().body;
  std::vector<std::pair<double, double>> buckets;  // (le seconds, cumulative)
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("jocl_request_latency_seconds_bucket{", 0) != 0) continue;
    if (line.find("endpoint=\"/lookup\"") == std::string::npos &&
        line.find("endpoint=\"/link\"") == std::string::npos) {
      continue;
    }
    const size_t le = line.find("le=\"");
    const size_t space = line.rfind(' ');
    if (le == std::string::npos || space == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) -
                                                      (le + 4));
    const double le_s = bound == "+Inf" ? INFINITY : std::atof(bound.c_str());
    const double count = std::atof(line.c_str() + space + 1);
    auto it = std::find_if(buckets.begin(), buckets.end(),
                           [&](const auto& b) { return b.first == le_s; });
    if (it == buckets.end()) {
      buckets.emplace_back(le_s, count);
    } else {
      it->second += count;
    }
  }
  std::sort(buckets.begin(), buckets.end());
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double half = buckets.back().second / 2.0;
  double prev_le = 0.0, prev_count = 0.0;
  for (const auto& [le_s, count] : buckets) {
    if (count >= half) {
      if (std::isinf(le_s)) return prev_le * 1e6;
      const double share = count > prev_count
                               ? (half - prev_count) / (count - prev_count)
                               : 1.0;
      return (prev_le + (le_s - prev_le) * share) * 1e6;
    }
    prev_le = le_s;
    prev_count = count;
  }
  return 0.0;
}

// ---- trace aggregation -------------------------------------------------------

/// Median self time (duration minus the part of it covered by child
/// spans on the same track) of every recorded span named \p name.
double MedianSelfSeconds(const std::vector<TraceRecorder::Span>& spans,
                         const std::string& name) {
  std::vector<double> self;
  for (const TraceRecorder::Span& span : spans) {
    if (span.name != name) continue;
    uint64_t covered = 0;
    for (const TraceRecorder::Span& child : spans) {
      if (child.track == span.track &&
          child.parent_seq == static_cast<int64_t>(span.seq)) {
        covered += child.dur_ns;
      }
    }
    self.push_back(static_cast<double>(span.dur_ns - std::min(covered,
                                                              span.dur_ns)) *
                   1e-9);
  }
  return Median(self);
}

double MedianDurationSeconds(const std::vector<TraceRecorder::Span>& spans,
                             const std::string& name) {
  std::vector<double> durations;
  for (const TraceRecorder::Span& span : spans) {
    if (span.name == name) durations.push_back(span.dur_ns * 1e-9);
  }
  return Median(durations);
}

void DumpTrace(const TraceRecorder& recorder, const std::string& path) {
  if (path.empty()) return;
  if (recorder.WriteChromeJson(path)) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    std::printf("could not write trace %s\n", path.c_str());
  }
}

// ---- setup -------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double signals_s = 0.0;
  double prefill_s = 0.0;
  double serve_s = 0.0;
  double total() const { return generate_s + signals_s + prefill_s + serve_s; }
};

struct SetupSummary {
  std::vector<double> totals, generate, signals, prefill;
  void Add(const SetupTimes& t) {
    totals.push_back(t.total());
    generate.push_back(t.generate_s);
    signals.push_back(t.signals_s);
    prefill.push_back(t.prefill_s);
  }
};

ServeOptions MakeServeOptions(const ThreadBudget& budget) {
  ServeOptions options;
  options.port = 0;
  options.num_workers = budget.event_threads;
  options.prerender = true;
  options.metrics = true;
  return options;
}

void PrintBudget(const ThreadBudget& b) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("threads: session=%zu frontend=%zu event=%zu clients=%zu "
              "peak=%zu nproc=%ld\n",
              b.session_threads, b.frontend_threads, b.event_threads,
              b.client_connections, b.Peak(), nproc);
  if (nproc > 0 && b.Peak() > static_cast<size_t>(nproc)) {
    std::printf("warning: the thread budget exceeds nproc\n");
  }
}

// ---- ingest workloads -------------------------------------------------------------

/// Everything an ingest run holds between setup and teardown.
struct IngestState {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<SignalBundle> sig;
  std::unique_ptr<JoclSession> session;
  std::unique_ptr<CanonServer> server;
  HttpConnection conn;
  std::shared_ptr<const CanonStore> store;
};

/// Surface of a triple's subject in the session's current problem.
std::string SubjectSurface(const JoclProblem& problem, size_t triple) {
  auto it = std::lower_bound(problem.triples.begin(), problem.triples.end(),
                             triple);
  const size_t local = static_cast<size_t>(it - problem.triples.begin());
  return problem.subject_surfaces[problem.subject_of[local]];
}

/// Per-batch record of one AddTriples -> visible chain.
struct BatchSample {
  double visible_s = 0.0;
  uint64_t retries = 0;
  bool traced = false;
  SessionStats stats;
};

/// One ingest step through the public chain. Returns false when the
/// generation was never observed or the served answer was wrong.
bool IngestStep(IngestState* st, const std::vector<size_t>& batch,
                bool skip_publish, double timeout_s, BatchSample* sample,
                std::string* error) {
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span("bench.add_triples");
    Status status = st->session->AddTriples(batch, &sample->stats);
    if (!status.ok()) {
      *error = "AddTriples: " + status.ToString();
      return false;
    }
  }
  const uint64_t generation = st->session->generation();
  {
    ScopedSpan span("bench.build_canon_store");
    st->store = std::make_shared<const CanonStore>(
        BuildCanonStore(st->session->problem(), st->session->result(),
                        st->ds->ckb, generation));
  }
  if (!skip_publish) {
    ScopedSpan span("bench.publish");
    st->server->Publish(st->store);
  }
  const std::string target =
      "/lookup?surface=" +
      UrlEncode(SubjectSurface(st->session->problem(), batch.front()));
  Visible visible =
      AwaitGeneration(&st->conn, st->server->port(), target,
                      static_cast<int64_t>(generation), timeout_s);
  sample->visible_s = SecondsSince(start);
  sample->retries = visible.retries;
  if (!visible.seen) {
    *error = "generation " + std::to_string(generation) +
             " was never observed (last seen " +
             std::to_string(visible.response.generation) + ")";
    return false;
  }
  int status = 0;
  const std::string expected =
      HandleCanonRequest(st->store.get(), "GET", target, ServeCounters{},
                         &status);
  if (visible.response.status != 200 || visible.response.body != expected) {
    *error = "visibility GET " + target + " differs from the reference";
    return false;
  }
  return true;
}

/// The held-back pool: seed-chosen triples outside (longtail) or inside
/// (head) the largest connected component of the full stream's problem.
std::vector<size_t> ChoosePool(const Workload& w, const Dataset& ds,
                               const SignalBundle& sig, uint64_t seed) {
  const std::vector<size_t>& stream = ds.test_triples;
  JoclProblem problem = BuildProblem(ds, sig, stream);
  ShardPlan plan = PartitionProblem(problem, 0);
  size_t giant = 0;
  for (size_t s = 1; s < plan.shards.size(); ++s) {
    if (plan.shards[s].problem.triples.size() >
        plan.shards[giant].problem.triples.size()) {
      giant = s;
    }
  }
  std::vector<size_t> candidates;
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    if ((s == giant) != w.head) continue;
    const auto& ids = plan.shards[s].problem.triples;
    candidates.insert(candidates.end(), ids.begin(), ids.end());
  }
  std::sort(candidates.begin(), candidates.end());
  std::mt19937_64 rng(seed);
  Shuffle(&candidates, &rng);
  // A long-tail triple is held back only when it is not the first
  // mention of any of its surfaces, so every surface and its
  // representative triple stay in the prefill. Re-adding a triple that
  // moves a representative or brings a new surface can change the giant
  // component's problem and re-infer it (the ingest-head cost) at random
  // moments of the stream.
  std::vector<uint8_t> first_mention(problem.triples.size(), 0);
  const std::vector<size_t>* reps[3] = {
      &problem.subject_rep, &problem.predicate_rep, &problem.object_rep};
  const std::vector<size_t>* of[3] = {
      &problem.subject_of, &problem.predicate_of, &problem.object_of};
  for (int role = 0; role < 3; ++role) {
    std::vector<size_t> mentions(reps[role]->size(), 0);
    for (size_t sid : *of[role]) ++mentions[sid];
    for (size_t sid = 0; sid < mentions.size(); ++sid) {
      if (mentions[sid] > 1) first_mention[(*reps[role])[sid]] = 1;
    }
  }
  std::vector<size_t> pool;
  for (size_t t : candidates) {
    if (pool.size() == w.pool_triples) break;
    const size_t i = static_cast<size_t>(
        std::lower_bound(problem.triples.begin(), problem.triples.end(), t) -
        problem.triples.begin());
    if (!w.head && first_mention[i]) continue;
    pool.push_back(t);
  }
  std::printf("world: %zu streamed triples, %zu components, largest %zu; "
              "pool %zu triples (%.1f%% of the stream) in batches of %zu\n",
              stream.size(), plan.shards.size(),
              plan.shards[giant].problem.triples.size(), pool.size(),
              100.0 * pool.size() / stream.size(), w.batch_triples);
  return pool;
}

SetupTimes IngestSetup(const Workload& w, const Args& args, IngestState* st,
                       std::vector<size_t>* pool) {
  SetupTimes t;
  Clock::time_point start = Clock::now();
  st->ds = std::make_unique<Dataset>(
      GenerateReVerb45K(w.scale, kReVerbWorldSeed).MoveValueOrDie());
  t.generate_s = SecondsSince(start);
  start = Clock::now();
  st->sig =
      std::make_unique<SignalBundle>(BuildSignals(*st->ds).MoveValueOrDie());
  t.signals_s = SecondsSince(start);
  // Choosing the pool makes the inputs; it is not the program's set-up.
  if (pool->empty()) *pool = ChoosePool(w, *st->ds, *st->sig, args.seed);
  std::vector<size_t> held = *pool;
  std::sort(held.begin(), held.end());
  std::vector<size_t> prefill;
  for (size_t t_id : st->ds->test_triples) {
    if (!std::binary_search(held.begin(), held.end(), t_id)) {
      prefill.push_back(t_id);
    }
  }
  start = Clock::now();
  SessionOptions options;
  options.num_threads = w.budget.session_threads;
  options.frontend_threads = w.budget.frontend_threads;
  st->session = std::make_unique<JoclSession>(st->ds.get(), st->sig.get(),
                                              JoclOptions{}, options);
  Status status = st->session->AddTriples(prefill);
  if (!status.ok()) {
    std::fprintf(stderr, "prefill failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  t.prefill_s = SecondsSince(start);
  start = Clock::now();
  st->server = std::make_unique<CanonServer>(MakeServeOptions(w.budget));
  status = st->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  st->store = std::make_shared<const CanonStore>(
      BuildCanonStore(st->session->problem(), st->session->result(),
                      st->ds->ckb, st->session->generation()));
  st->server->Publish(st->store);
  st->conn = HttpConnection::Connect(st->server->port()).MoveValueOrDie();
  Visible visible = AwaitGeneration(
      &st->conn, st->server->port(), "/stats",
      static_cast<int64_t>(st->session->generation()), w.visible_timeout_s);
  if (!visible.seen) {
    std::fprintf(stderr, "setup publish never became visible\n");
    std::exit(1);
  }
  t.serve_s = SecondsSince(start);
  return t;
}

int RunIngest(const Workload& w, const Args& args) {
  PrintBudget(w.budget);
  Report report;
  HostWatch host;

  std::unique_ptr<IngestState> st;
  std::vector<size_t> pool;
  SetupSummary setup;
  double peak_rss_mb = 0.0;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    st.reset();  // tears the previous set-up down before the next one
    st = std::make_unique<IngestState>();
    SetupTimes t = IngestSetup(w, args, st.get(), &pool);
    setup.Add(t);
    // The footprint of one set-up: dataset, signals, solved session, store
    // and one pre-rendered arena. Later high-water marks also hold what
    // the allocator kept of the freed set-up: even after a malloc_trim,
    // the ingest-head mark of later set-ups read 23 or 31 MB by run.
    if (rep == 0) peak_rss_mb = PeakRssMb();
    std::printf("setup %d: %.3fs (generate %.3f, signals %.3f, prefill "
                "%.3f, serve %.3f)\n",
                rep, t.total(), t.generate_s, t.signals_s, t.prefill_s,
                t.serve_s);
  }

  std::vector<std::vector<size_t>> batches;
  for (size_t i = 0; i < pool.size(); i += w.batch_triples) {
    const size_t end = std::min(pool.size(), i + w.batch_triples);
    batches.emplace_back(pool.begin() + i, pool.begin() + end);
  }

  // ---- timed stream: cycles of ingest steps, then one read window ---------
  // No read overlaps an ingest step: a us-scale read sampled during a
  // publish measures the publish. Read windows spread over the run, so a
  // host episode spoils a few of them, not the read metrics; and each is
  // long enough that waking the idle client and event threads does not
  // set its tail. The targets are the prefill's surfaces, which stay in
  // every generation. In the traced run every other batch and read window
  // records spans, so traced and untraced batches see the same store sizes
  // and host phases; their median ratio is the tracing overhead.
  ReadBook book;
  book.targets = SurfaceTargets({st->store.get()});
  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(std::lround(args.seconds / kCycleSeconds)));
  const double cycle_s = args.seconds / static_cast<double>(cycles);
  TraceRecorder recorder;
  std::vector<BatchSample> samples;
  ReadPhase reads;
  size_t next = 0;
  size_t streamed_triples = 0;
  double step_seconds = 0.0;
  const Clock::time_point stream_start = Clock::now();
  for (size_t cycle = 0; cycle < cycles && next < batches.size(); ++cycle) {
    const Clock::time_point slice_end =
        Clock::now() + Seconds(cycle_s * (1.0 - w.read_share));
    while (next < batches.size() && Clock::now() < slice_end) {
      std::unique_ptr<ScopedTraceSession> trace_session;
      if (args.trace && next % 2 == 1) {
        trace_session = std::make_unique<ScopedTraceSession>(&recorder);
      }
      BatchSample sample;
      sample.traced = trace_session != nullptr;
      std::string error;
      const bool skip_publish =
          args.inject == "lost-generation" && next == 1;
      report.Attempt();
      const Clock::time_point step_start = Clock::now();
      const bool ok = IngestStep(st.get(), batches[next], skip_publish,
                                 w.visible_timeout_s, &sample, &error);
      step_seconds += SecondsSince(step_start);
      streamed_triples += batches[next].size();
      ++next;
      if (!ok) {
        report.Fail("batch " + std::to_string(next - 1) + ": " + error);
        continue;
      }
      samples.push_back(sample);
    }
    book.generations.clear();
    book.bodies.clear();
    book.AddGeneration(*st->store);
    std::unique_ptr<ScopedTraceSession> trace_session;
    if (args.trace && cycle % 2 == 1) {
      trace_session = std::make_unique<ScopedTraceSession>(&recorder);
    }
    RunClients(st->server->port(), book, args.seed + cycle,
               w.budget.client_connections, cycle_s * w.read_share,
               cycle_s * w.read_share,
               args.inject == "wrong-body" && cycle == 0, nullptr, &reads,
               &report);
  }
  const double stream_seconds = SecondsSince(stream_start);
  if (next == batches.size()) {
    std::printf("warning: the pool ran out before the window ended\n");
  }

  // Catch-up: the rest of the pool in one untimed batch, so the final
  // active set is always the whole stream.
  if (next < batches.size()) {
    std::vector<size_t> rest;
    for (; next < batches.size(); ++next) {
      rest.insert(rest.end(), batches[next].begin(), batches[next].end());
    }
    BatchSample sample;
    std::string error;
    report.Attempt();
    if (!IngestStep(st.get(), rest, false, w.visible_timeout_s, &sample,
                    &error)) {
      report.Fail("catch-up batch: " + error);
    }
  }

  // ---- correctness: byte-identical to a one-shot run over the final set --
  RuntimeOptions runtime_options;
  runtime_options.num_threads = w.budget.session_threads;
  JoclRuntime runtime(JoclOptions{}, runtime_options);
  report.Attempt();
  Result<JoclResult> oneshot =
      runtime.Infer(*st->ds, *st->sig, st->session->active_triples());
  if (st->session->active_triples().size() != st->ds->test_triples.size()) {
    report.Fail("final active set is not the whole stream");
  } else if (!oneshot.ok()) {
    report.Fail("one-shot Infer: " + oneshot.status().ToString());
  } else if (!SameResultBytes(st->session->result(), oneshot.ValueOrDie())) {
    report.Fail("final session result differs from the one-shot Infer");
  }
  const Quality quality = ScoreResult(*st->ds, st->session->result());
  const double host_calib_s = host.Finish();

  std::vector<double> visible, visible_untraced, visible_traced;
  for (const BatchSample& s : samples) {
    (s.traced ? visible_traced : visible_untraced).push_back(s.visible_s);
    visible.push_back(s.visible_s);
  }
  std::printf("stream: %zu batches in %.2fs, %zu triples; visible p50 "
              "%.4fs p90 %.4fs (samples beyond p90: %zu)\n",
              samples.size(), stream_seconds, streamed_triples,
              Percentile(visible, 0.5), Percentile(visible, 0.9),
              visible.size() - static_cast<size_t>(
                                   std::ceil(0.9 * visible.size())));
  std::printf("reads: %llu in %zu windows over %zu targets\n",
              static_cast<unsigned long long>(reads.attempted),
              reads.windows.size(), book.targets.size());

  if (!args.trace) {
    report.Add("setup_s", Median(setup.totals), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("np_avg_f1", quality.np_avg_f1, "ratio");
    report.Add("rp_avg_f1", quality.rp_avg_f1, "ratio");
    report.Add("entity_link_acc", quality.entity_link_acc, "ratio");
    report.Add("relation_link_acc", quality.relation_link_acc, "ratio");
    report.Add("visible_p50_s", Percentile(visible, 0.5), "s");
    report.Add("visible_p90_s", Percentile(visible, 0.9), "s");
    report.Add("ingest_triples_per_s",
               static_cast<double>(streamed_triples) / step_seconds,
               "triples/s");
    report.Add("read_qps", reads.MedianOf(&ReadWindow::qps), "1/s");
    report.Add("read_p50_us", reads.MedianOf(&ReadWindow::p50_us), "us");
    report.Add("read_p99_us", reads.MedianOf(&ReadWindow::p99_us), "us");
  } else {
    const std::vector<TraceRecorder::Span> spans = recorder.Spans();
    DumpTrace(recorder, args.trace_out);
    std::vector<double> frontend, signal_busy, graph, lbp, decode;
    std::vector<double> new_phrases, dirty, shards, variables, factors,
        updates;
    double hits = 0, lookups = 0, dirty_sum = 0, shard_sum = 0, retries = 0;
    for (const BatchSample& s : samples) {
      if (!s.traced) continue;
      const SessionStats& x = s.stats;
      frontend.push_back(x.problem_seconds + x.partition_seconds);
      signal_busy.push_back(x.cache_seconds);
      graph.push_back(x.graph_seconds);
      lbp.push_back(x.infer_seconds);
      decode.push_back(x.decode_seconds);
      new_phrases.push_back(x.cache_new_phrases);
      dirty.push_back(x.dirty_shards);
      shards.push_back(x.shards);
      variables.push_back(x.variables);
      factors.push_back(x.factors);
      updates.push_back(x.message_updates);
      hits += x.problem_cache_hits;
      lookups += x.problem_cache_hits + x.problem_cache_misses;
      dirty_sum += x.dirty_shards;
      shard_sum += x.shards;
      retries += s.retries;
    }
    ResponseCache cache = BuildResponseCache(*st->store);
    const ServeCounters counters = st->server->counters();
    const double served = counters.cache_hits + counters.cache_misses;
    report.Add("setup.generate_s", Median(setup.generate), "s");
    report.Add("setup.signals_s", Median(setup.signals), "s");
    report.Add("setup.prefill_s", Median(setup.prefill), "s");
    report.Add("frontend.busy_s", Median(frontend), "s");
    report.Add("frontend.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
               "ratio");
    report.Add("signal_cache.busy_s", Median(signal_busy), "s");
    report.Add("signal_cache.new_phrases", Median(new_phrases), "count");
    report.Add("session.add_s",
               MedianDurationSeconds(spans, "bench.add_triples"), "s");
    report.Add("session.dirty_shards", Median(dirty), "count");
    report.Add("session.shards", Median(shards), "count");
    report.Add("session.dirty_ratio",
               shard_sum > 0 ? dirty_sum / shard_sum : 0, "ratio");
    report.Add("graph.busy_s", Median(graph), "s");
    report.Add("graph.variables", Median(variables), "count");
    report.Add("graph.factors", Median(factors), "count");
    report.Add("lbp.busy_s", Median(lbp), "s");
    report.Add("lbp.message_updates", Median(updates), "count");
    report.Add("decode.busy_s", Median(decode), "s");
    report.Add("canon_store.build_s",
               MedianSelfSeconds(spans, "bench.build_canon_store"), "s");
    report.Add("canon_store.surfaces",
               st->store->np.surface_count() + st->store->rp.surface_count(),
               "count");
    report.Add("canon_store.clusters",
               st->store->np.cluster_count() + st->store->rp.cluster_count(),
               "count");
    report.Add("publish.busy_s", MedianSelfSeconds(spans, "bench.publish"),
               "s");
    report.Add("response_cache.arena_bytes", cache.arena_bytes(), "bytes");
    report.Add("response_cache.entries", cache.entry_count(), "count");
    report.Add("http.visible_get_s",
               MedianSelfSeconds(spans, "bench.visible_get"), "s");
    report.Add("http.visible_get_retries", retries, "count");
    report.Add("server.cache_hit_ratio",
               served > 0 ? counters.cache_hits / served : 0, "ratio");
    report.Add("server.non_200", NonOkResponses(counters), "count");
    report.Add("server.request_p50_us", ServerRequestP50Us(st->server->port()),
               "us");
    report.Add("trace.overhead_ratio",
               Median(visible_untraced) > 0
                   ? Median(visible_traced) / Median(visible_untraced)
                   : 0,
               "ratio");
    report.Add("host.calib_s", host_calib_s, "s");
  }
  st->server->Stop();
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}

// ---- serve-churn -----------------------------------------------------------------

/// Timings of one InferStore call.
struct BulkTimes {
  double infer_s = 0.0;
  double store_s = 0.0;  ///< BuildCanonStore alone
  double total_s = 0.0;  ///< Infer + BuildProblem + BuildCanonStore
};

struct ServeState {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<SignalBundle> sig;
  std::unique_ptr<CanonServer> server;
  std::shared_ptr<const CanonStore> stores[2];
  JoclResult result;   ///< generation 1 (all triples)
  RuntimeStats stats;  ///< of the generation-1 Infer
  BulkTimes bulk;  ///< of generation 1
  size_t bulk_triples = 0;
};

/// One-shot Infer + store over \p subset, stamped \p generation.
std::shared_ptr<const CanonStore> InferStore(const Workload& w,
                                             ServeState* st,
                                             const std::vector<size_t>& subset,
                                             uint64_t generation,
                                             JoclResult* result,
                                             RuntimeStats* stats,
                                             BulkTimes* times) {
  const Clock::time_point start = Clock::now();
  RuntimeOptions runtime_options;
  runtime_options.num_threads = w.budget.session_threads;
  JoclRuntime runtime(JoclOptions{}, runtime_options);
  Result<JoclResult> inferred =
      runtime.Infer(*st->ds, *st->sig, subset, {}, stats);
  if (!inferred.ok()) {
    std::fprintf(stderr, "Infer failed: %s\n",
                 inferred.status().ToString().c_str());
    std::exit(1);
  }
  *result = inferred.MoveValueOrDie();
  times->infer_s = SecondsSince(start);
  JoclProblem problem = BuildProblem(*st->ds, *st->sig, subset);
  const Clock::time_point store_start = Clock::now();
  auto store = std::make_shared<const CanonStore>(
      BuildCanonStore(problem, *result, st->ds->ckb, generation));
  times->store_s = SecondsSince(store_start);
  times->total_s = SecondsSince(start);
  return store;
}

SetupTimes ServeSetup(const Workload& w, const Args& args, ServeState* st) {
  SetupTimes t;
  Clock::time_point start = Clock::now();
  st->ds = std::make_unique<Dataset>(
      GenerateNYTimes2018(w.scale, kNyTimesWorldSeed).MoveValueOrDie());
  t.generate_s = SecondsSince(start);
  start = Clock::now();
  st->sig =
      std::make_unique<SignalBundle>(BuildSignals(*st->ds).MoveValueOrDie());
  t.signals_s = SecondsSince(start);

  std::vector<size_t> all(st->ds->okb.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<size_t> dropped = all;
  std::mt19937_64 rng(args.seed);
  Shuffle(&dropped, &rng);
  dropped.resize(static_cast<size_t>(w.serve_drop_share * all.size()));
  std::sort(dropped.begin(), dropped.end());
  std::vector<size_t> kept;
  for (size_t t_id : all) {
    if (!std::binary_search(dropped.begin(), dropped.end(), t_id)) {
      kept.push_back(t_id);
    }
  }

  start = Clock::now();
  st->stores[0] =
      InferStore(w, st, all, 1, &st->result, &st->stats, &st->bulk);
  st->bulk_triples = all.size();
  JoclResult second;
  RuntimeStats second_stats;
  BulkTimes second_times;
  st->stores[1] =
      InferStore(w, st, kept, 2, &second, &second_stats, &second_times);
  t.prefill_s = SecondsSince(start);

  start = Clock::now();
  st->server = std::make_unique<CanonServer>(MakeServeOptions(w.budget));
  Status status = st->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  st->server->Publish(st->stores[0]);
  HttpConnection conn =
      HttpConnection::Connect(st->server->port()).MoveValueOrDie();
  if (!AwaitGeneration(&conn, st->server->port(), "/stats", 1,
                       w.visible_timeout_s)
           .seen) {
    std::fprintf(stderr, "setup publish never became visible\n");
    std::exit(1);
  }
  t.serve_s = SecondsSince(start);
  return t;
}

int RunServe(const Workload& w, const Args& args) {
  PrintBudget(w.budget);
  Report report;
  HostWatch host;

  std::unique_ptr<ServeState> st;
  SetupSummary setup;
  std::vector<double> bulk_rates;
  double peak_rss_mb = 0.0;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    st.reset();  // tears the previous set-up down before the next one
    st = std::make_unique<ServeState>();
    SetupTimes t = ServeSetup(w, args, st.get());
    setup.Add(t);
    // See RunIngest. Here the mark follows how much freed memory the two
    // Infer runs leave in per-thread malloc arenas: 65, 74 or 84 MB.
    if (rep == 0) peak_rss_mb = PeakRssMb();
    bulk_rates.push_back(st->bulk_triples / st->bulk.total_s);
    std::printf("setup %d: %.3fs (generate %.3f, signals %.3f, infer x2 + "
                "stores %.3f, serve %.3f)\n",
                rep, t.total(), t.generate_s, t.signals_s, t.prefill_s,
                t.serve_s);
  }
  std::printf("world: %zu triples; store A %zu+%zu surfaces, store B "
              "%zu+%zu surfaces\n",
              st->ds->okb.size(), st->stores[0]->np.surface_count(),
              st->stores[0]->rp.surface_count(),
              st->stores[1]->np.surface_count(),
              st->stores[1]->rp.surface_count());

  ReadBook book;
  book.targets = SurfaceTargets({st->stores[0].get(), st->stores[1].get()});
  book.AddGeneration(*st->stores[0]);
  book.AddGeneration(*st->stores[1]);
  std::printf("read population: %zu targets\n", book.targets.size());

  // Two halves in trace mode: untraced, then traced.
  struct Half {
    ReadPhase reads;
    std::vector<double> visible;
    uint64_t retries = 0;
  };
  TraceRecorder recorder;
  const int halves = args.trace ? 2 : 1;
  std::vector<Half> results(halves);
  HttpConnection conn =
      HttpConnection::Connect(st->server->port()).MoveValueOrDie();
  size_t publishes = 0;
  for (int h = 0; h < halves; ++h) {
    std::unique_ptr<ScopedTraceSession> trace_session;
    if (h == 1) trace_session = std::make_unique<ScopedTraceSession>(&recorder);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + Seconds(args.seconds / halves);
    Half& half = results[h];
    auto publisher = [&]() {
      Clock::time_point tick = Clock::now();
      const Clock::duration period = Seconds(w.publish_interval_s);
      while (true) {
        tick += period;
        std::this_thread::sleep_until(tick);
        if (Clock::now() >= deadline) break;
        const size_t slot = (publishes + 1) % 2;  // generation 1 is live
        const int64_t generation =
            static_cast<int64_t>(st->stores[slot]->generation);
        report.Attempt();
        const Clock::time_point t0 = Clock::now();
        if (!(args.inject == "lost-generation" && publishes == 1)) {
          ScopedSpan span("bench.publish");
          st->server->Publish(st->stores[slot]);
        }
        Visible visible =
            AwaitGeneration(&conn, st->server->port(), book.targets.front(),
                            generation, w.visible_timeout_s);
        ++publishes;
        if (!visible.seen) {
          report.Fail("generation " + std::to_string(generation) +
                      " was never observed");
          continue;
        }
        half.visible.push_back(SecondsSince(t0));
        half.retries += visible.retries;
      }
    };
    RunClients(st->server->port(), book, args.seed + h,
               w.budget.client_connections, args.seconds / halves,
               kServeWindowSeconds, args.inject == "wrong-body" && h == 0,
               publisher, &half.reads, &report);
  }
  const double host_calib_s = host.Finish();
  const Quality quality = ScoreResult(*st->ds, st->result);

  const Half& main_half = results.front();
  std::printf("reads: %llu in %zu windows; publishes: %zu\n",
              static_cast<unsigned long long>(main_half.reads.attempted),
              main_half.reads.windows.size(), publishes);

  if (!args.trace) {
    const ReadPhase& reads = main_half.reads;
    report.Add("setup_s", Median(setup.totals), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("np_avg_f1", quality.np_avg_f1, "ratio");
    report.Add("rp_avg_f1", quality.rp_avg_f1, "ratio");
    report.Add("entity_link_acc", quality.entity_link_acc, "ratio");
    report.Add("relation_link_acc", quality.relation_link_acc, "ratio");
    report.Add("visible_p50_s", Percentile(main_half.visible, 0.5), "s");
    report.Add("visible_p90_s", Percentile(main_half.visible, 0.9), "s");
    report.Add("ingest_triples_per_s", Median(bulk_rates), "triples/s");
    report.Add("read_qps", reads.MedianOf(&ReadWindow::qps), "1/s");
    report.Add("read_p50_us", reads.MedianOf(&ReadWindow::p50_us), "us");
    report.Add("read_p99_us", reads.MedianOf(&ReadWindow::p99_us), "us");
  } else {
    const std::vector<TraceRecorder::Span> spans = recorder.Spans();
    DumpTrace(recorder, args.trace_out);
    const RuntimeStats& x = st->stats;
    ResponseCache cache = BuildResponseCache(*st->stores[0]);
    const ServeCounters counters = st->server->counters();
    const double served = counters.cache_hits + counters.cache_misses;
    const CanonStore& store = *st->stores[0];
    const double untraced_p50 =
        results[0].reads.MedianOf(&ReadWindow::p50_us);
    report.Add("setup.generate_s", Median(setup.generate), "s");
    report.Add("setup.signals_s", Median(setup.signals), "s");
    report.Add("setup.prefill_s", Median(setup.prefill), "s");
    report.Add("frontend.busy_s", x.problem_seconds + x.partition_seconds,
               "s");
    report.Add("frontend.cache_hit_ratio", 0.0, "ratio");
    report.Add("signal_cache.busy_s", x.cache_seconds, "s");
    report.Add("signal_cache.new_phrases", 0.0, "count");
    report.Add("session.add_s", st->bulk.infer_s, "s");
    report.Add("session.dirty_shards", x.shards, "count");
    report.Add("session.shards", x.shards, "count");
    report.Add("session.dirty_ratio", 1.0, "ratio");
    report.Add("graph.busy_s", x.graph_seconds, "s");
    report.Add("graph.variables", x.variables, "count");
    report.Add("graph.factors", x.factors, "count");
    report.Add("lbp.busy_s", x.infer_seconds, "s");
    report.Add("lbp.message_updates", x.message_updates, "count");
    report.Add("decode.busy_s", x.decode_seconds, "s");
    report.Add("canon_store.build_s", st->bulk.store_s, "s");
    report.Add("canon_store.surfaces",
               store.np.surface_count() + store.rp.surface_count(), "count");
    report.Add("canon_store.clusters",
               store.np.cluster_count() + store.rp.cluster_count(), "count");
    report.Add("publish.busy_s", MedianSelfSeconds(spans, "bench.publish"),
               "s");
    report.Add("response_cache.arena_bytes", cache.arena_bytes(), "bytes");
    report.Add("response_cache.entries", cache.entry_count(), "count");
    report.Add("http.visible_get_s",
               MedianSelfSeconds(spans, "bench.visible_get"), "s");
    report.Add("http.visible_get_retries", results[1].retries, "count");
    report.Add("server.cache_hit_ratio",
               served > 0 ? counters.cache_hits / served : 0, "ratio");
    report.Add("server.non_200", NonOkResponses(counters), "count");
    report.Add("server.request_p50_us", ServerRequestP50Us(st->server->port()),
               "us");
    report.Add("trace.overhead_ratio",
               untraced_p50 > 0
                   ? results[1].reads.MedianOf(&ReadWindow::p50_us) /
                         untraced_p50
                   : 0,
               "ratio");
    report.Add("host.calib_s", host_calib_s, "s");
  }
  st->server->Stop();
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench
}  // namespace jocl

int main(int argc, char** argv) {
  jocl::e2ebench::Args args;
  if (!jocl::e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jocl_e2ebench --workload "
                 "<ingest-longtail|ingest-head|serve-churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] "
                 "[--inject wrong-body|lost-generation] [--trace-out path]\n");
    return 2;
  }
  const jocl::e2ebench::Workload w = jocl::e2ebench::MakeWorkload(args);
  std::printf("workload %s seed %llu seconds %.1f trace %d%s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "",
              args.inject.empty() ? "" : (" inject " + args.inject).c_str());
  return w.serve ? jocl::e2ebench::RunServe(w, args)
                 : jocl::e2ebench::RunIngest(w, args);
}
