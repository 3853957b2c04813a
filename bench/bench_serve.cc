// Serving-layer bench: what the canonical-KB read path costs. Measures
// in-process CanonStore lookups (the floor), HTTP round trips through
// jocl_serve's CanonServer in both connection-per-request and
// keep-alive modes (QPS + p50/p99 latency), a keep-alive client sweep
// (1/4/16/64 connections), the pre-rendered cache against the
// allocating renderer, the same load under continuous store
// republication (the RCU swap stall), and snapshot save/load. Emits
// BENCH_serve.json (path: JOCL_BENCH_OUT, default ./BENCH_serve.json)
// for CI tracking.
//
// Acceptance (ISSUE 4): snapshot round trip byte-identical; the JSON
// must report p99 lookup latency and QPS.
// Acceptance (ISSUE 7): keep-alive QPS at 16 clients must beat the
// connection-per-request QPS at 16 clients — this process exits
// nonzero otherwise, which is the CI gate.
// Acceptance (ISSUE 9): keep-alive QPS with request-latency histograms
// live must be >= 0.95x a metrics-off server (ServeOptions::metrics =
// false) — `metrics_overhead_ratio` in the JSON, also a CI gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/runtime.h"
#include "serve/canon_store.h"
#include "serve/http_client.h"
#include "serve/json.h"
#include "serve/response_cache.h"
#include "serve/server.h"
#include "serve/snapshot_io.h"

namespace jocl {
namespace bench {
namespace {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

struct HttpPhase {
  double wall_seconds = 0.0;
  size_t requests = 0;
  size_t errors = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

HttpPhase FinishPhase(const Stopwatch& wall, size_t requests, size_t errors,
                      const std::vector<std::vector<double>>& latencies) {
  HttpPhase phase;
  phase.wall_seconds = wall.ElapsedSeconds();
  phase.requests = requests;
  phase.errors = errors;
  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  phase.qps = phase.wall_seconds > 0.0
                  ? static_cast<double>(all.size()) / phase.wall_seconds
                  : 0.0;
  phase.p50_ms = Percentile(all, 50.0);
  phase.p99_ms = Percentile(all, 99.0);
  return phase;
}

/// Connection-per-request mode: \p clients concurrent readers, each
/// request opening a fresh TCP connection (the pre-PR 7 client).
/// Latencies are per full round trip (connect + request + response).
HttpPhase RunHttpPhase(int port, const std::vector<std::string>& targets,
                       size_t clients, size_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (size_t i = 0; i < per_client; ++i) {
        const std::string& target = targets[(c + i) % targets.size()];
        Stopwatch request_watch;
        Result<HttpResponse> response = HttpGet(port, target);
        const double ms = request_watch.ElapsedMillis();
        if (!response.ok() || response.ValueOrDie().status != 200 ||
            !LooksLikeJson(response.ValueOrDie().body)) {
          errors.fetch_add(1);
        } else {
          latencies[c].push_back(ms);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return FinishPhase(wall, clients * per_client, errors.load(), latencies);
}

/// Keep-alive mode: each client holds ONE persistent connection for all
/// its requests (reconnecting only if the server drops it). Latencies
/// are per request on the warm connection.
HttpPhase RunKeepAlivePhase(int port, const std::vector<std::string>& targets,
                            size_t clients, size_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      HttpConnection conn;
      for (size_t i = 0; i < per_client; ++i) {
        if (!conn.connected()) {
          Result<HttpConnection> fresh = HttpConnection::Connect(port);
          if (!fresh.ok()) {
            errors.fetch_add(1);
            continue;
          }
          conn = fresh.MoveValueOrDie();
        }
        const std::string& target = targets[(c + i) % targets.size()];
        Stopwatch request_watch;
        Result<HttpResponse> response = conn.Get(target);
        const double ms = request_watch.ElapsedMillis();
        if (!response.ok() || response.ValueOrDie().status != 200 ||
            !LooksLikeJson(response.ValueOrDie().body)) {
          errors.fetch_add(1);
        } else {
          latencies[c].push_back(ms);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return FinishPhase(wall, clients * per_client, errors.load(), latencies);
}

void PrintPhase(const char* label, const HttpPhase& phase) {
  std::printf("%s: %zu requests, %zu errors, %.0f QPS, p50 %.3fms "
              "p99 %.3fms\n",
              label, phase.requests, phase.errors, phase.qps, phase.p50_ms,
              phase.p99_ms);
}

void EmitPhase(FILE* out, const char* name, size_t clients,
               const HttpPhase& phase, bool trailing_comma) {
  std::fprintf(out,
               "  \"%s\": {\"clients\": %zu, \"requests\": %zu, "
               "\"errors\": %zu, \"qps\": %.1f, \"p50_ms\": %.4f, "
               "\"p99_ms\": %.4f}%s\n",
               name, clients, phase.requests, phase.errors, phase.qps,
               phase.p50_ms, phase.p99_ms, trailing_comma ? "," : "");
}

int Run() {
  int failures = 0;
  BenchEnv env = BenchEnv::FromEnv();
  Banner("Canonical-KB serving layer (CanonStore + jocl_serve)", env);

  auto pack = DataPack::ReVerb(env);
  const Dataset& ds = pack->dataset();
  const std::vector<size_t>& eval = pack->eval_triples();
  std::printf("inferring over %zu triples...\n", eval.size());
  JoclResult result =
      JoclRuntime().Infer(ds, pack->signals(), eval).MoveValueOrDie();
  JoclProblem problem = BuildProblem(ds, pack->signals(), eval);

  Stopwatch build_watch;
  auto store = std::make_shared<const CanonStore>(
      BuildCanonStore(problem, result, ds.ckb, /*generation=*/1));
  const double build_seconds = build_watch.ElapsedSeconds();
  std::printf("store: %zu NP surfaces in %zu clusters, %zu RP surfaces in "
              "%zu clusters (built in %.3fs)\n",
              store->np.surface_count(), store->np.cluster_count(),
              store->rp.surface_count(), store->rp.cluster_count(),
              build_seconds);

  // ---- response arena -----------------------------------------------------
  // The fragment arena every Publish pre-renders for this store: linear
  // in surfaces + cluster members (docs/serving.md).
  const ResponseCache arena_probe = BuildResponseCache(*store);
  const size_t arena_bytes = arena_probe.arena_bytes();
  const size_t arena_entries = arena_probe.entry_count();
  std::printf("response arena: %zu bytes for %zu pre-rendered answers\n",
              arena_bytes, arena_entries);

  // ---- snapshot round trip ------------------------------------------------
  Stopwatch save_watch;
  const std::string bytes = SerializeSnapshot(*store);
  const double serialize_seconds = save_watch.ElapsedSeconds();
  double load_seconds = 0.0;
  bool round_trip_identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch load_watch;
    Result<CanonStore> loaded = DeserializeSnapshot(bytes);
    const double seconds = load_watch.ElapsedSeconds();
    if (rep == 0 || seconds < load_seconds) load_seconds = seconds;
    if (!loaded.ok() ||
        SerializeSnapshot(loaded.ValueOrDie()) != bytes) {
      round_trip_identical = false;
    }
  }
  std::printf("snapshot: %zu bytes, serialize %.4fs, load+validate %.4fs, "
              "round-trip byte-identical: %s\n",
              bytes.size(), serialize_seconds, load_seconds,
              round_trip_identical ? "yes" : "NO (bug!)");
  if (!round_trip_identical) ++failures;

  // ---- in-process lookups (the floor) -------------------------------------
  std::vector<std::string> surfaces;
  for (size_t s = 0; s < store->np.surface_count(); ++s) {
    surfaces.emplace_back(store->SurfaceText(CanonKind::kNp, s));
  }
  std::vector<double> lookup_ns;
  const size_t kLookups = 200000;
  lookup_ns.reserve(kLookups);
  size_t found = 0;
  for (size_t i = 0; i < kLookups; ++i) {
    const std::string& surface = surfaces[(i * 2654435761u) % surfaces.size()];
    const auto begin = std::chrono::steady_clock::now();
    const int64_t id = store->FindSurface(CanonKind::kNp, surface);
    if (id >= 0) {
      found += store->ClusterMembers(CanonKind::kNp,
                                     store->ClustersOf(CanonKind::kNp, id)[0])
                   .size();
    }
    const auto end = std::chrono::steady_clock::now();
    lookup_ns.push_back(
        std::chrono::duration<double, std::nano>(end - begin).count());
  }
  const double inproc_p50 = Percentile(lookup_ns, 50.0);
  const double inproc_p99 = Percentile(lookup_ns, 99.0);
  std::printf("in-process lookup (find + members): p50 %.0fns p99 %.0fns "
              "(%zu member refs touched)\n",
              inproc_p50, inproc_p99, found);

  // ---- HTTP: static store -------------------------------------------------
  // Event threads sized to the machine: extra epoll threads on a small
  // container only add context switches.
  const size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  ServeOptions serve_options;
  serve_options.num_workers = std::min<size_t>(4, hardware);
  CanonServer server(serve_options);
  Status status = server.Start();
  if (!status.ok()) {
    std::printf("ERROR: %s\n", status.ToString().c_str());
    return 1;
  }
  server.Publish(store);
  std::vector<std::string> targets;
  for (size_t i = 0; i < 16 && i < surfaces.size(); ++i) {
    targets.push_back("/lookup?surface=" + UrlEncode(surfaces[i]));
    targets.push_back("/link?surface=" + UrlEncode(surfaces[i]));
  }
  targets.push_back("/stats");
  const size_t kClients = 4;
  const size_t kPerClient = 400;
  // Connection-per-request at 4 clients: the PR 4 baseline, kept
  // byte-compatible in the JSON for cross-PR comparison.
  HttpPhase static_phase =
      RunHttpPhase(server.port(), targets, kClients, kPerClient);
  PrintPhase("http static (connection-per-request, 4 clients)",
             static_phase);
  if (static_phase.errors > 0) ++failures;

  // ---- keep-alive sweep (1 / 4 / 16 / 64 persistent connections) ----------
  const size_t kKeepAlivePerClient =
      static_cast<size_t>(800.0 * env.scale) + 100;
  const std::vector<size_t> sweep_clients = {1, 4, 16, 64};
  std::vector<HttpPhase> sweep;
  HttpPhase keepalive_16;
  for (size_t clients : sweep_clients) {
    HttpPhase phase = RunKeepAlivePhase(server.port(), targets, clients,
                                        kKeepAlivePerClient);
    char label[64];
    std::snprintf(label, sizeof(label), "http keep-alive (%zu clients)",
                  clients);
    PrintPhase(label, phase);
    if (phase.errors > 0) ++failures;
    if (clients == 16) keepalive_16 = phase;
    sweep.push_back(phase);
  }

  // ---- close vs keep-alive at 16 clients (the CI gate) --------------------
  HttpPhase close_16 =
      RunHttpPhase(server.port(), targets, 16, kPerClient / 2);
  PrintPhase("http connection-per-request (16 clients)", close_16);
  if (close_16.errors > 0) ++failures;
  const double keepalive_speedup =
      close_16.qps > 0.0 ? keepalive_16.qps / close_16.qps : 0.0;
  std::printf("keep-alive vs connection-per-request at 16 clients: %.2fx "
              "(%.0f vs %.0f QPS)\n",
              keepalive_speedup, keepalive_16.qps, close_16.qps);
  if (keepalive_16.qps <= close_16.qps) {
    std::printf("FAIL: keep-alive QPS (%.0f) did not beat "
                "connection-per-request QPS (%.0f) at 16 clients\n",
                keepalive_16.qps, close_16.qps);
    ++failures;
  }

  // ---- metrics overhead at 16 clients (the ISSUE 9 gate) ------------------
  // Same store, same workers, only ServeOptions::metrics differs: the
  // metrics-off server skips the two clock reads and the histogram add
  // per request (counters run either way). Best-of-3, phases alternated
  // so ambient noise (CI neighbors, frequency scaling) hits both sides.
  ServeOptions nometrics_options;
  nometrics_options.num_workers = std::min<size_t>(4, hardware);
  nometrics_options.metrics = false;
  CanonServer nometrics_server(nometrics_options);
  status = nometrics_server.Start();
  if (!status.ok()) {
    std::printf("ERROR: %s\n", status.ToString().c_str());
    return 1;
  }
  nometrics_server.Publish(store);
  double metrics_off_qps = 0.0;
  double metrics_on_qps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    HttpPhase off = RunKeepAlivePhase(nometrics_server.port(), targets, 16,
                                      kKeepAlivePerClient);
    HttpPhase on = RunKeepAlivePhase(server.port(), targets, 16,
                                     kKeepAlivePerClient);
    if (off.errors > 0 || on.errors > 0) ++failures;
    metrics_off_qps = std::max(metrics_off_qps, off.qps);
    metrics_on_qps = std::max(metrics_on_qps, on.qps);
  }
  nometrics_server.Stop();
  const double metrics_overhead_ratio =
      metrics_off_qps > 0.0 ? metrics_on_qps / metrics_off_qps : 0.0;
  std::printf("metrics overhead at 16 clients: %.3fx QPS with histograms "
              "live (%.0f vs %.0f QPS metrics-off, best of 3)\n",
              metrics_overhead_ratio, metrics_on_qps, metrics_off_qps);
  if (metrics_overhead_ratio < 0.95) {
    std::printf("FAIL: QPS with latency histograms (%.0f) fell below 0.95x "
                "the metrics-off baseline (%.0f)\n",
                metrics_on_qps, metrics_off_qps);
    ++failures;
  }

  // ---- cached vs rendered (prerender off) at 16 clients -------------------
  ServeOptions rendered_options;
  rendered_options.num_workers = std::min<size_t>(4, hardware);
  rendered_options.prerender = false;
  CanonServer rendered_server(rendered_options);
  status = rendered_server.Start();
  if (!status.ok()) {
    std::printf("ERROR: %s\n", status.ToString().c_str());
    return 1;
  }
  rendered_server.Publish(store);
  HttpPhase rendered_16 = RunKeepAlivePhase(rendered_server.port(), targets,
                                            16, kKeepAlivePerClient);
  // Sequential single client: with no concurrency to hide behind, the
  // per-request server CPU (parse -> binary-search -> writev vs full
  // JSON rendering) sits on the latency critical path.
  HttpPhase rendered_1 = RunKeepAlivePhase(rendered_server.port(), targets,
                                           1, kKeepAlivePerClient);
  rendered_server.Stop();
  PrintPhase("http keep-alive, prerender OFF (16 clients)", rendered_16);
  PrintPhase("http keep-alive, prerender OFF (1 client)", rendered_1);
  if (rendered_16.errors > 0) ++failures;
  if (rendered_1.errors > 0) ++failures;
  const double cache_speedup =
      rendered_16.qps > 0.0 ? keepalive_16.qps / rendered_16.qps : 0.0;
  const HttpPhase& cached_1 = sweep[0];  // the 1-client sweep entry
  const double cache_p50_gain =
      cached_1.p50_ms > 0.0 ? rendered_1.p50_ms / cached_1.p50_ms : 0.0;
  std::printf("pre-rendered cache vs allocating renderer: %.2fx QPS at 16 "
              "clients; sequential p50 %.3fms cached vs %.3fms rendered "
              "(%.2fx)\n",
              cache_speedup, cached_1.p50_ms, rendered_1.p50_ms,
              cache_p50_gain);

  // ---- HTTP: continuous republication (swap stall) ------------------------
  // A second store (half the triples) alternates with the full one every
  // few milliseconds while reader load runs: readers pin their bundle at
  // request start, so p99 under churn vs static measures the real swap
  // stall, and publish_max_ms bounds the writer side — which now
  // includes pre-rendering the response cache on every publish.
  std::vector<size_t> half(eval.begin(),
                           eval.begin() + static_cast<long>(eval.size() / 2));
  JoclResult half_result =
      JoclRuntime().Infer(ds, pack->signals(), half).MoveValueOrDie();
  JoclProblem half_problem = BuildProblem(ds, pack->signals(), half);
  auto half_store = std::make_shared<const CanonStore>(
      BuildCanonStore(half_problem, half_result, ds.ckb, /*generation=*/2));
  std::atomic<bool> publishing{true};
  std::vector<double> publish_ms;
  std::thread publisher([&] {
    bool full = false;
    while (publishing.load()) {
      Stopwatch publish_watch;
      server.Publish(full ? store : half_store);
      publish_ms.push_back(publish_watch.ElapsedMillis());
      full = !full;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  HttpPhase churn_phase =
      RunHttpPhase(server.port(), targets, kClients, kPerClient);
  HttpPhase keepalive_churn =
      RunKeepAlivePhase(server.port(), targets, 16, kKeepAlivePerClient);
  publishing.store(false);
  publisher.join();
  const double publish_p50 = Percentile(publish_ms, 50.0);
  const double publish_p99 = Percentile(publish_ms, 99.0);
  const double publish_max =
      publish_ms.empty()
          ? 0.0
          : *std::max_element(publish_ms.begin(), publish_ms.end());
  PrintPhase("http under churn (connection-per-request, 4 clients)",
             churn_phase);
  PrintPhase("http under churn (keep-alive, 16 clients)", keepalive_churn);
  std::printf("churn publisher: %zu publishes (cache pre-render included), "
              "p50 %.4fms p99 %.4fms max %.4fms\n",
              publish_ms.size(), publish_p50, publish_p99, publish_max);
  if (churn_phase.errors > 0) ++failures;
  if (keepalive_churn.errors > 0) ++failures;
  const ServeCounters counters = server.counters();
  std::printf("event-loop counters: accepted %llu, reused %llu, timed_out "
              "%llu, cache_hits %llu, cache_misses %llu, writev_bytes %llu\n",
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.connections_reused),
              static_cast<unsigned long long>(counters.connections_timed_out),
              static_cast<unsigned long long>(counters.cache_hits),
              static_cast<unsigned long long>(counters.cache_misses),
              static_cast<unsigned long long>(counters.writev_bytes));
  server.Stop();

  // ---- JSON artifact ------------------------------------------------------
  const char* out_path = std::getenv("JOCL_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_serve.json";
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.3f,\n  \"seed\": %llu,\n", env.scale,
               static_cast<unsigned long long>(env.seed));
  std::fprintf(out, "  \"triples\": %zu,\n", eval.size());
  std::fprintf(out,
               "  \"store\": {\"np_surfaces\": %zu, \"np_clusters\": %zu, "
               "\"rp_surfaces\": %zu, \"rp_clusters\": %zu, "
               "\"build_seconds\": %.4f},\n",
               store->np.surface_count(), store->np.cluster_count(),
               store->rp.surface_count(), store->rp.cluster_count(),
               build_seconds);
  std::fprintf(out,
               "  \"response_cache\": {\"arena_bytes\": %zu, \"entries\": "
               "%zu},\n",
               arena_bytes, arena_entries);
  std::fprintf(out,
               "  \"snapshot\": {\"bytes\": %zu, \"serialize_seconds\": "
               "%.5f, \"load_seconds\": %.5f, \"round_trip_identical\": "
               "%s},\n",
               bytes.size(), serialize_seconds, load_seconds,
               round_trip_identical ? "true" : "false");
  std::fprintf(out,
               "  \"inprocess_lookup\": {\"samples\": %zu, \"p50_ns\": %.0f, "
               "\"p99_ns\": %.0f},\n",
               lookup_ns.size(), inproc_p50, inproc_p99);
  EmitPhase(out, "http_static", kClients, static_phase, true);
  std::fprintf(out, "  \"keepalive_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(out,
                 "    {\"clients\": %zu, \"requests\": %zu, \"errors\": %zu, "
                 "\"qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 sweep_clients[i], sweep[i].requests, sweep[i].errors,
                 sweep[i].qps, sweep[i].p50_ms, sweep[i].p99_ms,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  EmitPhase(out, "close_16", 16, close_16, true);
  std::fprintf(out,
               "  \"keepalive_vs_close_16\": {\"close_qps\": %.1f, "
               "\"keepalive_qps\": %.1f, \"speedup\": %.3f},\n",
               close_16.qps, keepalive_16.qps, keepalive_speedup);
  std::fprintf(out,
               "  \"cached_vs_rendered_16\": {\"rendered_qps\": %.1f, "
               "\"cached_qps\": %.1f, \"speedup\": %.3f},\n",
               rendered_16.qps, keepalive_16.qps, cache_speedup);
  std::fprintf(out,
               "  \"cached_vs_rendered_1\": {\"rendered_p50_ms\": %.4f, "
               "\"cached_p50_ms\": %.4f, \"p50_speedup\": %.3f},\n",
               rendered_1.p50_ms, cached_1.p50_ms, cache_p50_gain);
  std::fprintf(out,
               "  \"http_under_churn\": {\"clients\": %zu, \"requests\": "
               "%zu, \"errors\": %zu, \"qps\": %.1f, \"p50_ms\": %.4f, "
               "\"p99_ms\": %.4f, \"publishes\": %zu, "
               "\"publish_p50_ms\": %.5f, \"publish_p99_ms\": %.5f, "
               "\"publish_max_ms\": %.5f},\n",
               kClients, churn_phase.requests, churn_phase.errors,
               churn_phase.qps, churn_phase.p50_ms, churn_phase.p99_ms,
               publish_ms.size(), publish_p50, publish_p99, publish_max);
  EmitPhase(out, "keepalive_under_churn", 16, keepalive_churn, true);
  std::fprintf(out,
               "  \"metrics_overhead\": {\"metrics_on_qps\": %.1f, "
               "\"metrics_off_qps\": %.1f, \"metrics_overhead_ratio\": "
               "%.4f},\n",
               metrics_on_qps, metrics_off_qps, metrics_overhead_ratio);
  std::fprintf(out,
               "  \"counters\": {\"connections_accepted\": %llu, "
               "\"connections_reused\": %llu, \"connections_timed_out\": "
               "%llu, \"cache_hits\": %llu, \"cache_misses\": %llu, "
               "\"writev_bytes\": %llu}\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.connections_reused),
               static_cast<unsigned long long>(counters.connections_timed_out),
               static_cast<unsigned long long>(counters.cache_hits),
               static_cast<unsigned long long>(counters.cache_misses),
               static_cast<unsigned long long>(counters.writev_bytes));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  if (failures > 0) {
    std::printf("%d correctness check(s) FAILED\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jocl

int main() { return jocl::bench::Run(); }
