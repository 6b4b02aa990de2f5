// serve-refresh: a mid-size analogue trained through DynamicEmbedder and
// served by EmbeddingServer while a writer applies seeded mutation batches
// at a fixed cadence (DynamicEmbedder::Refresh, then
// EmbeddingServer::RefreshRows to swap the refreshed rows in).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csdb.h"
#include "graph/mutable_graph.h"
#include "omega/incremental.h"
#include "serving.h"
#include "sparse/csdb_ops.h"

namespace perfbench {

using omega::engine::DynamicEmbedder;
using omega::engine::SystemKind;

namespace {

constexpr const char* kGraph = "TW";
/// Mutations per batch, and seconds between batch starts.
constexpr size_t kBatchMutations = 32;
constexpr double kCadenceSeconds = 0.25;
/// Chebyshev order of the served model. Order 2 confines a refresh to the
/// 1-hop ball of the touched nodes; at higher orders the ball covers most of
/// the graph and every refresh becomes a full recompute.
constexpr int kChebyshevOrder = 2;
/// Keys whose lookups are checked: the hottest ranks plus a uniform sample.
constexpr uint32_t kCheckHotKeys = 256;
constexpr uint32_t kCheckRandomKeys = 256;

omega::engine::EngineOptions ServeModelOptions() {
  // The writer refreshes on a one-worker pool, and training uses the same
  // pool so the refresh reuses the plan cache it warmed.
  auto options = TrainingOptions(SystemKind::kOmega, 1);
  options.prone.chebyshev_order = kChebyshevOrder;
  return options;
}

bool SameCsdb(const graph::CsdbMatrix& a, const graph::CsdbMatrix& b) {
  return a.num_rows() == b.num_rows() && a.perm() == b.perm() &&
         a.deg_list() == b.deg_list() && a.deg_ind() == b.deg_ind() &&
         a.block_ptr() == b.block_ptr() && a.col_list() == b.col_list() &&
         a.nnz_list() == b.nnz_list();
}

/// CPU seconds the pool's threads have used so far, read on each of them.
double PoolCpuSeconds(omega::ThreadPool* pool) {
  std::vector<double> cpu(pool->size());
  pool->RunOnAll([&](size_t worker) { cpu[worker] = ThreadCpuSeconds(); });
  double total = 0.0;
  for (const double c : cpu) total += c;
  return total;
}

std::vector<graph::NodeId> Endpoints(const std::vector<graph::Mutation>& muts) {
  std::vector<graph::NodeId> nodes;
  for (const graph::Mutation& m : muts) {
    nodes.push_back(m.src);
    nodes.push_back(m.dst);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

void RunServeRefresh(const Options& opts, bool traced_pass, RunResult* result) {
  if (Tracer* t = ActiveTracer()) t->SetWorkload("serve-refresh");
  ScopedSpan workload_span("workload.serve-refresh");
  // ---- set-up: generate, train, start and warm the server. ---------------
  const Clock::time_point setup_t0 = Clock::now();
  auto train_ms = omega::memsim::MemorySystem::CreateDefault();
  auto serve_ms = omega::memsim::MemorySystem::CreateDefault();
  omega::ThreadPool writer_pool(1);
  const omega::exec::Context writer_ctx(train_ms.get(), &writer_pool, 1);
  // The registry's instance: the refresh cost depends on the graph's hubs,
  // so the seed varies the mutation and request streams, not the graph.
  const graph::Graph g = GenerateAnalogue(kGraph);
  const auto options = ServeModelOptions();
  DynamicEmbedder embedder(g, options, kGraph, 1);
  {
    ScopedSpan span("omega.train");
    const omega::Status trained = embedder.Train(writer_ctx);
    ++result->attempted;
    if (!trained.ok()) {
      ++result->failed;
      result->Fail("DynamicEmbedder::Train: " + trained.ToString());
      return;
    }
  }
  linalg::DenseMatrix served = embedder.embedding();
  const std::vector<uint32_t> rank_to_key = PopularityOrder(g);
  const ServingCpu serving_cpu;
  auto server = StartServer(served, rank_to_key, serve_ms.get());
  const uint32_t n = g.num_nodes();
  std::vector<bool> checked(n, false);
  std::vector<std::vector<RowVersion>> versions(n);
  {
    omega::Rng rng(SubSeed(opts.seed, "check-keys"));
    for (uint32_t r = 0; r < std::min(n, kCheckHotKeys); ++r) checked[rank_to_key[r]] = true;
    for (uint32_t i = 0; i < kCheckRandomKeys; ++i) {
      checked[rng.NextBounded(n)] = true;
    }
    for (uint32_t k = 0; k < n; ++k) {
      if (checked[k]) versions[k].push_back({0.0, RowOf(served, k)});
    }
  }
  graph::CsdbMatrix own_csdb;
  if (traced_pass) own_csdb = graph::CsdbMatrix::FromGraph(g);
  const double setup_s =
      traced_pass ? SecondsSince(setup_t0) : SecondsSinceStart();

  // ---- timed: the open-loop window with the writer beside it. -------------
  const size_t num_batches =
      static_cast<size_t>(std::floor(opts.seconds / kCadenceSeconds));
  std::vector<std::vector<graph::Mutation>> batches;
  std::vector<double> refresh_walls;
  std::vector<double> refresh_cpus;  // writer thread plus its refresh pool
  double refresh_sim = 0.0;
  uint64_t affected_rows = 0;
  uint64_t refresh_failures = 0;
  std::string refresh_error;
  ScopedSpan window_span("serve.window");
  const int window_id = window_span.id();
  const Clock::time_point window_t0 = Clock::now();
  std::thread writer([&] {
    serving_cpu.Release();  // the writer keeps off the serving CPU
    ScopedSpan writer_span("serve.writer", window_id);
    for (size_t b = 0; b < num_batches; ++b) {
      std::this_thread::sleep_until(
          window_t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>((b + 0.5) * kCadenceSeconds)));
      batches.push_back(graph::SyntheticMutations(
          embedder.graph(), kBatchMutations,
          SubSeed(opts.seed, "mutations." + std::to_string(b))));
      const std::vector<graph::Mutation>& muts = batches.back();
      const double pool_cpu0 = PoolCpuSeconds(&writer_pool);
      const double writer_cpu0 = ThreadCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      for (const graph::Mutation& m : muts) embedder.Log(0, m);
      ScopedSpan refresh_span("omega.refresh");
      auto report = embedder.Refresh(writer_ctx);
      refresh_span.Stop();
      if (!report.ok()) {
        ++refresh_failures;
        refresh_error = report.status().ToString();
        continue;
      }
      const std::vector<uint32_t> keys(report.value().refreshed_nodes.begin(),
                                       report.value().refreshed_nodes.end());
      {
        ScopedSpan rows_span("serve.refresh_rows");
        server->RefreshRows(keys, [&] {
          const double since = SecondsSinceStart();
          const linalg::DenseMatrix& fresh = embedder.embedding();
          for (const uint32_t k : keys) {
            for (size_t c = 0; c < served.cols(); ++c) served.At(k, c) = fresh.At(k, c);
            if (checked[k]) versions[k].push_back({since, RowOf(served, k)});
          }
        });
      }
      refresh_walls.push_back(SecondsSince(t0));
      const double writer_cpu = ThreadCpuSeconds() - writer_cpu0;
      refresh_cpus.push_back(writer_cpu + PoolCpuSeconds(&writer_pool) - pool_cpu0);
      refresh_sim += report.value().total_seconds;
      affected_rows += report.value().affected_rows;
      if (traced_pass) {
        ScopedSpan span("sparse.apply_delta");
        auto delta = omega::sparse::ApplyDelta(own_csdb, embedder.graph(),
                                               Endpoints(muts));
        if (delta.ok()) own_csdb = std::move(delta.value().matrix);
      }
    }
  });
  ServeLoad load;
  load.seconds = opts.seconds;
  load.seed = SubSeed(opts.seed, "serve-load");
  const WindowStats stats = RunOpenLoop(server.get(), rank_to_key, load,
                                        [&](uint32_t k) { return checked[k]; });
  writer.join();
  window_span.Stop();

  ReportWindow(stats, result);
  result->attempted += num_batches;
  result->failed += refresh_failures;
  result->Check(refresh_failures == 0, "refresh failed: " + refresh_error);
  result->Set("setup_s", setup_s, "s");
  result->Set("run_cpu_s", Median(refresh_cpus), "s");
  result->Set("sim_s", refresh_sim, "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  Counters().sim_s["serve-refresh"] = refresh_sim;
  Counters().affected_rows = affected_rows;
  std::fprintf(stderr,
               "serve-refresh: %u nodes, setup %.3f s, %zu batches of %zu "
               "mutations, median refresh %.3f ms wall, %.3f ms CPU, %llu rows "
               "refreshed, sim %.6f s\n",
               n, setup_s, num_batches, kBatchMutations,
               Median(refresh_walls) * 1e3, Median(refresh_cpus) * 1e3,
               static_cast<unsigned long long>(affected_rows), refresh_sim);

  // ---- checks. -----------------------------------------------------------
  for (const LookupRecord& rec : stats.lookups) {
    const std::string err = CheckLookup(rec.row, versions[rec.key], rec.submit,
                                        rec.complete, rec.key);
    if (!err.empty()) {
      result->Fail(err);
      break;
    }
  }
  CheckQuiescentServing(server.get(), served, rank_to_key, opts.seed, result);
  server->Stop();
  {
    // A second embedder fed the same batches, recomputing every row.
    auto ref_ms = omega::memsim::MemorySystem::CreateDefault();
    const omega::exec::Context ref_ctx(ref_ms.get(), &writer_pool, 1);
    DynamicEmbedder reference(g, options, kGraph, 1);
    omega::Status st = reference.Train(ref_ctx);
    for (size_t b = 0; st.ok() && b < batches.size(); ++b) {
      for (const graph::Mutation& m : batches[b]) reference.Log(0, m);
      st = reference.Refresh(ref_ctx, /*refresh_all_rows=*/true).status();
    }
    if (!st.ok()) {
      result->Fail("reference embedder: " + st.ToString());
    } else {
      result->Expect(CheckBitIdentical(served, reference.embedding(),
                                       "served matrix vs full recompute"));
    }
  }
  if (traced_pass) {
    result->Check(SameCsdb(own_csdb, graph::CsdbMatrix::FromGraph(embedder.graph())),
                  "ApplyDelta chain equals a CSDB rebuilt from the final graph");
  }
}

}  // namespace perfbench
