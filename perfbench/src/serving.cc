#include "serving.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>

#include "common/rng.h"
#include "serve/zipf.h"

namespace perfbench {

namespace serve = omega::serve;

ServingCpu::ServingCpu() {
  CPU_ZERO(&previous_);
  sched_getaffinity(0, sizeof(previous_), &previous_);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  sched_setaffinity(0, sizeof(one), &one);
}

ServingCpu::~ServingCpu() { Release(); }

void ServingCpu::Release() const {
  sched_setaffinity(0, sizeof(previous_), &previous_);
}

std::vector<uint32_t> PopularityOrder(const graph::Graph& g) {
  std::vector<uint32_t> order(g.num_nodes());
  for (uint32_t v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return g.degree(a) > g.degree(b);
  });
  return order;
}

serve::ServerOptions ServingOptions(const linalg::DenseMatrix& served) {
  serve::ServerOptions options;
  options.worker_threads = kServeWorkers;
  options.queue_capacity = 1024;
  options.max_batch = 32;
  options.batch_deadline_us = 200.0;
  options.cache.capacity_bytes = std::max<size_t>(served.bytes() / 8, 4096);
  options.cache.hot_fraction = 0.5;
  return options;
}

std::unique_ptr<serve::EmbeddingServer> StartServer(
    const linalg::DenseMatrix& served, const std::vector<uint32_t>& rank_to_key,
    omega::memsim::MemorySystem* ms) {
  const omega::exec::Context ctx(ms, nullptr, kServeWorkers);
  auto server =
      std::make_unique<serve::EmbeddingServer>(served, ServingOptions(served), ctx);
  std::vector<omega::prefetch::ScoredKey> popularity;
  popularity.reserve(rank_to_key.size());
  for (size_t r = 0; r < rank_to_key.size(); ++r) {
    popularity.push_back({rank_to_key[r], rank_to_key.size() - r});
  }
  server->WarmHotSet(std::move(popularity));
  const omega::Status started = server->Start();
  OMEGA_CHECK(started.ok()) << started.ToString();
  return server;
}

WindowStats RunOpenLoop(serve::EmbeddingServer* server,
                        const std::vector<uint32_t>& rank_to_key,
                        const ServeLoad& load,
                        const std::function<bool(uint32_t)>& keep_lookup) {
  WindowStats stats;
  stats.requests = static_cast<uint64_t>(load.rate_qps * load.seconds);
  // The whole request stream is drawn up front from the seed.
  std::vector<serve::Query> queries(stats.requests);
  {
    serve::ZipfGenerator zipf(rank_to_key.size(), load.zipf_skew,
                              SubSeed(load.seed, "zipf"));
    omega::Rng kind(SubSeed(load.seed, "kind"));
    for (serve::Query& q : queries) {
      q.key = rank_to_key[zipf.Next()];
      q.kind = kind.NextDouble() < load.topk_fraction ? serve::QueryKind::kTopK
                                                      : serve::QueryKind::kLookup;
      q.k = load.k;
    }
  }
  struct Pending {
    size_t index;
    double submit;
    std::future<serve::QueryResult> future;
  };
  std::vector<Pending> pending;
  stats.latency_us.assign(stats.requests, -1.0);
  stats.late_us.reserve(stats.requests);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / load.rate_qps));
  };
  auto complete = [&](Pending& p) {
    serve::QueryResult r = p.future.get();
    const Clock::time_point now = Clock::now();
    stats.latency_us[p.index] =
        std::chrono::duration<double, std::micro>(now - due(p.index)).count();
    if (r.kind == serve::QueryKind::kLookup && keep_lookup(r.key)) {
      stats.lookups.push_back(
          {r.key, p.submit, SecondsSinceStart(), std::move(r.embedding)});
    }
  };

  stats.before = server->GetStats();
  size_t next = 0;
  while (next < queries.size() || !pending.empty()) {
    const Clock::time_point now = Clock::now();
    if (next < queries.size() && now >= due(next)) {
      const double submit = SecondsSinceStart();
      stats.late_us.push_back(
          std::chrono::duration<double, std::micro>(now - due(next)).count());
      auto submitted = server->Submit(queries[next]);
      if (submitted.ok()) {
        pending.push_back({next, submit, std::move(submitted).value()});
      } else {
        ++stats.rejected;
      }
      ++next;
      continue;
    }
    // Let a worker that is ready run now, then collect every request that
    // is done, whatever its place in the queue.
    sched_yield();
    size_t kept = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(pending[i]);
      } else {
        if (kept != i) pending[kept] = std::move(pending[i]);
        ++kept;
      }
    }
    pending.resize(kept);
  }
  stats.after = server->GetStats();
  return stats;
}

void CheckQuiescentServing(serve::EmbeddingServer* server,
                           const linalg::DenseMatrix& served,
                           const std::vector<uint32_t>& rank_to_key,
                           uint64_t seed, RunResult* result) {
  omega::Rng rng(SubSeed(seed, "quiescent-checks"));
  const uint32_t n = static_cast<uint32_t>(served.rows());
  for (int i = 0; i < 64; ++i) {
    // Half the sample among the hottest keys, half uniform.
    const uint32_t key = i % 2 == 0
                             ? rank_to_key[rng.NextBounded(std::min<uint32_t>(n, 256))]
                             : static_cast<uint32_t>(rng.NextBounded(n));
    serve::Query q;
    q.key = key;
    q.kind = i % 4 < 2 ? serve::QueryKind::kTopK : serve::QueryKind::kLookup;
    q.k = 10;
    auto submitted = server->Submit(q);
    ++result->attempted;
    if (!submitted.ok()) {
      ++result->failed;
      result->Fail("check query refused: " + submitted.status().ToString());
      continue;
    }
    const serve::QueryResult r = submitted.value().get();
    if (q.kind == serve::QueryKind::kTopK) {
      result->Expect(CheckTopK(r.neighbors, BruteForceTopK(served, key, q.k), key));
    } else {
      result->Expect(CheckLookup(r.embedding, {RowVersion{0.0, RowOf(served, key)}},
                                 0.0, 0.0, key));
    }
  }
}

void ReportWindow(const WindowStats& stats, RunResult* result) {
  result->attempted += stats.requests;
  result->failed += stats.rejected;
  result->Check(stats.rejected == 0,
                std::to_string(stats.rejected) +
                    " requests refused at admission at the offered rate");
  std::vector<double> completed_us;
  for (const double us : stats.latency_us) {
    if (us >= 0.0) completed_us.push_back(us);
  }
  const double p99 = Quantile(completed_us, 0.99);
  result->Set("serve_p50_us", Quantile(completed_us, 0.50), "us");
  const uint64_t batches = stats.after.batches - stats.before.batches;
  const uint64_t completed = stats.after.completed - stats.before.completed;
  const omega::serve::HotCache::Stats cache =
      stats.after.cache - stats.before.cache;
  std::fprintf(stderr,
               "  serving: %zu completed, p50 %.1f us, p99 %.1f us, late p99 "
               "%.1f us, %llu batches (mean %.2f), cache hit rate %.3f\n",
               completed_us.size(), Quantile(completed_us, 0.5), p99,
               Quantile(stats.late_us, 0.99),
               static_cast<unsigned long long>(batches),
               batches ? static_cast<double>(completed) / batches : 0.0,
               cache.HitRate());
  LayerCounters& counters = Counters();
  counters.batches = batches;
  counters.mean_batch = batches ? static_cast<double>(completed) / batches : 0.0;
  counters.cache_hit_rate = cache.HitRate();
  counters.generator_late_us = Quantile(stats.late_us, 0.99);
  counters.serve_p99_us = p99;
}

void ServeTrainedEmbedding(const linalg::DenseMatrix& served,
                           const graph::Graph& g, const ServeLoad& load,
                           RunResult* result) {
  auto ms = omega::memsim::MemorySystem::CreateDefault();
  const std::vector<uint32_t> rank_to_key = PopularityOrder(g);
  const ServingCpu cpu;
  auto server = StartServer(served, rank_to_key, ms.get());
  const WindowStats stats =
      RunOpenLoop(server.get(), rank_to_key, load, [](uint32_t) { return true; });
  ReportWindow(stats, result);
  for (const LookupRecord& rec : stats.lookups) {
    const std::string err =
        CheckLookup(rec.row, {RowVersion{0.0, RowOf(served, rec.key)}},
                    rec.submit, rec.complete, rec.key);
    if (!err.empty()) {
      result->Fail(err);
      break;
    }
  }
  CheckQuiescentServing(server.get(), served, rank_to_key, load.seed, result);
  server->Stop();
}

}  // namespace perfbench
