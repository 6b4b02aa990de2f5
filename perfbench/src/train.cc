// The two training workloads: embed-fr (the largest analogue, embedded by
// OMeGa) and systems-sweep (four smaller analogues, each embedded by all
// seven single-machine systems). Both end by serving the embedding they
// produced through a read-only open-loop window.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "embed/prone.h"
#include "graph/csdb.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/randomized_svd.h"
#include "serving.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"

namespace perfbench {

using omega::engine::RunReport;
using omega::engine::SystemKind;

namespace {

/// Warm timed units per second of --seconds: FR RunEmbedding calls (about
/// 2.7 s of wall and 4.5 s of CPU each on the reference machine) and sweep
/// rounds (about 2.5 s of wall and 4.2 s of CPU). The count follows from
/// --seconds alone, never from how fast the host runs, so every run at the
/// same --seconds times the same work: 4 FR runs and 4 sweep rounds at
/// --seconds 20, each after one cold unit.
constexpr double kFrUnitsPerSecond = 0.2;
constexpr double kSweepRoundsPerSecond = 0.2;
/// Length of the read-only serving window, as a share of --seconds.
constexpr double kServeShare = 0.5;
/// Fraction of the FR analogue's edges held out of training.
constexpr double kHeldOutFraction = 0.01;
/// Columns of the full-width product: ProNE's dim + oversampling.
constexpr size_t kFullWidth = 40;
/// Node pairs of each sign scored by the link-prediction check.
constexpr size_t kAucPairs = 20000;
/// Required AUC lead of the embedding over random vectors on the same pairs.
constexpr double kAucMargin = 0.10;
/// The read-only serving windows, whose generator and workers share one CPU.
/// The sweep serves TW (8 192 rows, 1 MB) with serve-refresh's rate and mix.
/// The FR window sends 20% top-k instead of the program's 80%: a top-k over
/// FR scans 8 MB, four times a core's L2, so its time follows the host's
/// shared L3 and memory traffic. With 80% top-k the FR window's median was a
/// scan and moved between 0.88 and 1.26 ms from run to run at one seed; with
/// 20% the median is a lookup, and the scans reach the tail. At 500
/// requests/s the scans keep the serving CPU about a tenth busy.
constexpr double kFrServeQps = 500.0;
constexpr double kFrTopkFraction = 0.2;
constexpr double kSweepServeQps = 1000.0;


const SystemKind kSweepSystems[] = {
    SystemKind::kOmega,     SystemKind::kOmegaDram, SystemKind::kOmegaPm,
    SystemKind::kProneDram, SystemKind::kProneHm,   SystemKind::kGinex,
    SystemKind::kMariusGnn,
};
const char* const kSweepGraphs[] = {"PK", "LJ", "OR", "TW"};

/// Warm timed units of a training workload: at least one.
size_t WarmUnits(const Options& opts, double units_per_second) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(opts.seconds * units_per_second)));
}

ServeLoad TrainedServeLoad(const Options& opts, double rate_qps) {
  ServeLoad load;
  load.rate_qps = rate_qps;
  load.seconds = opts.seconds * kServeShare;
  load.seed = SubSeed(opts.seed, "serve-load");
  return load;
}

/// "a b c" with each time in seconds, for the progress lines.
std::string TimeList(const std::vector<double>& seconds) {
  std::string list;
  char buf[32];
  for (const double t : seconds) {
    std::snprintf(buf, sizeof(buf), list.empty() ? "%.3f" : " %.3f", t);
    list += buf;
  }
  return list;
}

/// Median of `units` without its first, cold entry.
double WarmMedian(const std::vector<double>& units) {
  return Median(std::vector<double>(units.begin() + 1, units.end()));
}

/// Host wall of the report's non-aux phases.
double SpanWallSeconds(const RunReport& report) {
  double wall = 0.0;
  for (const auto& p : report.phases) {
    if (!p.aux) wall += p.wall_seconds;
  }
  return wall;
}

void AddPlanCounters(const RunReport& report) {
  for (const auto& p : report.phases) {
    Counters().plan_hits += p.plan_hits;
    Counters().plan_misses += p.plan_misses;
  }
}

/// ComputeWorkloadCsdb over dynamic row blocks on the pool, with no
/// simulated charge: the host half of the engine's SpMM.
omega::embed::SpmmExecutor UnchargedExecutor(omega::ThreadPool* pool) {
  return [pool](const graph::CsdbMatrix& m, const linalg::DenseMatrix& in,
                linalg::DenseMatrix* out) -> omega::Result<double> {
    *out = linalg::DenseMatrix(m.num_rows(), in.cols());
    pool->ParallelForDynamic(m.num_rows(), 1024,
                             [&](size_t, size_t begin, size_t end) {
                               omega::sched::Workload w;
                               w.ranges.push_back({static_cast<uint32_t>(begin),
                                                   static_cast<uint32_t>(end)});
                               omega::sparse::ComputeWorkloadCsdb(m, in, out, w);
                             });
    return 0.0;
  };
}

omega::sched::Workload AllRows(const graph::CsdbMatrix& a) {
  omega::sched::Workload w;
  w.ranges.push_back({0, a.num_rows()});
  omega::sched::RefreshCounts(a, &w);
  return w;
}

/// Per-layer probes on the FR analogue, run only in the traced pass: each
/// public call is bracketed by its own span.
void ProbeLayers(const graph::Graph& g, const RunReport& trained,
                 const Options& opts, omega::ThreadPool* pool,
                 omega::memsim::MemorySystem* ms, RunResult* result) {
  {
    ScopedSpan span("graph.degree_order");
    const std::vector<graph::NodeId> order = g.DegreeDescendingOrder();
    result->Check(order.size() == g.num_nodes(), "degree order size");
  }
  graph::CsdbMatrix csdb;
  {
    ScopedSpan span("graph.csdb_build");
    csdb = graph::CsdbMatrix::FromGraph(g);
  }
  const omega::engine::EngineOptions options =
      TrainingOptions(SystemKind::kOmega, kPoolThreads);
  graph::CsdbMatrix target;
  {
    ScopedSpan span("embed.target_build");
    target = omega::embed::BuildTargetMatrix(csdb, options.prone.neg_lambda);
  }
  {
    ScopedSpan span("embed.propagation_build");
    const graph::CsdbMatrix propagation =
        omega::embed::BuildPropagationMatrix(csdb);
    result->Check(propagation.nnz() == csdb.nnz(), "propagation matrix nnz");
  }
  {
    omega::embed::ProneOptions prone = options.prone;
    prone.pool = pool;
    ScopedSpan span("embed.prone_host");
    auto emb = omega::embed::ProneEmbed(csdb, prone, UnchargedExecutor(pool));
    span.Stop();
    if (!emb.ok()) {
      result->Fail("uncharged ProneEmbed: " + emb.status().ToString());
    } else {
      result->Expect(CheckBitIdentical(emb.value().ToOriginalOrder(),
                                       trained.embedding,
                                       "uncharged ProneEmbed vs RunEmbedding on FR"));
    }
  }
  const linalg::DenseMatrix x =
      linalg::GaussianMatrix(csdb.num_rows(), kFullWidth, SubSeed(opts.seed, "x"));
  const omega::sched::Workload all = AllRows(csdb);
  {
    linalg::DenseMatrix y(csdb.num_rows(), kFullWidth);
    ScopedSpan span("sparse.spmm_compute");
    omega::sparse::ComputeWorkloadCsdb(csdb, x, &y, all);
    const double seconds = span.Stop();
    Counters().spmm_gflops = 2.0 * csdb.nnz() * kFullWidth / seconds / 1e9;
  }
  {
    omega::memsim::SimClock clock;
    omega::memsim::WorkerCtx wctx;
    wctx.clock = &clock;
    ScopedSpan span("sparse.spmm_charge");
    omega::sparse::ChargeWorkloadCsdb(csdb, kFullWidth, all, {}, ms, &wctx);
  }
  {
    omega::sched::AllocatorOptions alloc;
    alloc.num_threads = kPoolThreads;
    alloc.beta = options.beta;
    ScopedSpan span("sparse.plan_build");
    const omega::sparse::SpmmPlan plan = omega::sparse::SpmmPlan::Build(
        csdb, omega::sched::AllocatorKind::kEntropyAware, alloc,
        /*with_in_degrees=*/true);
    result->Check(plan.valid(), "SpMM plan built");
  }
  {
    linalg::DenseMatrix q;
    linalg::DenseMatrix r;
    ScopedSpan span("linalg.qr");
    result->Check(linalg::ReducedQr(x, &q, &r, pool).ok(), "ReducedQr");
  }
  {
    const linalg::DenseMatrix small =
        linalg::GaussianMatrix(kFullWidth, kFullWidth, SubSeed(opts.seed, "g"));
    linalg::DenseMatrix c;
    ScopedSpan span("linalg.gemm");
    result->Check(linalg::Gemm(x, small, &c, pool).ok(), "Gemm");
    const double seconds = span.Stop();
    Counters().gemm_gflops =
        2.0 * x.rows() * kFullWidth * kFullWidth / seconds / 1e9;
  }
  {
    omega::embed::SpmmExecutor spmm = UnchargedExecutor(pool);
    const linalg::MatMulFn apply = [&](const linalg::DenseMatrix& in,
                                       linalg::DenseMatrix* out) {
      return spmm(target, in, out).status();
    };
    linalg::RandomizedSvdOptions svd;
    svd.rank = options.prone.dim;
    svd.oversample = options.prone.oversample;
    svd.power_iterations = options.prone.power_iterations;
    svd.seed = options.prone.seed;
    svd.pool = pool;
    ScopedSpan span("linalg.rsvd");
    auto res = linalg::RandomizedSvd(target.num_rows(), target.num_cols(),
                                     apply, apply, svd);
    result->Check(res.ok(), "RandomizedSvd");
  }
}

}  // namespace

void RunEmbedFr(const Options& opts, bool traced_pass, RunResult* result) {
  if (Tracer* t = ActiveTracer()) t->SetWorkload("embed-fr");
  ScopedSpan workload_span("workload.embed-fr");
  // ---- set-up: generate, hold out, build the training graph. -------------
  auto ms = omega::memsim::MemorySystem::CreateDefault();
  omega::ThreadPool pool(kPoolThreads);
  std::vector<graph::Edge> train;
  std::vector<graph::Edge> held_out;
  graph::NodeId num_nodes = 0;
  {
    const graph::Graph full = GenerateAnalogue("FR", opts.seed);
    num_nodes = full.num_nodes();
    omega::Rng rng(SubSeed(opts.seed, "holdout"));
    for (const graph::Edge& e : UndirectedEdges(full)) {
      (rng.NextDouble() < kHeldOutFraction ? held_out : train).push_back(e);
    }
  }
  graph::Graph g = [&] {
    ScopedSpan span("graph.from_edges");
    auto built = graph::Graph::FromEdges(num_nodes, train, /*undirected=*/true);
    OMEGA_CHECK(built.ok()) << built.status().ToString();
    return std::move(built).value();
  }();
  const double setup_s = SecondsSinceStart();

  // ---- timed: one cold RunEmbedding, then WarmUnits warm ones. run_cpu_s
  // is the median CPU time of the warm ones; the traced pass makes the cold
  // one only.
  const omega::exec::Context ctx(ms.get(), &pool, kPoolThreads);
  const auto options = TrainingOptions(SystemKind::kOmega, kPoolThreads);
  const size_t units = traced_pass ? 1 : 1 + WarmUnits(opts, kFrUnitsPerSecond);
  std::vector<double> walls;  // every unit, the cold one first
  std::vector<double> cpus;
  RunReport first;
  for (size_t unit = 0; unit < units; ++unit) {
    const double cpu0 = ProcessCpuSeconds();
    ScopedSpan span("omega.run." + MetricSystemName(SystemKind::kOmega));
    auto report = omega::engine::RunEmbedding(g, "FR", options, ctx);
    const double wall = span.Stop();
    cpus.push_back(ProcessCpuSeconds() - cpu0);
    ++result->attempted;
    if (!report.ok()) {
      ++result->failed;
      result->Fail("RunEmbedding on FR: " + report.status().ToString());
      return;
    }
    if (unit == 0) {
      first = std::move(report).value();
      const omega::memsim::TrafficSnapshot traffic = ms->Traffic();
      Counters().dram_bytes = traffic.TierBytes(omega::memsim::Tier::kDram);
      Counters().pm_bytes = traffic.TierBytes(omega::memsim::Tier::kPm);
      Counters().ssd_bytes = traffic.TierBytes(omega::memsim::Tier::kSsd);
      Counters().remote_fraction = first.remote_fraction;
      Counters().fr_run_s = wall;
      Counters().fr_span_wall_s = SpanWallSeconds(first);
      AddPlanCounters(first);
    } else {
      result->Check(report.value().total_seconds == first.total_seconds,
                    "FR simulated seconds repeat across runs");
      result->Expect(CheckBitIdentical(report.value().embedding, first.embedding,
                                       "FR embedding across runs"));
    }
    walls.push_back(wall);
  }
  const double run_cpu_s = traced_pass ? cpus.front() : WarmMedian(cpus);
  const double peak_rss_mb = PeakRssMb();

  Counters().sim_s["embed-fr"] = first.total_seconds;
  if (!traced_pass) {
    ServeLoad load = TrainedServeLoad(opts, kFrServeQps);
    load.topk_fraction = kFrTopkFraction;
    ServeTrainedEmbedding(first.embedding, g, load, result);
  }
  result->Set("setup_s", setup_s, "s");
  result->Set("run_cpu_s", run_cpu_s, "s");
  result->Set("sim_s", first.total_seconds, "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  std::fprintf(stderr,
               "embed-fr: %u nodes, %llu arcs (%zu edges held out), setup %.3f "
               "s, %zu runs (wall %s s; CPU %s s), run_cpu_s %.3f s, sim %.6f "
               "s\n",
               g.num_nodes(), static_cast<unsigned long long>(g.num_arcs()),
               held_out.size(), setup_s, walls.size(), TimeList(walls).c_str(),
               TimeList(cpus).c_str(), run_cpu_s, first.total_seconds);

  // ---- checks, made apart from the program. ------------------------------
  result->Expect(CheckRowsNormalized(first.embedding), "FR embedding: ");
  {
    const graph::CsdbMatrix csdb = graph::CsdbMatrix::FromGraph(g);
    const linalg::DenseMatrix x = linalg::GaussianMatrix(
        csdb.num_rows(), kFullWidth, SubSeed(opts.seed, "x"));
    linalg::DenseMatrix y(csdb.num_rows(), kFullWidth);
    omega::sparse::ComputeWorkloadCsdb(csdb, x, &y, AllRows(csdb));
    linalg::DenseMatrix bound;
    const linalg::DenseMatrix own = EdgeListSpmm(train, csdb.perm(), x, &bound);
    result->Expect(CheckClose(y, own, bound, 1e-5), "FR: ");
  }
  {
    const ScoredPairs pairs =
        SamplePairs(g, kAucPairs, SubSeed(opts.seed, "auc-pairs"));
    const double auc = PairAuc(first.embedding, pairs);
    const linalg::DenseMatrix random = linalg::GaussianMatrix(
        first.embedding.rows(), first.embedding.cols(), SubSeed(opts.seed, "rnd"));
    const double random_auc = PairAuc(random, pairs);
    result->Expect(CheckAucMargin(auc, random_auc, kAucMargin), "FR: ");
    // Held-out edges against the same non-edges: reported, not checked.
    ScoredPairs held = pairs;
    held.positive.clear();
    for (size_t i = 0; i < held_out.size() && i < kAucPairs; ++i) {
      held.positive.push_back({held_out[i].src, held_out[i].dst});
    }
    std::fprintf(stderr,
                 "  link AUC: own edges %.4f (random vectors %.4f), held-out "
                 "edges %.4f (random vectors %.4f)\n",
                 auc, random_auc, PairAuc(first.embedding, held),
                 PairAuc(random, held));
  }
  if (traced_pass) {
    ProbeLayers(g, first, opts, &pool, ms.get(), result);
  }
}

void RunSystemsSweep(const Options& opts, bool traced_pass, RunResult* result) {
  if (Tracer* t = ActiveTracer()) t->SetWorkload("systems-sweep");
  ScopedSpan workload_span("workload.systems-sweep");
  auto ms = omega::memsim::MemorySystem::CreateDefault();
  omega::ThreadPool pool(kPoolThreads);
  const Clock::time_point setup_t0 = Clock::now();
  std::vector<graph::Graph> graphs;
  for (const char* name : kSweepGraphs) {
    graphs.push_back(GenerateAnalogue(name, opts.seed));
  }
  // In the traced pass the sweep is not the first workload of the process.
  const double setup_s = traced_pass ? SecondsSince(setup_t0) : SecondsSinceStart();

  const omega::exec::Context ctx(ms.get(), &pool, kPoolThreads);
  constexpr size_t kNumSystems = std::size(kSweepSystems);
  std::vector<RunReport> first;  // graph-major, first round
  // One cold round, then WarmUnits warm ones; the traced pass makes the cold
  // one only.
  const size_t rounds = traced_pass ? 1 : 1 + WarmUnits(opts, kSweepRoundsPerSecond);
  std::vector<double> round_walls;  // every round, the cold one first
  std::vector<double> round_cpus;
  for (size_t round = 0; round < rounds; ++round) {
    const Clock::time_point round_t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    for (size_t gi = 0; gi < graphs.size(); ++gi) {
      for (size_t si = 0; si < kNumSystems; ++si) {
        const SystemKind system = kSweepSystems[si];
        ScopedSpan span("omega.run." + MetricSystemName(system));
        auto report = omega::engine::RunEmbedding(
            graphs[gi], kSweepGraphs[gi], TrainingOptions(system, kPoolThreads),
            ctx);
        span.Stop();
        ++result->attempted;
        const std::string cell = std::string(omega::engine::SystemName(system)) +
                                 " on " + kSweepGraphs[gi];
        if (!report.ok()) {
          ++result->failed;
          result->Fail(cell + ": " + report.status().ToString());
          return;
        }
        if (round == 0) {
          AddPlanCounters(report.value());
          first.push_back(std::move(report).value());
        } else {
          result->Check(report.value().total_seconds ==
                            first[gi * kNumSystems + si].total_seconds,
                        cell + ": simulated seconds repeat across rounds");
        }
      }
    }
    round_walls.push_back(SecondsSince(round_t0));
    round_cpus.push_back(ProcessCpuSeconds() - cpu0);
  }
  const double run_cpu_s =
      traced_pass ? round_cpus.front() : WarmMedian(round_cpus);
  const double peak_rss_mb = PeakRssMb();

  double sim = 0.0;
  for (const RunReport& r : first) sim += r.total_seconds;
  Counters().sim_s["systems-sweep"] = sim;
  Counters().sweep_round_s = round_walls.front();
  // Serve the OMeGa embedding of the largest graph of the sweep.
  const size_t tw = graphs.size() - 1;
  if (!traced_pass) {
    ServeTrainedEmbedding(first[tw * kNumSystems].embedding, graphs[tw],
                          TrainedServeLoad(opts, kSweepServeQps), result);
  }
  result->Set("setup_s", setup_s, "s");
  result->Set("run_cpu_s", run_cpu_s, "s");
  result->Set("sim_s", sim, "s");
  result->Set("peak_rss_mb", peak_rss_mb, "MB");
  std::fprintf(stderr,
               "systems-sweep: setup %.3f s, %zu rounds of %zu runs (wall %s "
               "s; CPU %s s), run_cpu_s %.3f s, sim %.6f s\n",
               setup_s, round_walls.size(), first.size(),
               TimeList(round_walls).c_str(), TimeList(round_cpus).c_str(),
               run_cpu_s, sim);

  // ---- checks. -----------------------------------------------------------
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const RunReport* row = &first[gi * kNumSystems];
    for (size_t si = 1; si < kNumSystems; ++si) {
      result->Expect(CheckBitIdentical(
          row[si].embedding, row[0].embedding,
          std::string(kSweepGraphs[gi]) + " " + row[si].system + " vs OMeGa"));
    }
    // kSweepSystems order: OMeGa, OMeGa-DRAM, OMeGa-PM first.
    result->Expect(CheckSimOrder(row[1].total_seconds, row[0].total_seconds,
                                 row[2].total_seconds, kSweepGraphs[gi]));
  }
  {
    result->Expect(CheckRowsNormalized(first[tw * kNumSystems].embedding),
                   "TW embedding: ");
  }
}

}  // namespace perfbench
