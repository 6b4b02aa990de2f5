// Self-test of the benchmark's correctness checks: each check must pass on a
// correct output and fail on a deliberately corrupted one (a flipped
// embedding bit, a swapped top-k id, a refreshed row left stale, AUC pairs
// scored on shuffled rows, a perturbed product entry, misordered simulated
// times). Exits 0 when every check behaves, 1 otherwise.
//
// Usage: perfbench_selftest

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csdb.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "omega/engine.h"
#include "sparse/spmm.h"

namespace perfbench {
namespace {

using omega::linalg::DenseMatrix;

int g_failures = 0;

/// `err` is the check's verdict; `want_pass` what it must be.
void Expect(const std::string& err, bool want_pass, const char* what) {
  const bool passed = err.empty();
  const bool ok = passed == want_pass;
  std::printf("%-4s %s: check %s%s%s\n", ok ? "ok" : "FAIL", what,
              passed ? "passed" : "failed", passed ? "" : " -- ", err.c_str());
  if (!ok) ++g_failures;
}

void FlipBit(DenseMatrix* m, size_t row, size_t col, int bit) {
  uint32_t bits;
  std::memcpy(&bits, &m->At(row, col), sizeof(bits));
  bits ^= 1u << bit;
  std::memcpy(&m->At(row, col), &bits, sizeof(bits));
}

int Main() {
  omega::graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 8000;
  params.seed = 11;
  auto generated = omega::graph::GenerateRmat(params);
  if (!generated.ok()) return 1;
  const omega::graph::Graph& g = generated.value();

  // A real embedding from the engine to corrupt.
  auto ms = omega::memsim::MemorySystem::CreateDefault();
  omega::ThreadPool pool(1);
  omega::engine::EngineOptions options;
  options.num_threads = 1;
  options.prone.dim = 16;
  auto report = omega::engine::RunEmbedding(
      g, "selftest", options, omega::exec::Context(ms.get(), &pool, 1));
  if (!report.ok()) {
    std::printf("FAIL RunEmbedding: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const DenseMatrix& e = report.value().embedding;

  // Embedding bit identity and row normalization: one flipped bit.
  {
    DenseMatrix flipped = e;
    Expect(CheckBitIdentical(flipped, e, "copy"), true, "bit identity, intact");
    FlipBit(&flipped, 17, 3, 0);
    Expect(CheckBitIdentical(flipped, e, "copy"), false,
           "bit identity, one mantissa bit flipped");
    Expect(CheckRowsNormalized(e), true, "row norms, intact");
    DenseMatrix big = e;
    FlipBit(&big, 17, 3, 30);
    Expect(CheckRowsNormalized(big), false, "row norms, one exponent bit flipped");
  }

  // Full-width product against the edge-list computation: one entry off.
  {
    const omega::graph::CsdbMatrix csdb = omega::graph::CsdbMatrix::FromGraph(g);
    const DenseMatrix x = omega::linalg::GaussianMatrix(csdb.num_rows(), 8, 5);
    DenseMatrix y(csdb.num_rows(), 8);
    omega::sched::Workload all;
    all.ranges.push_back({0, csdb.num_rows()});
    omega::sparse::ComputeWorkloadCsdb(csdb, x, &y, all);
    std::vector<omega::graph::Edge> edges;
    for (omega::graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      for (uint32_t i = 0; i < g.degree(u); ++i) {
        if (u < g.neighbors(u)[i]) edges.push_back({u, g.neighbors(u)[i], g.weights(u)[i]});
      }
    }
    DenseMatrix bound;
    const DenseMatrix own = EdgeListSpmm(edges, csdb.perm(), x, &bound);
    Expect(CheckClose(y, own, bound, 1e-5), true, "SpMM product, intact");
    y.At(3, 2) += 1e-2f;
    Expect(CheckClose(y, own, bound, 1e-5), false, "SpMM product, one entry off");
  }

  // Link-prediction AUC: the same pairs scored on shuffled rows.
  {
    const ScoredPairs pairs = SamplePairs(g, 4000, 21);
    const DenseMatrix random = omega::linalg::GaussianMatrix(e.rows(), e.cols(), 22);
    const double random_auc = PairAuc(random, pairs);
    Expect(CheckAucMargin(PairAuc(e, pairs), random_auc, 0.10), true,
           "AUC margin, intact");
    DenseMatrix shuffled(e.rows(), e.cols());
    std::vector<uint32_t> perm(e.rows());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    omega::Rng rng(23);
    for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    for (size_t r = 0; r < e.rows(); ++r) {
      for (size_t c = 0; c < e.cols(); ++c) shuffled.At(r, c) = e.At(perm[r], c);
    }
    Expect(CheckAucMargin(PairAuc(shuffled, pairs), random_auc, 0.10), false,
           "AUC margin, rows shuffled");
  }

  // Top-k: one pair of ids swapped.
  {
    const std::vector<omega::ScoredId> want = BruteForceTopK(e, 5, 10);
    std::vector<omega::ScoredId> got = want;
    Expect(CheckTopK(got, want, 5), true, "top-k, intact");
    std::swap(got[2].id, got[3].id);
    Expect(CheckTopK(got, want, 5), false, "top-k, two ids swapped");
  }

  // Refresh: a refreshed row left stale, in the final matrix and in a lookup.
  {
    DenseMatrix refreshed = e;
    for (size_t c = 0; c < e.cols(); ++c) refreshed.At(9, c) = e.At(10, c);
    DenseMatrix served = refreshed;
    Expect(CheckBitIdentical(served, refreshed, "served"), true,
           "served matrix, every row refreshed");
    for (size_t c = 0; c < e.cols(); ++c) served.At(9, c) = e.At(9, c);
    Expect(CheckBitIdentical(served, refreshed, "served"), false,
           "served matrix, one refreshed row stale");
    const std::vector<RowVersion> versions = {{0.0, RowOf(e, 9)},
                                              {1.0, RowOf(refreshed, 9)}};
    Expect(CheckLookup(RowOf(e, 9), versions, 0.5, 1.5, 9), true,
           "lookup spanning the swap, old row");
    Expect(CheckLookup(RowOf(refreshed, 9), versions, 2.0, 2.5, 9), true,
           "lookup after the swap, new row");
    Expect(CheckLookup(RowOf(e, 9), versions, 2.0, 2.5, 9), false,
           "lookup after the swap, stale row");
  }

  // Simulated-time order of the OMeGa placements.
  Expect(CheckSimOrder(1.0, 2.0, 3.0, "G"), true, "sim order, ordered");
  Expect(CheckSimOrder(2.0, 1.0, 3.0, "G"), false, "sim order, DRAM slower");

  std::printf("%s: %d check(s) misbehaved\n", g_failures ? "FAIL" : "ok",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
