// Correctness checks of the benchmark. Each compares a program output with a
// computation made here, apart from the program, or with a property the
// method must have. They are pure functions so that the self-test
// (selftest.cc) can feed each one a deliberately corrupted output.
//
// Every check returns an empty string when it passes, otherwise a one-line
// description of the first violation.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/topk.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"

namespace perfbench {

/// Bitwise equality of shape and every float.
std::string CheckBitIdentical(const omega::linalg::DenseMatrix& got,
                              const omega::linalg::DenseMatrix& want,
                              const std::string& what);

/// Every row finite, with unit L2 norm (within 1e-4) or all zero.
std::string CheckRowsNormalized(const omega::linalg::DenseMatrix& e);

/// A * X computed here from the undirected edge list, in double: row i of
/// the result is CSDB row i, i.e. node perm[i]; X is indexed in the same
/// CSDB id space.
omega::linalg::DenseMatrix EdgeListSpmm(
    const std::vector<omega::graph::Edge>& edges,
    const std::vector<omega::graph::NodeId>& perm,
    const omega::linalg::DenseMatrix& x,
    omega::linalg::DenseMatrix* abs_bound);

/// |got - want| <= rel * abs_bound + 1e-6 elementwise.
std::string CheckClose(const omega::linalg::DenseMatrix& got,
                       const omega::linalg::DenseMatrix& want,
                       const omega::linalg::DenseMatrix& abs_bound, double rel);

/// Node pairs scored by the link-prediction check.
struct ScoredPairs {
  std::vector<std::pair<uint32_t, uint32_t>> positive;  ///< edges of g
  std::vector<std::pair<uint32_t, uint32_t>> negative;  ///< non-edges of g
};
ScoredPairs SamplePairs(const omega::graph::Graph& g, size_t count,
                        uint64_t seed);
/// Dot-product AUC (Mann-Whitney, ties count one half) of `e` (node order)
/// on the pairs.
double PairAuc(const omega::linalg::DenseMatrix& e, const ScoredPairs& pairs);
/// Passes when auc >= random_auc + margin.
std::string CheckAucMargin(double auc, double random_auc, double margin);

/// Top-k by brute force: scores are the fused multiply-add chain over
/// ascending dimensions (the scoring contract of the serving layer), ties go
/// to the smaller id, and `key` itself is excluded.
std::vector<omega::ScoredId> BruteForceTopK(
    const omega::linalg::DenseMatrix& e, uint32_t key, uint32_t k);
std::string CheckTopK(const std::vector<omega::ScoredId>& got,
                      const std::vector<omega::ScoredId>& want, uint32_t key);

std::vector<float> RowOf(const omega::linalg::DenseMatrix& e, uint32_t key);

/// One served version of a row, live from `since` (seconds on the
/// benchmark's clock) until the next version's `since`.
struct RowVersion {
  double since = 0.0;
  std::vector<float> row;
};
/// A lookup submitted at `submit` and completed at `complete` must return
/// bitwise one of the versions live at some moment of that interval.
std::string CheckLookup(const std::vector<float>& got,
                        const std::vector<RowVersion>& versions, double submit,
                        double complete, uint32_t key);

/// Simulated seconds must order OMeGa-DRAM <= OMeGa <= OMeGa-PM.
std::string CheckSimOrder(double omega_dram, double omega, double omega_pm,
                          const std::string& graph);

}  // namespace perfbench
