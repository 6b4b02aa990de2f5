#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"

namespace perfbench {

using omega::ScoredId;
using omega::linalg::DenseMatrix;

namespace {

std::string Describe(const char* fmt, double a, double b, double c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

bool Adjacent(const omega::graph::Graph& g, uint32_t u, uint32_t v) {
  const omega::graph::NodeId* begin = g.neighbors(u);
  return std::binary_search(begin, begin + g.degree(u), v);
}

}  // namespace

std::string CheckBitIdentical(const DenseMatrix& got, const DenseMatrix& want,
                              const std::string& what) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return what + ": shape differs";
  }
  if (std::memcmp(got.data(), want.data(), got.bytes()) != 0) {
    return what + ": embeddings differ bitwise";
  }
  return "";
}

std::string CheckRowsNormalized(const DenseMatrix& e) {
  for (size_t r = 0; r < e.rows(); ++r) {
    double norm2 = 0.0;
    for (size_t c = 0; c < e.cols(); ++c) {
      const double v = e.At(r, c);
      if (!std::isfinite(v)) {
        return Describe("row %.0f has a non-finite entry", r, 0, 0);
      }
      norm2 += v * v;
    }
    if (norm2 != 0.0 && std::abs(std::sqrt(norm2) - 1.0) > 1e-4) {
      return Describe("row %.0f has L2 norm %.9g", r, std::sqrt(norm2), 0);
    }
  }
  return "";
}

DenseMatrix EdgeListSpmm(const std::vector<omega::graph::Edge>& edges,
                         const std::vector<omega::graph::NodeId>& perm,
                         const DenseMatrix& x, DenseMatrix* abs_bound) {
  std::vector<uint32_t> row_of(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) row_of[perm[i]] = static_cast<uint32_t>(i);
  const size_t n = perm.size();
  const size_t d = x.cols();
  std::vector<double> acc(n * d, 0.0);
  std::vector<double> bound(n * d, 0.0);
  for (const omega::graph::Edge& e : edges) {
    const uint32_t a = row_of[e.src];
    const uint32_t b = row_of[e.dst];
    for (size_t t = 0; t < d; ++t) {
      const double xa = x.At(a, t);
      const double xb = x.At(b, t);
      acc[t * n + a] += e.weight * xb;
      acc[t * n + b] += e.weight * xa;
      bound[t * n + a] += std::abs(e.weight * xb);
      bound[t * n + b] += std::abs(e.weight * xa);
    }
  }
  DenseMatrix y(n, d);
  *abs_bound = DenseMatrix(n, d);
  for (size_t t = 0; t < d; ++t) {
    for (size_t r = 0; r < n; ++r) {
      y.At(r, t) = static_cast<float>(acc[t * n + r]);
      abs_bound->At(r, t) = static_cast<float>(bound[t * n + r]);
    }
  }
  return y;
}

std::string CheckClose(const DenseMatrix& got, const DenseMatrix& want,
                       const DenseMatrix& abs_bound, double rel) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return "SpMM product: shape differs";
  }
  for (size_t t = 0; t < got.cols(); ++t) {
    for (size_t r = 0; r < got.rows(); ++r) {
      const double diff = std::abs(static_cast<double>(got.At(r, t)) - want.At(r, t));
      if (!(diff <= rel * abs_bound.At(r, t) + 1e-6)) {
        return Describe("SpMM product differs at row %.0f col %.0f by %.9g", r,
                        t, diff);
      }
    }
  }
  return "";
}

ScoredPairs SamplePairs(const omega::graph::Graph& g, size_t count,
                        uint64_t seed) {
  omega::Rng rng(seed);
  ScoredPairs pairs;
  const uint64_t arcs = g.num_arcs();
  const auto& offsets = g.offsets();
  while (pairs.positive.size() < count) {
    const uint64_t arc = rng.NextBounded(arcs);
    const auto it = std::upper_bound(offsets.begin(), offsets.end(), arc);
    const uint32_t u = static_cast<uint32_t>(it - offsets.begin() - 1);
    pairs.positive.push_back({u, g.neighbor_array()[arc]});
  }
  while (pairs.negative.size() < count) {
    const uint32_t u = static_cast<uint32_t>(rng.NextBounded(g.num_nodes()));
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(g.num_nodes()));
    if (u != v && !Adjacent(g, u, v)) pairs.negative.push_back({u, v});
  }
  return pairs;
}

double PairAuc(const DenseMatrix& e, const ScoredPairs& pairs) {
  auto score = [&](const std::pair<uint32_t, uint32_t>& p) {
    double s = 0.0;
    for (size_t c = 0; c < e.cols(); ++c) {
      s += static_cast<double>(e.At(p.first, c)) * e.At(p.second, c);
    }
    return s;
  };
  // Rank-sum form of the Mann-Whitney statistic, tied ranks averaged.
  std::vector<std::pair<double, bool>> all;
  for (const auto& p : pairs.positive) all.push_back({score(p), true});
  for (const auto& p : pairs.negative) all.push_back({score(p), false});
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double positive_rank_sum = 0.0;
  for (size_t i = 0; i < all.size();) {
    size_t j = i;
    while (j < all.size() && all[j].first == all[i].first) ++j;
    const double rank = 0.5 * static_cast<double>(i + 1 + j);  // mean of i+1..j
    for (size_t k = i; k < j; ++k) {
      if (all[k].second) positive_rank_sum += rank;
    }
    i = j;
  }
  const double np = static_cast<double>(pairs.positive.size());
  const double nn = static_cast<double>(pairs.negative.size());
  return (positive_rank_sum - np * (np + 1.0) / 2.0) / (np * nn);
}

std::string CheckAucMargin(double auc, double random_auc, double margin) {
  if (auc >= random_auc + margin) return "";
  return Describe("link AUC %.4f is not %.2f above random vectors' %.4f", auc,
                  margin, random_auc);
}

std::vector<ScoredId> BruteForceTopK(const DenseMatrix& e, uint32_t key,
                                     uint32_t k) {
  std::vector<ScoredId> all;
  all.reserve(e.rows());
  for (uint32_t r = 0; r < e.rows(); ++r) {
    if (r == key) continue;
    float acc = 0.0f;
    for (size_t c = 0; c < e.cols(); ++c) acc = std::fmaf(e.At(r, c), e.At(key, c), acc);
    all.push_back({r, acc});
  }
  const size_t keep = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), omega::ScoredBetter);
  all.resize(keep);
  return all;
}

std::string CheckTopK(const std::vector<ScoredId>& got,
                      const std::vector<ScoredId>& want, uint32_t key) {
  if (got.size() != want.size()) {
    return Describe("top-k of key %.0f returned %.0f ids, want %.0f", key,
                    got.size(), want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return Describe("top-k of key %.0f differs at rank %.0f (id %.0f)", key,
                      i, got[i].id);
    }
  }
  return "";
}

std::vector<float> RowOf(const DenseMatrix& e, uint32_t key) {
  std::vector<float> row(e.cols());
  for (size_t c = 0; c < e.cols(); ++c) row[c] = e.At(key, c);
  return row;
}

std::string CheckLookup(const std::vector<float>& got,
                        const std::vector<RowVersion>& versions, double submit,
                        double complete, uint32_t key) {
  for (size_t i = 0; i < versions.size(); ++i) {
    const double live_from = i == 0 ? -1e300 : versions[i].since;
    const double live_until =
        i + 1 < versions.size() ? versions[i + 1].since : 1e300;
    if (live_from > complete || live_until < submit) continue;
    if (got.size() == versions[i].row.size() &&
        std::memcmp(got.data(), versions[i].row.data(),
                    got.size() * sizeof(float)) == 0) {
      return "";
    }
  }
  return Describe("lookup of key %.0f matches no row version served between "
                  "%.6f s and %.6f s",
                  key, submit, complete);
}

std::string CheckSimOrder(double omega_dram, double omega, double omega_pm,
                          const std::string& graph) {
  if (omega_dram <= omega && omega <= omega_pm) return "";
  return graph + Describe(": simulated seconds not ordered DRAM %.9g <= "
                          "OMeGa %.9g <= PM %.9g",
                          omega_dram, omega, omega_pm);
}

}  // namespace perfbench
