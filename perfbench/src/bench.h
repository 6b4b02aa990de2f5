// Shared pieces of the end-to-end benchmark: run settings, the
// in-memory span recorder, metric collection, seeded inputs and the thread
// budget.
//
// The benchmark calls the omega libraries only through their public headers.
// Every span it records brackets one call into a layer's public function, so
// the trace attributes host time to the layers from the outside.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "omega/engine.h"

namespace perfbench {

namespace graph = omega::graph;
namespace linalg = omega::linalg;

using Clock = std::chrono::steady_clock;

/// Host threads: the engine pool. The main thread only waits while the pool
/// works, so a training workload runs at most kPoolThreads + 1 threads and
/// at most kPoolThreads of them at once.
inline constexpr int kPoolThreads = 3;
/// Serving: worker threads of the EmbeddingServer. With the generator (the
/// main thread, which spins) and the writer's one-worker refresh pool, at
/// most four threads are runnable at once (the writer thread waits while its
/// pool refreshes).
inline constexpr int kServeWorkers = 2;

double SecondsSince(Clock::time_point t0);
/// Seconds since the process entered main(); set-up time is measured from it.
double SecondsSinceStart();
void MarkProcessStart();

/// CPU seconds (user + system) that every thread of this process has used
/// so far. Timed training units are measured on it: the host's other tenants
/// stretch wall time by taking cores away, but not the CPU time spent.
double ProcessCpuSeconds();
/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();

/// Peak resident set of this process so far, MB. The training workloads
/// read it after their last timed unit (the same count of units in every run
/// at a given --seconds): the peak settles after the second unit, and at a
/// given seed it then repeats to within a fraction of a percent.
/// serve-refresh reads it at the end of its window.
double PeakRssMb();

/// Derives an independent stream seed from the run seed and a tag.
uint64_t SubSeed(uint64_t seed, const std::string& tag);

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------- tracing --

/// One recorded span: a call into a layer's public function.
struct Span {
  std::string name;
  std::string workload;
  double start = 0.0;  ///< seconds since process start
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
};

/// In-memory span recorder. Spans nest per thread; a thread that starts
/// under another thread's span names its parent explicitly.
class Tracer {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  void SetWorkload(const std::string& workload);

  std::vector<Span> Spans() const;
  /// Sum of the durations of every span named `name`.
  double Total(const std::string& name) const;
  /// Writes the spans, each with its self time (duration minus the part of
  /// it that child spans cover), plus per-name totals.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::string workload_;
};

/// The process tracer, or nullptr when tracing is off.
Tracer* ActiveTracer();
void EnableTracing();

/// Id of the innermost open span on this thread (-1 if none).
int CurrentSpan();

/// Times a scope; records a span when tracing is on.
class ScopedSpan {
 public:
  /// Parent value meaning "the innermost open span on this thread".
  static constexpr int kInheritParent = -2;
  explicit ScopedSpan(const std::string& name, int parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Ends the span now and returns its duration in seconds.
  double Stop();
  int id() const { return id_; }

 private:
  Clock::time_point t0_;
  int id_ = -1;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------- results --

/// What one run reports: operation counts, check outcome and metrics.
class RunResult {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Passes when `ok`, fails with `what` otherwise.
  void Check(bool ok, const std::string& what);
  /// Fails with `context + error` unless `error` (a checks.h verdict) is
  /// empty.
  void Expect(const std::string& error, const std::string& context = "");

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failures_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------- inputs --

/// The registry's R-MAT analogue of `dataset`, generated from a seed derived
/// from the run seed (same shape and skew parameters, seeded instance).
graph::Graph GenerateAnalogue(const std::string& dataset, uint64_t seed);
/// The registry's own instance of the analogue.
graph::Graph GenerateAnalogue(const std::string& dataset);

/// Each undirected edge of `g` once (src < dst), with its merged weight.
std::vector<graph::Edge> UndirectedEdges(const graph::Graph& g);

/// Engine options shared by every training run of the benchmark.
omega::engine::EngineOptions TrainingOptions(omega::engine::SystemKind system,
                                             int threads);

/// Lower-case metric-name form of a system name ("OMeGa-DRAM" ->
/// "omega_dram").
std::string MetricSystemName(omega::engine::SystemKind system);

// ------------------------------------------------------------- workloads --

void RunEmbedFr(const Options& opts, bool traced_pass, RunResult* result);
void RunSystemsSweep(const Options& opts, bool traced_pass, RunResult* result);
void RunServeRefresh(const Options& opts, bool traced_pass, RunResult* result);

/// Layer counters that the traced pass reads from reports rather than from
/// spans; filled by the workload passes when `traced_pass` is set.
struct LayerCounters {
  double fr_run_s = 0.0;           ///< RunEmbedding wall on the FR analogue
  double fr_span_wall_s = 0.0;     ///< non-aux PhaseRecord::wall_seconds sum
  double sweep_round_s = 0.0;      ///< wall of one 28-run sweep round
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t dram_bytes = 0;
  uint64_t pm_bytes = 0;
  uint64_t ssd_bytes = 0;
  double remote_fraction = 0.0;
  uint64_t affected_rows = 0;
  uint64_t batches = 0;
  double mean_batch = 0.0;
  double cache_hit_rate = 0.0;
  double generator_late_us = 0.0;
  double serve_p99_us = 0.0;
  double spmm_gflops = 0.0;
  double gemm_gflops = 0.0;
  /// sim_s of each workload pass, to show tracing leaves it unchanged.
  std::map<std::string, double> sim_s;
};
LayerCounters& Counters();

}  // namespace perfbench
