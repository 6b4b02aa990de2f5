// perfbench — end-to-end benchmark of the omega reproduction.
//
// Usage:
//   perfbench --workload <embed-fr|systems-sweep|serve-refresh> --seed <n>
//             --seconds <s> --trace <0|1>
//
// With --trace 0 the named workload runs untraced and the last line of
// standard output is its result: operations attempted and failed, whether
// every correctness check passed, and the end-to-end metrics. With --trace 1
// one traced pass visits all three workloads (one training round each, and
// the full serving window), records a span around every call into a layer's
// public function, writes the spans to perfbench_out/, and reports the
// per-layer metrics instead. Progress and details go to standard error.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

constexpr const char* kOutDir = "perfbench_out";

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <embed-fr|systems-sweep|"
               "serve-refresh> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

void SetLayerMetrics(const Tracer& tracer, RunResult* result) {
  const LayerCounters& c = Counters();
  for (const char* name :
       {"graph.generate", "graph.from_edges", "graph.degree_order",
        "graph.csdb_build", "embed.target_build", "embed.propagation_build",
        "embed.prone_host", "sparse.spmm_compute", "sparse.spmm_charge",
        "sparse.plan_build", "sparse.apply_delta", "linalg.qr", "linalg.gemm",
        "linalg.rsvd", "omega.refresh", "serve.refresh_rows"}) {
    result->Set(std::string(name) + "_s", tracer.Total(name), "s");
  }
  for (const omega::engine::SystemKind system :
       {omega::engine::SystemKind::kOmega, omega::engine::SystemKind::kOmegaDram,
        omega::engine::SystemKind::kOmegaPm,
        omega::engine::SystemKind::kProneDram,
        omega::engine::SystemKind::kProneHm, omega::engine::SystemKind::kGinex,
        omega::engine::SystemKind::kMariusGnn}) {
    // Sweep runs only: the FR run of the traced pass is omega.fr_run_s.
    const std::string metric = MetricSystemName(system);
    double sweep_wall = tracer.Total("omega.run." + metric);
    if (system == omega::engine::SystemKind::kOmega) sweep_wall -= c.fr_run_s;
    result->Set("omega.run_s." + metric, sweep_wall, "s");
  }
  result->Set("omega.fr_run_s", c.fr_run_s, "s");
  result->Set("omega.sweep_round_s", c.sweep_round_s, "s");
  result->Set("omega.span_wall_s", c.fr_span_wall_s, "s");
  result->Set("omega.unattributed_s", c.fr_run_s - c.fr_span_wall_s, "s");
  result->Set("omega.plan_hits", static_cast<double>(c.plan_hits), "count");
  result->Set("omega.plan_misses", static_cast<double>(c.plan_misses), "count");
  result->Set("omega.affected_rows", static_cast<double>(c.affected_rows), "count");
  result->Set("sparse.spmm_gflops", c.spmm_gflops, "GFLOP/s");
  result->Set("linalg.gemm_gflops", c.gemm_gflops, "GFLOP/s");
  result->Set("memsim.dram_bytes", static_cast<double>(c.dram_bytes), "B");
  result->Set("memsim.pm_bytes", static_cast<double>(c.pm_bytes), "B");
  result->Set("memsim.ssd_bytes", static_cast<double>(c.ssd_bytes), "B");
  result->Set("memsim.remote_fraction", c.remote_fraction, "fraction");
  result->Set("serve.batches", static_cast<double>(c.batches), "count");
  result->Set("serve.mean_batch", c.mean_batch, "count");
  result->Set("serve.cache_hit_rate", c.cache_hit_rate, "fraction");
  result->Set("serve.generator_late_us", c.generator_late_us, "us");
  result->Set("serve.p99_us", c.serve_p99_us, "us");
}

/// The traced run: one pass over all three workloads with spans on, then the
/// per-layer metrics derived from the spans and counters.
void RunTracedPass(const Options& opts, RunResult* result) {
  EnableTracing();
  RunResult parts;
  RunEmbedFr(opts, /*traced_pass=*/true, &parts);
  RunSystemsSweep(opts, /*traced_pass=*/true, &parts);
  RunServeRefresh(opts, /*traced_pass=*/true, &parts);
  result->attempted = parts.attempted;
  result->failed = parts.failed;
  for (const std::string& f : parts.failures()) result->Fail(f);
  const Tracer& tracer = *ActiveTracer();
  SetLayerMetrics(tracer, result);
  for (const auto& [workload, sim] : Counters().sim_s) {
    std::fprintf(stderr, "traced sim_s %s = %.17g\n", workload.c_str(), sim);
  }
  const std::string path = std::string(kOutDir) + "/trace_" + opts.workload +
                           "_seed" + std::to_string(opts.seed) + ".json";
  if (!tracer.WriteJson(path)) result->Fail("cannot write " + path);
}

}  // namespace

int Main(int argc, char** argv) {
  MarkProcessStart();
  Options opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !(opts.seconds > 0.0)) return Usage();
  if (opts.workload != "embed-fr" && opts.workload != "systems-sweep" &&
      opts.workload != "serve-refresh") {
    return Usage();
  }
  mkdir(kOutDir, 0755);

  RunResult result;
  if (opts.trace) {
    RunTracedPass(opts, &result);
  } else if (opts.workload == "embed-fr") {
    RunEmbedFr(opts, false, &result);
  } else if (opts.workload == "systems-sweep") {
    RunSystemsSweep(opts, false, &result);
  } else {
    RunServeRefresh(opts, false, &result);
  }
  const std::string json = result.ToJson();
  std::ofstream(std::string(kOutDir) + "/result_" + opts.workload + "_seed" +
                std::to_string(opts.seed) + (opts.trace ? "_traced" : "") +
                ".json")
      << json << "\n";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
