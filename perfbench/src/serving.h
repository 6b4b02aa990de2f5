// Open-loop serving window shared by the workloads: an EmbeddingServer over
// a trained embedding, driven at a fixed rate by a seeded Zipf mix of
// lookups and top-k queries.
//
// The generator is the calling thread, and it never sleeps. Request i is due
// at start + i / rate whatever happened before it (open loop), and its
// latency is timed from that due time, so a stall also delays every request
// queued behind it. Between sends the thread polls every pending request and
// stamps each at its own completion, not behind an older, slower one.
//
// The generator and the server's workers share one CPU (ServingCpu), and the
// generator yields it whenever it polls. That CPU therefore never idles
// during a window, and a worker woken by a request or by its batch deadline
// runs at once. On a virtual machine, a thread woken on an idle CPU waits
// for the hypervisor to resume that CPU: a sleeping generator came about
// 100 us late to every send and completion, and on a busy host workers woken
// on idle CPUs doubled the median latency of whole windows.

#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "memsim/memory_system.h"
#include "serve/server.h"

namespace perfbench {

/// Pins the calling thread, and so every thread it starts, to the CPU it is
/// running on; restores the thread's CPU set when destroyed. A serving
/// window holds one from before StartServer until its last check.
class ServingCpu {
 public:
  ServingCpu();
  ~ServingCpu();
  ServingCpu(const ServingCpu&) = delete;
  ServingCpu& operator=(const ServingCpu&) = delete;
  /// Moves the calling thread back to the CPU set it had before the pin:
  /// for a thread started under the pin that must not share its CPU.
  void Release() const;

 private:
  cpu_set_t previous_;
};

struct ServeLoad {
  double rate_qps = 1000.0;
  double seconds = 5.0;
  double zipf_skew = 0.99;
  /// The program's own load mix (serve::LoadgenOptions::topk_fraction).
  double topk_fraction = 0.8;
  uint32_t k = 10;
  uint64_t seed = 1;
};

/// A lookup the window kept for checking.
struct LookupRecord {
  uint32_t key = 0;
  double submit = 0.0;    ///< seconds since process start
  double complete = 0.0;
  std::vector<float> row;
};

struct WindowStats {
  uint64_t requests = 0;   ///< attempted
  uint64_t rejected = 0;   ///< refused at admission
  std::vector<double> latency_us;  ///< by request index, from due time;
                                   ///< negative for a refused request
  std::vector<double> late_us;     ///< how late each send left
  std::vector<LookupRecord> lookups;
  omega::serve::EmbeddingServer::Stats before;
  omega::serve::EmbeddingServer::Stats after;
};

/// Node ids by popularity: degree descending, ties toward the smaller id.
std::vector<uint32_t> PopularityOrder(const graph::Graph& g);

/// Serving options shared by every window: kServeWorkers workers, a DRAM
/// cache of one eighth of the embedding, cold vectors on PM.
omega::serve::ServerOptions ServingOptions(const linalg::DenseMatrix& served);

/// Builds, warms (hot set from `rank_to_key`) and starts a server.
std::unique_ptr<omega::serve::EmbeddingServer> StartServer(
    const linalg::DenseMatrix& served, const std::vector<uint32_t>& rank_to_key,
    omega::memsim::MemorySystem* ms);

/// Runs the open-loop window. Lookups of keys for which `keep_lookup` is
/// true are kept with their rows.
WindowStats RunOpenLoop(omega::serve::EmbeddingServer* server,
                        const std::vector<uint32_t>& rank_to_key,
                        const ServeLoad& load,
                        const std::function<bool(uint32_t)>& keep_lookup);

/// With nothing else running: sampled top-k queries must equal the brute
/// force over `served`, and sampled lookups its rows.
void CheckQuiescentServing(omega::serve::EmbeddingServer* server,
                           const linalg::DenseMatrix& served,
                           const std::vector<uint32_t>& rank_to_key,
                           uint64_t seed, RunResult* result);

/// Adds the window's requests to the run's counts, fails the run on any
/// admission rejection, and sets serve_p50_us. The window's p99 goes to the
/// layer counters (serve.p99_us): on a host whose cores are preempted for
/// milliseconds at a time it measures the preemption, not the program.
void ReportWindow(const WindowStats& stats, RunResult* result);

/// Runs a read-only window over `served` (no writer) and checks it: the
/// serving stage of the training workloads.
void ServeTrainedEmbedding(const linalg::DenseMatrix& served,
                           const graph::Graph& g, const ServeLoad& load,
                           RunResult* result);

}  // namespace perfbench
