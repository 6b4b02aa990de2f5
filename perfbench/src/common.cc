#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/rng.h"
#include "graph/datasets.h"

namespace perfbench {

namespace {

Clock::time_point g_process_start = Clock::now();
std::unique_ptr<Tracer> g_tracer;
thread_local std::vector<int> t_open_spans;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_begin = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (auto [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_begin;
  return covered;
}

}  // namespace

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void MarkProcessStart() { g_process_start = Clock::now(); }

double SecondsSinceStart() { return SecondsSince(g_process_start); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SubSeed(uint64_t seed, const std::string& tag) {
  uint64_t h = omega::SplitMix64(seed);
  for (const char c : tag) h = omega::SplitMix64(h ^ static_cast<uint8_t>(c));
  return h;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------- tracing --

int Tracer::Begin(const std::string& name, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, workload_, SecondsSinceStart(), -1.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = SecondsSinceStart();
}

void Tracer::SetWorkload(const std::string& workload) {
  std::lock_guard<std::mutex> lock(mu_);
  workload_ = workload;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::Total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= s.start) total += s.end - s.start;
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  }
  struct Totals {
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> totals;
  std::ostringstream out;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end - s.start;
    const double self = duration - CoveredLength(children[i], s.start, s.end);
    Totals& t = totals[s.name];
    ++t.count;
    t.total += duration;
    t.self += self;
    out << "  {\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"workload\": " << JsonString(s.workload)
        << ", \"parent\": " << s.parent << ", \"start_s\": "
        << JsonNumber(s.start) << ", \"end_s\": " << JsonNumber(s.end)
        << ", \"self_s\": " << JsonNumber(self) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\n\"totals\": {\n";
  size_t n = 0;
  for (const auto& [name, t] : totals) {
    out << "  " << JsonString(name) << ": {\"count\": " << t.count
        << ", \"total_s\": " << JsonNumber(t.total)
        << ", \"self_s\": " << JsonNumber(t.self) << "}"
        << (++n < totals.size() ? ",\n" : "\n");
  }
  out << "}}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

Tracer* ActiveTracer() { return g_tracer.get(); }

void EnableTracing() { g_tracer = std::make_unique<Tracer>(); }

int CurrentSpan() {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

ScopedSpan::ScopedSpan(const std::string& name, int parent)
    : t0_(Clock::now()) {
  if (Tracer* tracer = ActiveTracer()) {
    id_ = tracer->Begin(name, parent == kInheritParent ? CurrentSpan() : parent);
    t_open_spans.push_back(id_);
  }
}

ScopedSpan::~ScopedSpan() { Stop(); }

double ScopedSpan::Stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  seconds_ = SecondsSince(t0_);
  if (id_ >= 0) {
    ActiveTracer()->End(id_);
    t_open_spans.pop_back();
  }
  return seconds_;
}

// ---------------------------------------------------------------- results --

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void RunResult::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

void RunResult::Expect(const std::string& error, const std::string& context) {
  if (!error.empty()) Fail(context + error);
}

std::string RunResult::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  size_t n = 0;
  for (const auto& [name, vu] : metrics_) {
    out << (n++ ? ", " : "") << JsonString(name) << ": {\"value\": "
        << JsonNumber(vu.first) << ", \"unit\": " << JsonString(vu.second)
        << "}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- inputs --

namespace {

graph::Graph Generate(const graph::DatasetSpec& spec) {
  ScopedSpan span("graph.generate");
  auto g = graph::LoadDataset(spec);
  OMEGA_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

graph::DatasetSpec Spec(const std::string& dataset) {
  auto spec = graph::FindDataset(dataset);
  OMEGA_CHECK(spec.ok()) << spec.status().ToString();
  return spec.value();
}

}  // namespace

graph::Graph GenerateAnalogue(const std::string& dataset, uint64_t seed) {
  graph::DatasetSpec spec = Spec(dataset);
  spec.rmat.seed = SubSeed(seed, "rmat." + dataset);
  return Generate(spec);
}

graph::Graph GenerateAnalogue(const std::string& dataset) {
  return Generate(Spec(dataset));
}

std::vector<graph::Edge> UndirectedEdges(const graph::Graph& g) {
  std::vector<graph::Edge> edges;
  edges.reserve(g.num_arcs() / 2);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const graph::NodeId* nbr = g.neighbors(u);
    const float* w = g.weights(u);
    for (uint32_t i = 0; i < g.degree(u); ++i) {
      if (u < nbr[i]) edges.push_back({u, nbr[i], w[i]});
    }
  }
  return edges;
}

omega::engine::EngineOptions TrainingOptions(omega::engine::SystemKind system,
                                             int threads) {
  omega::engine::EngineOptions options;
  options.system = system;
  options.num_threads = threads;
  options.prone.dim = 32;
  options.prone.oversample = 8;
  options.prone.chebyshev_order = 8;
  return options;
}

std::string MetricSystemName(omega::engine::SystemKind system) {
  std::string name = omega::engine::SystemName(system);
  for (char& c : name) {
    c = c == '-' ? '_' : static_cast<char>(std::tolower(c));
  }
  return name;
}

LayerCounters& Counters() {
  static LayerCounters counters;
  return counters;
}

}  // namespace perfbench
