#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "autograd/variable.h"
#include "bench.h"
#include "bench/harness/stats.h"
#include "data/market_simulator.h"
#include "data/regime.h"
#include "obs/metrics.h"
#include "util/arena.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gaia::perf {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): streams are independent and stable.
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return bench::harness::SortedQuantile(values, q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

TailSummary SummarizeTail(const std::vector<double>& values) {
  TailSummary summary;
  summary.count = static_cast<int64_t>(values.size());
  if (values.empty()) return summary;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  summary.tail_q = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  summary.p50 = bench::harness::SortedQuantile(sorted, 0.5);
  summary.tail = bench::harness::SortedQuantile(sorted, summary.tail_q);
  return summary;
}

namespace {

/// The reference kernel: 80 inputs, each 20 rows gathered at random from a
/// 6 MiB table (larger than a core's L2, as the market's features are) and
/// passed through four 32 x 32 float layers with a leaky ReLU, each layer
/// writing a freshly allocated output. Returns a value that depends on
/// every output, so none of the work can be dropped.
[[gnu::noinline]] float ReferenceKernel(uint32_t seed) {
  constexpr int kRows = 20, kCols = 32, kLayers = 4, kInputs = 80;
  constexpr size_t kTableRows = (6u << 20) / (kCols * sizeof(float));
  static const std::vector<float> table = [] {
    std::vector<float> values(kTableRows * kCols);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = 0.001f * static_cast<float>(i % 1000);
    }
    return values;
  }();
  static const std::vector<float> weight = [] {
    std::vector<float> values(kCols * kCols);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = 0.01f * static_cast<float>(i % 7) - 0.02f;
    }
    return values;
  }();
  uint32_t state = seed * 2654435761u + 1;
  float acc = 0.0f;
  for (int input = 0; input < kInputs; ++input) {
    std::vector<float> x(kRows * kCols);
    for (int i = 0; i < kRows; ++i) {
      state = state * 1664525u + 1013904223u;
      const float* row = &table[(state >> 8) % kTableRows * kCols];
      std::copy(row, row + kCols, x.begin() + i * kCols);
    }
    for (int layer = 0; layer < kLayers; ++layer) {
      std::vector<float> y(kRows * kCols);
      for (int i = 0; i < kRows; ++i) {
        for (int k = 0; k < kCols; ++k) {
          const float xv = x[i * kCols + k];
          for (int j = 0; j < kCols; ++j) {
            y[i * kCols + j] += xv * weight[k * kCols + j];
          }
        }
      }
      for (float& v : y) v = v > 0.0f ? v : 0.01f * v;
      x.swap(y);
    }
    acc += x[static_cast<size_t>(input) % x.size()];
  }
  return acc;
}

}  // namespace

double HostFactor(int calls) {
  static volatile float sink = 0.0f;
  static std::atomic<uint32_t> seed{0};
  std::vector<double> ms;
  for (int i = 0; i < calls; ++i) {
    const double t0 = NowS();
    sink = sink + ReferenceKernel(seed.fetch_add(1));
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms) / kReferenceMs;
}

FactorSampler::FactorSampler() {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    do {  // at least one sample, however short the step
      lock.unlock();
      const double factor = HostFactor(1);
      lock.lock();
      samples_.push_back(factor);
      cv_.wait_for(lock, std::chrono::duration<double>(kEveryS),
                   [this] { return stop_; });
    } while (!stop_);
  });
}

FactorSampler::~FactorSampler() { Stop(); }

double FactorSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return Median(samples_);
}

bool SetupRepeatsDone(const std::vector<double>& times) {
  double total = 0.0;
  for (double t : times) total += t;
  const int n = static_cast<int>(times.size());
  return n >= kSetupMaxRepeats ||
         (n >= kSetupMinRepeats && total >= kSetupMinSeconds);
}

std::string Fmt(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

core::GaiaConfig BenchModelConfig(uint64_t seed) {
  core::GaiaConfig config;
  config.seed = SubSeed(seed, 4);
  return config;
}

Fixture BuildFixture(int64_t num_shops, bool coldstart_flood, uint64_t seed) {
  Fixture fixture;
  double t0 = NowS();
  data::MarketConfig market_config;
  market_config.num_shops = num_shops;
  market_config.seed = SubSeed(seed, 1);
  data::RegimeScript regime;
  if (coldstart_flood) {
    regime.set_seed(SubSeed(seed, 2));
    data::RegimeEvent flood;
    flood.kind = data::RegimeEventKind::kColdstartFlood;
    flood.month = market_config.history_months - 6;
    flood.fraction = 0.2;
    regime.add_event(flood);
  }
  data::MarketData market =
      data::MarketSimulator(market_config, regime).Generate().value();
  fixture.generate_s = NowS() - t0;
  fixture.history_gmv.reserve(market.shops.size());
  for (const data::Shop& shop : market.shops) {
    double total = 0.0;
    for (int m = 0; m < market_config.history_months; ++m) {
      total += shop.gmv[static_cast<size_t>(m)];
    }
    fixture.history_gmv.push_back(total);
  }

  t0 = NowS();
  data::DatasetOptions options;
  options.split_seed = SubSeed(seed, 3);
  fixture.dataset = std::make_shared<const data::ForecastDataset>(
      data::ForecastDataset::Create(market, options).value());
  fixture.dataset_s = NowS() - t0;

  fixture.model = NewModel(*fixture.dataset, seed);
  return fixture;
}

std::shared_ptr<core::GaiaModel> NewModel(const data::ForecastDataset& ds,
                                          uint64_t seed) {
  return core::GaiaModel::Create(BenchModelConfig(seed), ds.history_len(),
                                 ds.horizon(), ds.temporal_dim(),
                                 ds.static_dim())
      .value();
}

std::shared_ptr<core::GaiaModel> LoadModel(const data::ForecastDataset& ds,
                                           uint64_t seed,
                                           const std::string& path) {
  std::shared_ptr<core::GaiaModel> model = NewModel(ds, seed);
  const Status loaded = model->Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "gaia_benchmark: load %s: %s\n", path.c_str(),
                 loaded.ToString().c_str());
    return nullptr;
  }
  return model;
}

bool MakeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

uint64_t AutogradNodesCreated() {
  return autograd::Constant(Tensor())->id;
}

AllocCounters ReadAllocCounters() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  AllocCounters counters;
  counters.heap_bytes =
      static_cast<double>(registry.CounterValue("gaia_alloc_bytes_total"));
  counters.heap_tensors =
      static_cast<double>(registry.CounterValue("gaia_alloc_tensors_total"));
  counters.arena_reuse =
      static_cast<double>(registry.CounterValue("gaia_arena_reuse_total"));
  return counters;
}

PoolCounters ReadPoolCounters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  PoolCounters counters;
  counters.busy_ns =
      static_cast<double>(registry.CounterValue("gaia_pool_busy_ns_total"));
  const obs::Histogram& wait =
      registry.GetHistogram("gaia_pool_queue_wait_seconds");
  counters.wait_count = static_cast<double>(wait.count());
  counters.wait_sum_s = wait.sum();
  return counters;
}

std::map<std::string, double> SelfTimeByName(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  // Child intervals per parent (parents are on the child's thread).
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const obs::SpanRecord& span : spans) {
    auto parent = index_of.find(span.parent_id);
    if (span.parent_id == 0 || parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.start_ns,
                                          span.start_ns + span.dur_ns);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].start_ns;
    const uint64_t end = begin + spans[i].dur_ns;
    std::vector<std::pair<uint64_t, uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const uint64_t from = std::max(cursor, std::max(kid_begin, begin));
      const uint64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const uint64_t self_ns =
        spans[i].dur_ns - std::min(covered, spans[i].dur_ns);
    self_ms[spans[i].name] += static_cast<double>(self_ns) * 1e-6;
  }
  return self_ms;
}

void TraceAccumulator::Merge(const TraceAccumulator& other) {
  complete = complete && other.complete;
  for (const auto& [name, ms] : other.self_ms) self_ms[name] += ms;
  for (const auto& [name, stats] : other.spans) {
    obs::SpanStats& total = spans[name];
    total.count += stats.count;
    total.total_ms += stats.total_ms;
    total.max_ms = std::max(total.max_ms, stats.max_ms);
  }
}

void TraceAccumulator::Drain(bool self_times) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
  if (self_times) {
    if (buffer.dropped() != 0) complete = false;
    for (const auto& [name, ms] : SelfTimeByName(buffer.Snapshot())) {
      self_ms[name] += ms;
    }
  }
  TraceAccumulator recorded;
  for (const auto& [name, stats] : buffer.AggregateByName()) {
    recorded.spans[name] = stats;
  }
  Merge(recorded);
  buffer.Clear();
}

void SetSelfTimeMetrics(const TraceAccumulator& trace, double per,
                        Outcome* out) {
  static const std::pair<const char*, const char*> kSpans[] = {
      {"model.encode", "core.encode_self_ms"},
      {"ffl.forward", "core.ffl_self_ms"},
      {"tel.forward", "core.tel_self_ms"},
      {"ita_gcn.project", "core.ita_project_self_ms"},
      {"ita_gcn.attend", "core.ita_attend_self_ms"},
      {"model.head", "core.head_self_ms"},
  };
  for (const auto& [span, metric] : kSpans) {
    auto it = trace.self_ms.find(span);
    const double total = it == trace.self_ms.end() ? 0.0 : it->second;
    out->Set(metric, per > 0.0 ? total / per : 0.0, "ms");
  }
}

void WriteTraceArtifact(const std::string& path, const TraceAccumulator& trace,
                        const std::map<std::string, Metric>& values) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "gaia_benchmark: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\"complete\": " << (trace.complete ? "true" : "false")
     << ", \"spans\": {";
  const char* sep = "";
  for (const auto& [name, stats] : trace.spans) {
    os << sep << "\"" << name << "\": {\"count\": " << stats.count
       << ", \"total_ms\": " << stats.total_ms
       << ", \"max_ms\": " << stats.max_ms;
    // Self times exist for the single-thread replay and the training step.
    auto self = trace.self_ms.find(name);
    if (self != trace.self_ms.end()) os << ", \"self_ms\": " << self->second;
    os << "}";
    sep = ", ";
  }
  os << "}, \"metrics\": " << obs::MetricsRegistry::Global().ExportJson()
     << ", \"bench\": {";
  sep = "";
  for (const auto& [name, metric] : values) {
    os << sep << "\"" << name << "\": {\"value\": " << metric.value
       << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ", ";
  }
  os << "}}\n";
}

namespace {

/// ModelServer's per-request ego-sampling seed: a pure function of
/// (config seed, shop), so the replay extracts the same subgraph the server
/// does.
uint64_t RequestSeed(uint64_t seed, int32_t shop) {
  uint64_t x = seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(shop)) *
                       0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void ReplayRequests(const data::ForecastDataset& ds,
                    const core::GaiaModel& model,
                    const serving::ServerConfig& config,
                    const std::vector<int32_t>& shops, TraceAccumulator* trace,
                    Outcome* out) {
  util::ThreadPool::InlineScope inline_scope;
  std::vector<double> extract_us, predict_us;
  double ego_nodes = 0.0, nodes_created = 0.0;
  trace->Drain(false);
  TraceAccumulator replay;
  const AllocCounters alloc_before = ReadAllocCounters();
  for (int32_t shop : shops) {
    const uint64_t nodes_before = AutogradNodesCreated();
    {
      obs::TraceSpan request("bench.request");
      util::ArenaScope arena_scope;
      Rng rng(RequestSeed(config.seed, shop));
      graph::EgoSubgraph ego;
      {
        obs::TraceSpan span("bench.ego_extract");
        const double t0 = NowS();
        ego = graph::ExtractEgoSubgraph(ds.graph(), shop, config.ego_hops,
                                        config.max_fanout, &rng);
        extract_us.push_back((NowS() - t0) * 1e6);
      }
      ego_nodes += static_cast<double>(ego.num_nodes());
      {
        obs::TraceSpan span("bench.predict_ego");
        const double t0 = NowS();
        Result<Tensor> forecast = model.PredictEgo(ds, ego);
        predict_us.push_back((NowS() - t0) * 1e6);
        if (!forecast.ok()) {
          out->correct = false;
          ++out->failed;
        }
      }
    }
    // The probe node AutogradNodesCreated makes is the one extra id.
    nodes_created +=
        static_cast<double>(AutogradNodesCreated() - nodes_before - 1);
    replay.Drain();
  }
  const AllocCounters alloc_after = ReadAllocCounters();
  const double n = std::max<double>(1.0, static_cast<double>(shops.size()));
  const double heap_tensors =
      alloc_after.heap_tensors - alloc_before.heap_tensors;
  const double reused = alloc_after.arena_reuse - alloc_before.arena_reuse;
  out->Set("graph.ego_extract_us", Median(extract_us), "us");
  out->Set("graph.ego_nodes_mean", ego_nodes / n, "count");
  out->Set("core.predict_ego_us", Median(predict_us), "us");
  SetSelfTimeMetrics(replay, n, out);
  out->Set("autograd.nodes_per_request", nodes_created / n, "count");
  out->Set("tensor.alloc_bytes_per_request",
           (alloc_after.heap_bytes - alloc_before.heap_bytes) / n, "bytes");
  out->Set("util.arena_reuse_ratio",
           heap_tensors + reused > 0.0 ? reused / (heap_tensors + reused) : 0.0,
           "ratio");
  out->Set("util.arena_allocs_per_op", (heap_tensors + reused) / n, "count");
  trace->Merge(replay);
}

void ReplayDegraded(const serving::ModelServer& server,
                    const std::vector<int32_t>& shops, TraceAccumulator* trace,
                    Outcome* out) {
  util::ThreadPool::InlineScope inline_scope;
  util::FaultInjector& faults = util::FaultInjector::Global();
  trace->Drain(false);
  std::vector<double> fallback_us;
  int64_t model_answers = 0;
  if (!faults.ArmFromString("serving.forward:io:1.0").ok()) {
    out->error = "cannot arm fault site serving.forward";
    return;
  }
  for (int32_t shop : shops) {
    obs::TraceSpan request("bench.degraded_request");
    if (server.Serve(shop, 0.0).served_by !=
        serving::ModelServer::ServePath::kFallback) {
      ++model_answers;
    }
  }
  faults.Reset();
  for (const obs::SpanRecord& span : obs::TraceBuffer::Global().Snapshot()) {
    if (std::string(span.name) == "server.fallback") {
      fallback_us.push_back(static_cast<double>(span.dur_ns) * 1e-3);
    }
  }
  trace->Drain(false);
  if (model_answers > 0 || fallback_us.size() != shops.size()) {
    out->Note("degraded replay: " + std::to_string(model_answers) +
              " model answers, " + std::to_string(fallback_us.size()) +
              " server.fallback spans for " + std::to_string(shops.size()) +
              " requests");
    out->correct = false;
    ++out->failed;
  }
  out->attempted += static_cast<int64_t>(shops.size());
  double total_us = 0.0;
  for (double us : fallback_us) total_us += us;
  out->Set("ts.fallback_us",
           total_us / std::max<double>(1.0, static_cast<double>(
                                                 fallback_us.size())),
           "us");
}

}  // namespace gaia::perf
