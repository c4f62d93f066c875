#ifndef GAIABENCH_SRC_BENCH_H_
#define GAIABENCH_SRC_BENCH_H_

// Shared pieces of the Gaia benchmark: command-line arguments, the result
// record every workload fills in, the market/model fixture, latency
// summaries, and the trace helpers used by the traced (--trace 1) runs.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/gaia_model.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "serving/model_server.h"

namespace gaia::perf {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Scratch directory for checkpoints and trace artifacts.
  std::string workdir = ".bench_build/work";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` goes into the final JSON line;
/// `report` lines are printed above it for people reading the log.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> report;
  /// Set when the run could not measure what it reports (no result line).
  std::string error;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { report.push_back(line); }
};

/// Workload entry points (online.cc, monthly.cc).
Outcome RunOnline(const Args& args, bool cold);
Outcome RunMonthly(const Args& args);

// ---------------------------------------------------------------- helpers

/// Independent, reproducible sub-seed `stream` of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Steady-clock seconds since an arbitrary process-wide origin.
double NowS();

/// Process peak resident set size in MiB. Each workload runs in its own
/// process, so this is the workload's own high-water mark.
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Median plus the highest percentile with at least ten samples beyond it
/// (capped at p99), as the benchmark reports every latency.
struct TailSummary {
  int64_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  ///< quantile of `tail`, e.g. 0.99
};
TailSummary SummarizeTail(const std::vector<double>& values);

/// "12.3456" with `digits` decimals, for report lines.
std::string Fmt(double value, int digits = 4);

// ------------------------------------------------------------ host speed

/// How much slower than nominal the host runs right now: the median time of
/// `calls` runs of a fixed reference kernel divided by kReferenceMs. The
/// kernel is the benchmark's own code, not the program's: rows gathered at
/// random from a table larger than a core's L2 and small dense float layers
/// with a fresh allocation per layer, the kind of work a Gaia forward does.
/// On a host whose CPUs are shared with other tenants the program's speed
/// swings by 2x over minutes and the kernel's swings with it, so every timed
/// metric is divided by (every rate multiplied by) the factor sampled next
/// to it; the report lines give the raw figures and the factors. setup_s is
/// not adjusted: set-up's first-touch allocations do not follow the kernel
/// (across two batches of runs the factor moved by up to a fifth while raw
/// set-up moved by half that).
constexpr int kReferenceCalls = 15;
/// The unit of the factor: a fixed time of the order the kernel takes on
/// the 4-core Xeon VM the benchmark was written on (0.9 to 1.8 ms there).
/// Adjusted figures are raw figures rescaled to a host on which the kernel
/// takes exactly this long.
constexpr double kReferenceMs = 1.10;
double HostFactor(int calls = kReferenceCalls);

/// Samples HostFactor(1) on its own thread every kEveryS from construction
/// to Stop(), so a phase whose work runs on other threads is adjusted by
/// the host's speed during that phase. The sampler keeps one CPU busy about
/// a twentieth of the time.
class FactorSampler {
 public:
  static constexpr double kEveryS = 0.02;
  FactorSampler();
  ~FactorSampler();
  FactorSampler(const FactorSampler&) = delete;
  FactorSampler& operator=(const FactorSampler&) = delete;
  /// Stops sampling; returns the median sample.
  double Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::vector<double> samples_;  // guarded by mu_
  std::thread thread_;
};

/// Set-up is repeated until it has run for kSetupMinSeconds and at least
/// kSetupMinRepeats times (at most kSetupMaxRepeats); setup_s is the median.
constexpr double kSetupMinSeconds = 2.0;
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 201;
bool SetupRepeatsDone(const std::vector<double>& times);

// ---------------------------------------------------------------- fixture

/// The market, its dataset and an untrained model built from the seed.
struct Fixture {
  std::shared_ptr<const data::ForecastDataset> dataset;
  std::shared_ptr<core::GaiaModel> model;
  /// Each shop's observed GMV summed over the history months.
  std::vector<double> history_gmv;
  double generate_s = 0.0;  ///< MarketSimulator::Generate (+ regime)
  double dataset_s = 0.0;   ///< ForecastDataset::Create
};

/// `coldstart_flood` re-births a fifth of the shops late in the history.
Fixture BuildFixture(int64_t num_shops, bool coldstart_flood, uint64_t seed);

/// Model hyper-parameters shared by every workload (seeded).
core::GaiaConfig BenchModelConfig(uint64_t seed);

/// A fresh, untrained model of the dataset's shape.
std::shared_ptr<core::GaiaModel> NewModel(const data::ForecastDataset& dataset,
                                          uint64_t seed);

/// Builds an empty model of the fixture's shape and loads `path` into it.
std::shared_ptr<core::GaiaModel> LoadModel(const data::ForecastDataset& dataset,
                                           uint64_t seed,
                                           const std::string& path);

/// Creates `dir` (and parents); false on failure.
bool MakeDirs(const std::string& dir);

// ------------------------------------------------------------ trace side

/// Value of the autograd node-id counter: every AutogradNode takes the next
/// id, so the difference across a single-threaded call is the number of
/// nodes that call created.
uint64_t AutogradNodesCreated();

/// Heap/arena counters of the tensor allocator (obs must be on).
struct AllocCounters {
  double heap_bytes = 0.0;
  double heap_tensors = 0.0;
  double arena_reuse = 0.0;
};
AllocCounters ReadAllocCounters();

/// Global thread-pool counters (obs must be on).
struct PoolCounters {
  double busy_ns = 0.0;
  double wait_count = 0.0;
  double wait_sum_s = 0.0;
};
PoolCounters ReadPoolCounters();

/// Self time in ms by span name: each span's duration minus the part of it
/// that its child spans cover.
std::map<std::string, double> SelfTimeByName(
    const std::vector<obs::SpanRecord>& spans);

/// Collects what the traced sections record: the program's span aggregates
/// and the self time of every span, drained from the trace ring after each
/// traced call so the ring never wraps.
struct TraceAccumulator {
  std::map<std::string, obs::SpanStats> spans;
  std::map<std::string, double> self_ms;
  bool complete = true;  ///< false if the ring overflowed between drains

  /// Folds the spans recorded since the last drain in, then clears the ring.
  /// With `self_times` false only the by-name aggregates are kept (for
  /// sections whose spans may overflow the ring).
  void Drain(bool self_times = true);
  /// Adds another accumulator's aggregates and self times to this one.
  void Merge(const TraceAccumulator& other);
};

/// The per-layer self-time metrics the benchmark names, from span names.
void SetSelfTimeMetrics(const TraceAccumulator& trace, double per,
                        Outcome* out);

/// Replays `shops` one at a time on this thread the way a shard worker
/// serves them: ego extraction with the server's per-request RNG, then
/// GaiaModel::PredictEgo with nested pool loops run inline, each under a
/// bench span and timed from outside. Sets graph.*, core.predict_ego_us,
/// the per-request core self times, autograd.nodes_per_request,
/// tensor.alloc_bytes_per_request and util.arena_*. Obs must be on.
void ReplayRequests(const data::ForecastDataset& dataset,
                    const core::GaiaModel& model,
                    const serving::ServerConfig& config,
                    const std::vector<int32_t>& shops, TraceAccumulator* trace,
                    Outcome* out);

/// Serves `shops` through `server` with every forward failing (fault site
/// serving.forward armed at probability 1), so each answer comes from the
/// program's fallback rung; sets ts.fallback_us, the mean duration of its
/// server.fallback span. Obs must be on; a model answer fails the run.
void ReplayDegraded(const serving::ModelServer& server,
                    const std::vector<int32_t>& shops, TraceAccumulator* trace,
                    Outcome* out);

/// Writes the accumulated span aggregates, the program's gaia_* metrics and
/// the benchmark's own values to `path` as JSON.
void WriteTraceArtifact(const std::string& path, const TraceAccumulator& trace,
                        const std::map<std::string, Metric>& values);

}  // namespace gaia::perf

#endif  // GAIABENCH_SRC_BENCH_H_
