// monthly_cycle: the offline half of the deployment. core::Trainer::Fit for
// a fixed number of epochs, GaiaModel::Save, ModelServer::LoadCheckpoint,
// then a ModelServer::PredictBatch sweep over every shop. A fixed sample of
// shops is also served one at a time through ModelServer::Serve on the
// published checkpoint: those answers must equal the sweep's bit for bit,
// and their latency is the workload's single-answer latency.
//
// The cycle runs in kChunks rounds so that every measurement spans the
// whole run: each round retrains from the same init (training is
// deterministic, so every retrain must reach the same validation loss bit
// for bit), publishes, sweeps a quarter of the shops and serves a quarter
// of the sample. Fit time and sweep rate are the medians over the rounds.
// Every step runs on this thread, and each is adjusted by the host factor
// (see bench.h) measured on this thread right after it: after each sweep
// batch and each Serve call, and before and after each fit.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <string>

#include "autograd/ops.h"
#include "bench.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gaia::perf {
namespace {

constexpr int64_t kShops = 1000;
constexpr int kEpochs = 1;
constexpr int kChunks = 4;              // rounds of fit, sweep and serve
constexpr int kServeSample = 400;       // serial Serve calls per cycle
constexpr size_t kSweepBatch = 50;      // shops per PredictBatch of the sweep
constexpr int kSweepFactorCalls = 4;    // reference runs after each batch
constexpr int kFitFactorCalls = 8;      // reference runs before/after a fit
constexpr int kPublishRepeats = 20;
constexpr int kTracedSweep = 200;
constexpr int kReplayRequests = 150;
constexpr float kLearningRate = 3e-3f;
constexpr double kGradClip = 5.0;

/// Adjusted figures, except where a field says raw.
struct CycleResult {
  double fit_s = 0.0;  ///< median over the kChunks retrains
  double epoch_s = 0.0;
  double val_mse = 0.0;
  double refresh_ms = 0.0;  ///< median Fit + Save + LoadCheckpoint
  double publish_ms = 0.0;  ///< median Save + LoadCheckpoint
  double sweep_shops_per_s = 0.0;
  double answered = 0.0;
  std::vector<double> serve_ms;
  double raw_fit_s = 0.0, raw_sweep_shops_per_s = 0.0, raw_serve_p50_ms = 0.0;
  std::vector<double> factors;
};

std::vector<int32_t> AllShops(int64_t n) {
  std::vector<int32_t> shops(static_cast<size_t>(n));
  std::iota(shops.begin(), shops.end(), 0);
  return shops;
}

/// `count` distinct shops drawn from the seed.
std::vector<int32_t> SampleShops(int64_t n, int count, uint64_t seed) {
  std::vector<int32_t> shops = AllShops(n);
  Rng rng(seed);
  rng.Shuffle(&shops);
  shops.resize(std::min<size_t>(shops.size(), static_cast<size_t>(count)));
  return shops;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Save + publish into `server`; returns the wall time in ms.
double Publish(const core::GaiaModel& model, const std::string& path,
               serving::ModelServer* server, Outcome* out) {
  const double t0 = NowS();
  const bool ok = model.Save(path).ok() && server->LoadCheckpoint(path).ok();
  const double ms = (NowS() - t0) * 1e3;
  ++out->attempted;
  if (!ok) {
    ++out->failed;
    out->correct = false;
  }
  return ms;
}

/// Compares each serial answer with the sweep's answer for its shop.
void CheckAnswers(const std::vector<serving::ModelServer::Prediction>& served,
                  const std::vector<serving::ModelServer::Prediction>& sweep,
                  const std::vector<int32_t>& sweep_shops, Outcome* out) {
  std::vector<size_t> position(static_cast<size_t>(
      *std::max_element(sweep_shops.begin(), sweep_shops.end()) + 1));
  for (size_t i = 0; i < sweep_shops.size(); ++i) {
    position[static_cast<size_t>(sweep_shops[i])] = i;
  }
  int64_t mismatched = 0;
  for (const serving::ModelServer::Prediction& answer : served) {
    const auto& swept = sweep[position[static_cast<size_t>(answer.shop)]];
    if (!SameBits(answer.gmv, swept.gmv)) ++mismatched;
  }
  out->attempted += static_cast<int64_t>(served.size());
  out->failed += mismatched;
  if (mismatched > 0) out->correct = false;
  out->Note("check: " + std::to_string(served.size()) +
            " sweep answers vs unsharded ModelServer::Serve, " +
            std::to_string(mismatched) + " mismatched");
}

double ModelShare(const std::vector<serving::ModelServer::Prediction>& preds) {
  int64_t model = 0;
  for (const auto& p : preds) {
    if (p.served_by == serving::ModelServer::ServePath::kModel) ++model;
  }
  return static_cast<double>(model) /
         static_cast<double>(std::max<size_t>(1, preds.size()));
}

CycleResult RunCycle(const Fixture& fixture, const Args& args,
                     const std::string& checkpoint, Outcome* out) {
  const data::ForecastDataset& ds = *fixture.dataset;
  CycleResult cycle;
  core::TrainConfig train;
  train.max_epochs = kEpochs;
  train.eval_every = kEpochs;
  train.seed = SubSeed(args.seed, 6);
  // The live server starts on an untrained generation of the same shape;
  // each round's publish replaces it.
  serving::ModelServer server(NewModel(ds, args.seed), fixture.dataset,
                              serving::ServerConfig{});
  const std::vector<int32_t> shops = AllShops(ds.num_nodes());
  const std::vector<int32_t> sample =
      SampleShops(ds.num_nodes(), kServeSample, SubSeed(args.seed, 7));
  std::vector<serving::ModelServer::Prediction> sweep, served;
  std::vector<double> fit_s, refresh_ms, publish_ms, sweep_rates;
  std::vector<double> raw_fit_s, raw_sweep_rates, raw_serve_ms;
  std::vector<double>& factors = cycle.factors;
  int epochs_run = 1;
  for (int c = 0; c < kChunks; ++c) {
    std::shared_ptr<core::GaiaModel> model = NewModel(ds, args.seed);
    const double factor_before = HostFactor(kFitFactorCalls);
    double t0 = NowS();
    const core::TrainResult trained = core::Trainer(train).Fit(model.get(), ds);
    raw_fit_s.push_back(NowS() - t0);
    const double factor = 0.5 * (factor_before + HostFactor(kFitFactorCalls));
    factors.push_back(factor);
    fit_s.push_back(raw_fit_s.back() / factor);
    epochs_run = std::max(1, trained.epochs_run);
    ++out->attempted;
    if (c > 0 && std::memcmp(&trained.best_val_loss, &cycle.val_mse,
                             sizeof(double)) != 0) {
      out->Note("retrain " + std::to_string(c) + " reached val loss " +
                Fmt(trained.best_val_loss, 9) + ", retrain 0 " +
                Fmt(cycle.val_mse, 9));
      ++out->failed;
      out->correct = false;
    }
    cycle.val_mse = trained.best_val_loss;
    for (int i = 0; i < kPublishRepeats / kChunks; ++i) {
      publish_ms.push_back(Publish(*model, checkpoint, &server, out) / factor);
    }
    refresh_ms.push_back(fit_s.back() * 1e3 + publish_ms.back());

    // Round c sweeps shops [c n / kChunks, (c + 1) n / kChunks), kSweepBatch
    // per PredictBatch, and then serves the c-th quarter of the sample one
    // at a time. The reference kernel runs right after each batch or call.
    const auto part = [c](const std::vector<int32_t>& all, size_t from = 0,
                          size_t count = SIZE_MAX) {
      const size_t n = all.size();
      const size_t last = n * (c + 1) / kChunks;
      const size_t begin = std::min(last, n * c / kChunks + from);
      const size_t end = begin + std::min(count, last - begin);
      return std::vector<int32_t>(all.begin() + static_cast<long>(begin),
                                  all.begin() + static_cast<long>(end));
    };
    double raw_sweep_s = 0.0, sweep_s = 0.0;
    size_t swept_shops = 0;
    for (;;) {
      const std::vector<int32_t> batch = part(shops, swept_shops, kSweepBatch);
      if (batch.empty()) break;
      t0 = NowS();
      std::vector<serving::ModelServer::Prediction> swept =
          server.PredictBatch(batch);
      const double batch_s = NowS() - t0;
      const double batch_factor = HostFactor(kSweepFactorCalls);
      factors.push_back(batch_factor);
      raw_sweep_s += batch_s;
      sweep_s += batch_s / batch_factor;
      swept_shops += batch.size();
      std::move(swept.begin(), swept.end(), std::back_inserter(sweep));
    }
    raw_sweep_rates.push_back(static_cast<double>(swept_shops) / raw_sweep_s);
    sweep_rates.push_back(static_cast<double>(swept_shops) / sweep_s);
    std::vector<double> round_ms, round_factors;
    for (int32_t shop : part(sample)) {
      t0 = NowS();
      served.push_back(server.Serve(shop, 0.0));
      round_ms.push_back((NowS() - t0) * 1e3);
      round_factors.push_back(HostFactor(1));
    }
    const double serve_factor = Median(round_factors);
    factors.push_back(serve_factor);
    for (double ms : round_ms) cycle.serve_ms.push_back(ms / serve_factor);
    raw_serve_ms.insert(raw_serve_ms.end(), round_ms.begin(), round_ms.end());
  }
  cycle.raw_fit_s = Median(raw_fit_s);
  cycle.raw_sweep_shops_per_s = Median(raw_sweep_rates);
  cycle.raw_serve_p50_ms = Median(raw_serve_ms);
  cycle.fit_s = Median(fit_s);
  cycle.epoch_s = cycle.fit_s / epochs_run;
  cycle.refresh_ms = Median(refresh_ms);
  cycle.publish_ms = Median(publish_ms);
  out->attempted += static_cast<int64_t>(shops.size());
  cycle.sweep_shops_per_s = Median(sweep_rates);
  cycle.answered = ModelShare(sweep);
  CheckAnswers(served, sweep, shops, out);
  return cycle;
}

/// One full-batch training step built from the public calls Fit makes,
/// each timed from outside (and under a bench span when tracing).
struct StepTimes {
  double forward_ms = 0.0, backward_ms = 0.0, optim_ms = 0.0, total_ms = 0.0;
  double nodes = 0.0;
};

StepTimes TrainStep(core::GaiaModel* model, const data::ForecastDataset& ds,
                    optim::Adam* optimizer, Rng* rng) {
  StepTimes times;
  const std::vector<int32_t>& nodes = ds.train_nodes();
  const uint64_t nodes_before = AutogradNodesCreated();
  const double start = NowS();
  {
    obs::TraceSpan step("bench.step");
    std::vector<autograd::Var> preds;
    {
      obs::TraceSpan span("bench.forward_graph");
      const double t0 = NowS();
      preds = model->PredictNodes(ds, nodes, /*training=*/true, rng);
      times.forward_ms = (NowS() - t0) * 1e3;
    }
    autograd::Var loss;
    {
      obs::TraceSpan span("bench.loss");
      std::vector<autograd::Var> losses(preds.size());
      util::ParallelFor(static_cast<int64_t>(preds.size()), [&](int64_t i) {
        losses[static_cast<size_t>(i)] =
            autograd::MseLoss(preds[static_cast<size_t>(i)],
                              ds.target(nodes[static_cast<size_t>(i)]));
      });
      loss = autograd::ScalarMul(autograd::AddN(losses),
                                 1.0f / static_cast<float>(losses.size()));
    }
    {
      obs::TraceSpan span("bench.backward");
      const double t0 = NowS();
      model->ZeroGrad();
      autograd::Backward(loss);
      times.backward_ms = (NowS() - t0) * 1e3;
    }
    {
      obs::TraceSpan span("bench.optim_step");
      const double t0 = NowS();
      optim::ClipGradNorm(optimizer->params(), kGradClip);
      optimizer->Step();
      times.optim_ms = (NowS() - t0) * 1e3;
    }
  }
  times.total_ms = (NowS() - start) * 1e3;
  times.nodes = static_cast<double>(AutogradNodesCreated() - nodes_before - 1);
  return times;
}

void RunTraced(const Fixture& fixture, const Args& args,
               const std::string& checkpoint, Outcome* out) {
  const data::ForecastDataset& ds = *fixture.dataset;
  std::shared_ptr<core::GaiaModel> model = fixture.model;
  optim::Adam optimizer(model->Parameters(), kLearningRate);
  Rng rng(SubSeed(args.seed, 6));

  // Warm-up step, then one untraced and one traced step: their difference
  // is the tracing overhead.
  TrainStep(model.get(), ds, &optimizer, &rng);
  const StepTimes base = TrainStep(model.get(), ds, &optimizer, &rng);

  obs::SetLevel(obs::Level::kOn);
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceBuffer::Global().Clear();
  TraceAccumulator trace;
  const AllocCounters alloc_before = ReadAllocCounters();
  const PoolCounters pool_before = ReadPoolCounters();
  const StepTimes step = TrainStep(model.get(), ds, &optimizer, &rng);
  const PoolCounters pool_after = ReadPoolCounters();
  const AllocCounters alloc_after = ReadAllocCounters();
  TraceAccumulator step_trace;
  step_trace.Drain();

  // Publish, a traced sweep over a sample, and its check.
  serving::ModelServer server(NewModel(ds, args.seed), fixture.dataset,
                              serving::ServerConfig{});
  std::vector<double> publish_ms;
  for (int i = 0; i < kPublishRepeats / 2; ++i) {
    publish_ms.push_back(Publish(*model, checkpoint, &server, out));
  }
  const std::vector<int32_t> sample =
      SampleShops(ds.num_nodes(), kTracedSweep, SubSeed(args.seed, 7));
  const std::vector<serving::ModelServer::Prediction> sweep =
      server.PredictBatch(sample);
  out->attempted += static_cast<int64_t>(sample.size());
  std::vector<serving::ModelServer::Prediction> served;
  for (int32_t shop : sample) served.push_back(server.Serve(shop, 0.0));
  CheckAnswers(served, sweep, sample, out);
  trace.Drain(false);
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  out->Set("serving.fallback_total",
           static_cast<double>(
               registry.CounterValue("gaia_robust_fallback_served_total")),
           "count");
  out->Set("serving.deadline_exceeded_total",
           static_cast<double>(
               registry.CounterValue("gaia_robust_deadline_exceeded_total")),
           "count");
  out->Set("serving.publish_ms", Median(publish_ms), "ms");

  std::vector<int32_t> replay(sample.begin(),
                              sample.begin() + std::min<size_t>(
                                                   sample.size(),
                                                   kReplayRequests));
  ReplayRequests(ds, *model, serving::ServerConfig{}, replay, &trace, out);
  ReplayDegraded(server, replay, &trace, out);

  // Per-step attribution; these override the per-request arena figures the
  // replay set, since a training step is this workload's unit of work.
  trace.Merge(step_trace);
  SetSelfTimeMetrics(step_trace, 1.0, out);
  out->Set("core.forward_graph_ms", step.forward_ms, "ms");
  out->Set("autograd.backward_ms", step.backward_ms, "ms");
  out->Set("optim.step_ms", step.optim_ms, "ms");
  out->Set("autograd.nodes_per_step", step.nodes, "count");
  out->Set("tensor.alloc_bytes_per_step",
           alloc_after.heap_bytes - alloc_before.heap_bytes, "bytes");
  const double heap_tensors =
      alloc_after.heap_tensors - alloc_before.heap_tensors;
  const double reused = alloc_after.arena_reuse - alloc_before.arena_reuse;
  out->Set("util.arena_reuse_ratio",
           heap_tensors + reused > 0.0 ? reused / (heap_tensors + reused) : 0.0,
           "ratio");
  out->Set("util.arena_allocs_per_op", heap_tensors + reused, "count");
  const double pool_threads = util::ThreadPool::GlobalThreads();
  out->Set("util.pool_busy_share",
           (pool_after.busy_ns - pool_before.busy_ns) * 1e-9 /
               (step.total_ms * 1e-3 * pool_threads),
           "ratio");
  const double waits = pool_after.wait_count - pool_before.wait_count;
  out->Set("util.pool_queue_wait_us",
           waits > 0.0
               ? (pool_after.wait_sum_s - pool_before.wait_sum_s) / waits * 1e6
               : 0.0,
           "us");
  out->Set("trace.overhead_share",
           (step.total_ms - base.total_ms) / base.total_ms, "ratio");
  out->Set("trace.base_ms", base.total_ms, "ms");

  // The shard queue and the load generator do no work here.
  out->Set("serving.queue_wait_us_p50", 0.0, "us");
  out->Set("serving.queue_wait_us_p99", 0.0, "us");
  out->Set("serving.window_size_mean", 0.0, "count");
  out->Set("serving.flip_overlap_p99_ms", 0.0, "ms");
  out->Set("loadgen.lag_p99_ms", 0.0, "ms");
  if (!trace.complete) out->Note("warning: trace ring overflowed");
  const std::string artifact = args.workdir + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
  WriteTraceArtifact(artifact, trace, out->metrics);
  out->Note("span aggregates and gaia_* metrics written to " + artifact);
}

}  // namespace

Outcome RunMonthly(const Args& args) {
  Outcome out;
  std::vector<double> setup_s, generate_s, dataset_s;
  Fixture fixture;
  while (!SetupRepeatsDone(setup_s)) {
    fixture = Fixture{};
    const double t0 = NowS();
    fixture = BuildFixture(kShops, /*coldstart_flood=*/false, args.seed);
    setup_s.push_back(NowS() - t0);
    generate_s.push_back(fixture.generate_s);
    dataset_s.push_back(fixture.dataset_s);
  }
  const std::string checkpoint =
      args.workdir + "/monthly-" + std::to_string(getpid()) + ".ckpt";
  out.Note("setup: " + std::to_string(setup_s.size()) + " repeats, median " +
           Fmt(Median(setup_s)) + " s, max " +
           Fmt(*std::max_element(setup_s.begin(), setup_s.end())) + " s");

  if (args.trace) {
    out.Set("data.generate_s", Median(generate_s), "s");
    out.Set("data.dataset_build_s", Median(dataset_s), "s");
    RunTraced(fixture, args, checkpoint, &out);
    std::remove(checkpoint.c_str());
    return out;
  }

  // One fixed cycle: its work does not depend on --seconds.
  const CycleResult cycle = RunCycle(fixture, args, checkpoint, &out);
  std::remove(checkpoint.c_str());
  const TailSummary latency = SummarizeTail(cycle.serve_ms);
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("serve_p50_ms", latency.p50, "ms");
  out.Set("serve_rate_per_s", cycle.sweep_shops_per_s, "1/s");
  out.Set("answered_ratio", cycle.answered, "ratio");
  out.Set("model_refresh_ms", cycle.refresh_ms, "ms");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double>& factors_run = cycle.factors;
  out.Note(
      "host factor: median " + Fmt(Median(factors_run), 3) + ", range " +
      Fmt(*std::min_element(factors_run.begin(), factors_run.end()), 3) +
      " .. " +
      Fmt(*std::max_element(factors_run.begin(), factors_run.end()), 3) +
      " over " + std::to_string(factors_run.size()) +
      " steps; raw fit " + Fmt(cycle.raw_fit_s) + " s, raw sweep " +
      Fmt(cycle.raw_sweep_shops_per_s, 1) + " 1/s, raw serve p50 " +
      Fmt(cycle.raw_serve_p50_ms) + " ms; the figures below are adjusted");
  out.Note("train_epoch_s " + Fmt(cycle.epoch_s) + " s (median of " +
           std::to_string(kChunks) + " retrains of " + std::to_string(kEpochs) +
           " epoch, full batch, " +
           std::to_string(kShops) + " shops, incl. one validation pass)");
  out.Note("train_val_mse " + Fmt(cycle.val_mse, 9));
  out.Note("publish_ms " + Fmt(cycle.publish_ms) +
           " ms (Save + ModelServer::LoadCheckpoint, median of " +
           std::to_string(kPublishRepeats) + ")");
  out.Note("sweep_shops_per_s " + Fmt(cycle.sweep_shops_per_s, 1) +
           " 1/s (median of " + std::to_string(kChunks) + " quarter sweeps)");
  out.Note("serve_p50_ms " + Fmt(latency.p50) + " ms, serve_p99_ms " +
           Fmt(latency.tail) + " ms (q=" + Fmt(latency.tail_q, 3) +
           ", n=" + std::to_string(latency.count) +
           ", serial ModelServer::Serve)");
  out.Note("serve_degraded_ratio " + Fmt(1.0 - cycle.answered, 5) +
           " (sweep)");
  return out;
}

}  // namespace gaia::perf
