// online_hot and online_cold: single-shop requests into a persistent
// serving::ShardedServer, in two kinds of phase that alternate over the run.
//
// Nominal phases are an open loop at 50 req/s (25 per shard) with Poisson
// arrivals, light enough that shard queueing does not multiply the
// forward's own run-to-run variation. Each request is timed from the moment
// it was due to be sent, so a stall in the server or in the generator shows
// as latency of every request queued behind it. A sender that finds
// requests already overdue sends them together (see Execute), so a tier
// that falls behind shows as shard queue wait and as generator lag.
// serve_p50_ms pools the nominal phases.
//
// Burst phases are a closed loop: each sender sends the next kBurst requests
// of a seeded stream through ShardedServer::PredictBatch and, as soon as they
// are answered, the next kBurst. The shard queues hold several requests at
// once, so micro-batch windows form. serve_rate_per_s is the median of the
// burst phases' answered requests per second.
//
// The tier has kShards shards and the global thread pool has one thread
// (see main.cc): on a shared host, work spread over every CPU measures the
// host's other tenants more than the program. The open loop has
// kOpenSenders senders, which sleep until a request is due or wait for its
// answer, so a slow answer does not hold the next request back; the closed
// loop has one sender per shard.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "serving/sharded_server.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gaia::perf {
namespace {

constexpr double kDeadlineMs = 100.0;     // per-request deadline
constexpr double kNominalRate = 50.0;     // req/s, nominal phases
constexpr int kCycles = 8;                // nominal + burst pairs per run
constexpr double kWarmupS = 2.0;          // nominal warm-up, then a burst one
constexpr size_t kBurst = 3;              // requests per closed-loop send
constexpr double kMaxBurstRate = 4000.0;  // req/s the burst stream can feed
constexpr double kPublishEveryS = 0.125;  // online_cold republish period
constexpr int kCheckEvery = 16;           // every 16th answer is verified
constexpr size_t kMaxSend = 32;           // requests one sender sends at once
constexpr int kShards = 2;                // also the closed-loop senders
constexpr int kOpenSenders = 8;           // open-loop senders
constexpr int kQuiescentPublishes = 13;   // online_hot, per cycle
constexpr int kReplayRequests = 150;      // traced single-thread replays

/// One scheduled event of a phase: a request, or (online_cold) a republish.
struct Item {
  double due_s = 0.0;  ///< offset from the phase start
  int32_t shop = 0;
  bool publish = false;
  bool checked = false;  ///< answer is compared against the reference
};

struct Answer {
  double sent_s = 0.0;
  double done_s = 0.0;
  bool model = false;  ///< answered by the model (not degraded)
  bool ok = true;      ///< publishes: LoadCheckpoint succeeded
  bool sent = false;   ///< burst phases stop before their stream runs out
  uint64_t request_id = 0;
  std::vector<double> gmv;  ///< kept for checked requests only
};

struct Phase {
  std::string name;
  double rate = 0.0;  ///< nominal: the offered rate; burst: the answered one
  bool closed = false;  ///< a burst (closed-loop) phase
  double wall_s = 0.0;  ///< burst: from the first send to the last answer
  double factor = 1.0;  ///< HostFactor around the phase (measured runs)
  std::vector<Item> items;
  std::vector<Answer> answers;
  double start_s = 0.0;

  // Filled by Evaluate / the correctness check.
  int64_t sent = 0, model = 0, degraded = 0, mismatched = 0;
  int64_t publishes = 0, publish_failures = 0;
  std::vector<double> latency_ms;  ///< requests only, from due time (burst:
                                   ///< from the send)
  std::vector<double> lag_ms;      ///< nominal requests only, sent - due
  std::vector<double> publish_ms;
  std::vector<double> flip_overlap_ms;  ///< latency of requests in flight
                                        ///< while a publish ran
};

/// Draws shop i with probability weight[i] / sum(weight).
class ShopPicker {
 public:
  explicit ShopPicker(const std::vector<double>& weight)
      : cdf_(weight.size()) {
    double total = 0.0;
    for (size_t i = 0; i < weight.size(); ++i) {
      total += std::max(0.0, weight[i]);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int32_t Pick(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<int32_t>(std::min(i, cdf_.size() - 1));
  }

  /// Share of draws that go to the most likely `top` shops.
  double TopShare(size_t top) const {
    std::vector<double> p(cdf_.size());
    for (size_t i = 0; i < cdf_.size(); ++i) {
      p[i] = cdf_[i] - (i == 0 ? 0.0 : cdf_[i - 1]);
    }
    top = std::min(top, p.size());
    std::partial_sort(p.begin(), p.begin() + static_cast<long>(top), p.end(),
                      std::greater<double>());
    double share = 0.0;
    for (size_t i = 0; i < top; ++i) share += p[i];
    return share;
  }

 private:
  std::vector<double> cdf_;
};

/// online_hot: a shop's request rate follows its simulated GMV, so the big
/// sellers of the generated market are the hot keys. online_cold: uniform.
ShopPicker MakePicker(const Fixture& fixture, bool cold) {
  if (!cold) return ShopPicker(fixture.history_gmv);
  return ShopPicker(std::vector<double>(fixture.history_gmv.size(), 1.0));
}

struct Setup {
  Fixture fixture;
  std::string checkpoint;
  std::unique_ptr<serving::ShardedServer> server;
};

serving::ShardedServerConfig TierConfig() {
  serving::ShardedServerConfig config;
  config.num_shards = kShards;
  config.server.deadline_ms = kDeadlineMs;  // PredictBatch's deadline
  return config;
}

/// Poisson schedule at `rate` for `duration_s`, with republish events every
/// kPublishEveryS when `publish` is set. Every kCheckEvery-th request counted
/// by `check_counter` is marked for the correctness check (none when null).
/// Streams are per phase, so a phase's content depends only on (seed, phase
/// id).
Phase MakePhase(const std::string& name, double rate, double duration_s,
                bool publish, const ShopPicker& picker, uint64_t seed,
                uint64_t phase_id, int64_t* check_counter) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  Rng arrivals(SubSeed(seed, 100 + phase_id));
  Rng shops(SubSeed(seed, 200 + phase_id));
  double t = 0.0;
  double next_publish = kPublishEveryS / 2.0;
  for (;;) {
    t += arrivals.Exponential(rate);
    if (t > duration_s) break;
    while (publish && next_publish <= t) {
      Item item;
      item.due_s = next_publish;
      item.publish = true;
      phase.items.push_back(item);
      next_publish += kPublishEveryS;
    }
    Item item;
    item.due_s = t;
    item.shop = picker.Pick(&shops);
    item.checked =
        check_counter != nullptr && (*check_counter)++ % kCheckEvery == 0;
    phase.items.push_back(item);
  }
  return phase;
}

/// The request stream of a burst phase of `duration_s`: more requests than
/// the tier can answer in that time, drawn and marked like MakePhase's.
Phase MakeBurst(const std::string& name, double duration_s,
                const ShopPicker& picker, uint64_t seed, uint64_t phase_id,
                int64_t* check_counter) {
  Phase phase;
  phase.name = name;
  phase.closed = true;
  Rng shops(SubSeed(seed, 200 + phase_id));
  phase.items.resize(static_cast<size_t>(kMaxBurstRate * duration_s));
  for (Item& item : phase.items) {
    item.shop = picker.Pick(&shops);
    item.checked =
        check_counter != nullptr && (*check_counter)++ % kCheckEvery == 0;
  }
  return phase;
}

void SleepUntil(double target_s) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(target_s)));
  std::this_thread::sleep_until(target);
}

/// Sends the phase open-loop from `senders` threads and waits for every
/// answer. A sender claims the next event, sleeps until it is due, and also
/// takes every later request that is already overdue (up to kMaxSend): a
/// sender that was blocked sends the backlog in one PredictBatch, so the
/// number of requests in flight is not capped by the number of senders.
/// Requests sent together are all timed to the batch's completion.
void Execute(serving::ShardedServer* server, const std::string& checkpoint,
             int senders, Phase* phase) {
  const std::vector<Item>& items = phase->items;
  phase->answers.assign(items.size(), Answer{});
  phase->start_s = NowS() + 0.01;
  std::mutex claim_mu;
  size_t next = 0;  // guarded by claim_mu
  auto send = [&] {
    std::vector<size_t> batch;
    std::vector<int32_t> shops;
    for (;;) {
      size_t first = 0;
      {
        std::lock_guard<std::mutex> lock(claim_mu);
        if (next >= items.size()) return;
        first = next++;
      }
      SleepUntil(phase->start_s + items[first].due_s);
      batch.assign(1, first);
      if (!items[first].publish) {
        std::lock_guard<std::mutex> lock(claim_mu);
        const double now = NowS();
        while (next < items.size() && batch.size() < kMaxSend &&
               !items[next].publish &&
               phase->start_s + items[next].due_s <= now) {
          batch.push_back(next++);
        }
      }
      const double sent_s = NowS();
      std::vector<serving::ShardedServer::Prediction> predictions;
      if (items[first].publish) {
        phase->answers[first].ok = server->LoadCheckpoint(checkpoint).ok();
      } else if (batch.size() == 1) {
        predictions.push_back(server->Predict(items[first].shop, kDeadlineMs));
      } else {
        shops.clear();
        for (size_t i : batch) shops.push_back(items[i].shop);
        predictions = server->PredictBatch(shops);
      }
      const double done_s = NowS();
      for (size_t k = 0; k < batch.size(); ++k) {
        Answer& answer = phase->answers[batch[k]];
        answer.sent = true;
        answer.sent_s = sent_s;
        answer.done_s = done_s;
        if (predictions.empty()) continue;
        serving::ShardedServer::Prediction& prediction = predictions[k];
        answer.model = prediction.served_by ==
                       serving::ModelServer::ServePath::kModel;
        answer.request_id = prediction.request_id;
        if (items[batch[k]].checked) answer.gmv = std::move(prediction.gmv);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(senders));
  for (int s = 0; s < senders; ++s) threads.emplace_back(send);
  for (std::thread& thread : threads) thread.join();
}

/// Runs a burst phase for `duration_s`: `senders` threads each send the
/// next kBurst requests of the stream through PredictBatch and, once they
/// are answered, the next kBurst, until the time is up.
void ExecuteClosed(serving::ShardedServer* server, int senders,
                   double duration_s, Phase* phase) {
  const std::vector<Item>& items = phase->items;
  phase->answers.assign(items.size(), Answer{});
  std::atomic<size_t> next{0};
  phase->start_s = NowS();
  const double end_s = phase->start_s + duration_s;
  auto send = [&] {
    std::vector<int32_t> shops;
    while (NowS() < end_s) {
      const size_t first = next.fetch_add(kBurst);
      if (first >= items.size()) return;
      const size_t last = std::min(items.size(), first + kBurst);
      shops.clear();
      for (size_t i = first; i < last; ++i) shops.push_back(items[i].shop);
      const double sent_s = NowS();
      std::vector<serving::ShardedServer::Prediction> predictions =
          server->PredictBatch(shops);
      const double done_s = NowS();
      for (size_t i = first; i < last; ++i) {
        Answer& answer = phase->answers[i];
        serving::ShardedServer::Prediction& prediction =
            predictions[i - first];
        answer.sent = true;
        answer.sent_s = sent_s;
        answer.done_s = done_s;
        answer.model = prediction.served_by ==
                       serving::ModelServer::ServePath::kModel;
        answer.request_id = prediction.request_id;
        if (items[i].checked) answer.gmv = std::move(prediction.gmv);
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(senders));
  for (int s = 0; s < senders; ++s) threads.emplace_back(send);
  for (std::thread& thread : threads) thread.join();
  phase->wall_s = NowS() - phase->start_s;
}

void Evaluate(Phase* phase) {
  std::vector<std::pair<double, double>> publish_windows;
  for (size_t i = 0; i < phase->items.size(); ++i) {
    const Item& item = phase->items[i];
    const Answer& answer = phase->answers[i];
    if (!answer.sent) continue;
    if (item.publish) {
      ++phase->publishes;
      if (!answer.ok) ++phase->publish_failures;
      phase->publish_ms.push_back((answer.done_s - answer.sent_s) * 1e3);
      publish_windows.emplace_back(answer.sent_s, answer.done_s);
      continue;
    }
    ++phase->sent;
    if (answer.model) {
      ++phase->model;
    } else {
      ++phase->degraded;
    }
    if (phase->closed) {
      phase->latency_ms.push_back((answer.done_s - answer.sent_s) * 1e3);
      continue;
    }
    const double due = phase->start_s + item.due_s;
    phase->latency_ms.push_back((answer.done_s - due) * 1e3);
    phase->lag_ms.push_back(std::max(0.0, answer.sent_s - due) * 1e3);
  }
  if (phase->closed) {
    phase->rate = static_cast<double>(phase->sent) / phase->wall_s;
    return;
  }
  // Requests in flight while a publish ran.
  size_t r = 0;
  for (size_t i = 0; i < phase->items.size(); ++i) {
    if (phase->items[i].publish) continue;
    const double due = phase->start_s + phase->items[i].due_s;
    for (const auto& [from, to] : publish_windows) {
      if (due <= to && phase->answers[i].done_s >= from) {
        phase->flip_overlap_ms.push_back(phase->latency_ms[r]);
        break;
      }
    }
    ++r;
  }
}

/// Compares every checked model answer with an unsharded ModelServer::Serve
/// of the same shop on the same checkpoint, bitwise.
void CheckAnswers(const Setup& setup, uint64_t seed,
                  const std::vector<Phase*>& phases, Outcome* out) {
  std::shared_ptr<core::GaiaModel> model =
      LoadModel(*setup.fixture.dataset, seed, setup.checkpoint);
  if (model == nullptr) {
    out->correct = false;
    ++out->failed;
    return;
  }
  const serving::ModelServer reference(model, setup.fixture.dataset,
                                       TierConfig().server);
  std::map<int32_t, std::vector<double>> expected;
  int64_t checked = 0;
  for (Phase* phase : phases) {
    for (size_t i = 0; i < phase->items.size(); ++i) {
      const Item& item = phase->items[i];
      const Answer& answer = phase->answers[i];
      if (!item.checked || item.publish || !answer.model) continue;
      auto it = expected.find(item.shop);
      if (it == expected.end()) {
        it = expected.emplace(item.shop, reference.Serve(item.shop, 0.0).gmv)
                 .first;
      }
      ++checked;
      const bool same =
          it->second.size() == answer.gmv.size() &&
          std::memcmp(it->second.data(), answer.gmv.data(),
                      answer.gmv.size() * sizeof(double)) == 0;
      if (!same) ++phase->mismatched;
    }
  }
  int64_t mismatched = 0;
  for (Phase* phase : phases) mismatched += phase->mismatched;
  out->Note("check: " + std::to_string(checked) +
            " sampled answers vs unsharded ModelServer::Serve, " +
            std::to_string(mismatched) + " mismatched");
  if (mismatched > 0) out->correct = false;
}

void Tally(const std::vector<Phase*>& phases, Outcome* out) {
  out->Note(
      "phase      rate/s   sent  model degraded mismatch  p50_ms  p99_ms "
      " lag_p99_ms lag_max_ms");
  for (const Phase* phase : phases) {
    const TailSummary latency = SummarizeTail(phase->latency_ms);
    const double lag_max =
        phase->lag_ms.empty()
            ? 0.0
            : *std::max_element(phase->lag_ms.begin(), phase->lag_ms.end());
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-9s %7.1f %6lld %6lld %8lld %8lld %7.3f %7.3f %10.3f "
                  "%10.3f",
                  phase->name.c_str(), phase->rate,
                  static_cast<long long>(phase->sent),
                  static_cast<long long>(phase->model),
                  static_cast<long long>(phase->degraded),
                  static_cast<long long>(phase->mismatched), latency.p50,
                  Quantile(phase->latency_ms, 0.99),
                  Quantile(phase->lag_ms, 0.99), lag_max);
    out->Note(line);
    out->attempted += phase->sent + phase->publishes;
    out->failed += phase->mismatched + phase->publish_failures;
    if (phase->publish_failures > 0) out->correct = false;
  }
}

/// Builds market, dataset, model, checkpoint and tier until SetupRepeatsDone;
/// returns the last and records the medians.
Setup BuildSetup(const Args& args, bool cold, Outcome* out) {
  std::vector<double> total_s, generate_s, dataset_s;
  Setup setup;
  setup.checkpoint = args.workdir + "/online-" + std::to_string(getpid()) +
                     ".ckpt";
  while (!SetupRepeatsDone(total_s)) {
    setup.server.reset();
    setup.fixture = Fixture{};
    const double t0 = NowS();
    setup.fixture = BuildFixture(cold ? 10000 : 2000, cold, args.seed);
    const Status saved = setup.fixture.model->Save(setup.checkpoint);
    if (!saved.ok()) {
      std::fprintf(stderr, "gaia_benchmark: save: %s\n",
                   saved.ToString().c_str());
      out->correct = false;
      ++out->failed;
    }
    setup.server = std::make_unique<serving::ShardedServer>(
        setup.fixture.model, setup.fixture.dataset, TierConfig());
    total_s.push_back(NowS() - t0);
    generate_s.push_back(setup.fixture.generate_s);
    dataset_s.push_back(setup.fixture.dataset_s);
  }
  if (args.trace) {
    out->Set("data.generate_s", Median(generate_s), "s");
    out->Set("data.dataset_build_s", Median(dataset_s), "s");
  } else {
    out->Set("setup_s", Median(total_s), "s");
  }
  out->Note("setup: " + std::to_string(total_s.size()) + " repeats, median " +
            Fmt(Median(total_s)) + " s, max " +
            Fmt(*std::max_element(total_s.begin(), total_s.end())) + " s");
  return setup;
}

/// Sets the per-layer metrics the online workloads do not exercise.
void SetTrainingLayersIdle(Outcome* out) {
  out->Set("core.forward_graph_ms", 0.0, "ms");
  out->Set("autograd.backward_ms", 0.0, "ms");
  out->Set("autograd.nodes_per_step", 0.0, "count");
  out->Set("optim.step_ms", 0.0, "ms");
  out->Set("tensor.alloc_bytes_per_step", 0.0, "bytes");
}

std::vector<double> QuiescentPublishes(serving::ShardedServer* server,
                                       const std::string& checkpoint,
                                       int count, Outcome* out) {
  std::vector<double> publish_ms;
  for (int i = 0; i < count; ++i) {
    const double t0 = NowS();
    const bool ok = server->LoadCheckpoint(checkpoint).ok();
    publish_ms.push_back((NowS() - t0) * 1e3);
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      out->correct = false;
    }
  }
  return publish_ms;
}

/// Requests of several phases pooled, as one summary.
struct Pooled {
  int64_t sent = 0, model = 0;
  std::vector<double> latency_ms, lag_ms;
  std::vector<double> adjusted_ms;  ///< latency_ms / the phase's factor
  std::vector<double> rates, adjusted_rates;  ///< burst phases: per phase

  void Add(const Phase& phase) {
    sent += phase.sent;
    model += phase.model;
    latency_ms.insert(latency_ms.end(), phase.latency_ms.begin(),
                      phase.latency_ms.end());
    lag_ms.insert(lag_ms.end(), phase.lag_ms.begin(), phase.lag_ms.end());
    for (double ms : phase.latency_ms) adjusted_ms.push_back(ms / phase.factor);
    if (phase.closed) {
      rates.push_back(phase.rate);
      adjusted_rates.push_back(phase.rate * phase.factor);
    }
  }
};

}  // namespace

Outcome RunOnline(const Args& args, bool cold) {
  Outcome out;
  Setup setup = BuildSetup(args, cold, &out);
  const int64_t num_shops = setup.fixture.dataset->num_nodes();
  const ShopPicker picker = MakePicker(setup.fixture, cold);
  out.Note("popularity: " + std::string(cold ? "uniform" : "by history GMV") +
           ", top 1% of shops draw " +
           Fmt(100.0 * picker.TopShare(static_cast<size_t>(num_shops / 100)),
               1) +
           "% of requests");
  serving::ShardedServer* server = setup.server.get();
  int64_t check_counter = 0;

  // Warm-up: fills the arena caches and pages in the market; not measured.
  Phase warm = MakePhase("warmup", kNominalRate, kWarmupS, false, picker,
                         args.seed, 0, nullptr);
  Execute(server, setup.checkpoint, kOpenSenders, &warm);
  Phase warm_burst =
      MakeBurst("warmup", kWarmupS / 2.0, picker, args.seed, 3, nullptr);
  ExecuteClosed(server, kShards, kWarmupS / 2.0, &warm_burst);

  std::vector<std::unique_ptr<Phase>> phases;
  auto run_phase = [&](const std::string& name, double rate,
                       double duration_s, uint64_t id) {
    phases.push_back(std::make_unique<Phase>(MakePhase(
        name, rate, duration_s, cold, picker, args.seed, id, &check_counter)));
    Execute(server, setup.checkpoint, kOpenSenders, phases.back().get());
    Evaluate(phases.back().get());
    return phases.back().get();
  };

  if (args.trace) {
    // Untraced and traced halves of the nominal phase: their difference is
    // the tracing overhead. Then a single-thread replay of the traced
    // phase's requests attributes a request's time to the layers.
    const double half_s = args.seconds * 0.3;
    Phase* base = run_phase("untraced", kNominalRate, half_s, 1);
    obs::SetLevel(obs::Level::kOn);
    obs::MetricsRegistry::Global().ResetAll();
    obs::TraceBuffer::Global().Clear();
    obs::EventLog::Global().SetEnabled(true);
    TraceAccumulator trace;
    const PoolCounters pool_before = ReadPoolCounters();
    const double traced_start = NowS();
    Phase* traced = run_phase("traced", kNominalRate, half_s, 2);
    const double traced_wall_s = NowS() - traced_start;
    const PoolCounters pool_after = ReadPoolCounters();
    obs::EventLog::Global().SetEnabled(false);
    trace.Drain(false);

    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    std::map<uint64_t, double> queue_wait_ms;
    for (const obs::EventRecord& record :
         obs::EventLog::Global().Recent(obs::EventLog::kDefaultCapacity)) {
      queue_wait_ms[record.request_id] = record.queue_wait_ms;
    }
    std::vector<double> queue_wait_us;
    std::vector<int32_t> replay_shops;
    for (size_t i = 0; i < traced->items.size(); ++i) {
      if (traced->items[i].publish) continue;
      auto it = queue_wait_ms.find(traced->answers[i].request_id);
      if (it != queue_wait_ms.end()) queue_wait_us.push_back(it->second * 1e3);
      if (static_cast<int>(replay_shops.size()) < kReplayRequests) {
        replay_shops.push_back(traced->items[i].shop);
      }
    }
    out.Set("serving.queue_wait_us_p50", Quantile(queue_wait_us, 0.5), "us");
    out.Set("serving.queue_wait_us_p99", Quantile(queue_wait_us, 0.99), "us");
    obs::Histogram& windows =
        obs::MetricsRegistry::Global().GetHistogram("gaia_serve_batch_size");
    out.Set("serving.window_size_mean",
            windows.count() > 0
                ? windows.sum() / static_cast<double>(windows.count())
                : 0.0,
            "count");
    out.Set("serving.fallback_total",
            static_cast<double>(
                registry.CounterValue("gaia_robust_fallback_served_total")),
            "count");
    out.Set("serving.deadline_exceeded_total",
            static_cast<double>(
                registry.CounterValue("gaia_robust_deadline_exceeded_total")),
            "count");
    const double pool_threads = util::ThreadPool::GlobalThreads();
    out.Set("util.pool_busy_share",
            (pool_after.busy_ns - pool_before.busy_ns) * 1e-9 /
                (traced_wall_s * pool_threads),
            "ratio");
    const double waits = pool_after.wait_count - pool_before.wait_count;
    out.Set("util.pool_queue_wait_us",
            waits > 0.0
                ? (pool_after.wait_sum_s - pool_before.wait_sum_s) / waits * 1e6
                : 0.0,
            "us");
    out.Set("loadgen.lag_p99_ms", Quantile(base->lag_ms, 0.99), "ms");

    std::vector<double> publish_ms = traced->publish_ms;
    if (!cold) {
      publish_ms = QuiescentPublishes(server, setup.checkpoint,
                                      4 * kQuiescentPublishes, &out);
    }
    out.Set("serving.publish_ms", Median(publish_ms), "ms");
    out.Set("serving.flip_overlap_p99_ms",
            Quantile(traced->flip_overlap_ms, 0.99), "ms");

    const double base_p50 = Median(base->latency_ms);
    out.Set("trace.overhead_share",
            (Median(traced->latency_ms) - base_p50) / base_p50, "ratio");
    out.Set("trace.base_ms", base_p50, "ms");

    const std::shared_ptr<core::GaiaModel> model = LoadModel(
        *setup.fixture.dataset, args.seed, setup.checkpoint);
    if (model == nullptr) {
      out.correct = false;
    } else {
      ReplayRequests(*setup.fixture.dataset, *model, TierConfig().server,
                     replay_shops, &trace, &out);
      const serving::ModelServer unsharded(model, setup.fixture.dataset,
                                           TierConfig().server);
      ReplayDegraded(unsharded, replay_shops, &trace, &out);
    }
    SetTrainingLayersIdle(&out);
    if (!trace.complete) out.Note("warning: trace ring overflowed in replay");
    const std::string artifact = args.workdir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
    WriteTraceArtifact(artifact, trace, out.metrics);
    out.Note("span aggregates and gaia_* metrics written to " + artifact);
  } else {
    // kCycles cycles of a nominal phase, (online_hot) quiescent publishes
    // and a burst phase, so each kind of measurement spans the whole run.
    // Each phase is adjusted by the host factor sampled while it ran, and
    // online_hot's quiescent publishes by that of the phase before them.
    const double phase_s = args.seconds / (2.0 * kCycles);
    Pooled nominal, burst;
    std::vector<double> factors, publish_ms, adjusted_publish_ms;
    uint64_t id = 10;
    for (int c = 0; c < kCycles; ++c) {
      const std::string k = std::to_string(c);
      FactorSampler nominal_sampler;
      Phase* phase = run_phase("nominal" + k, kNominalRate, phase_s, id++);
      phase->factor = nominal_sampler.Stop();
      factors.push_back(phase->factor);
      nominal.Add(*phase);
      if (!cold) {
        for (double ms : QuiescentPublishes(server, setup.checkpoint,
                                            kQuiescentPublishes, &out)) {
          publish_ms.push_back(ms);
          adjusted_publish_ms.push_back(ms / phase->factor);
        }
      }
      phases.push_back(std::make_unique<Phase>(MakeBurst(
          "burst" + k, phase_s, picker, args.seed, id++, &check_counter)));
      phase = phases.back().get();
      FactorSampler burst_sampler;
      ExecuteClosed(server, kShards, phase_s, phase);
      phase->factor = burst_sampler.Stop();
      factors.push_back(phase->factor);
      Evaluate(phase);
      burst.Add(*phase);
    }
    for (const auto& phase : phases) {
      for (double ms : phase->publish_ms) {
        publish_ms.push_back(ms);
        adjusted_publish_ms.push_back(ms / phase->factor);
      }
    }
    const TailSummary latency = SummarizeTail(nominal.latency_ms);
    const double answered =
        static_cast<double>(nominal.model + burst.model) /
        static_cast<double>(std::max<int64_t>(1, nominal.sent + burst.sent));
    const double rate = Median(burst.rates);
    out.Set("serve_p50_ms", Median(nominal.adjusted_ms), "ms");
    out.Set("serve_rate_per_s", Median(burst.adjusted_rates), "1/s");
    out.Set("answered_ratio", answered, "ratio");
    out.Set("model_refresh_ms", Median(adjusted_publish_ms), "ms");
    out.Note("host factor: median " + Fmt(Median(factors), 3) + ", range " +
             Fmt(*std::min_element(factors.begin(), factors.end()), 3) +
             " .. " +
             Fmt(*std::max_element(factors.begin(), factors.end()), 3) +
             " over " + std::to_string(factors.size()) +
             " phases; the figures below are raw");
    out.Note("serve_p50_ms " + Fmt(latency.p50) + " ms, serve_p99_ms " +
             Fmt(latency.tail) + " ms (q=" + Fmt(latency.tail_q, 3) +
             ", n=" + std::to_string(latency.count) + ", open loop at " +
             Fmt(kNominalRate, 0) + " req/s, pooled over " +
             std::to_string(kCycles) + " nominal phases)");
    out.Note("serve_rate_per_s " + Fmt(rate, 1) + " 1/s (median of " +
             std::to_string(kCycles) + " burst phases, " +
             std::to_string(kShards) + " senders x " + std::to_string(kBurst) +
             " requests per PredictBatch; send-to-answer p50 " +
             Fmt(Median(burst.latency_ms), 3) + " ms, p99 " +
             Fmt(Quantile(burst.latency_ms, 0.99), 3) + " ms)");
    out.Note("serve_degraded_ratio " + Fmt(1.0 - answered, 5) +
             " (nominal and burst phases)");
    out.Note("loadgen lag at nominal: p99 " +
             Fmt(Quantile(nominal.lag_ms, 0.99), 3) + " ms, max " +
             Fmt(nominal.lag_ms.empty()
                     ? 0.0
                     : *std::max_element(nominal.lag_ms.begin(),
                                         nominal.lag_ms.end()),
                 3) +
             " ms");
    out.Note("publish_ms " + Fmt(Median(publish_ms)) + " ms (n=" +
             std::to_string(publish_ms.size()) +
             (cold ? ", under load)" : ", quiescent)"));
  }

  std::vector<Phase*> checked;
  for (const auto& phase : phases) checked.push_back(phase.get());
  CheckAnswers(setup, args.seed, checked, &out);
  Tally(checked, &out);
  out.Note("open-loop senders " + std::to_string(kOpenSenders) + ", shards " +
           std::to_string(kShards) + ", shops " + std::to_string(num_shops));
  setup.server->Stop();
  std::remove(setup.checkpoint.c_str());
  if (!args.trace) out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace gaia::perf
