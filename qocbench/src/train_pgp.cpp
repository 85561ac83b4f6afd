// Workload `train_pgp`: QC-Train-PGP (Alg. 1 with probabilistic
// gradient pruning, w_a = 1, w_p = 2, r = 0.5 or 0.7 for Fashion-4) over
// the five paper tasks on their paper devices, every gradient and every
// periodic validation run on the task's NoisyBackend. Threads and lane
// policy stay at the library defaults.
//
// One pass trains the five tasks from scratch to a fixed step budget and
// ends with the final on-device accuracy check, so a pass's wall time is
// time-to-accuracy. Passes repeat until --seconds is spent, at least
// kMinPasses times; each pass must reproduce the first one's parameters
// bit for bit.
//
// Timed passes call TrainingEngine::run. The traced pass instead
// rebuilds Alg. 1 from the library's public components, seeded exactly
// as TrainingEngine::run seeds them, with a span around every call, and
// must end on the same parameters and inference count as the untraced
// engine.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "timed_backend.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/data/vowel.hpp"
#include "qoc/noise/device_model.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

namespace qocbench {
namespace {

using namespace qoc;

struct TaskSpec {
  const char* name;
  const char* model_key;
  const char* device;
  double prune_ratio;
};
// Sec. 4.2: the paper's task -> device assignment and pruning ratios.
constexpr TaskSpec kTasks[] = {
    {"MNIST-4", "mnist4", "ibmq_jakarta", 0.5},
    {"MNIST-2", "mnist2", "ibmq_jakarta", 0.5},
    {"Fashion-4", "fashion4", "ibmq_manila", 0.7},
    {"Fashion-2", "fashion2", "ibmq_santiago", 0.5},
    {"Vowel-4", "vowel4", "ibmq_lima", 0.5},
};

constexpr int kSteps = 30;           // ten PGP stages of w_a + w_p = 3
constexpr int kEvalEvery = 6;        // validate every other stage
constexpr std::size_t kEvalExamples = 50;
constexpr int kSetupReps = 3;
constexpr int kWarmSteps = 3;        // set-up's throwaway run: one stage
constexpr std::size_t kMinPasses = 3;  // a per-step median needs three
// Training must work: the better of the two 2-class tasks must reach a
// best on-device validation accuracy of kTwoClassFloor in the run. A
// pipeline that does not learn (chance 0.5) scores about 0.61 on this
// (the best of ten 50-example validations). A single task is no floor,
// nor is the final accuracy: either can stay near or below chance in
// some seeds at this step budget (seed 105: MNIST-2 never above 0.44;
// seed 21: Fashion-2 peaked at 0.72 and ended at 0.38). Over 62 seeds
// (0-30, 101-110 and 21 up to 987654321) the figure ranged 0.84-1.0.
// The 4-class tasks are still near their chance level (0.25) here.
constexpr double kTwoClassFloor = 0.75;

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Task {
  const TaskSpec* spec;
  data::Dataset train, val;
  qml::QnnModel model;
  noise::DeviceModel device;
  backend::NoisyBackendOptions noisy;
  train::TrainingConfig cfg;
};

struct Setup {
  std::vector<Task> tasks;
  double synth_s = 0.0;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  for (std::size_t i = 0; i < std::size(kTasks); ++i) {
    const TaskSpec& spec = kTasks[i];
    // The task datasets are the library's fixed synthetic stand-ins
    // (their default seeds), like the paper's fixed datasets; --seed
    // drives everything a training run draws.
    const double t0 = now_s();
    data::Dataset train, val;
    const std::string key = spec.model_key;
    if (key == "vowel4") {
      auto d = data::make_vowel4();
      train = std::move(d.train), val = std::move(d.val);
    } else {
      auto d = key == "mnist4"   ? data::make_mnist4()
               : key == "mnist2" ? data::make_mnist2()
               : key == "fashion4" ? data::make_fashion4()
                                   : data::make_fashion2();
      train = std::move(d.train), val = std::move(d.val);
    }
    s.synth_s += now_s() - t0;

    backend::NoisyBackendOptions noisy;  // the paper benches' noisy options
    noisy.trajectories = 8;
    noisy.shots = 1024;
    noisy.noise_scale = 2.5;
    noisy.seed = mix(seed, 100 + i);

    train::TrainingConfig cfg;
    cfg.steps = kSteps;
    cfg.batch_size = 6;
    cfg.optimizer = train::OptimizerKind::Adam;
    cfg.lr_start = 0.3;
    cfg.lr_end = 0.03;
    cfg.eval_every = kEvalEvery;
    cfg.max_eval_examples = kEvalExamples;
    cfg.seed = mix(seed, 200 + i);
    cfg.use_pruning = true;
    cfg.pruner.accumulation_window = 1;
    cfg.pruner.pruning_window = 2;
    cfg.pruner.ratio = spec.prune_ratio;

    s.tasks.push_back(Task{&spec, std::move(train), std::move(val),
                           qml::make_task_model(key),
                           noise::DeviceModel::by_name(spec.device), noisy, cfg});
    // A throwaway training run of one PGP stage and a validation
    // finishes the library's lazy, process-wide set-up (lane
    // calibration, worker threads, allocator growth) before anything is
    // timed; without it the first timed pass ran 1-30% slower than the
    // next one.
    const Task& t = s.tasks.back();
    train::TrainingConfig warm_cfg = t.cfg;
    warm_cfg.steps = kWarmSteps;
    backend::NoisyBackend warm(t.device, t.noisy);
    train::TrainingEngine(t.model, warm, warm, t.train, t.val, warm_cfg).run();
  }
  return s;
}

bool is_gradient_batch(std::span<const exec::Evaluation> evals) {
  for (const auto& e : evals)
    if (e.shift_op != exec::Evaluation::kNoShift) return true;
  return false;
}

struct TaskOutcome {
  std::vector<double> theta;
  double accuracy = 0.0;       // final on-device validation
  double best_accuracy = 0.0;  // best periodic validation of the run
  std::uint64_t inferences = 0;
};

struct Pass {
  double wall_s = 0.0;
  std::uint64_t inferences = 0;
  std::vector<TaskOutcome> tasks;
  std::vector<double> step_ms;
};

/// One timed pass through TrainingEngine::run. Step latency comes from
/// the starts of the gradient batches the decorator sees: step k spans
/// from the start of gradient batch k to the start of batch k + 1 (the
/// run's start and end close the first and last steps), so the
/// optimizer update and any validation fall into the step that ran them.
Pass timed_pass(const Setup& s) {
  Pass p;
  const double t0 = now_s();
  for (const Task& t : s.tasks) {
    backend::NoisyBackend qc(t.device, t.noisy);
    BackendStats stats;
    std::vector<std::uint64_t> grad_starts;
    stats.on_batch = [&](std::span<const exec::Evaluation> evals,
                         std::uint64_t b0, std::uint64_t) {
      if (is_gradient_batch(evals)) grad_starts.push_back(b0);
    };
    TimedBackend timed(qc, stats);
    const std::uint64_t run0 = steady_ns();
    train::TrainingEngine engine(t.model, timed, timed, t.train, t.val, t.cfg);
    auto res = engine.run();
    const std::uint64_t run1 = steady_ns();
    std::uint64_t prev = run0;
    for (std::size_t k = 1; k < grad_starts.size(); ++k) {
      p.step_ms.push_back(static_cast<double>(grad_starts[k] - prev) * 1e-6);
      prev = grad_starts[k];
    }
    p.step_ms.push_back(static_cast<double>(run1 - prev) * 1e-6);
    p.inferences += qc.inference_count();
    p.tasks.push_back({std::move(res.theta), res.final_val_accuracy,
                       res.best_val_accuracy, qc.inference_count()});
  }
  p.wall_s = now_s() - t0;
  return p;
}

struct TracedTotals {
  double param_shift_s = 0.0, validate_s = 0.0, pruner_optimizer_s = 0.0;
  std::uint64_t gradient_calls = 0, gradient_evals = 0, full_evals = 0;
  std::vector<double> step_ms;
};

/// Alg. 1 rebuilt from public components, seeded exactly as
/// TrainingEngine::run seeds them, with a span around every layer call.
TaskOutcome traced_task(const Task& t, backend::Backend& qc, TracedTotals& tot) {
  obs::SpanGuard task_span("train", "task");
  const train::TrainingConfig& cfg = t.cfg;
  Prng rng(cfg.seed);
  std::vector<double> theta = t.model.init_params(rng);
  train::ParameterShiftEngine shift(qc, t.model);
  shift.set_threads(cfg.threads);
  auto optimizer = train::make_optimizer(cfg.optimizer, cfg.lr_start);
  train::CosineScheduler scheduler(cfg.lr_start, cfg.lr_end, cfg.steps);
  data::BatchSampler sampler(t.train, cfg.batch_size, rng());
  train::GradientPruner pruner(t.model.num_params(), cfg.pruner, rng());
  Prng eval_rng(rng());

  TaskOutcome out;
  std::uint64_t max_evals = 0;
  for (int step = 1; step <= cfg.steps; ++step) {
    obs::SpanGuard step_span("train", "step");
    const double s0 = now_s();
    optimizer->set_learning_rate(scheduler.at(step - 1));
    std::vector<std::size_t> batch;
    {
      obs::SpanGuard span("data", "batch_sample");
      batch = sampler.next();
    }
    std::vector<bool> mask;
    {
      obs::SpanGuard span("pruner_optimizer", "next_mask");
      const double c0 = now_s();
      mask = pruner.next_mask();
      tot.pruner_optimizer_s += now_s() - c0;
    }
    train::BatchGradient bg;
    {
      obs::SpanGuard span("param_shift", "batch_gradient");
      const double c0 = now_s();
      bg = shift.batch_gradient(theta, t.train, batch, &mask);
      tot.param_shift_s += now_s() - c0;
    }
    ++tot.gradient_calls;
    tot.gradient_evals += bg.inferences;
    max_evals = std::max(max_evals, bg.inferences);
    {
      obs::SpanGuard span("pruner_optimizer", "observe_and_step");
      const double c0 = now_s();
      pruner.observe(bg.grad);
      optimizer->step(theta, bg.grad, &mask);
      tot.pruner_optimizer_s += now_s() - c0;
    }
    if ((cfg.eval_every > 0 && step % cfg.eval_every == 0) || step == cfg.steps) {
      obs::SpanGuard span("validate", "accuracy");
      const double c0 = now_s();
      if (cfg.max_eval_examples > 0 && t.val.size() > cfg.max_eval_examples) {
        const data::Dataset sub = t.val.sample(cfg.max_eval_examples, eval_rng);
        out.accuracy = t.model.accuracy(qc, theta, sub, cfg.threads);
      } else {
        out.accuracy = t.model.accuracy(qc, theta, t.val, cfg.threads);
      }
      out.best_accuracy = std::max(out.best_accuracy, out.accuracy);
      tot.validate_s += now_s() - c0;
    }
    tot.step_ms.push_back((now_s() - s0) * 1e3);
  }
  // The first step of every stage is an accumulation step: all
  // parameters, so its count is the unpruned gradient cost.
  tot.full_evals += max_evals * static_cast<std::uint64_t>(cfg.steps);
  out.theta = std::move(theta);
  out.inferences = qc.inference_count();
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

void run_train_pgp(const Args& a, Report& r) {
  // ---- set-up, repeated; the last one is kept -------------------------
  std::vector<double> setup_s, synth_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // tear the previous rep down outside the timed region
    const double t0 = rep == 0 ? 0.0 : now_s();  // rep 0 from process start
    s = set_up(a.seed);
    setup_s.push_back(now_s() - t0);
    synth_s.push_back(s.synth_s);
  }
  r.set("setup_s", median(setup_s));
  r.set("data.synth_s", median(synth_s));

  // ---- timed passes (tracer off) ----------------------------------------
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const double start = now_s();
  std::vector<Pass> passes;
  do {
    passes.push_back(timed_pass(s));
  } while (passes.size() < kMinPasses ||
           now_s() - start + passes.back().wall_s <= budget);

  const Pass& ref = passes.front();
  double acc_sum = 0.0, two_class_best = 0.0;
  for (std::size_t i = 0; i < ref.tasks.size(); ++i) {
    const TaskOutcome& t = ref.tasks[i];
    acc_sum += t.accuracy;
    if (s.tasks[i].model.num_classes() == 2)
      two_class_best = std::max(two_class_best, t.best_accuracy);
    char line[160];
    std::snprintf(line, sizeof line,
                  "train_pgp %-9s acc=%.4f best=%.4f inferences=%" PRIu64 " theta=%s",
                  s.tasks[i].spec->name, t.accuracy, t.best_accuracy, t.inferences,
                  hex(digest(t.theta)).c_str());
    r.note(line);
  }
  const double val_acc = acc_sum / static_cast<double>(ref.tasks.size());
  r.set("train.val_acc", val_acc);
  r.check(two_class_best >= kTwoClassFloor,
          "best 2-class accuracy " + std::to_string(two_class_best) + " >= floor " +
              std::to_string(kTwoClassFloor));
  std::vector<double> steps, step_p99;
  for (const Pass& p : passes) {
    r.check(p.step_ms.size() == ref.step_ms.size(), "pass repeats the first pass's steps");
    for (std::size_t i = 0; i < p.tasks.size(); ++i)
      r.check(p.tasks[i].theta == ref.tasks[i].theta &&
                  p.tasks[i].inferences == ref.tasks[i].inferences &&
                  p.tasks[i].accuracy == ref.tasks[i].accuracy &&
                  p.tasks[i].best_accuracy == ref.tasks[i].best_accuracy,
              std::string("pass repeats the first pass bitwise: ") +
                  s.tasks[i].spec->name);
    steps.insert(steps.end(), p.step_ms.begin(), p.step_ms.end());
    step_p99.push_back(quantile(p.step_ms, 0.99));
  }
  {
    // The decorator is pure observation: a bare backend gives the same
    // run bit for bit (checked on the cheapest task, outside timing).
    const std::size_t i = 1;  // MNIST-2
    const Task& t = s.tasks[i];
    backend::NoisyBackend bare(t.device, t.noisy);
    train::TrainingEngine engine(t.model, bare, bare, t.train, t.val, t.cfg);
    const auto res = engine.run();
    r.check(res.theta == ref.tasks[i].theta &&
                bare.inference_count() == ref.tasks[i].inferences &&
                res.final_val_accuracy == ref.tasks[i].accuracy &&
                res.best_val_accuracy == ref.tasks[i].best_accuracy,
            "decorated and bare backends train identically");
  }
  r.note("train_pgp passes=" + std::to_string(passes.size()) +
         " steps=" + std::to_string(steps.size()) +
         " inferences/pass=" + std::to_string(ref.inferences));
  // Time-to-accuracy of one pass: each training step's median over the
  // passes, summed. Host interference on a shared VM comes in bursts of
  // a few seconds (passes of one run differed by up to 17%), which a
  // per-step median drops when they hit one pass only.
  double wall = 0.0;
  for (std::size_t k = 0; k < ref.step_ms.size(); ++k) {
    std::vector<double> v;
    for (const Pass& p : passes)
      if (k < p.step_ms.size()) v.push_back(p.step_ms[k]);
    wall += median(v) * 1e-3;
  }
  const auto inferences = static_cast<double>(ref.inferences);
  r.set("wall_s", wall);
  r.set("throughput", inferences / wall);
  r.set("latency.p50_ms", quantile(steps, 0.50));
  r.set("latency.p99_ms", median(step_p99));  // per pass: one slow pass moves it little
  r.set("train.us_per_inference", 1e6 * wall / inferences);
  if (!a.trace) return;

  // ---- traced pass: rebuilt Alg. 1, decorated backends, tracer on -----
  const LibCounters c0 = LibCounters::read();
  BackendStats stats;
  TracedTotals tot;
  start_tracing();
  const double t0 = now_s();
  std::vector<TaskOutcome> traced;
  for (const Task& t : s.tasks) {
    backend::NoisyBackend qc(t.device, t.noisy);
    TimedBackend timed(qc, stats);
    traced.push_back(traced_task(t, timed, tot));
    r.check(qc.inference_count() == traced.back().inferences,
            "decorator and wrapped backend count the same inferences");
  }
  const double traced_wall = now_s() - t0;
  const TraceSummary sum = finish_tracing(a, r, "train");
  (LibCounters::read() - c0).report(r);

  for (std::size_t i = 0; i < traced.size(); ++i)
    r.check(traced[i].theta == ref.tasks[i].theta &&
                traced[i].inferences == ref.tasks[i].inferences &&
                traced[i].accuracy == ref.tasks[i].accuracy &&
                traced[i].best_accuracy == ref.tasks[i].best_accuracy,
            std::string("traced Alg. 1 reproduces TrainingEngine::run: ") +
                s.tasks[i].spec->name);

  report_backend(stats, r);
  r.set("train.step_ms.p50", quantile(tot.step_ms, 0.50));
  r.set("train.step_ms.p99", quantile(tot.step_ms, 0.99));
  r.set("train.param_shift_busy_s", tot.param_shift_s);
  r.set("train.evals_per_gradient",
        ratio(static_cast<double>(tot.gradient_evals),
              static_cast<double>(tot.gradient_calls)));
  r.set("train.validate_busy_s", tot.validate_s);
  r.set("train.prune_skip_ratio",
        1.0 - ratio(static_cast<double>(tot.gradient_evals),
                    static_cast<double>(tot.full_evals)));
  r.set("train.pruner_optimizer_busy_s", tot.pruner_optimizer_s);
  r.set("trace.overhead_ratio", traced_wall / wall);
  r.set("trace.span_coverage", sum.top_level_s / traced_wall);
}

}  // namespace qocbench
