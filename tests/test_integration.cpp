// End-to-end integration tests: the full Alg. 1 training loop on noise-free
// and noisy backends, plus pruning behaviour at system level. These are the
// "does the paper's pipeline actually learn" tests.

#include <gtest/gtest.h>

#include <cmath>

#include "qoc/backend/backend.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/data/images.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

namespace {

using namespace qoc;
using backend::NoisyBackend;
using backend::NoisyBackendOptions;
using backend::StatevectorBackend;
using train::TrainingConfig;
using train::TrainingEngine;
using train::TrainingResult;

/// Small, well-separated 2-class dataset for fast convergence tests.
data::TaskData easy_two_class(std::uint64_t seed) {
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 2, seed,
                            0.15);
  gen.set_templates({1, 0});  // bar vs ring: visually very distinct
  data::TaskData td;
  td.train = gen.make_dataset(48);
  data::SyntheticImages val_gen(data::SyntheticImages::Style::Digits, 2,
                                seed + 1, 0.15);
  val_gen.set_templates({1, 0});
  td.val = val_gen.make_dataset(40);
  return td;
}

TEST(Integration, NoiseFreeTrainingLearnsEasyTask) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(3);

  StatevectorBackend backend(0);
  TrainingConfig cfg;
  cfg.steps = 40;
  cfg.batch_size = 12;
  cfg.seed = 7;
  cfg.eval_every = 40;

  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  const TrainingResult res = engine.run();
  EXPECT_GT(res.final_val_accuracy, 0.8)
      << "noise-free training failed to learn a well-separated 2-class task";
}

TEST(Integration, TrainingImprovesOverInitialization) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(5);
  StatevectorBackend backend(0);

  Prng rng(11);
  const auto theta0 = model.init_params(rng);
  const double acc_before = model.accuracy(backend, theta0, td.val);

  TrainingConfig cfg;
  cfg.steps = 30;
  cfg.batch_size = 12;
  cfg.seed = 11;
  cfg.eval_every = 0;
  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  const TrainingResult res = engine.run(theta0);
  EXPECT_GE(res.final_val_accuracy, acc_before);
  EXPECT_GT(res.final_val_accuracy, 0.7);
}

TEST(Integration, HistoryRecordsMonotoneInferenceCounts) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(8);
  StatevectorBackend backend(0);
  TrainingConfig cfg;
  cfg.steps = 9;
  cfg.batch_size = 4;
  cfg.eval_every = 3;
  cfg.seed = 13;
  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  const TrainingResult res = engine.run();
  ASSERT_EQ(res.history.size(), 3u);
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_GT(res.history[i].inferences, res.history[i - 1].inferences);
  EXPECT_EQ(res.history.back().step, 9);
}

TEST(Integration, PruningReducesInferenceCount) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(9);

  auto run_with = [&](bool prune) {
    StatevectorBackend backend(0);
    TrainingConfig cfg;
    cfg.steps = 12;
    cfg.batch_size = 6;
    cfg.seed = 17;
    cfg.eval_every = 0;
    cfg.use_pruning = prune;
    cfg.pruner.accumulation_window = 1;
    cfg.pruner.pruning_window = 2;
    cfg.pruner.ratio = 0.5;
    TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
    // Count only training inferences (eval shares the backend: disable it
    // except the mandatory final eval; subtract it).
    const TrainingResult res = engine.run();
    return res;
  };

  const auto pruned = run_with(true);
  const auto full = run_with(false);
  // Savings fraction = r * wp/(wa+wp) = 1/3 of *gradient* evaluations.
  EXPECT_LT(pruned.total_inferences, full.total_inferences);
  const double saved =
      1.0 - static_cast<double>(pruned.total_inferences) /
                static_cast<double>(full.total_inferences);
  EXPECT_GT(saved, 0.15);
  EXPECT_LT(saved, 0.45);
}

TEST(Integration, PrunedTrainingStillLearns) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(10);
  StatevectorBackend backend(0);
  TrainingConfig cfg;
  cfg.steps = 40;
  cfg.batch_size = 12;
  cfg.seed = 19;
  cfg.eval_every = 0;
  cfg.use_pruning = true;
  cfg.pruner.ratio = 0.5;
  cfg.pruner.pruning_window = 2;
  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  const TrainingResult res = engine.run();
  EXPECT_GT(res.final_val_accuracy, 0.75);
}

TEST(Integration, NoisyOnChipTrainingLearns) {
  // QC-Train on the simulated device: fewer shots/trajectories to keep the
  // test fast; the task is easy so even noisy gradients converge.
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(12);

  NoisyBackendOptions opt;
  opt.trajectories = 16;
  opt.shots = 512;
  opt.seed = 99;
  NoisyBackend backend(noise::DeviceModel::ibmq_santiago(), opt);

  TrainingConfig cfg;
  cfg.steps = 20;
  cfg.batch_size = 8;
  cfg.seed = 23;
  cfg.eval_every = 0;
  cfg.max_eval_examples = 40;
  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  const TrainingResult res = engine.run();
  EXPECT_GT(res.final_val_accuracy, 0.6)
      << "on-chip (noisy) training should still learn the easy task";
}

TEST(Integration, StepCallbackStreamsRecords) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(14);
  StatevectorBackend backend(0);
  TrainingConfig cfg;
  cfg.steps = 6;
  cfg.batch_size = 4;
  cfg.eval_every = 2;
  cfg.seed = 29;
  TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
  int calls = 0;
  engine.set_step_callback([&](const train::TrainingRecord& rec) {
    ++calls;
    EXPECT_GT(rec.inferences, 0u);
  });
  engine.run();
  EXPECT_EQ(calls, 3);
}

TEST(Integration, ConfigValidationCatchesMistakes) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(15);
  StatevectorBackend backend(0);
  TrainingConfig cfg;
  cfg.steps = 0;
  EXPECT_THROW(TrainingEngine(model, backend, backend, td.train, td.val, cfg),
               std::invalid_argument);

  cfg = TrainingConfig{};
  data::Dataset bad_dim;
  bad_dim.push(std::vector<double>(5, 0.0), 0);
  EXPECT_THROW(TrainingEngine(model, backend, backend, bad_dim, td.val, cfg),
               std::invalid_argument);
}

TEST(Integration, DeterministicGivenSeed) {
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = easy_two_class(16);
  auto run_once = [&] {
    StatevectorBackend backend(0);
    TrainingConfig cfg;
    cfg.steps = 8;
    cfg.batch_size = 4;
    cfg.seed = 31;
    cfg.eval_every = 0;
    TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
    return engine.run().theta;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Integration, NoisyPrunedTrainingIsThreadCountInvariant) {
  // QC-Train-PGP end to end on the simulated jakarta: the gradient and
  // validation batches fan over the shared pool, and every evaluation
  // draws from its own indexed stream, so the thread count may change
  // wall-clock only. 0 (every core) is the library default.
  EXPECT_EQ(TrainingConfig{}.threads, 0u);
  const qml::QnnModel model = qml::make_mnist2_model();
  const auto td = data::make_mnist2();
  auto run_with = [&](unsigned threads) {
    NoisyBackendOptions opt;
    opt.trajectories = 4;
    opt.shots = 256;
    opt.seed = 41;
    NoisyBackend backend(noise::DeviceModel::ibmq_jakarta(), opt);
    TrainingConfig cfg;
    cfg.steps = 6;
    cfg.batch_size = 4;
    cfg.seed = 43;
    cfg.eval_every = 3;
    cfg.max_eval_examples = 24;
    cfg.use_pruning = true;
    cfg.pruner.accumulation_window = 1;
    cfg.pruner.pruning_window = 2;
    cfg.pruner.ratio = 0.5;
    cfg.threads = threads;
    TrainingEngine engine(model, backend, backend, td.train, td.val, cfg);
    return engine.run();
  };
  const TrainingResult ref = run_with(1);
  ASSERT_EQ(ref.history.size(), 2u);
  for (const unsigned threads : {3u, 0u}) {
    SCOPED_TRACE(threads);
    const TrainingResult res = run_with(threads);
    EXPECT_EQ(res.theta, ref.theta);
    ASSERT_EQ(res.history.size(), ref.history.size());
    for (std::size_t i = 0; i < ref.history.size(); ++i) {
      EXPECT_EQ(res.history[i].step, ref.history[i].step);
      EXPECT_EQ(res.history[i].inferences, ref.history[i].inferences);
      EXPECT_EQ(res.history[i].train_loss, ref.history[i].train_loss);
      EXPECT_EQ(res.history[i].val_accuracy, ref.history[i].val_accuracy);
      EXPECT_EQ(res.history[i].learning_rate, ref.history[i].learning_rate);
    }
    EXPECT_EQ(res.total_inferences, ref.total_inferences);
    EXPECT_EQ(res.final_val_accuracy, ref.final_val_accuracy);
    EXPECT_EQ(res.best_val_accuracy, ref.best_val_accuracy);
  }
}

}  // namespace
