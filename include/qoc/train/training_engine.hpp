#pragma once
// The TrainingEngine of Sec. 3.2 / Alg. 1: PQC on-chip training with
// parameter shift and (optional) probabilistic gradient pruning.
//
// Each step:
//   1. sample a mini-batch,
//   2. get the step's parameter mask from the pruner (all-true when
//      pruning is disabled or during accumulation windows),
//   3. evaluate the masked batch gradient in-situ via parameter shift,
//   4. let the pruner observe the gradient magnitudes,
//   5. take a masked optimizer step under the cosine LR schedule,
//   6. periodically evaluate validation accuracy on the eval backend.
//
// The history records the backend inference counter at every evaluation,
// which is exactly the x-axis of the paper's Fig. 6 curves.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/data/dataset.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/optimizer.hpp"
#include "qoc/train/param_shift.hpp"
#include "qoc/train/pruner.hpp"

namespace qoc::train {

struct TrainingConfig {
  int steps = 60;
  std::size_t batch_size = 16;
  OptimizerKind optimizer = OptimizerKind::Adam;
  double lr_start = 0.3;   // cosine schedule per Sec. 4.3
  double lr_end = 0.03;
  std::uint64_t seed = 42;

  bool use_pruning = false;
  PrunerConfig pruner;     // w_a=1, w_p=2, r=0.5 defaults

  /// Evaluate validation accuracy every `eval_every` steps (0 = only at
  /// the end). Evaluation runs on eval_backend if set, else the training
  /// backend -- the paper always *tests on real QC*, so benches pass the
  /// noisy backend here even for Classical-Train.
  int eval_every = 10;
  /// Cap on validation examples per evaluation (0 = use all). Evaluation
  /// subsampling keeps bench runtimes sane without changing the training
  /// trajectory.
  std::size_t max_eval_examples = 0;

  /// Worker threads for the batched gradient and validation submissions:
  /// 0 = all cores (default; `QOC_THREADS` sizes it), 1 = sequential.
  /// The model circuit is compiled once into an execution plan and every
  /// step submits its shifted evaluations as one backend batch, so
  /// results are identical for any thread count (see Backend::run_batch).
  unsigned threads = 0;

  void validate() const;
};

struct TrainingRecord {
  int step = 0;                 // optimizer steps taken so far
  std::uint64_t inferences = 0; // training-backend circuit runs so far
  double train_loss = 0.0;      // mini-batch loss at this step
  double val_accuracy = 0.0;    // accuracy on the (sub)sampled validation set
  double learning_rate = 0.0;
};

struct TrainingResult {
  std::vector<double> theta;            // final parameters
  std::vector<TrainingRecord> history;  // one record per evaluation
  double final_val_accuracy = 0.0;
  double best_val_accuracy = 0.0;
  std::uint64_t total_inferences = 0;   // training backend runs
};

class TrainingEngine {
 public:
  /// `train_backend` runs the shifted circuits (the quantum chip);
  /// `eval_backend` measures validation accuracy (pass the same noisy
  /// backend to reproduce "tested on real quantum circuits").
  TrainingEngine(const qml::QnnModel& model, backend::Backend& train_backend,
                 backend::Backend& eval_backend, const data::Dataset& train,
                 const data::Dataset& val, TrainingConfig config);

  /// Run Alg. 1 from the given initial parameters (empty = random init
  /// from the config seed).
  TrainingResult run(std::vector<double> theta_init = {});

  /// Optional per-step observer (step, record) -- used by benches to
  /// stream curve points.
  void set_step_callback(
      std::function<void(const TrainingRecord&)> cb) {
    step_callback_ = std::move(cb);
  }

 private:
  double evaluate(std::span<const double> theta, Prng& rng);

  const qml::QnnModel& model_;
  backend::Backend& train_backend_;
  backend::Backend& eval_backend_;
  const data::Dataset& train_;
  const data::Dataset& val_;
  TrainingConfig config_;
  std::function<void(const TrainingRecord&)> step_callback_;
};

}  // namespace qoc::train
