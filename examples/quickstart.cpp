// Quickstart: build a 4-qubit QNN, train it with in-situ parameter-shift
// gradients on a noise-free simulator backend, and evaluate it.
//
// This walks through the whole public API surface in ~80 lines:
//   dataset -> model -> backend -> TrainingEngine -> accuracy.
//
// Build & run:   ./build/quickstart

#include <cstdio>

#include "qoc/backend/backend.hpp"
#include "qoc/data/images.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/train/training_engine.hpp"

int main() {
  using namespace qoc;

  std::printf("QOC quickstart: 2-class QNN with parameter-shift training\n");
  std::printf("==========================================================\n\n");

  // 1. Data: a synthetic 2-class image task (bar vs ring prototypes),
  //    run through the paper's 28x28 -> crop 24 -> pool 4x4 pipeline.
  data::SyntheticImages gen(data::SyntheticImages::Style::Digits, 2,
                            /*seed=*/42, /*difficulty=*/0.2);
  gen.set_templates({1, 0});
  const data::Dataset train = gen.make_dataset(64);
  data::SyntheticImages val_gen(data::SyntheticImages::Style::Digits, 2,
                                /*seed=*/43, /*difficulty=*/0.2);
  val_gen.set_templates({1, 0});
  const data::Dataset val = val_gen.make_dataset(64);
  std::printf("dataset: %zu train / %zu val examples, %zu features each\n",
              train.size(), val.size(), train.feature_dim());

  // 2. Model: the paper's 2-class architecture -- 16-angle image encoder,
  //    one RZZ ring layer, one RY layer, pair-sum measurement head.
  const qml::QnnModel model = qml::make_mnist2_model();
  std::printf("model: %s, %d trainable parameters, %zu gates, depth %zu\n\n",
              model.name().c_str(), model.num_params(),
              model.circuit().num_ops(), model.circuit().depth());

  // 3. Backend: exact noise-free statevector execution (shots = 0).
  backend::StatevectorBackend backend(/*shots=*/0);

  // 4. Train with Alg. 1 (no pruning here; see mnist4_onchip_pgp for the
  //    full probabilistic-gradient-pruning setup).
  train::TrainingConfig cfg;
  cfg.steps = 60;
  cfg.batch_size = 16;
  cfg.optimizer = train::OptimizerKind::Adam;
  cfg.lr_start = 0.3;   // cosine schedule, Sec. 4.3
  cfg.lr_end = 0.03;
  cfg.eval_every = 10;
  cfg.seed = 7;

  train::TrainingEngine engine(model, backend, backend, train, val, cfg);
  engine.set_step_callback([](const train::TrainingRecord& rec) {
    std::printf("  step %3d | inferences %6llu | loss %.4f | val acc %.3f | "
                "lr %.3f\n",
                rec.step, static_cast<unsigned long long>(rec.inferences),
                rec.train_loss, rec.val_accuracy, rec.learning_rate);
  });

  std::printf("training (%d steps, batch %zu, Adam, cosine LR %.2f->%.2f):\n",
              cfg.steps, cfg.batch_size, cfg.lr_start, cfg.lr_end);
  const train::TrainingResult result = engine.run();

  std::printf("\nfinal validation accuracy : %.3f\n",
              result.final_val_accuracy);
  std::printf("best validation accuracy  : %.3f\n", result.best_val_accuracy);
  std::printf("total circuit inferences  : %llu\n",
              static_cast<unsigned long long>(result.total_inferences));
  return 0;
}
