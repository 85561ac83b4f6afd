#pragma once
// Quantum Neural Network models (Fig. 3): pixel/feature encoder ->
// trainable quantum layers -> Pauli-Z measurement -> classical head.
//
// The five task circuits follow Sec. 4.1 exactly:
//   MNIST-2 / Fashion-2 : 1x (RZZ ring + RY layer), PairSum head
//   MNIST-4             : 3x (RX + RY + RZ + CZ layers), Identity head
//   Fashion-4           : 3x (RZZ ring + RY layer), Identity head
//   Vowel-4             : 2x (RZZ ring + RXX ring), Identity head
// All tasks use four logical qubits.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qoc/autodiff/loss.hpp"
#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/data/dataset.hpp"
#include "qoc/exec/compiled_circuit.hpp"

namespace qoc::qml {

class QnnModel {
 public:
  QnnModel(std::string name, circuit::Circuit circuit,
           autodiff::MeasurementHead head);

  const std::string& name() const { return name_; }
  const circuit::Circuit& circuit() const { return circuit_; }
  const autodiff::MeasurementHead& head() const { return head_; }

  /// Execution plan compiled once at construction ("bind once, run
  /// many"): every forward/accuracy/gradient evaluation of the model
  /// reuses it instead of re-lowering the circuit.
  const exec::CompiledCircuit& plan() const { return plan_; }

  int num_params() const { return circuit_.num_trainable(); }
  int num_inputs() const { return circuit_.num_inputs(); }
  int num_classes() const { return head_.num_logits(); }

  /// Random initial parameters ~ U(-pi, pi), the usual PQC init.
  std::vector<double> init_params(Prng& rng) const;

  /// Forward pass on a backend: run the circuit, apply the head.
  /// Returns the class logits.
  std::vector<double> forward(backend::Backend& backend,
                              std::span<const double> theta,
                              std::span<const double> input) const;

  /// Predicted class = argmax logits.
  int predict(backend::Backend& backend, std::span<const double> theta,
              std::span<const double> input) const;

  /// Classification accuracy over a dataset, submitted as one batched
  /// backend call. threads: 0 = all cores (default; `QOC_THREADS` sizes
  /// it), 1 = sequential. Results are independent of the thread count.
  double accuracy(backend::Backend& backend, std::span<const double> theta,
                  const data::Dataset& dataset, unsigned threads = 0) const;

 private:
  std::string name_;
  circuit::Circuit circuit_;
  autodiff::MeasurementHead head_;
  exec::CompiledCircuit plan_;
};

// ---- Paper task models -----------------------------------------------------

/// MNIST 2-class (digits 3 vs 6): image encoder + RZZ ring + RY layer.
QnnModel make_mnist2_model();
/// Fashion 2-class (dress vs shirt): same architecture as MNIST-2.
QnnModel make_fashion2_model();
/// MNIST 4-class (digits 0-3): 3x (RX + RY + RZ + CZ).
QnnModel make_mnist4_model();
/// Fashion 4-class: 3x (RZZ ring + RY layer).
QnnModel make_fashion4_model();
/// Vowel 4-class: vowel encoder + 2x (RZZ ring + RXX ring).
QnnModel make_vowel4_model();

/// Look up a task model by name ("mnist2", "mnist4", "fashion2",
/// "fashion4", "vowel4"); throws on unknown name.
QnnModel make_task_model(const std::string& task);

}  // namespace qoc::qml
