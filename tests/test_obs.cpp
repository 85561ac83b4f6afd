// Tests for qoc::obs: histogram bucket boundary math and quantiles
// against an exact sorted reference (the regression for the serve
// percentile bug), registry concurrency, golden Prometheus/JSON dumps,
// span nesting and cross-thread async stitching in the Chrome trace
// collector, ring wrap accounting, and the observation-purity contract
// (served results bitwise identical traced vs untraced, a serve
// session's own registry carrying its MetricsSnapshot counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/exec/compiled_circuit.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/qml/qnn.hpp"
#include "qoc/serve/serve.hpp"

namespace {

using namespace qoc;
using namespace std::chrono_literals;
using obs::Histogram;

// ---- Histogram bucket math -------------------------------------------------

TEST(ObsHistogram, BucketBoundariesRoundTrip) {
  // Every bucket's lower bound maps back into that bucket, and the
  // value just below the next lower bound does too: the buckets tile
  // the u64 range with no gaps or overlaps.
  for (std::size_t idx = 0; idx + 1 < Histogram::kBuckets; ++idx) {
    const std::uint64_t lo = Histogram::bucket_lower(idx);
    const std::uint64_t next = Histogram::bucket_lower(idx + 1);
    ASSERT_LT(lo, next) << "bucket " << idx << " not monotone";
    EXPECT_EQ(Histogram::bucket_index(lo), idx);
    EXPECT_EQ(Histogram::bucket_index(next - 1), idx);
    EXPECT_EQ(Histogram::bucket_upper(idx), next);
  }
  // Top of the range is covered too.
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(ObsHistogram, ValuesBelowEightAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(h.bucket_count(static_cast<std::size_t>(v)), 1u);
  // Quantile walk over exact buckets returns the exact values.
  EXPECT_EQ(h.quantile_ns(0.0), 0u);
  EXPECT_EQ(h.quantile_ns(1.0), 7u);
}

TEST(ObsHistogram, RelativeErrorBoundPerSample) {
  // Midpoint reconstruction of any single sample is within 6.25%.
  for (const std::uint64_t v :
       {9ull, 100ull, 12345ull, 999999ull, 123456789ull, (1ull << 40) + 17}) {
    const std::size_t idx = Histogram::bucket_index(v);
    const std::uint64_t lo = Histogram::bucket_lower(idx);
    const std::uint64_t mid = lo + (Histogram::bucket_upper(idx) - lo) / 2;
    const double rel =
        std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
        static_cast<double>(v);
    EXPECT_LE(rel, 0.0625) << "value " << v;
  }
}

/// Deterministic xorshift so the skewed sample set is reproducible.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

TEST(ObsHistogram, QuantilesMatchSortedReferenceOnSkewedSamples) {
  // Regression for the serve percentile bug: a heavily skewed latency
  // distribution (many fast completions, a long slow tail) recorded in
  // adversarial arrival order. The histogram quantile must agree with
  // indexing the *sorted* sample set at floor((n-1)*q) -- the buggy
  // unsorted-window indexing produced arbitrary samples here.
  std::vector<std::uint64_t> samples;
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 900; ++i) samples.push_back(10 + next_rand(s) % 490);
  for (int i = 0; i < 90; ++i)
    samples.push_back(10'000 + next_rand(s) % 40'000);
  for (int i = 0; i < 10; ++i)
    samples.push_back(1'000'000 + next_rand(s) % 4'000'000);
  // Adversarial order: largest first, so any "recent prefix" or
  // unsorted-index scheme lands in the wrong regime entirely.
  std::sort(samples.rbegin(), samples.rend());

  Histogram h;
  for (const auto v : samples) h.record(v);

  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const std::uint64_t exact =
        sorted[static_cast<std::size_t>(static_cast<double>(sorted.size() - 1) * q)];
    const std::uint64_t est = h.quantile_ns(q);
    EXPECT_LE(std::abs(static_cast<double>(est) - static_cast<double>(exact)),
              0.0625 * static_cast<double>(exact) + 1.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_EQ(h.count(), samples.size());
}

TEST(ObsHistogram, MeanSumAndReset) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(60);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_ns(), 90u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 30.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_ns(0.5), 0u);
}

// ---- Registry --------------------------------------------------------------

TEST(ObsRegistry, ConcurrentRecordingTotalsExact) {
  // N threads hammer the same names through the registry lookup path
  // (not cached references), so this exercises the registry mutex and
  // the wait-free record path together. Run under TSAN in CI.
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter("t_events_total").add(1);
        reg.gauge("t_level").set(t);
        reg.histogram("t_ns").record(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("t_events_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("t_ns").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  const std::int64_t level = reg.gauge("t_level").value();
  EXPECT_GE(level, 0);
  EXPECT_LT(level, kThreads);
}

TEST(ObsRegistry, StableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total");
  obs::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(ObsRegistry, PrometheusDumpGolden) {
  obs::Registry reg;
  reg.counter("demo_counter_total").add(3);
  reg.gauge("demo_gauge").set(-2);
  obs::Histogram& h = reg.histogram("demo_ns");
  h.record(1);
  h.record(5);
  h.record(100);  // bucket [96,104) -> le="104", midpoint exactly 100
  EXPECT_EQ(reg.prometheus_dump(),
            "# TYPE demo_counter_total counter\n"
            "demo_counter_total 3\n"
            "# TYPE demo_gauge gauge\n"
            "demo_gauge -2\n"
            "# TYPE demo_ns histogram\n"
            "demo_ns_bucket{le=\"2\"} 1\n"
            "demo_ns_bucket{le=\"6\"} 2\n"
            "demo_ns_bucket{le=\"104\"} 3\n"
            "demo_ns_bucket{le=\"+Inf\"} 3\n"
            "demo_ns_sum 106\n"
            "demo_ns_count 3\n");
}

TEST(ObsRegistry, JsonDumpGolden) {
  obs::Registry reg;
  reg.counter("demo_counter_total").add(3);
  reg.gauge("demo_gauge").set(-2);
  obs::Histogram& h = reg.histogram("demo_ns");
  h.record(1);
  h.record(5);
  h.record(100);
  // Rank convention: floor((3-1)*q) indexes the sorted samples
  // {1,5,100}, so p50/p90/p99 all land on the middle sample.
  EXPECT_EQ(reg.json_dump(),
            "{\"counters\":{\"demo_counter_total\":3},"
            "\"gauges\":{\"demo_gauge\":-2},"
            "\"histograms\":{\"demo_ns\":{\"count\":3,\"sum_ns\":106,"
            "\"mean_ns\":35.333,\"p50_ns\":5,\"p90_ns\":5,\"p99_ns\":5}}}");
}

TEST(ObsRegistry, EmptyDumps) {
  obs::Registry reg;
  EXPECT_EQ(reg.prometheus_dump(), "");
  EXPECT_EQ(reg.json_dump(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

#if QOC_OBS

// ---- Tracer ----------------------------------------------------------------

/// Extracts lines of the one-event-per-line Chrome JSON containing
/// `needle`.
std::vector<std::string> trace_lines_with(const std::string& json,
                                          const std::string& needle) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < json.size()) {
    auto end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    if (line.find(needle) != std::string::npos) out.push_back(line);
    pos = end + 1;
  }
  return out;
}

double trace_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

TEST(ObsTracer, NestedSpansRecordedWithContainment) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 12);
  {
    QOC_TRACE_SPAN("test", "outer_span");
    {
      QOC_TRACE_SPAN_ARG("test", "inner_span", "depth", 2);
      std::this_thread::sleep_for(1ms);
    }
    std::this_thread::sleep_for(1ms);
  }
  tracer.stop();
  const std::string json = tracer.chrome_json();

  const auto outer = trace_lines_with(json, "\"name\":\"outer_span\"");
  const auto inner = trace_lines_with(json, "\"name\":\"inner_span\"");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // Both are complete spans; the outer one starts no later and lasts
  // longer, and the inner one carries its annotation.
  EXPECT_NE(outer[0].find("\"ph\":\"X\""), std::string::npos);
  EXPECT_LE(trace_field(outer[0], "ts"), trace_field(inner[0], "ts"));
  EXPECT_GT(trace_field(outer[0], "dur"), trace_field(inner[0], "dur"));
  EXPECT_NE(inner[0].find("\"args\":{\"depth\":2}"), std::string::npos);
  tracer.clear();
}

TEST(ObsTracer, AsyncSpansStitchAcrossThreads) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 12);
  QOC_TRACE_ASYNC_BEGIN("test", "xjob", 0xabcdu);
  std::thread([] {
    QOC_TRACE_ASYNC_END("test", "xjob", 0xabcdu);
  }).join();
  tracer.stop();
  const std::string json = tracer.chrome_json();

  const auto begin = trace_lines_with(json, "\"ph\":\"b\"");
  const auto end = trace_lines_with(json, "\"ph\":\"e\"");
  ASSERT_EQ(begin.size(), 1u);
  ASSERT_EQ(end.size(), 1u);
  // Same id links the pair; different tids prove the collector
  // stitched two per-thread rings into one stream.
  EXPECT_NE(begin[0].find("\"id\":\"0xabcd\""), std::string::npos);
  EXPECT_NE(end[0].find("\"id\":\"0xabcd\""), std::string::npos);
  EXPECT_NE(trace_field(begin[0], "tid"), trace_field(end[0], "tid"));
  EXPECT_LE(trace_field(begin[0], "ts"), trace_field(end[0], "ts"));
  tracer.clear();
}

TEST(ObsTracer, RingWrapOverwritesOldestAndCountsDropped) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(8);
  for (int i = 0; i < 20; ++i) QOC_TRACE_INSTANT("test", "tick");
  tracer.stop();
  EXPECT_EQ(tracer.recorded_events(), 8u);
  EXPECT_EQ(tracer.dropped_events(), 12u);
  const auto ticks =
      trace_lines_with(tracer.chrome_json(), "\"name\":\"tick\"");
  EXPECT_EQ(ticks.size(), 8u);
  tracer.clear();
  EXPECT_EQ(tracer.recorded_events(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(ObsTracer, DisabledRecordsNothing) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 12);
  tracer.stop();
  QOC_TRACE_SPAN("test", "ghost");
  QOC_TRACE_ASYNC_BEGIN("test", "ghost", 1);
  QOC_TRACE_COUNTER("ghost_count", 1.0);
  EXPECT_EQ(tracer.recorded_events(), 0u);
}

// ---- Observation purity across the serve path ------------------------------

circuit::Circuit make_qnn(int n_qubits, int n_features, int layers) {
  circuit::Circuit c(n_qubits);
  circuit::add_rotation_encoder(c, n_features);
  for (int l = 0; l < layers; ++l) {
    circuit::add_rzz_ring_layer(c);
    circuit::add_ry_layer(c);
  }
  return c;
}

std::vector<double> make_theta(int n, unsigned job) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] =
        0.1 * static_cast<double>(i + 1) + 0.011 * static_cast<double>(job);
  return v;
}

std::vector<double> make_input(int n, unsigned job) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] =
        0.05 * static_cast<double>(i) + 0.007 * static_cast<double>(job);
  return v;
}

std::vector<std::vector<double>> run_served_workload(unsigned jobs) {
  const auto qnn = make_qnn(4, 6, 2);
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 16;
  opt.max_delay = 200us;
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < jobs; ++k)
    futures.push_back(client.submit(handle,
                                    make_theta(qnn.num_trainable(), k),
                                    make_input(qnn.num_inputs(), k)));
  std::vector<std::vector<double>> results;
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

TEST(ObsServe, TracedResultsBitwiseIdenticalToUntraced) {
  // The tracer is pure observation: running the same workload with
  // tracing enabled must produce bitwise-identical amplitudes.
  obs::Tracer::instance().stop();
  obs::Tracer::instance().clear();
  const auto untraced = run_served_workload(32);

  obs::Tracer::instance().start();
  const auto traced = run_served_workload(32);
  obs::Tracer::instance().stop();
  EXPECT_GT(obs::Tracer::instance().recorded_events(), 0u);
  obs::Tracer::instance().clear();

  ASSERT_EQ(traced.size(), untraced.size());
  for (std::size_t k = 0; k < traced.size(); ++k)
    EXPECT_EQ(traced[k], untraced[k]) << "job " << k;
}

/// Value on the sample line `name <value>` of a Prometheus text dump
/// (`<histogram>_count` for a histogram's count); ~0 when absent.
std::uint64_t prom_value(const std::string& prom, const std::string& name) {
  const std::string text = "\n" + prom;
  const std::string needle = "\n" + name + " ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(text.substr(pos + needle.size()));
}

TEST(ObsServe, SessionRegistryCarriesSnapshotCounters) {
  // Each session's own registry is the one record behind metrics(), so
  // its dump carries exactly the snapshot's counts -- in QOC_OBS=OFF
  // builds too -- and a later session in the same process starts from
  // zero instead of inheriting the first one's totals.
  const auto qnn_a = make_qnn(4, 6, 2);
  const auto qnn_b = make_qnn(4, 6, 3);
  backend::StatevectorBackend primary(0);
  serve::ServeOptions opt;
  opt.max_batch = 16;
  opt.max_delay = 200us;

  for (const unsigned jobs : {40u, 10u}) {
    serve::ServeSession session(serve::BackendPool(primary, 2), opt);
    const std::string fresh = session.registry().prometheus_dump();
    EXPECT_EQ(prom_value(fresh, "qoc_serve_jobs_submitted_total"), 0u);
    EXPECT_EQ(prom_value(fresh, "qoc_serve_lane0_batches_total"), 0u);
    EXPECT_EQ(prom_value(fresh, "qoc_serve_latency_ns_count"), 0u);

    const auto ha = session.register_circuit(qnn_a);
    const auto hb = session.register_circuit(qnn_b);
    auto client = session.client();
    std::vector<std::future<std::vector<double>>> futures;
    for (unsigned k = 0; k < jobs; ++k) {
      const auto& qnn = k % 2 == 0 ? qnn_a : qnn_b;
      futures.push_back(client.submit(k % 2 == 0 ? ha : hb,
                                      make_theta(qnn.num_trainable(), k),
                                      make_input(qnn.num_inputs(), k)));
    }
    for (auto& f : futures) f.get();
    const auto m = session.metrics();
    const std::string prom = session.registry().prometheus_dump();

    EXPECT_EQ(m.submitted, jobs);
    EXPECT_EQ(m.completed, jobs);
    EXPECT_EQ(prom_value(prom, "qoc_serve_jobs_submitted_total"), m.submitted);
    EXPECT_EQ(prom_value(prom, "qoc_serve_jobs_completed_total"), m.completed);
    EXPECT_EQ(prom_value(prom, "qoc_serve_jobs_failed_total"), m.failed);
    EXPECT_EQ(prom_value(prom, "qoc_serve_latency_ns_count"), m.completed);
    ASSERT_EQ(m.replicas.size(), 2u);
    std::uint64_t lane_batches = 0;
    for (std::size_t i = 0; i < m.replicas.size(); ++i) {
      const std::string lane = "qoc_serve_lane" + std::to_string(i) + "_";
      EXPECT_EQ(prom_value(prom, lane + "batches_total"),
                m.replicas[i].batches);
      EXPECT_EQ(prom_value(prom, lane + "coalesced_jobs_total"),
                m.replicas[i].coalesced_jobs);
      lane_batches += m.replicas[i].batches;
    }
    EXPECT_EQ(m.batches, lane_batches);
  }
}

TEST(ObsServe, SnapshotPercentilesComeFromFullHistoryHistogram) {
  // Satellite check for the percentile re-route: after far more
  // completions than the retired 256-entry window held, percentiles
  // are still well-formed and ordered.
  const auto qnn = make_qnn(3, 4, 1);
  backend::StatevectorBackend backend(0);
  serve::ServeOptions opt;
  opt.max_batch = 32;
  opt.max_delay = 100us;
  serve::ServeSession session(backend, opt);
  const auto handle = session.register_circuit(qnn);
  auto client = session.client();
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned k = 0; k < 400; ++k)
    futures.push_back(client.submit(handle,
                                    make_theta(qnn.num_trainable(), k % 7),
                                    make_input(qnn.num_inputs(), k % 7)));
  for (auto& f : futures) f.get();
  const auto m = session.metrics();
  session.shutdown();
  EXPECT_EQ(m.completed, 400u);
  EXPECT_GT(m.p50_latency_us, 0.0);
  EXPECT_LE(m.p50_latency_us, m.p99_latency_us);
}

TEST(ObsMacros, GlobalMacrosRecord) {
  auto& reg = obs::Registry::global();
  const auto before = reg.counter("obs_test_macro_total").value();
  QOC_METRIC_COUNTER_ADD("obs_test_macro_total", 2);
  QOC_METRIC_COUNTER_ADD("obs_test_macro_total", 3);
  EXPECT_EQ(reg.counter("obs_test_macro_total").value(), before + 5);
  QOC_METRIC_GAUGE_SET("obs_test_macro_gauge", 42);
  EXPECT_EQ(reg.gauge("obs_test_macro_gauge").value(), 42);
  const auto hbefore = reg.histogram("obs_test_macro_ns").count();
  {
    QOC_METRIC_SCOPED_TIMER_NS("obs_test_macro_ns");
  }
  EXPECT_EQ(reg.histogram("obs_test_macro_ns").count(), hbefore + 1);
}

TEST(ObsMacros, DeviceBackendsRecordSimulatedRegister) {
  // MNIST-4 on the 7-qubit jakarta routes onto 4 physical qubits, and
  // each device backend batch records the register it simulates.
  auto& reg = obs::Registry::global();
  const auto model = qml::make_task_model("mnist4");
  const std::vector<double> theta(
      static_cast<std::size_t>(model.num_params()), 0.3);
  const std::vector<double> input(
      static_cast<std::size_t>(model.num_inputs()), 0.1);
  backend::NoisyBackendOptions opt;
  opt.trajectories = 2;
  opt.shots = 16;
  backend::NoisyBackend noisy(noise::DeviceModel::ibmq_jakarta(), opt);
  reg.gauge("qoc_backend_register_qubits").set(0);
  noisy.run(model.plan(), theta, input);
  EXPECT_EQ(reg.gauge("qoc_backend_register_qubits").value(), 4);
  backend::DensityMatrixBackend dm(noise::DeviceModel::ibmq_jakarta());
  reg.gauge("qoc_backend_register_qubits").set(0);
  dm.run(model.plan(), theta, input);
  EXPECT_EQ(reg.gauge("qoc_backend_register_qubits").value(), 4);
}

TEST(ObsTracer, DeviceBackendsRecordKernelSpans) {
  // The device backends' simulation -- noisy trajectories, exact density
  // evolution -- is "kernel" time: one span per evaluation, nested in
  // the backend/run_batch span on the calling thread (threads = 1), and
  // tracing it changes no result bit.
  const auto model = qml::make_task_model("mnist4");
  const std::vector<double> theta(
      static_cast<std::size_t>(model.num_params()), 0.3);
  std::vector<std::vector<double>> inputs;
  std::vector<exec::Evaluation> evals;
  for (unsigned k = 0; k < 3; ++k)
    inputs.push_back(make_input(model.num_inputs(), k));
  for (const auto& in : inputs) evals.push_back({theta, in});
  const auto device = noise::DeviceModel::ibmq_jakarta();
  backend::NoisyBackendOptions opt;
  opt.trajectories = 2;
  opt.shots = 16;
  struct Case {
    const char* span;
    std::function<std::unique_ptr<backend::Backend>()> make;
  };
  const Case cases[] = {
      {"noisy_trajectories",
       [&] { return std::make_unique<backend::NoisyBackend>(device, opt); }},
      {"density_evolve",
       [&] { return std::make_unique<backend::DensityMatrixBackend>(device); }},
  };
  auto& tracer = obs::Tracer::instance();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.span);
    tracer.stop();
    tracer.clear();
    const auto untraced = c.make()->run_batch(model.plan(), evals, 1);
    tracer.start(1 << 12);
    const auto traced = c.make()->run_batch(model.plan(), evals, 1);
    tracer.stop();
    const std::string json = tracer.chrome_json();
    tracer.clear();
    EXPECT_EQ(traced, untraced);

    const auto batch = trace_lines_with(json, "\"name\":\"run_batch\"");
    const auto kernel =
        trace_lines_with(json, "\"name\":\"" + std::string(c.span) + "\"");
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(kernel.size(), evals.size());
    const double t0 = trace_field(batch[0], "ts");
    const double t1 = t0 + trace_field(batch[0], "dur");
    for (const auto& line : kernel) {
      EXPECT_NE(line.find("\"cat\":\"kernel\""), std::string::npos);
      EXPECT_EQ(trace_field(line, "tid"), trace_field(batch[0], "tid"));
      EXPECT_GE(trace_field(line, "ts"), t0);
      // ts/dur print whole nanoseconds in us; allow their rounding.
      EXPECT_LE(trace_field(line, "ts") + trace_field(line, "dur"),
                t1 + 1e-3);
    }
  }
}

#endif  // QOC_OBS

}  // namespace
