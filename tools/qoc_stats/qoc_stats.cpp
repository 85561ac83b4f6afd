// qoc_stats: offline analyzer for qoc::obs dumps.
//
//   qoc_stats trace <trace.json>     per-layer latency breakdown from a
//                                    Chrome trace_event file written by
//                                    obs::Tracer::chrome_json()
//   qoc_stats metrics <metrics.json> pretty-print a Registry::json_dump()
//   qoc_stats demo <prefix>          run a small traced serve session,
//                                    write <prefix>.trace.json and the
//                                    session registry's <prefix>.prom /
//                                    <prefix>.metrics.json, self-check
//                                    the dumps (job spans must cross
//                                    serve -> backend -> kernel and the
//                                    Prometheus counters must carry the
//                                    MetricsSnapshot counts), then print
//                                    the trace breakdown.
//
// The trace parser leans on the emitter's one-event-per-line layout; it
// is a tool for qoc's own dumps, not a general JSON reader. `demo` is
// the CI golden step: a broken exporter, a missing layer span or a
// counter that no longer reconciles exits non-zero.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qoc/backend/backend.hpp"
#include "qoc/circuit/circuit.hpp"
#include "qoc/circuit/layers.hpp"
#include "qoc/obs/obs.hpp"
#include "qoc/serve/serve.hpp"

namespace {

using namespace qoc;

// ---------------------------------------------------------------------------
// Line-oriented field extraction for the emitter's fixed layout.
// ---------------------------------------------------------------------------

bool find_string_field(const std::string& line, const char* key,
                       std::string& out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

bool find_number_field(const std::string& line, const char* key,
                       double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

// ---------------------------------------------------------------------------
// trace mode
// ---------------------------------------------------------------------------

struct SpanAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct TraceStats {
  // (cat, name) -> aggregate over 'X' complete spans.
  std::map<std::pair<std::string, std::string>, SpanAgg> spans;
  // Async 'b'/'e' pairs stitched by (name, id); deltas in the histogram.
  obs::Histogram async_ns;
  std::uint64_t async_unmatched = 0;
  std::map<std::string, std::uint64_t> events_per_cat;
};

bool analyze_trace_file(const std::string& path, TraceStats& stats) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "qoc_stats: cannot open %s\n", path.c_str());
    return false;
  }
  std::map<std::pair<std::string, std::uint64_t>, double> open_async;
  std::string line;
  while (std::getline(in, line)) {
    std::string name, cat, ph;
    if (!find_string_field(line, "ph", ph)) continue;  // header/footer
    if (!find_string_field(line, "name", name) ||
        !find_string_field(line, "cat", cat))
      continue;
    ++stats.events_per_cat[cat];
    double ts = 0.0;
    find_number_field(line, "ts", ts);
    if (ph == "X") {
      double dur = 0.0;
      find_number_field(line, "dur", dur);
      auto& agg = stats.spans[{cat, name}];
      ++agg.count;
      agg.total_us += dur;
      agg.max_us = std::max(agg.max_us, dur);
    } else if (ph == "b" || ph == "e") {
      std::string id_str;
      if (!find_string_field(line, "id", id_str)) continue;
      const std::uint64_t id = std::strtoull(id_str.c_str(), nullptr, 16);
      if (ph == "b") {
        open_async[{name, id}] = ts;
      } else {
        const auto it = open_async.find({name, id});
        if (it == open_async.end()) {
          ++stats.async_unmatched;
        } else {
          const double delta_us = ts - it->second;
          stats.async_ns.record(static_cast<std::uint64_t>(
              delta_us < 0 ? 0.0 : delta_us * 1000.0));
          open_async.erase(it);
        }
      }
    }
  }
  stats.async_unmatched += open_async.size();
  return true;
}

void print_trace_stats(const TraceStats& stats) {
  std::printf("per-layer latency breakdown (complete spans)\n");
  std::printf("%-10s %-22s %10s %12s %12s %12s\n", "layer", "span", "count",
              "total_ms", "mean_us", "max_us");
  for (const auto& [key, agg] : stats.spans) {
    std::printf("%-10s %-22s %10" PRIu64 " %12.3f %12.3f %12.3f\n",
                key.first.c_str(), key.second.c_str(), agg.count,
                agg.total_us / 1000.0,
                agg.count ? agg.total_us / static_cast<double>(agg.count) : 0.0,
                agg.max_us);
  }
  if (stats.async_ns.count() > 0) {
    std::printf("\nasync job spans (submit -> fulfil)\n");
    std::printf("  count %" PRIu64 "  mean %.1f us  p50 %.1f us  p99 %.1f us",
                stats.async_ns.count(), stats.async_ns.mean_ns() / 1000.0,
                static_cast<double>(stats.async_ns.quantile_ns(0.50)) / 1000.0,
                static_cast<double>(stats.async_ns.quantile_ns(0.99)) /
                    1000.0);
    if (stats.async_unmatched > 0)
      std::printf("  (%" PRIu64 " unmatched)", stats.async_unmatched);
    std::printf("\n");
  }
}

int run_trace_mode(const std::string& path) {
  TraceStats stats;
  if (!analyze_trace_file(path, stats)) return 1;
  print_trace_stats(stats);
  return 0;
}

// ---------------------------------------------------------------------------
// metrics mode
// ---------------------------------------------------------------------------

/// Extracts the {...} body following `"section":{` (flat or one level of
/// nested objects, which is all Registry::json_dump() emits).
std::string json_section(const std::string& doc, const char* section) {
  const std::string needle = std::string("\"") + section + "\":{";
  const auto pos = doc.find(needle);
  if (pos == std::string::npos) return "";
  std::size_t depth = 1;
  const std::size_t start = pos + needle.size();
  for (std::size_t i = start; i < doc.size(); ++i) {
    if (doc[i] == '{') ++depth;
    if (doc[i] == '}' && --depth == 0) return doc.substr(start, i - start);
  }
  return "";
}

/// Yields (key, raw value) pairs of a flat-or-one-level JSON object body.
std::vector<std::pair<std::string, std::string>> json_entries(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  while (i < body.size()) {
    const auto kq = body.find('"', i);
    if (kq == std::string::npos) break;
    const auto kend = body.find('"', kq + 1);
    if (kend == std::string::npos) break;
    const std::string key = body.substr(kq + 1, kend - kq - 1);
    auto vstart = body.find(':', kend);
    if (vstart == std::string::npos) break;
    ++vstart;
    std::size_t vend = vstart;
    if (body[vstart] == '{') {
      std::size_t depth = 0;
      for (; vend < body.size(); ++vend) {
        if (body[vend] == '{') ++depth;
        if (body[vend] == '}' && --depth == 0) {
          ++vend;
          break;
        }
      }
    } else {
      while (vend < body.size() && body[vend] != ',') ++vend;
    }
    out.emplace_back(key, body.substr(vstart, vend - vstart));
    i = vend + 1;
  }
  return out;
}

int run_metrics_mode(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "qoc_stats: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::printf("counters:\n");
  for (const auto& [k, v] : json_entries(json_section(doc, "counters")))
    std::printf("  %-40s %s\n", k.c_str(), v.c_str());
  std::printf("gauges:\n");
  for (const auto& [k, v] : json_entries(json_section(doc, "gauges")))
    std::printf("  %-40s %s\n", k.c_str(), v.c_str());
  std::printf("histograms:\n");
  for (const auto& [k, v] : json_entries(json_section(doc, "histograms"))) {
    double count = 0, mean = 0, p50 = 0, p99 = 0;
    find_number_field(v, "count", count);
    find_number_field(v, "mean_ns", mean);
    find_number_field(v, "p50_ns", p50);
    find_number_field(v, "p99_ns", p99);
    std::printf("  %-40s count %.0f  mean %.1f us  p50 %.1f us  p99 %.1f us\n",
                k.c_str(), count, mean / 1000.0, p50 / 1000.0, p99 / 1000.0);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// demo mode
// ---------------------------------------------------------------------------

std::uint64_t prom_counter(const std::string& prom, const std::string& name) {
  // Match at line start so `foo` never matches `foo_total`'s prefix.
  const std::string needle = "\n" + name + " ";
  auto pos = prom.find(needle);
  if (pos == std::string::npos) {
    if (prom.rfind(name + " ", 0) == 0)
      pos = static_cast<std::size_t>(-1);  // first line
    else
      return static_cast<std::uint64_t>(-1);
  }
  const std::size_t vstart =
      pos == static_cast<std::size_t>(-1) ? name.size() + 1
                                          : pos + needle.size();
  return std::strtoull(prom.c_str() + vstart, nullptr, 10);
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok;
}

int run_demo_mode(const std::string& prefix) {
#if !QOC_OBS
  std::fprintf(stderr,
               "qoc_stats demo: built with QOC_OBS=0; nothing to trace\n");
  return 2;
#else
  // Small QNN-shaped workload: rotation encoder + two entangling layers
  // on 4 qubits, 48 jobs from 2 clients through an exact statevector
  // pool so the whole serve -> backend -> kernel path lights up. The
  // serve counters live in the session's own registry, so its dumps are
  // taken before the session goes away.
  circuit::Circuit qnn(4);
  circuit::add_rotation_encoder(qnn, 6);
  for (int l = 0; l < 2; ++l) {
    circuit::add_rzz_ring_layer(qnn);
    circuit::add_ry_layer(qnn);
  }

  obs::Tracer::instance().start();
  backend::StatevectorBackend backend(0);
  serve::MetricsSnapshot snapshot;
  std::string prom, metrics_json;
  {
    serve::ServeOptions opt;
    opt.max_batch = 16;
    opt.max_delay = std::chrono::microseconds(200);
    serve::ServeSession session(serve::BackendPool(backend, 1), opt);
    const auto handle = session.register_circuit(qnn);
    const int n_theta = qnn.num_trainable();
    const int n_input = qnn.num_inputs();

    auto c0 = session.client();
    auto c1 = session.client();
    std::vector<std::future<std::vector<double>>> futures;
    for (int j = 0; j < 24; ++j) {
      std::vector<double> theta(static_cast<std::size_t>(n_theta));
      std::vector<double> input(static_cast<std::size_t>(n_input));
      for (int i = 0; i < n_theta; ++i)
        theta[static_cast<std::size_t>(i)] = 0.1 * (i + 1) + 0.01 * j;
      for (int i = 0; i < n_input; ++i)
        input[static_cast<std::size_t>(i)] = 0.05 * i - 0.02 * j;
      futures.push_back(c0.submit(handle, theta, input));
      for (auto& v : theta) v += 0.5;
      futures.push_back(c1.submit(handle, theta, input));
    }
    for (auto& f : futures) f.get();
    session.shutdown();
    snapshot = session.metrics();
    prom = session.registry().prometheus_dump();
    metrics_json = session.registry().json_dump();
  }
  obs::Tracer::instance().stop();

  const std::string trace = obs::Tracer::instance().chrome_json();

  const std::string trace_path = prefix + ".trace.json";
  const std::string prom_path = prefix + ".prom";
  const std::string json_path = prefix + ".metrics.json";
  for (const auto& [path, body] :
       {std::pair{trace_path, trace}, std::pair{prom_path, prom},
        std::pair{json_path, metrics_json}}) {
    std::ofstream out(path);
    out << body;
    if (!out) {
      std::fprintf(stderr, "qoc_stats: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s, %s, %s\n\n", trace_path.c_str(), prom_path.c_str(),
              json_path.c_str());

  // Self-checks: the acceptance contract of the obs subsystem.
  bool ok = true;
  TraceStats stats;
  if (!analyze_trace_file(trace_path, stats)) return 1;
  std::printf("checks:\n");
  ok &= check(stats.events_per_cat.count("serve") > 0,
              "trace has serve-layer spans");
  ok &= check(stats.events_per_cat.count("backend") > 0,
              "trace has backend-layer spans");
  ok &= check(stats.events_per_cat.count("kernel") > 0,
              "trace has kernel-layer spans");
  ok &= check(stats.async_ns.count() > 0 && stats.async_unmatched == 0,
              "per-job async spans stitch across threads");
  ok &= check(prom_counter(prom, "qoc_serve_jobs_submitted_total") ==
                  snapshot.submitted,
              "prometheus submitted counter carries MetricsSnapshot's");
  ok &= check(prom_counter(prom, "qoc_serve_jobs_completed_total") ==
                  snapshot.completed,
              "prometheus completed counter carries MetricsSnapshot's");
  ok &= check(prom_counter(prom, "qoc_serve_lane0_batches_total") ==
                  snapshot.batches,
              "prometheus lane batch counter carries MetricsSnapshot's");
  ok &= check(prom_counter(prom, "qoc_serve_latency_ns_count") ==
                  snapshot.completed,
              "prometheus latency histogram saw every completion");
  ok &= check(obs::Tracer::instance().dropped_events() == 0,
              "no trace events dropped");
  std::printf("\n");
  print_trace_stats(stats);
  return ok ? 0 : 1;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "trace") == 0)
    return run_trace_mode(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "metrics") == 0)
    return run_metrics_mode(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "demo") == 0)
    return run_demo_mode(argv[2]);
  std::fprintf(stderr,
               "usage: qoc_stats trace <trace.json>\n"
               "       qoc_stats metrics <metrics.json>\n"
               "       qoc_stats demo <output-prefix>\n");
  return 2;
}
