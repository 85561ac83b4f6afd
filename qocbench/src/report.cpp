#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "qoc/obs/obs.hpp"

namespace qocbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"throughput", "1/s"},
};

// Self-time layers: the span categories the workloads and the library
// record ("backend" and "serve" and "kernel" come from the library's own
// spans; the rest are opened by the workloads around their calls).
static const char* const kLayers[] = {"train",    "data",    "param_shift",
                                      "pruner_optimizer", "validate",
                                      "backend",  "kernel",  "serve",
                                      "client"};

static std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> v = {
      {"latency.p50_ms", "ms"},
      {"latency.p99_ms", "ms"},
      {"data.synth_s", "s"},
      {"train.step_ms.p50", "ms"},
      {"train.step_ms.p99", "ms"},
      {"train.param_shift_busy_s", "s"},
      {"train.evals_per_gradient", "count"},
      {"train.validate_busy_s", "s"},
      {"train.prune_skip_ratio", "ratio"},
      {"train.pruner_optimizer_busy_s", "s"},
      {"train.val_acc", "ratio"},
      {"train.us_per_inference", "us"},
      {"backend.run_batch_busy_s", "s"},
      {"backend.run_batch_calls", "count"},
      {"backend.evals_per_call", "count"},
      {"backend.us_per_eval", "us"},
      {"transpile.pattern_hit_ratio", "ratio"},
      {"transpile.cache_hit_ratio", "ratio"},
      {"sim.lane_wide_ratio", "ratio"},
      {"sim.lane_pad_ratio", "ratio"},
      {"serve.replicas", "count"},
      {"serve.max_rps", "1/s"},
      {"serve.batch_occupancy", "count"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.exec_ms.p50", "ms"},
      {"serve.deadline_flush_ratio", "ratio"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.fold_ratio", "ratio"},
      {"serve.shed_jobs", "count"},
      {"serve.failed_jobs", "count"},
      {"serve.gen_late_ms.max", "ms"},
  };
  for (const char* l : kLayers) v.push_back({std::string("self.") + l + "_s", "s"});
  v.push_back({"trace.overhead_ratio", "ratio"});
  v.push_back({"trace.span_coverage", "ratio"});
  v.push_back({"trace.dropped_events", "count"});
  return v;
}
const std::vector<MetricSpec> kPerLayer = per_layer_specs();

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::floor(static_cast<double>(v.size() - 1) * q));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::uint64_t digest(const std::vector<double>& v, std::uint64_t h) {
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    fail(what);
  }
}

void Report::fail(const std::string& what) {
  // Keep the log readable when a systematic fault fails every request.
  if (correct_ || notes_.size() < 64) notes_.push_back("CHECK FAILED: " + what);
  correct_ = false;
}

void Report::print(bool trace) const {
  for (const auto& n : notes_) std::cout << n << "\n";
  const auto& specs = trace ? kPerLayer : kEndToEnd;
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs) {
    double v = get(s.name);
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (first ? "" : ", ") << "\"" << s.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << s.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- library counters --------------------------------------------------

LibCounters LibCounters::read() {
  auto& reg = qoc::obs::Registry::global();
  LibCounters c;
  c.pattern_hits = reg.counter("qoc_pattern_cache_hits_total").value();
  c.pattern_misses = reg.counter("qoc_pattern_cache_misses_total").value();
  c.transpile_hits = reg.counter("qoc_transpile_cache_hits_total").value();
  c.transpile_misses = reg.counter("qoc_transpile_cache_misses_total").value();
  c.lane_wide = reg.counter("qoc_sim_lane_wide_evals_total").value();
  c.lane_scalar = reg.counter("qoc_sim_lane_scalar_evals_total").value();
  c.lane_padding = reg.counter("qoc_sim_lane_tail_padding_lanes_total").value();
  return c;
}

LibCounters LibCounters::operator-(const LibCounters& o) const {
  LibCounters d;
  d.pattern_hits = pattern_hits - o.pattern_hits;
  d.pattern_misses = pattern_misses - o.pattern_misses;
  d.transpile_hits = transpile_hits - o.transpile_hits;
  d.transpile_misses = transpile_misses - o.transpile_misses;
  d.lane_wide = lane_wide - o.lane_wide;
  d.lane_scalar = lane_scalar - o.lane_scalar;
  d.lane_padding = lane_padding - o.lane_padding;
  return d;
}

void LibCounters::report(Report& r) const {
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };
  r.set("transpile.pattern_hit_ratio",
        ratio(f(pattern_hits), f(pattern_hits + pattern_misses)));
  r.set("transpile.cache_hit_ratio",
        ratio(f(transpile_hits), f(transpile_hits + transpile_misses)));
  r.set("sim.lane_wide_ratio", ratio(f(lane_wide), f(lane_wide + lane_scalar)));
  r.set("sim.lane_pad_ratio", ratio(f(lane_padding), f(lane_wide)));
}

// ---- trace analysis ------------------------------------------------------

namespace {

struct Span {
  std::string cat;
  double ts = 0.0, dur = 0.0;  // microseconds
  unsigned tid = 0;
};

bool field(const std::string& line, const char* key, std::string& out) {
  const std::string k = std::string("\"") + key + "\":";
  const auto p = line.find(k);
  if (p == std::string::npos) return false;
  auto b = p + k.size();
  if (line[b] == '"') {
    const auto e = line.find('"', b + 1);
    out = line.substr(b + 1, e - b - 1);
  } else {
    const auto e = line.find_first_of(",}", b);
    out = line.substr(b, e - b);
  }
  return true;
}

}  // namespace

TraceSummary summarize_trace(const std::string& chrome_json,
                             const std::string& top) {
  std::map<unsigned, std::vector<Span>> by_tid;
  std::istringstream in(chrome_json);
  std::string line, ph, cat, ts, dur, tid;
  TraceSummary s;
  while (std::getline(in, line)) {
    if (!field(line, "ph", ph)) continue;
    ++s.events;
    if (ph != "X" || !field(line, "cat", cat) || !field(line, "ts", ts) ||
        !field(line, "dur", dur) || !field(line, "tid", tid))
      continue;
    Span sp{cat, std::stod(ts), std::stod(dur),
            static_cast<unsigned>(std::stoul(tid))};
    by_tid[sp.tid].push_back(std::move(sp));
  }
  for (auto& [t, spans] : by_tid) {
    // Parents open no later than their children and last at least as
    // long; RAII spans on one thread nest strictly.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> covered(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      while (!stack.empty()) {
        const Span& p = spans[stack.back()];
        if (p.ts + p.dur > sp.ts) break;
        stack.pop_back();
      }
      if (stack.empty()) {
        if (sp.cat == top) s.top_level_s += sp.dur * 1e-6;
      } else {
        const Span& p = spans[stack.back()];
        covered[stack.back()] += std::min(sp.ts + sp.dur, p.ts + p.dur) - sp.ts;
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
      s.self_s[spans[i].cat] += std::max(0.0, spans[i].dur - covered[i]) * 1e-6;
  }
  return s;
}

void start_tracing() { qoc::obs::Tracer::instance().start(std::size_t{1} << 19); }

TraceSummary finish_tracing(const Args& a, Report& r, const std::string& top) {
  auto& tracer = qoc::obs::Tracer::instance();
  tracer.stop();
  const std::string json = tracer.chrome_json();
  const std::string path = a.out_dir + "/qocbench_trace_" + a.workload + ".json";
  std::ofstream(path) << json;
  const TraceSummary s = summarize_trace(json, top);
  for (const char* l : kLayers) {
    const auto it = s.self_s.find(l);
    r.set(std::string("self.") + l + "_s", it == s.self_s.end() ? 0.0 : it->second);
  }
  r.set("trace.dropped_events", static_cast<double>(tracer.dropped_events()));
  if (tracer.dropped_events() > 0)
    r.note("trace ring overflowed: self times are incomplete");
  r.note("trace: " + std::to_string(s.events) + " events written to " + path);
  return s;
}

}  // namespace qocbench
