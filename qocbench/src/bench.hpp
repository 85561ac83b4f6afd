#pragma once
// Shared plumbing of the qocbench workloads: arguments, the result
// report (end-to-end and per-layer metrics, correctness accounting),
// order statistics, library counter snapshots and the self-time
// analysis of a Chrome trace written by qoc::obs::Tracer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qocbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // where a traced run writes its trace file
};

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Nearest-rank quantile, rank floor((n-1) * q) of the sorted values
/// (the convention of obs::Histogram::quantile_ns). 0 on no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// 64-bit FNV-1a over the bit patterns of `v`: a digest that changes
/// when any value changes in any bit.
std::uint64_t digest(const std::vector<double>& v, std::uint64_t h = 0xcbf29ce484222325ULL);

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The names (and units) every run reports, whichever workload it runs:
/// a metric of a layer a workload does not use reads 0.
struct MetricSpec {
  std::string name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;

  /// Count one checked operation; a false `ok` fails it and the run.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Failure not tied to an operation (invalid run, broken invariant).
  void fail(const std::string& what);
  /// A human-readable line printed before the JSON result.
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return correct_; }

  /// Prints the notes, then the result object as the last stdout line.
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// The library's exported counters (obs::Registry::global()) read at
/// one instant; differences of two snapshots attribute counts to the
/// work between them.
struct LibCounters {
  std::uint64_t pattern_hits = 0, pattern_misses = 0;
  std::uint64_t transpile_hits = 0, transpile_misses = 0;
  std::uint64_t lane_wide = 0, lane_scalar = 0, lane_padding = 0;

  static LibCounters read();
  LibCounters operator-(const LibCounters& o) const;
  /// transpile.* and sim.lane_* ratios into the report.
  void report(Report& r) const;
};

/// Per-layer analysis of a Chrome trace: spans ('X' events) nest per
/// thread; a span's self time is its duration minus the time its child
/// spans on the same thread cover. Layers are span categories.
struct TraceSummary {
  std::map<std::string, double> self_s;  // category -> total self time
  double top_level_s = 0.0;  // spans of category `top` with no parent
  std::uint64_t events = 0;
};
TraceSummary summarize_trace(const std::string& chrome_json, const std::string& top);

/// Starts qoc::obs::Tracer (clearing earlier events).
void start_tracing();
/// Stops the tracer, writes its Chrome JSON to `<out_dir>/qocbench_trace_
/// <workload>.json`, records self times per layer and the dropped-event
/// count into `r`, and returns the summary.
TraceSummary finish_tracing(const Args& a, Report& r, const std::string& top);

// Workloads. Each runs set-up, its timed phase (untraced, or untraced
// then traced with a.trace), checks outputs and fills the report.
void run_train_pgp(const Args& a, Report& r);
void run_serve_unique(const Args& a, Report& r);
void run_serve_hot(const Args& a, Report& r);

}  // namespace qocbench
