// Workload `serve_unique`: an open loop. One generator thread submits
// requests at seeded Poisson arrival times, each a unique binding of one
// of the eight 10-qubit structures of bench/traffic.hpp, to a session
// over an exact StatevectorBackend pool of replicas() replicas.
// Nothing is cacheable or foldable, so the serve layer's coalescing and
// routing and the k-wide exact kernels do all the work.
//
// Phases: an untimed warm-up at the nominal rate, a nominal-rate phase
// (latency from each request's due time), then a saturation phase, a closed loop with kInFlight requests in
// flight whose completion rate is the pool's capacity. A traced run
// instead adds a rate ladder that finds the highest rate whose p99
// latency meets kLimitMs without a growing backlog (per layer: near the
// knee one 1-s rung meets the limit in some runs and misses it in
// others, so the answer jumps between two values). A collector thread
// stamps each open-loop completion as soon as its future is ready,
// whatever its position, so a slow request never delays the stamps of
// later ones.

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "serve_rig.hpp"
#include "traffic.hpp"
#include "qoc/common/prng.hpp"
#include "qoc/obs/obs.hpp"

namespace qocbench {
namespace {

using namespace qoc;

constexpr double kNominalRps = 4000.0;  // a third of one replica's capacity
constexpr double kLadderFactor = 1.5;   // ladder rates: nominal * 1.5^k
constexpr int kBisections = 3;          // then refine above the best rung
constexpr double kStepSeconds = 1.0;
constexpr double kLimitMs = 20.0;       // p99 latency limit of the ladder
constexpr double kLateBoundMs = 5.0;    // generator p99 lateness bound
constexpr double kNominalWindow = 1.0;   // seconds per statistics window
constexpr double kStepWindow = 0.25;
constexpr int kSetupReps = 31;
constexpr std::size_t kInFlight = 4096;  // saturation: requests in flight
constexpr std::uint64_t kSampleEvery = 16;  // served == direct sample rate
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Traffic {
  std::vector<circuit::Circuit> circuits;
  std::vector<std::vector<double>> theta, input;
};

Traffic make_traffic() {
  Traffic t;
  t.circuits = traffic::structure_catalog();
  for (const auto& c : t.circuits) {
    t.theta.push_back(traffic::base_theta(c));
    t.input.push_back(traffic::base_input(c));
  }
  return t;
}

struct Arrival {
  double due_s;
  std::uint32_t structure;
  std::uint64_t serial;  // unique binding: traffic::unique_binding(.., 0, serial)
};

std::vector<Arrival> poisson(Prng& rng, double rate, double seconds,
                             std::uint64_t& serial) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) return out;
    out.push_back({t, static_cast<std::uint32_t>(rng.uniform_int(traffic::kStructures)),
                   serial++});
  }
}

/// Serial of the request an evaluation belongs to (inverse of
/// traffic::unique_binding for thread 0).
std::uint64_t serial_of(const exec::Evaluation& e) {
  return static_cast<std::uint64_t>(std::llround(e.theta[0] * 1e4));
}

struct Sample {
  std::uint32_t structure;
  std::uint64_t serial;
  std::vector<double> result;
};

struct Phase {
  double window_s = kNominalWindow;
  std::vector<double> due_s;
  std::vector<double> lat_ms;   // from due time; kInf if shed or failed
  std::vector<double> late_ms;  // generator lateness at submit
  std::vector<std::uint64_t> submit_ns;
  double wall_s = 0.0;          // first due -> last completion
  std::uint64_t shed = 0, failed = 0;

  /// Quantile q of `v` within each window_s window of due times.
  std::vector<double> per_window(const std::vector<double>& v, double q) const {
    std::vector<std::vector<double>> w;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto k = static_cast<std::size_t>(due_s[i] / window_s);
      if (k >= w.size()) w.resize(k + 1);
      w[k].push_back(v[i]);
    }
    std::vector<double> out;
    for (auto& x : w)
      if (!x.empty()) out.push_back(quantile(std::move(x), q));
    return out;
  }
  double late_p99() const { return median(per_window(late_ms, 0.99)); }
  /// The generator kept its schedule: the median window's p99
  /// lateness is within kLateBoundMs.
  bool valid() const { return late_p99() <= kLateBoundMs; }
  /// Requests pile up: the median request already misses the limit.
  bool overloaded() const { return quantile(lat_ms, 0.5) > kLimitMs || shed > 0; }
  /// The median window meets the p99 limit (a host stall spoils only
  /// the windows it hits), and the last window's median does too (no
  /// backlog left growing).
  bool meets_limit() const {
    const auto p50s = per_window(lat_ms, 0.5);
    return valid() && median(per_window(lat_ms, 0.99)) <= kLimitMs &&
           !p50s.empty() && p50s.back() <= kLimitMs;
  }
};

/// Runs one open-loop phase and waits for every request to finish.
Phase open_loop(ServeRig& rig, serve::Client& client, const Traffic& tr,
                const std::vector<Arrival>& arrivals, double window_s,
                std::uint64_t sample_phase, std::vector<Sample>& samples) {
  const std::size_t n = arrivals.size();
  Phase ph;
  ph.window_s = window_s;
  for (const auto& a : arrivals) ph.due_s.push_back(a.due_s);
  ph.lat_ms.assign(n, kInf);
  ph.late_ms.assign(n, 0.0);
  ph.submit_ns.assign(n, 0);
  std::vector<std::uint64_t> done_ns(n, 0);
  std::vector<char> status(n, 0);  // 0 ok, 1 shed, 2 failed

  struct Pending {
    std::size_t idx;
    std::future<std::vector<double>> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> incoming;
  bool submitting = true;
  std::vector<Sample> got;

  std::thread collector([&] {
    std::vector<Pending> live;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (live.empty())
          cv.wait(lock, [&] { return !incoming.empty() || !submitting; });
        while (!incoming.empty()) {
          live.push_back(std::move(incoming.front()));
          incoming.pop_front();
        }
        if (live.empty() && !submitting) return;
      }
      bool any = false;
      for (auto& p : live) {
        if (p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
          continue;
        done_ns[p.idx] = steady_ns();
        any = true;
        obs::SpanGuard span("client", "collect");
        try {
          auto v = p.fut.get();
          if (arrivals[p.idx].serial % kSampleEvery == sample_phase)
            got.push_back({arrivals[p.idx].structure, arrivals[p.idx].serial,
                           std::move(v)});
        } catch (const serve::QueueFullError&) {
          status[p.idx] = 1;
        } catch (...) {
          status[p.idx] = 2;
        }
        p.idx = n;  // mark collected
      }
      std::erase_if(live, [&](const Pending& p) { return p.idx == n; });
      if (!any && !live.empty())
        live.front().fut.wait_for(std::chrono::microseconds(50));
    }
  });

  std::vector<std::vector<double>> theta = tr.theta;
  const auto start = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  const std::uint64_t start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start.time_since_epoch())
          .count());
  std::vector<std::uint64_t> due_ns(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    const auto due = start + std::chrono::nanoseconds(
                                 static_cast<std::int64_t>(a.due_s * 1e9));
    due_ns[i] = start_ns + static_cast<std::uint64_t>(a.due_s * 1e9);
    std::this_thread::sleep_until(due);
    ph.submit_ns[i] = steady_ns();
    ph.late_ms[i] = static_cast<double>(ph.submit_ns[i] - std::min(ph.submit_ns[i], due_ns[i])) * 1e-6;
    auto& th = theta[a.structure];
    traffic::unique_binding(th, 0, a.serial);
    std::future<std::vector<double>> fut;
    {
      obs::SpanGuard span("client", "submit");
      fut = client.submit(rig.handles[a.structure], th, tr.input[a.structure]);
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      incoming.push_back({i, std::move(fut)});
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_one();
  collector.join();

  std::uint64_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    last = std::max(last, done_ns[i]);
    if (status[i] == 0)
      ph.lat_ms[i] = static_cast<double>(done_ns[i] - std::min(done_ns[i], due_ns[i])) * 1e-6;
    ph.shed += status[i] == 1;
    ph.failed += status[i] == 2;
  }
  ph.wall_s = n ? static_cast<double>(last - due_ns[0]) * 1e-9 : 0.0;
  for (auto& s : got) samples.push_back(std::move(s));
  return ph;
}

/// Served == direct: recompute every sampled request through a direct
/// run_batch on a fresh backend and compare bitwise.
void check_samples(const Traffic& tr, const std::vector<Sample>& samples,
                   Report& r) {
  for (std::uint32_t s = 0; s < tr.circuits.size(); ++s) {
    std::vector<std::vector<double>> thetas;
    std::vector<const Sample*> mine;
    for (const auto& smp : samples)
      if (smp.structure == s) {
        thetas.push_back(tr.theta[s]);
        traffic::unique_binding(thetas.back(), 0, smp.serial);
        mine.push_back(&smp);
      }
    std::vector<exec::Evaluation> evals(thetas.size());
    for (std::size_t i = 0; i < evals.size(); ++i) {
      evals[i].theta = thetas[i];
      evals[i].input = tr.input[s];
    }
    const auto direct = direct_results(tr.circuits[s], evals);
    for (std::size_t i = 0; i < mine.size(); ++i)
      r.check(direct[i] == mine[i]->result,
              "served == direct for request " + std::to_string(mine[i]->serial));
  }
}

/// One replica: with two, the lanes, the dispatcher and the load
/// generator filled all four cores of a 4-vCPU host, and capacity and
/// latency moved with every neighbour's load (IQR over ten seeds 0.20
/// of the median for capacity, 0.36 for p50 latency).
std::size_t replicas() { return serve_replicas(1); }

serve::ServeOptions options() {
  serve::ServeOptions opt;  // max_batch 256, max_delay 200 us, fold on
  // One thread per drain, so the replicas' lanes leave the generator
  // and the collector cores of their own on a small host.
  opt.exec_threads = 1;
  // Overload shows as latency and, past 2^16 queued jobs, as shed
  // requests; the generator never blocks.
  opt.max_queue = 1 << 16;
  opt.overload = serve::OverloadPolicy::Shed;
  return opt;
}

struct Run {
  Traffic tr;
  std::unique_ptr<ServeRig> rig;
  serve::Client client;
  std::uint64_t serial = 0;
};

/// Set-up: traffic synthesis, pool and session, registration, and a
/// warm-up that finishes the library's lazy set-up (lane calibration,
/// worker threads) before anything is timed.
void set_up(Run& run, bool decorated, double& synth_s) {
  const double t0 = now_s();
  run.tr = make_traffic();
  synth_s = now_s() - t0;
  run.rig = std::make_unique<ServeRig>(run.tr.circuits, options(), replicas(), decorated);
  run.client = run.rig->session->client();
  std::vector<std::future<std::vector<double>>> warm;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const std::uint32_t s = i % traffic::kStructures;
    auto th = run.tr.theta[s];
    traffic::unique_binding(th, 0, run.serial++);
    warm.push_back(run.client.submit(run.rig->handles[s], th, run.tr.input[s]));
  }
  for (auto& f : warm) f.get();
}

void account(const Phase& ph, Report& r, const char* what) {
  r.attempt(ph.lat_ms.size());
  for (std::uint64_t i = 0; i < ph.shed + ph.failed; ++i)
    r.check(false, std::string(what) + ": request shed or failed");
}

/// Saturation: a closed loop that keeps kInFlight unique-binding
/// requests in flight, far more than the pool drains at once, for
/// `seconds`. Returns the completion rate of each of its ten windows
/// after the first (the ramp-up); their median is the pool's capacity
/// on this traffic. Sampled results join `samples`.
std::vector<double> saturate(Run& run, Prng& rng, double seconds,
                             std::uint64_t sample_phase,
                             std::vector<Sample>& samples, Report& r) {
  struct Pending {
    std::uint32_t structure;
    std::uint64_t serial;
    std::future<std::vector<double>> fut;
  };
  std::deque<Pending> live;
  std::vector<std::vector<double>> theta = run.tr.theta;
  const auto submit = [&] {
    const auto s = static_cast<std::uint32_t>(rng.uniform_int(traffic::kStructures));
    const std::uint64_t serial = run.serial++;
    traffic::unique_binding(theta[s], 0, serial);
    live.push_back({s, serial,
                    run.client.submit(run.rig->handles[s], theta[s], run.tr.input[s])});
  };
  // Completions are taken in submission order: fine for a rate, which
  // only counts them per window.
  std::uint64_t failed = 0;
  const auto collect = [&] {
    Pending p = std::move(live.front());
    live.pop_front();
    try {
      auto v = p.fut.get();
      if (p.serial % kSampleEvery == sample_phase)
        samples.push_back({p.structure, p.serial, std::move(v)});
    } catch (...) {
      ++failed;
    }
  };
  const std::uint64_t first = run.serial;
  for (std::size_t i = 0; i < kInFlight; ++i) submit();
  std::vector<double> rps;
  const double window_s = seconds / 10;
  const double t0 = now_s();
  double w0 = t0;
  std::uint64_t in_window = 0;
  for (;;) {
    collect();
    ++in_window;
    submit();
    const double t = now_s();
    if (t - w0 >= window_s) {
      rps.push_back(static_cast<double>(in_window) / (t - w0));
      in_window = 0, w0 = t;
    }
    if (t - t0 >= seconds) break;
  }
  while (!live.empty()) collect();
  r.attempt(run.serial - first);
  for (std::uint64_t i = 0; i < failed; ++i)
    r.check(false, "saturation request failed");
  if (!rps.empty()) rps.erase(rps.begin());
  return rps;
}

/// The rate ladder: the highest rate (1-s rungs) whose median 0.25-s
/// window meets the p99 limit and whose last window's median does too,
/// as the completion rate measured on that rung, or 0 when none does.
/// Starts from the nominal phase and runs until `end_s`.
double ladder(Run& run, Prng& rng, const Phase& nominal, double end_s,
              std::uint64_t sample_phase, std::vector<Sample>& samples, Report& r) {
  const auto step = [&](double rate) {
    const auto arr = poisson(rng, rate, kStepSeconds, run.serial);
    Phase ph = open_loop(*run.rig, run.client, run.tr, arr, kStepWindow,
                         sample_phase, samples);
    char line[160];
    std::snprintf(line, sizeof line,
                  "ladder %8.0f req/s: window p99 %.3f ms, late p99 %.3f ms, shed %llu -> %s",
                  rate, median(ph.per_window(ph.lat_ms, 0.99)), ph.late_p99(),
                  static_cast<unsigned long long>(ph.shed),
                  ph.meets_limit() ? "meets" : "misses");
    r.note(line);
    r.attempt(ph.lat_ms.size());
    for (std::uint64_t i = 0; i < ph.failed; ++i)
      r.check(false, "ladder request failed");
    return ph;
  };
  // Climb until the load clearly overwhelms the pool; the answer is
  // the highest rung that meets the limit (a host stall can fail a
  // lower rung, but cannot make an overloaded rung pass), refined by
  // bisection towards the first missing rung above it. When the
  // nominal rate already misses, descend instead.
  const auto served = [](const Phase& ph) {
    return static_cast<double>(ph.lat_ms.size()) / ph.wall_s;
  };
  double lo = 0.0, hi = 0.0, best = 0.0;
  if (nominal.meets_limit()) {
    lo = kNominalRps, best = served(nominal);
    int misses = 0;
    for (double rate = kNominalRps * kLadderFactor; misses < 2 && now_s() < end_s;
         rate *= kLadderFactor) {
      const Phase ph = step(rate);
      if (ph.meets_limit()) {
        lo = rate, hi = 0.0, misses = 0, best = served(ph);
      } else {
        if (hi == 0.0) hi = rate;
        if (ph.overloaded()) break;
        ++misses;
      }
    }
  } else {
    hi = kNominalRps;
    for (double rate = kNominalRps / kLadderFactor;
         lo == 0.0 && rate > kNominalRps / 16 && now_s() < end_s;
         rate /= kLadderFactor) {
      const Phase ph = step(rate);
      if (ph.meets_limit())
        lo = rate, best = served(ph);
      else
        hi = rate;
    }
  }
  for (int b = 0; b < kBisections && lo > 0.0 && hi > 0.0 && now_s() < end_s; ++b) {
    const double mid = std::sqrt(lo * hi);
    const Phase ph = step(mid);
    if (ph.meets_limit())
      lo = mid, best = served(ph);
    else
      hi = mid;
  }
  return best;
}

}  // namespace

void run_serve_unique(const Args& a, Report& r) {
  Prng rng(a.seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::uint64_t sample_phase = rng.uniform_int(kSampleEvery);

  std::vector<double> setup_s, synth_s;
  Run run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run = Run{};  // tear the previous rep down outside the timed region
    const double t0 = rep == 0 ? 0.0 : now_s();
    double synth = 0.0;
    set_up(run, false, synth);
    setup_s.push_back(now_s() - t0);
    synth_s.push_back(synth);
  }
  r.set("setup_s", median(setup_s));
  r.set("data.synth_s", median(synth_s));
  r.set("serve.replicas", static_cast<double>(replicas()));
  r.note("serve_unique: open loop, nominal " + std::to_string(kNominalRps) +
         " req/s, " + std::to_string(replicas()) +
         " exact statevector replicas, p99 limit " + std::to_string(kLimitMs) + " ms");

  std::vector<Sample> samples;
  // Warm-up: the first seconds of open-loop traffic after set-up ran
  // at up to twice the later latency. Its results are checked too.
  const Phase warm = open_loop(*run.rig, run.client, run.tr,
                               poisson(rng, kNominalRps, a.seconds * 0.1, run.serial),
                               kNominalWindow, sample_phase, samples);
  account(warm, r, "warm-up phase");
  const double nominal_s = a.seconds * (a.trace ? 0.4 : 0.45);
  const std::uint64_t first_serial = run.serial;
  const auto arrivals = poisson(rng, kNominalRps, nominal_s, run.serial);
  const Phase nominal = open_loop(*run.rig, run.client, run.tr, arrivals,
                                  kNominalWindow, sample_phase, samples);
  account(nominal, r, "nominal phase");
  // Latency counts from due times, so a late generator still shows in
  // it; an invalid run is flagged, not failed (it is no wrong output).
  if (!nominal.valid())
    r.note("RUN INVALID: generator p99 lateness " + std::to_string(nominal.late_p99()) +
           " ms exceeds " + std::to_string(kLateBoundMs) + " ms");

  // p50 and p99 as medians of their per-window values, so a scheduling
  // stall of the host moves at most the windows it hits.
  r.set("latency.p50_ms", median(nominal.per_window(nominal.lat_ms, 0.5)));
  r.set("latency.p99_ms", median(nominal.per_window(nominal.lat_ms, 0.99)));
  r.set("wall_s", nominal.wall_s);
  double max_late = *std::max_element(nominal.late_ms.begin(), nominal.late_ms.end());

  if (!a.trace) {
    // ---- saturation ---------------------------------------------------------
    const auto rps = saturate(run, rng, a.seconds * 0.4, sample_phase, samples, r);
    r.set("throughput", median(rps));
  } else {
    // ---- traced nominal phase on a decorated pool ---------------------------
    Run traced;
    double synth = 0.0;
    set_up(traced, true, synth);
    traced.serial = run.serial;  // keep bindings unique across both pools
    const std::uint64_t base = traced.serial;
    const std::size_t n = arrivals.size();
    std::vector<std::uint64_t> exec0(n, 0), exec1(n, 0);
    traced.rig->stats.on_batch = [&](std::span<const exec::Evaluation> evals,
                                     std::uint64_t t0, std::uint64_t t1) {
      for (const auto& e : evals) {
        const std::uint64_t s = serial_of(e);
        if (s >= base && s - base < n) exec0[s - base] = t0, exec1[s - base] = t1;
      }
    };
    std::vector<Arrival> again = arrivals;  // same schedule, fresh serials
    for (auto& x : again) x.serial = x.serial - first_serial + base;
    traced.serial = base + n;
    const LibCounters c0 = LibCounters::read();
    const auto m0 = traced.rig->session->metrics();
    start_tracing();
    const Phase tp = open_loop(*traced.rig, traced.client, traced.tr, again,
                               kNominalWindow, sample_phase, samples);
    finish_tracing(a, r, "client");
    check_inference_counts(*traced.rig, r);
    const auto m1 = traced.rig->session->metrics();
    (LibCounters::read() - c0).report(r);
    ServeDelta::between(m0, m1).report(r);
    report_backend(traced.rig->stats, r);
    account(tp, r, "traced phase");
    std::vector<double> wait_ms, exec_ms;
    for (std::size_t i = 0; i < n; ++i) {
      if (exec1[i] == 0) continue;
      wait_ms.push_back(static_cast<double>(exec0[i] - std::min(exec0[i], tp.submit_ns[i])) * 1e-6);
      exec_ms.push_back(static_cast<double>(exec1[i] - exec0[i]) * 1e-6);
    }
    r.set("serve.queue_wait_ms.p50", quantile(wait_ms, 0.5));
    r.set("serve.queue_wait_ms.p99", quantile(wait_ms, 0.99));
    r.set("serve.exec_ms.p50", quantile(exec_ms, 0.5));
    r.set("trace.overhead_ratio", tp.wall_s / nominal.wall_s);
    max_late = std::max(max_late, *std::max_element(tp.late_ms.begin(), tp.late_ms.end()));
    traced.rig->stats.on_batch = nullptr;

    // ---- rate ladder (untraced pool) ---------------------------------------
    r.set("serve.max_rps", ladder(run, rng, nominal, now_s() + a.seconds * 0.2,
                                  sample_phase, samples, r));
  }
  r.set("serve.gen_late_ms.max", max_late);
  check_samples(run.tr, samples, r);
}

}  // namespace qocbench
