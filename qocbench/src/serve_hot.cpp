// Workload `serve_hot`: a closed loop. clients() client threads each keep
// kWindow requests outstanding against one 10-qubit structure, drawing
// bindings from a catalog of kCatalog entries with Zipf popularity; the
// session's result cache (kCacheEntries, smaller than the catalog) and
// in-flight duplicate folding are on. Cache, registry, future and
// bookkeeping costs dominate and kernels do little, so a change that
// speeds compute batches but adds per-request overhead loses here.
//
// The timed phase runs rounds of kRoundRequests requests; a round's wall
// time is the time to serve that fixed amount. Every served result,
// cache hit and folded duplicate included, is compared bitwise with a
// direct run_batch result on a fresh backend.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
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

constexpr std::size_t kCatalog = 8192;
constexpr std::size_t kCacheEntries = 4096;
constexpr double kZipfExponent = 1.5;
constexpr std::size_t kWindow = 512;
constexpr long kRoundRequests = 100000;
constexpr long kFirstRequests = 256;   // finish lazy set-up (set-up time)
constexpr long kFillRequests = 20000;  // fill the result cache (untimed)
constexpr int kSetupReps = 31;

unsigned clients() { return 1; }
std::size_t replicas() { return serve_replicas(2); }

struct Catalog {
  circuit::Circuit circuit = traffic::qnn_circuit();
  std::vector<double> input = traffic::base_input(circuit);
  std::vector<std::vector<double>> theta;  // one binding per entry
  std::vector<double> cdf;                 // Zipf popularity
};

Catalog make_catalog() {
  Catalog c;
  const auto base = traffic::base_theta(c.circuit);
  double total = 0.0;
  for (std::size_t i = 0; i < kCatalog; ++i) {
    c.theta.push_back(base);
    c.theta.back()[0] = 1e-3 * static_cast<double>(i);
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    c.cdf.push_back(total);
  }
  for (auto& x : c.cdf) x /= total;
  return c;
}

std::size_t draw(const Catalog& c, Prng& rng) {
  const auto it = std::upper_bound(c.cdf.begin(), c.cdf.end(), rng.uniform());
  return std::min<std::size_t>(static_cast<std::size_t>(it - c.cdf.begin()),
                               kCatalog - 1);
}

serve::ServeOptions options() {
  serve::ServeOptions opt;  // max_batch 256, max_delay 200 us
  opt.result_cache_capacity = kCacheEntries;
  opt.fold_duplicates = true;
  return opt;
}

struct ClientOut {
  std::vector<double> lat_ms;
  std::uint64_t wrong = 0, failed = 0;
};

/// One client's share of a round: keep kWindow requests in flight until
/// the shared ticket count runs out, stamping each completion when it is
/// seen ready (not in submission order).
void client_loop(ServeRig& rig, serve::Client& client, const Catalog& cat,
                 const std::vector<std::vector<double>>& ref, Prng& rng,
                 std::atomic<long>& tickets, ClientOut& out) {
  struct Slot {
    std::future<std::vector<double>> fut;
    std::size_t id = 0;
    std::uint64_t t0 = 0, t1 = 0;  // submit, first seen ready
    bool busy = false;
  };
  std::vector<Slot> slots(kWindow);
  const auto submit = [&](Slot& s) {
    if (tickets.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
    s.id = draw(cat, rng);
    obs::SpanGuard span("client", "submit");
    s.t0 = steady_ns();
    s.fut = client.submit(rig.handles[0], cat.theta[s.id], cat.input);
    // A result-cache hit is complete when submit returns.
    s.t1 = s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready
               ? steady_ns()
               : 0;
    s.busy = true;
  };
  for (auto& s : slots) submit(s);
  for (;;) {
    bool any_busy = false, any_done = false;
    for (auto& s : slots) {
      if (!s.busy) continue;
      any_busy = true;
      if (s.t1 == 0) {
        if (s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
          continue;
        s.t1 = steady_ns();
      }
      any_done = true;
      s.busy = false;
      {
        obs::SpanGuard span("client", "collect");
        try {
          out.wrong += s.fut.get() != ref[s.id];
          out.lat_ms.push_back(static_cast<double>(s.t1 - s.t0) * 1e-6);
        } catch (...) {
          ++out.failed;
        }
      }
      submit(s);
    }
    if (!any_busy) return;
    if (!any_done)
      for (auto& s : slots)
        if (s.busy) {
          s.fut.wait_for(std::chrono::microseconds(50));
          break;
        }
  }
}

struct Round {
  double wall_s = 0.0;
  std::vector<double> lat_ms;
  std::uint64_t wrong = 0, failed = 0;
};

Round run_round(ServeRig& rig, std::vector<serve::Client>& cl, const Catalog& cat,
                const std::vector<std::vector<double>>& ref,
                std::vector<Prng>& rngs, long requests) {
  std::atomic<long> tickets{requests};
  std::vector<ClientOut> outs(cl.size());
  const double t0 = now_s();
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < cl.size(); ++i)
      threads.emplace_back([&, i] {
        client_loop(rig, cl[i], cat, ref, rngs[i], tickets, outs[i]);
      });
  }
  Round r;
  r.wall_s = now_s() - t0;
  for (auto& o : outs) {
    r.lat_ms.insert(r.lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    r.wrong += o.wrong;
    r.failed += o.failed;
  }
  return r;
}

struct Run {
  std::unique_ptr<ServeRig> rig;
  std::vector<serve::Client> clients;
  std::vector<Prng> rngs;
};

/// Set-up: pool and session, registration, and a first round that
/// finishes the library's lazy set-up (worker threads, lane calibration).
void set_up(Run& run, const Catalog& cat, const std::vector<std::vector<double>>& ref,
            std::uint64_t seed, bool decorated) {
  run.rig = std::make_unique<ServeRig>(std::vector<circuit::Circuit>{cat.circuit},
                                       options(), replicas(), decorated);
  for (unsigned i = 0; i < clients(); ++i) {
    run.clients.push_back(run.rig->session->client());
    run.rngs.emplace_back(seed * 0x9E3779B97F4A7C15ULL + 1000 + i);
  }
  run_round(*run.rig, run.clients, cat, ref, run.rngs, kFirstRequests);
}

void account(const Round& rd, Report& r) {
  r.attempt(rd.lat_ms.size() - rd.wrong);
  for (std::uint64_t i = 0; i < rd.wrong; ++i)
    r.check(false, "served result differs from the direct result");
  for (std::uint64_t i = 0; i < rd.failed; ++i)
    r.check(false, "request failed");
}

}  // namespace

void run_serve_hot(const Args& a, Report& r) {
  // Catalog synthesis is part of set-up; the direct reference results
  // are the benchmark's oracle and are computed outside any timing.
  std::vector<double> setup_s, synth_s;
  const double s0 = now_s();
  Catalog cat = make_catalog();
  synth_s.push_back(now_s() - s0);
  std::vector<std::vector<double>> ref;
  {
    std::vector<exec::Evaluation> evals(kCatalog);
    for (std::size_t i = 0; i < kCatalog; ++i) {
      evals[i].theta = cat.theta[i];
      evals[i].input = cat.input;
    }
    ref = direct_results(cat.circuit, evals);
  }
  Run run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run = Run{};  // tear the previous rep down outside the timed region
    const double t0 = now_s();
    if (rep > 0) {
      cat = make_catalog();
      synth_s.push_back(now_s() - t0);
    }
    set_up(run, cat, ref, a.seed, false);
    // Rep 0 runs from process start and synthesised the catalog above.
    setup_s.push_back(now_s() - t0 + (rep == 0 ? s0 + synth_s[0] : 0.0));
  }
  r.set("setup_s", median(setup_s));
  r.set("data.synth_s", median(synth_s));
  r.set("serve.replicas", static_cast<double>(replicas()));
  // Steady state before timing: how long the cache takes to fill depends
  // on the popularity mix, not on set-up, so it is neither.
  run_round(*run.rig, run.clients, cat, ref, run.rngs, kFillRequests);

  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const double start = now_s();
  std::vector<double> walls, rates, round_p50, round_p99;
  const auto m0 = run.rig->session->metrics();
  do {
    const Round rd = run_round(*run.rig, run.clients, cat, ref, run.rngs, kRoundRequests);
    account(rd, r);
    walls.push_back(rd.wall_s);
    rates.push_back(static_cast<double>(kRoundRequests) / rd.wall_s);
    round_p50.push_back(quantile(rd.lat_ms, 0.50));
    round_p99.push_back(quantile(rd.lat_ms, 0.99));
  } while (now_s() - start + walls.back() <= budget);
  const ServeDelta d = ServeDelta::between(m0, run.rig->session->metrics());
  r.note("serve_hot: closed loop, " + std::to_string(clients()) + " clients x " +
         std::to_string(kWindow) + " outstanding, catalog " + std::to_string(kCatalog) +
         ", cache " + std::to_string(kCacheEntries) + ", cache hit ratio " +
         std::to_string(ratio(d.cache_hits, d.submitted)) + ", fold ratio " +
         std::to_string(ratio(d.folded, d.submitted)) + ", rounds " +
         std::to_string(walls.size()));
  r.set("wall_s", median(walls));
  r.set("throughput", median(rates));
  // Latency quantiles per round, then the median over rounds: a stall of
  // the host moves only the rounds it hits.
  r.set("latency.p50_ms", median(round_p50));
  r.set("latency.p99_ms", median(round_p99));
  if (!a.trace) return;

  // ---- traced rounds on a decorated pool ------------------------------------
  Run traced;
  set_up(traced, cat, ref, a.seed, true);
  run_round(*traced.rig, traced.clients, cat, ref, traced.rngs, kFillRequests);
  std::mutex exec_mu;
  std::vector<double> exec_ms;  // per executed batch (misses only)
  traced.rig->stats.on_batch = [&](std::span<const exec::Evaluation>,
                                   std::uint64_t t0, std::uint64_t t1) {
    const std::lock_guard<std::mutex> lock(exec_mu);
    exec_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  };
  const LibCounters c0 = LibCounters::read();
  const auto t0 = traced.rig->session->metrics();
  // One traced round: ~3 spans per request, so the trace stays small.
  start_tracing();
  const Round rd = run_round(*traced.rig, traced.clients, cat, ref, traced.rngs,
                             kRoundRequests);
  finish_tracing(a, r, "client");
  account(rd, r);
  (LibCounters::read() - c0).report(r);
  ServeDelta::between(t0, traced.rig->session->metrics()).report(r);
  report_backend(traced.rig->stats, r);
  check_inference_counts(*traced.rig, r);
  traced.rig->stats.on_batch = nullptr;
  r.set("serve.exec_ms.p50", median(exec_ms));
  r.set("trace.overhead_ratio", rd.wall_s / median(walls));
}

}  // namespace qocbench
