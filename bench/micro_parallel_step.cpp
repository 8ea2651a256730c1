// Parallel-step microbenchmark: per-stage wall time of
// MonitoringPipeline::step() (collect / cluster / forecast, via
// StageTimers) at several thread counts on one seeded synthetic trace.
//
// The determinism contract makes the sweep directly comparable: every
// thread count computes bit-identical results (verified here against the
// serial run), so the only thing that changes is speed. The headline
// column is the speedup of the cluster + forecast stages — the two loops
// the paper's central node spends its time in — relative to the serial
// run. On a multi-core machine expect >= 2x at 4 threads for the default
// N = 2000, K = 10, ARIMA configuration.
//
// It also measures the allocation contracts, counted by this TU's operator
// new replacement over a steady-state window of slots between two
// scheduled retrains: each step_external() must perform ZERO heap
// allocations, each forecast_all(h) call exactly one — the returned
// matrix — at every horizon, and each in-process step() (adaptive policy
// through the real-codec LoopbackLink, over a window holding both slots in
// which nodes send and slots in which none does) ZERO. See
// docs/PERFORMANCE.md for how to read and enforce these properties.
//
// Flags: --nodes --steps --clusters --model --dataset --seed --threads
// (run only {1, <threads>} instead of the default {1, 2, 4, 8} sweep);
// --strict turns the speedup / allocation-contract WARNings into exit 1;
// --json PATH / --json-run LABEL select the JSON sink and append a
// timestamped history entry for this run.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

#include "core/pipeline.hpp"

// -- allocation counter -------------------------------------------------
// Replaces global operator new/delete for this binary so the steady-state
// phase below can assert that the per-slot pipeline path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded > 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace resmon;

struct StageRun {
  core::StageTimers timers;
  Matrix forecast;  // h = 1 forecast after the last step, for verification
};

StageRun run_once(const trace::Trace& t, const core::PipelineOptions& base,
                  std::size_t threads, std::size_t steps,
                  obs::MetricsRegistry* metrics,
                  obs::TraceBuffer* trace_events) {
  core::PipelineOptions o = base;
  o.num_threads = threads;
  o.metrics = metrics;
  o.trace_events = trace_events;
  core::MonitoringPipeline p(t, o);
  p.run(steps);
  return {p.stage_timers(), p.forecast_all(1)};
}

struct SteadyStats {
  std::uint64_t total_allocs = 0;  ///< inside step_external()
  std::size_t window_steps = 0;
  std::uint64_t forecast_allocs = 0;  ///< inside forecast_all(h)
  std::size_t forecast_calls = 0;
};

/// Horizons forecast after every slot of the steady window; the second one
/// reuses the slot's per-node estimate, the first one computes it.
constexpr std::size_t kSteadyHorizons[] = {1, 6};

/// Drives an external-collection pipeline through the first retrain, then
/// counts heap allocations over the steady slots strictly between retrains
/// (prebuilt messages, serial execution): the contract is zero per step and
/// one (the returned matrix) per forecast_all call.
SteadyStats measure_steady_allocs(const trace::Trace& t,
                                  const core::PipelineOptions& base) {
  core::PipelineOptions o = base;
  o.num_threads = 1;
  o.metrics = nullptr;
  o.trace_events = nullptr;
  core::MonitoringPipeline p(t, o, core::ExternalCollection{});

  // Warm through the initial fit plus one post-fit slot (first update()
  // after a fit takes its scratch-slab reservations), then measure up to
  // the slot before the next scheduled retrain.
  const std::size_t warm_until = o.schedule.initial_steps + 2;
  const std::size_t window_end =
      o.schedule.initial_steps + o.schedule.retrain_interval - 1;
  const std::size_t n = t.num_nodes();
  const std::size_t d = t.num_resources();
  std::vector<std::vector<transport::MeasurementMessage>> slots(window_end);
  for (std::size_t s = 0; s < window_end; ++s) {
    slots[s].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[s][i].node = i;
      slots[s][i].step = s;
      slots[s][i].values.resize(d);
      for (std::size_t r = 0; r < d; ++r) {
        slots[s][i].values[r] = t.value(i, s, r);
      }
    }
  }

  SteadyStats stats;
  for (std::size_t s = 0; s < window_end; ++s) {
    const bool measured = s >= warm_until;
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    p.step_external(slots[s]);
    if (measured) {
      stats.total_allocs +=
          g_allocs.load(std::memory_order_relaxed) - before;
      ++stats.window_steps;
    }
    // Forecast every slot, warm-up included, so the window sees the
    // steady state of the per-slot estimate buffers and model scratch.
    for (const std::size_t h : kSteadyHorizons) {
      before = g_allocs.load(std::memory_order_relaxed);
      const Matrix forecast = p.forecast_all(h);
      if (measured) {
        stats.forecast_allocs +=
            g_allocs.load(std::memory_order_relaxed) - before;
        ++stats.forecast_calls;
      }
    }
  }
  return stats;
}

struct InprocStats {
  std::uint64_t allocs = 0;  ///< inside step()
  std::size_t window_steps = 0;
  std::size_t send_slots = 0;    ///< window slots in which some node sent
  std::size_t silent_slots = 0;  ///< window slots in which none did
};

/// Same window, in-process: step() collects through the FleetCollector and
/// the LoopbackLink (encode, CRC, decode, channel, store) before the shared
/// cluster/forecast path. The contract is zero allocations per step on
/// send and silent slots alike.
InprocStats measure_inproc_step_allocs(const trace::Trace& t,
                                       const core::PipelineOptions& base) {
  core::PipelineOptions o = base;
  o.num_threads = 1;
  o.metrics = nullptr;
  o.trace_events = nullptr;
  core::MonitoringPipeline p(t, o);
  const std::size_t warm_until = o.schedule.initial_steps + 2;
  const std::size_t window_end =
      o.schedule.initial_steps + o.schedule.retrain_interval - 1;
  InprocStats stats;
  for (std::size_t s = 0; s < window_end; ++s) {
    const std::uint64_t sent_before = p.collector().link().messages_sent();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    p.step();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    // Forecast every slot, as the external window does.
    for (const std::size_t h : kSteadyHorizons) (void)p.forecast_all(h);
    if (s < warm_until) continue;
    stats.allocs += allocs;
    ++stats.window_steps;
    if (p.collector().link().messages_sent() > sent_before) {
      ++stats.send_slots;
    } else {
      ++stats.silent_slots;
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  bench::banner("micro_parallel_step",
                "Per-stage wall time of MonitoringPipeline::step() vs "
                "thread count (bit-identical results at every count)");

  trace::SyntheticProfile profile =
      bench::profile_from_args(args, args.get("dataset", "alibaba"));
  if (!args.has("nodes")) profile.num_nodes = 2000;
  if (!args.has("steps")) profile.num_steps = 48;
  const std::size_t steps = profile.num_steps;
  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));

  core::PipelineOptions base;
  base.num_clusters =
      static_cast<std::size_t>(args.get_int("clusters", 10));
  base.forecaster =
      forecast::forecaster_kind_from_string(args.get("model", "arima"));
  // Retrain inside the benchmarked window so the forecast stage does real
  // model fitting, not just transient updates.
  base.schedule = {.initial_steps = 24, .retrain_interval = 12};
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (args.has("threads")) {
    const std::size_t requested = args.get_threads();
    thread_counts = {1};
    if (requested != 1) thread_counts.push_back(requested);
  }

  // Sinks for --metrics-out / --trace-out; series accumulate across the
  // whole thread sweep (stage gauges are per-run: run() resets them).
  obs::MetricsRegistry registry;
  obs::TraceBuffer trace_events;

  Table table({"threads", "collect_s", "cluster_s", "forecast_s",
               "cluster+forecast_s", "speedup", "identical"},
              4);
  bench::BenchJson sink("resmon-micro", "micro_parallel_step");
  StageRun serial;
  double serial_hot = 0.0;
  std::vector<std::pair<std::size_t, double>> speedups;
  for (const std::size_t threads : thread_counts) {
    const StageRun run =
        run_once(t, base, threads, steps, &registry, &trace_events);
    const double hot =
        run.timers.cluster_seconds + run.timers.forecast_seconds;
    bool identical = true;
    if (threads == thread_counts.front()) {
      serial = run;
      serial_hot = hot;
    } else {
      identical = run.forecast.data() == serial.forecast.data();
    }
    table.add_row({static_cast<double>(threads),
                   run.timers.collect_seconds, run.timers.cluster_seconds,
                   run.timers.forecast_seconds, hot,
                   serial_hot > 0.0 ? serial_hot / hot : 1.0,
                   identical ? 1.0 : 0.0});
    const double speedup = serial_hot > 0.0 ? serial_hot / hot : 1.0;
    speedups.emplace_back(threads, speedup);
    sink.add("threads=" + std::to_string(threads),
             {{"collect_s", run.timers.collect_seconds},
              {"cluster_s", run.timers.cluster_seconds},
              {"forecast_s", run.timers.forecast_seconds},
              {"cluster_forecast_speedup", speedup},
              {"identical", identical ? 1.0 : 0.0}});
  }
  bench::emit(table, args);

  // -- steady-state allocation contracts ---------------------------------
  // Between retrains, step_external() must not touch the heap at all and
  // forecast_all(h) only for its result (see docs/PERFORMANCE.md
  // "Zero-allocation steady state" and "Per-slot estimate cache").
  const std::size_t steady_need =
      base.schedule.initial_steps + base.schedule.retrain_interval - 1;
  bool steady_ok = true;
  if (steps >= steady_need) {
    const SteadyStats steady = measure_steady_allocs(t, base);
    const double per_step =
        steady.window_steps > 0
            ? static_cast<double>(steady.total_allocs) /
                  static_cast<double>(steady.window_steps)
            : 0.0;
    const double per_forecast =
        steady.forecast_calls > 0
            ? static_cast<double>(steady.forecast_allocs) /
                  static_cast<double>(steady.forecast_calls)
            : 0.0;
    const InprocStats inproc = measure_inproc_step_allocs(t, base);
    const double inproc_per_slot =
        inproc.window_steps > 0
            ? static_cast<double>(inproc.allocs) /
                  static_cast<double>(inproc.window_steps)
            : 0.0;
    sink.add("steady",
             {{"steady_allocs_per_step", per_step},
              {"steady_window_steps",
               static_cast<double>(steady.window_steps)},
              {"steady_forecast_allocs_per_call", per_forecast},
              {"steady_step_inproc_allocs_per_slot", inproc_per_slot},
              {"steady_inproc_send_slots",
               static_cast<double>(inproc.send_slots)},
              {"steady_inproc_silent_slots",
               static_cast<double>(inproc.silent_slots)}});
    std::cout << "\nsteady-state window: " << steady.window_steps
              << " steps, " << steady.total_allocs
              << " heap allocations (contract: 0); " << steady.forecast_calls
              << " forecast_all calls, " << steady.forecast_allocs
              << " heap allocations (contract: 1 per call)\n"
              << "in-process step(): " << inproc.window_steps << " steps ("
              << inproc.send_slots << " with sends, " << inproc.silent_slots
              << " silent), " << inproc.allocs
              << " heap allocations (contract: 0)\n";
    if (inproc.allocs != 0) {
      steady_ok = false;
      std::cout << "WARNING: in-process step() allocated " << inproc.allocs
                << " times; the zero-allocation contract is broken (see "
                << "docs/PERFORMANCE.md)\n";
    }
    if (inproc.send_slots == 0 || inproc.silent_slots == 0) {
      steady_ok = false;
      std::cout << "WARNING: the in-process window does not span both send "
                << "and silent slots, so its allocation count proves "
                << "nothing about one of them\n";
    }
    if (steady.total_allocs != 0) {
      steady_ok = false;
      std::cout << "WARNING: steady-state step path allocated "
                << steady.total_allocs << " times; the zero-allocation "
                << "contract is broken (see docs/PERFORMANCE.md)\n";
    }
    if (steady.forecast_allocs > steady.forecast_calls) {
      steady_ok = false;
      std::cout << "WARNING: steady-state forecast_all allocated "
                << per_forecast << " times per call (contract: 1, the "
                << "returned matrix; see docs/PERFORMANCE.md)\n";
    }
  } else {
    std::cout << "\nsteady-state allocation check skipped: needs --steps >= "
              << steady_need << "\n";
  }

  // -- anti-scaling guard ------------------------------------------------
  // The sweep must never be slower with more threads; 0.95 absorbs timer
  // jitter on loaded CI hosts (policy in docs/PERFORMANCE.md).
  bool speedup_ok = true;
  for (std::size_t row = 1; row < speedups.size(); ++row) {
    if (speedups[row].second < 0.95) {
      speedup_ok = false;
      std::cout << "WARNING: cluster_forecast_speedup = "
                << speedups[row].second << " at " << speedups[row].first
                << " threads (< 0.95): parallel execution is slower than "
                   "serial (see docs/PERFORMANCE.md)\n";
    }
  }

  sink.write(args.get("json", "BENCH_micro.json"), args.get("json-run", ""));
  bench::emit_observability(args, registry, &trace_events);
  std::cout << "\nspeedup = (cluster_s + forecast_s) at 1 thread / same at "
               "N threads; identical = h=1 forecasts bitwise equal to the "
               "serial run (must always be 1).\n";
  if (args.has("strict") && (!steady_ok || !speedup_ok)) return 1;
  return 0;
}
