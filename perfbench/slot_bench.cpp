// Slot benchmark: end-to-end slot latency of the central node, and a
// per-layer table from a traced run.
//
// A slot is the paper's synchronous time step (§IV) seen from outside the
// system: it starts with the first call into the system for slot t (the
// in-process collector step, or the policy decisions that feed the shard
// frames) and ends when forecast_all(h) has returned for every horizon of
// the workload. Slots run in lock-step (a closed loop with one client):
// slot t+1 is issued only after slot t's forecasts are ready. Warm-up up to
// and including the initial model fit is set-up, not slots; scoring
// against the trace happens after each slot's clock has stopped.
//
//   perfbench_slot --workload NAME --seed N --seconds S --trace 0|1
//
// prints a human-readable table, then one JSON object as the last line of
// stdout. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. perfbench/README.md defines every metric and workload; run.py
// builds this binary and checks the forecast digest across runs.
//
// The benchmark's own tests shrink the fleet with --nodes N.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "collect/fleet_collector.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "trace/synthetic.hpp"

#include "slot_stats.hpp"

// -- allocation counter -------------------------------------------------
// Replaces global operator new/delete for this binary (the idiom of
// bench/micro_parallel_step.cpp), so each *.allocs_per_slot counts the heap
// allocations made inside the public call it names, on every thread.
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
using Clock = std::chrono::steady_clock;
using perfbench::Interval;

constexpr int kNetTimeoutMs = 10000;
constexpr std::size_t kNumShards = 4;
/// Fewest retrain slots a run needs before it reports a retrain median.
constexpr std::size_t kMinRetrainSlots = 50;

std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- workloads ----------------------------------------------------------

struct Workload {
  std::string name;
  std::string profile;
  std::size_t nodes = 0;
  /// Root net::Controller over loopback TCP fed through step_external();
  /// otherwise in-process step() through the real-codec LoopbackLink.
  bool tcp = false;
  std::vector<std::size_t> horizons;
  /// Timed slots per second of --seconds, summed over all passes, sized
  /// so a run measures for about that long on a 4-core x86 box.
  double slots_per_second = 150.0;
  /// Floor on timed slots: p99 needs 1000 samples to keep ten beyond it.
  std::size_t min_slots = 1000;
  /// Set-up + timed-window passes per run (see run()).
  std::size_t passes = 3;
  core::PipelineOptions pipeline;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  // Paper defaults (§VI): adaptive B = 0.3, K = 3, M = 1, M' = 5,
  // per-resource scalar clustering, 1000-step initial fit.
  w.pipeline.policy = collect::PolicyKind::kAdaptive;
  w.pipeline.max_frequency = 0.3;
  w.pipeline.num_clusters = 3;
  w.pipeline.similarity_lookback = 1;
  w.pipeline.offset_lookback = 5;
  w.pipeline.cluster_per_resource = true;
  w.pipeline.forecaster = forecast::ForecasterKind::kArima;
  w.pipeline.schedule = {.initial_steps = 1000, .retrain_interval = 288};
  w.pipeline.num_threads = 1;
  if (name == "inproc-alibaba4k") {
    w.profile = "alibaba";
    w.nodes = 4096;
    w.horizons = {1, 5};
  } else if (name == "tcp-shards-google4k") {
    w.profile = "google";
    w.nodes = 4096;
    w.tcp = true;
    w.horizons = {1, 3};
    w.slots_per_second = 200.0;
    w.passes = 4;
    w.pipeline.policy = collect::PolicyKind::kAlways;  // B = 1 at the agents
    w.pipeline.max_frequency = 1.0;
    w.pipeline.cluster_per_resource = false;  // joint 2-D K-means
    w.pipeline.forecaster = forecast::ForecasterKind::kSampleHold;
    // Sample-and-hold has nothing to fit, so 200 slots of warm-up fill the
    // cluster and offset windows (16 and M' + 1 slots deep) with room to
    // spare.
    w.pipeline.schedule.initial_steps = 200;
  } else if (name == "retrain-bitbrains1k") {
    w.profile = "bitbrains";
    w.nodes = 1024;
    w.horizons = {1, 12};
    w.slots_per_second = 300.0;
    w.min_slots = 1200;  // >= 50 retrain slots at one retrain per 24
    w.passes = 4;
    w.pipeline.schedule.retrain_interval = 24;
    w.pipeline.num_threads = 2;
  } else {
    throw InvalidArgument("unknown workload '" + name +
                          "' (inproc-alibaba4k, tcp-shards-google4k, "
                          "retrain-bitbrains1k)");
  }
  return w;
}

// -- probes ---------------------------------------------------------------

/// The public calls a slot makes into the system, one probe site each.
enum Site : std::size_t {
  kPolicy,       ///< tcp: per-node TransmitPolicy::decide + frame fill
  kEncode,       ///< tcp: net::wire::encode of one shard frame
  kSend,         ///< tcp: Socket::write_all of one shard frame
  kCollectSlot,  ///< tcp: Controller::collect_slot (poll+recv+decode+barrier)
  kStep,         ///< MonitoringPipeline::step / step_external
  kForecastAll,  ///< MonitoringPipeline::forecast_all, once per horizon
  kNumSites,
};

constexpr std::array<const char*, kNumSites> kSiteNames = {
    "collect.policy", "net.encode", "net.send",
    "net.collect_slot", "core.step", "core.forecast_all"};

/// Heap allocations per probe site within one slot.
using SiteAllocs = std::array<std::uint64_t, kNumSites>;

/// One recorded span: the slot itself (parent -1), a call into the system
/// (parent: the slot), or a pipeline stage event (parent: core.step).
struct Span {
  const char* name;
  std::size_t slot = 0;
  long parent = -1;
  Interval when;
};

/// Times each slot and counts the heap allocations of every call it makes
/// into the system, per site (two clock reads and two relaxed loads per
/// call). With `spans` the calls are also logged as spans tagged with their
/// slot id and parent, for the traced run.
class Probe {
 public:
  Probe(bool spans, std::size_t slots, Clock::time_point epoch)
      : spans_enabled_(spans), epoch_(epoch) {
    sites_.reserve(slots);
    slot_ms_.reserve(slots);
    if (spans_enabled_) spans_.reserve(slots * 20);
  }

  void begin_slot(std::size_t slot) {
    slot_ = slot;
    current_ = {};
    slot_begin_ = Clock::now();
    if (spans_enabled_) {
      slot_span_ = static_cast<long>(spans_.size());
      spans_.push_back({"slot", slot, -1, {ns_since(epoch_, slot_begin_), 0}});
    }
  }

  template <typename F>
  decltype(auto) call(Site site, F&& f) {
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    struct Close {
      Probe& probe;
      Site site;
      std::uint64_t a0;
      Clock::time_point t0;
      ~Close() {
        const Clock::time_point t1 = Clock::now();
        const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
        probe.close(site, a1 - a0, t0, t1);
      }
    } close{*this, site, a0, t0};
    return f();
  }

  void end_slot() {
    const Clock::time_point end = Clock::now();
    slot_ms_.push_back(
        std::chrono::duration<double, std::milli>(end - slot_begin_).count());
    sites_.push_back(current_);
    if (spans_enabled_) {
      spans_[static_cast<std::size_t>(slot_span_)].when.end =
          ns_since(epoch_, end);
    }
  }

  const std::vector<double>& slot_ms() const { return slot_ms_; }
  const std::vector<SiteAllocs>& sites() const { return sites_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  void close(Site site, std::uint64_t allocs, Clock::time_point t0,
             Clock::time_point t1) {
    current_[site] += allocs;
    if (spans_enabled_) {
      spans_.push_back({kSiteNames[site], slot_, slot_span_,
                        {ns_since(epoch_, t0), ns_since(epoch_, t1)}});
    }
  }

  bool spans_enabled_;
  Clock::time_point epoch_;
  std::size_t slot_ = 0;
  long slot_span_ = -1;
  Clock::time_point slot_begin_;
  SiteAllocs current_{};
  std::vector<SiteAllocs> sites_;
  std::vector<double> slot_ms_;
  std::vector<Span> spans_;
};

/// Warm-up slots go through the same code without being recorded.
struct NullProbe {
  template <typename F>
  decltype(auto) call(Site, F&& f) {
    return f();
  }
};

// -- the system under test ------------------------------------------------

/// What a slot did, for the output checks and accounting done after its
/// clock stopped.
struct SlotOutcome {
  bool barrier_ok = true;
  bool ingest_ok = true;  ///< tcp: collect_slot returned exactly what was sent
};

/// One instance of the system under test for a workload: the pipeline,
/// plus for tcp the root Controller and the 4 shard connections into it.
class System {
 public:
  System(const Workload& w, const trace::Trace& trace,
         obs::TraceBuffer* trace_events)
      : w_(w), trace_(trace) {
    core::PipelineOptions opts = w.pipeline;
    opts.metrics = &registry_;
    opts.trace_events = trace_events;
    if (w.tcp) {
      start_root();
      pipeline_ = std::make_unique<core::MonitoringPipeline>(
          trace, opts, core::ExternalCollection{});
    } else {
      pipeline_ = std::make_unique<core::MonitoringPipeline>(trace, opts);
    }
  }

  /// Runs slot t: collection, clustering, model feeding, then forecast_all
  /// for every horizon into forecasts() when `forecast`.
  template <typename P>
  SlotOutcome slot(std::size_t t, P& probe, bool forecast) {
    SlotOutcome out;
    if (w_.tcp) {
      probe.call(kPolicy, [&] { fill_shard_frames(t); });
      for (std::size_t s = 0; s < kNumShards; ++s) {
        const std::vector<std::uint8_t> bytes =
            probe.call(kEncode, [&] { return net::wire::encode(frames_[s]); });
        const bool sent = probe.call(kSend, [&] {
          return shards_[s].write_all(bytes, kNetTimeoutMs);
        });
        if (!sent) throw InvalidState("root closed a shard connection");
      }
      std::optional<std::vector<transport::MeasurementMessage>> got =
          probe.call(kCollectSlot, [&] {
            return controller_->collect_slot(t, kNetTimeoutMs);
          });
      if (!got) {
        out.barrier_ok = false;
        return out;
      }
      probe.call(kStep, [&] { pipeline_->step_external(*got); });
      out.ingest_ok = matches_sent(*got, t);
    } else {
      probe.call(kStep, [&] { pipeline_->step(); });
    }
    if (forecast) {
      forecasts_.resize(w_.horizons.size());
      for (std::size_t k = 0; k < w_.horizons.size(); ++k) {
        probe.call(kForecastAll, [&] {
          forecasts_[k] = pipeline_->forecast_all(w_.horizons[k]);
        });
      }
    }
    return out;
  }

  const core::MonitoringPipeline& pipeline() const { return *pipeline_; }
  const std::vector<Matrix>& forecasts() const { return forecasts_; }

  /// Measurements delivered to the central node so far, and the uplink
  /// bytes that carried them (wire frames on both paths).
  std::uint64_t measurements_delivered() const {
    return w_.tcp ? controller_->summary_measurements()
                  : pipeline_->collector().link().messages_sent();
  }
  std::uint64_t uplink_bytes() const {
    return w_.tcp ? controller_->bytes_received()
                  : pipeline_->collector().link().bytes_sent();
  }
  std::uint64_t frames_received() const {
    return w_.tcp ? controller_->frames_received() : 0;
  }
  std::uint64_t degraded_slots() const {
    return w_.tcp ? controller_->degraded_slots() : 0;
  }
  std::uint64_t policy_sends() const { return policy_sends_; }

  /// Sum of a counter family over all its label sets.
  double family_total(const std::string& name) const {
    double total = 0.0;
    for (const obs::Sample& s : registry_.snapshot()) {
      if (s.name == name) total += s.value;
    }
    return total;
  }

  double training_seconds() const {
    const core::MonitoringPipeline& p = *pipeline_;
    const std::size_t dims =
        w_.pipeline.cluster_per_resource ? 1 : trace_.num_resources();
    double total = 0.0;
    for (std::size_t v = 0; v < p.num_views(); ++v) {
      for (std::size_t j = 0; j < w_.pipeline.num_clusters; ++j) {
        for (std::size_t dim = 0; dim < dims; ++dim) {
          total += p.model(v, j, dim).total_training_seconds();
        }
      }
    }
    return total;
  }

 private:
  /// Root controller with 4 shards; the benchmark stands in for the 4
  /// aggregators over one TCP connection each.
  void start_root() {
    net::ControllerOptions copts;
    copts.num_nodes = trace_.num_nodes();
    copts.num_resources = trace_.num_resources();
    copts.num_shards = kNumShards;
    copts.metrics = &registry_;
    controller_ = std::make_unique<net::Controller>(
        net::Socket::listen_tcp("127.0.0.1", 0), copts);
    const std::size_t n = trace_.num_nodes();
    const std::size_t d = trace_.num_resources();
    // The listen backlog completes these connects before the root pumps,
    // so one thread can write every hello and then let the root accept.
    for (std::size_t s = 0; s < kNumShards; ++s) {
      const std::size_t first = s * n / kNumShards;
      const std::size_t last = (s + 1) * n / kNumShards;
      shards_.push_back(net::Socket::connect_tcp("127.0.0.1",
                                                 controller_->port(),
                                                 kNetTimeoutMs));
      const net::wire::ShardHelloFrame hello{
          .shard = static_cast<std::uint32_t>(s),
          .first_node = static_cast<std::uint32_t>(first),
          .num_nodes = static_cast<std::uint32_t>(last - first),
          .num_resources = static_cast<std::uint32_t>(d)};
      if (!shards_.back().write_all(net::wire::encode(hello), kNetTimeoutMs)) {
        throw InvalidState("root closed a shard connection during hello");
      }
      net::wire::SlotSummaryFrame frame;
      frame.shard = static_cast<std::uint32_t>(s);
      frame.num_resources = static_cast<std::uint32_t>(d);
      frames_.push_back(std::move(frame));
    }
    if (!controller_->wait_for_shards(kNumShards, kNetTimeoutMs)) {
      throw InvalidState("root did not complete the shard handshakes");
    }
    for (net::Socket& sock : shards_) expect_accepted_ack(sock);
    x_.resize(d);
    const auto make_policy =
        collect::make_policy_factory(w_.pipeline.policy,
                                     w_.pipeline.max_frequency);
    for (std::size_t i = 0; i < n; ++i) policies_.push_back(make_policy());
  }

  static void expect_accepted_ack(net::Socket& sock) {
    net::wire::FrameDecoder decoder;
    std::array<std::uint8_t, 256> buf{};
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kNetTimeoutMs);
    while (Clock::now() < deadline) {
      if (std::optional<net::wire::Frame> frame = decoder.next()) {
        const auto* ack = std::get_if<net::wire::HelloAckFrame>(&*frame);
        if (ack == nullptr || !ack->accepted) break;
        return;
      }
      if (!sock.wait_readable(100)) continue;
      std::size_t n = 0;
      if (sock.read_some(buf, n) != net::IoStatus::kOk) break;
      if (!decoder.feed(std::span<const std::uint8_t>(buf.data(), n))) break;
    }
    throw InvalidState("root did not accept a shard hello");
  }

  /// One policy decision per node; transmitted measurements land in their
  /// shard's SlotSummaryFrame, the bytes Aggregator::forward_slot would
  /// send. Message storage is reused across slots.
  void fill_shard_frames(std::size_t t) {
    const std::size_t n = trace_.num_nodes();
    const std::size_t d = trace_.num_resources();
    for (std::size_t s = 0; s < kNumShards; ++s) {
      net::wire::SlotSummaryFrame& frame = frames_[s];
      frame.step = t;
      std::size_t used = 0;
      for (std::size_t node = s * n / kNumShards;
           node < (s + 1) * n / kNumShards; ++node) {
        for (std::size_t r = 0; r < d; ++r) x_[r] = trace_.value(node, t, r);
        if (!policies_[node]->decide(t, x_)) continue;
        if (used == frame.measurements.size()) {
          frame.measurements.emplace_back();
        }
        transport::MeasurementMessage& m = frame.measurements[used++];
        m.node = node;
        m.step = t;
        m.values.assign(x_.begin(), x_.end());
      }
      frame.measurements.resize(used);
      policy_sends_ += used;
    }
  }

  /// collect_slot must return exactly the measurements sent for slot t, in
  /// node order, bit for bit.
  bool matches_sent(const std::vector<transport::MeasurementMessage>& got,
                    std::size_t t) const {
    std::size_t k = 0;
    for (const net::wire::SlotSummaryFrame& frame : frames_) {
      for (const transport::MeasurementMessage& sent : frame.measurements) {
        if (k >= got.size()) return false;
        const transport::MeasurementMessage& m = got[k++];
        if (m.node != sent.node || m.step != t || m.values != sent.values) {
          return false;
        }
      }
    }
    return k == got.size();
  }

  const Workload& w_;
  const trace::Trace& trace_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<net::Controller> controller_;
  std::vector<net::Socket> shards_;
  std::vector<net::wire::SlotSummaryFrame> frames_;
  std::vector<std::unique_ptr<collect::TransmitPolicy>> policies_;
  std::vector<double> x_;  ///< one node's measurement, reused
  std::uint64_t policy_sends_ = 0;
  std::unique_ptr<core::MonitoringPipeline> pipeline_;
  std::vector<Matrix> forecasts_;
};

// -- one timed window -------------------------------------------------------

/// Everything one timed window measured, plus the accounting around it.
struct Window {
  std::vector<double> slot_ms;
  std::vector<double> ref_ms;  ///< reference kernel, timed before each slot
  std::vector<bool> retrain;
  std::vector<SiteAllocs> sites;
  std::vector<Span> spans;
  std::size_t failed = 0;
  std::vector<double> rmse_sum;  ///< per horizon, summed over slots
  std::uint64_t digest = perfbench::kDigestSeed;
  std::uint64_t delivered = 0, bytes = 0, frames = 0, policy_sends = 0;
  double kmeans_iters = 0.0, fits = 0.0, wire_errors = 0.0;
  double training_s = 0.0;
  double rss_growth_mb = 0.0;
};

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Builds one system and warms it up: construction, connects and
/// handshakes, then `warmup` slots, which include the initial model fit.
std::unique_ptr<System> set_up(const Workload& w, const trace::Trace& trace,
                               std::size_t warmup, obs::TraceBuffer* events,
                               double& seconds) {
  const Clock::time_point t0 = Clock::now();
  auto system = std::make_unique<System>(w, trace, events);
  NullProbe probe;
  for (std::size_t t = 0; t < warmup; ++t) {
    if (!system->slot(t, probe, /*forecast=*/false).barrier_ok) {
      throw InvalidState("slot barrier timed out during warm-up");
    }
  }
  seconds = seconds_between(t0, Clock::now());
  return system;
}

/// The reference kernel: fixed work of the same kind as the pipeline's hot
/// loops (small heap blocks and dependent floating point), timed on the
/// benchmark thread right before every slot. Its time is the unit "ref" in
/// which slot costs are reported, which cancels most of the machine-speed
/// swings that other tenants of a shared host cause (see README.md).
double reference_kernel_ms() {
  static volatile double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  double acc = 0.0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> v(2);
    v[0] = static_cast<double>(i) * 1.0001;
    v[1] = acc * 0.5 + v[0];
    acc += v[0] * 0.25 + v[1] * 1e-9;
  }
  sink = sink + acc;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Slot costs of one window in ref units: each slot's time over the local
/// level (rolling median of +-10 slots) of the reference kernel around it.
std::vector<double> slot_cost_ref(const Window& win) {
  const std::vector<double> level = perfbench::rolling_median(win.ref_ms, 10);
  std::vector<double> cost(win.slot_ms.size());
  for (std::size_t i = 0; i < cost.size(); ++i) {
    cost[i] = win.slot_ms[i] / level[i];
  }
  return cost;
}

/// Runs `slots` timed slots from slot `first` on a warmed-up system. With
/// `score`, each slot's forecasts are also scored against the trace (every
/// pass computes the same forecasts, which the digest checks, so one pass
/// scores for all).
Window run_window(const Workload& w, const trace::Trace& trace,
                  System& system, std::size_t first, std::size_t slots,
                  bool score, bool spans, Clock::time_point epoch) {
  Window win;
  win.rmse_sum.assign(w.horizons.size(), 0.0);
  win.retrain.reserve(slots);
  const std::size_t n = trace.num_nodes();
  const std::size_t d = trace.num_resources();
  Matrix truth(n, d);

  const std::uint64_t delivered0 = system.measurements_delivered();
  const std::uint64_t bytes0 = system.uplink_bytes();
  const std::uint64_t frames0 = system.frames_received();
  const std::uint64_t sends0 = system.policy_sends();
  const double iters0 =
      system.family_total("resmon_cluster_kmeans_iterations_total");
  const double fits0 = system.family_total("resmon_forecast_fits_total");
  const double training0 = system.training_seconds();
  const double rss0 = rss_mb();

  Probe probe(spans, slots, epoch);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t t = first + s;
    win.retrain.push_back(
        system.pipeline().model(0, 0).next_observe_retrains());
    const std::uint64_t degraded_before = system.degraded_slots();
    win.ref_ms.push_back(reference_kernel_ms());
    probe.begin_slot(s);
    const SlotOutcome outcome = system.slot(t, probe, /*forecast=*/true);
    if (!outcome.barrier_ok) {
      // The root lost the lock-step; later slots cannot be collected.
      win.failed += slots - s;
      break;
    }
    probe.end_slot();
    // -- outside the slot's clock: output checks and scoring --
    bool ok = outcome.ingest_ok && system.degraded_slots() == degraded_before;
    for (std::size_t k = 0; k < w.horizons.size(); ++k) {
      const Matrix& f = system.forecasts()[k];
      for (const double v : f.data()) ok = ok && std::isfinite(v);
      win.digest = perfbench::fold_digest(win.digest, f.data());
      if (!score) continue;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < d; ++r) {
          truth(i, r) = trace.value(i, t + w.horizons[k], r);
        }
      }
      win.rmse_sum[k] += core::rmse_step(truth, f);
    }
    if (!ok) ++win.failed;
  }

  win.delivered = system.measurements_delivered() - delivered0;
  win.bytes = system.uplink_bytes() - bytes0;
  win.frames = system.frames_received() - frames0;
  win.policy_sends = system.policy_sends() - sends0;
  win.kmeans_iters =
      system.family_total("resmon_cluster_kmeans_iterations_total") - iters0;
  win.fits = system.family_total("resmon_forecast_fits_total") - fits0;
  win.wire_errors = system.family_total("resmon_net_wire_errors_total");
  win.training_s = system.training_seconds() - training0;
  win.rss_growth_mb = rss_mb() - rss0;
  win.slot_ms = probe.slot_ms();
  win.sites = probe.sites();
  win.spans = std::move(probe.spans());
  return win;
}

// -- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  return perfbench::percentile(std::move(v), 0.5);
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Per-slot self time of every span name: each span's duration minus the
/// part its children cover, summed per slot. Pipeline stage events are
/// attached as children of their slot's core.step span.
std::map<std::string, std::vector<double>> self_ms_by_name(
    const std::vector<Span>& spans, std::size_t slots) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(s.when);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<double>& per_slot = out[std::string(spans[i].name)];
    per_slot.resize(slots, 0.0);
    per_slot[spans[i].slot] +=
        static_cast<double>(perfbench::self_time(spans[i].when, children[i])) /
        1e6;
  }
  return out;
}

/// Attach the pipeline's own stage events (three per step in the timed
/// window, recorded in order) under each slot's core.step span.
bool attach_pipeline_events(std::vector<Span>& spans,
                            const obs::TraceBuffer& events,
                            std::size_t skip) {
  const std::vector<obs::TraceEvent> all = events.snapshot();
  std::size_t e = skip;
  const std::size_t count = spans.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (spans[i].name != kSiteNames[kStep]) continue;
    for (const char* stage :
         {"pipeline.collect", "pipeline.cluster", "pipeline.forecast"}) {
      if (e >= all.size() || all[e].name != stage) return false;
      const auto begin = static_cast<std::int64_t>(all[e].ts_us) * 1000;
      spans.push_back({stage, spans[i].slot, static_cast<long>(i),
                       {begin, begin + static_cast<std::int64_t>(
                                           all[e].dur_us) * 1000}});
      ++e;
    }
  }
  return e == all.size();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nodes = 0;  ///< 0 = the workload's fleet size
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw InvalidArgument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--nodes") {
      o.nodes = std::stoul(value);
    } else {
      throw InvalidArgument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw InvalidArgument("--workload is required");
  return o;
}

int run(const Options& o) {
  Workload w = make_workload(o.workload);
  if (o.nodes > 0) w.nodes = o.nodes;
  const std::size_t slots = std::max(
      w.min_slots, static_cast<std::size_t>(std::llround(
                       o.seconds * w.slots_per_second /
                       static_cast<double>(w.passes))));
  if (perfbench::highest_valid_percentile(slots) < 0.99) {
    throw InvalidArgument("p99 needs at least 1000 timed slots");
  }
  const std::size_t warmup = w.pipeline.schedule.initial_steps;
  const std::size_t hmax =
      *std::max_element(w.horizons.begin(), w.horizons.end());

  // The load generator: not the system, so not part of set-up.
  trace::SyntheticProfile profile = trace::profile_by_name(w.profile);
  profile.num_nodes = w.nodes;
  profile.num_steps = warmup + slots + hmax;
  const Clock::time_point g0 = Clock::now();
  const trace::InMemoryTrace trace = trace::generate(profile, o.seed);
  const double generate_s = seconds_between(g0, Clock::now());
  // peak_rss_mb is the system's own memory: the peak above what the process
  // holds once the trace exists.
  const double trace_rss_mb = rss_mb();

  const double node_slots = static_cast<double>(w.nodes * slots);
  std::printf("workload %s  seed %llu  N=%zu d=%zu  warm-up %zu  timed slots "
              "%zu  horizons",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), w.nodes,
              trace.num_resources(), warmup, slots);
  for (std::size_t h : w.horizons) std::printf(" %zu", h);
  std::printf("\n");

  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  if (!o.trace) {
    // Each pass builds a fresh system (timed set-up) and replays the same
    // timed window on it, so every slot runs once per pass on identical
    // state. A slot's time and the set-up time are their fastest pass:
    // contention from other tenants comes in episodes of seconds, passes
    // lie ~10 s apart, and interference only ever adds time.
    std::vector<double> setup_s;
    std::vector<Window> runs;
    for (std::size_t k = 0; k < w.passes; ++k) {
      double s = 0.0;
      std::unique_ptr<System> system = set_up(w, trace, warmup, nullptr, s);
      setup_s.push_back(s);
      runs.push_back(run_window(w, trace, *system, warmup, slots,
                                /*score=*/k == 0, false, {}));
      attempted += slots;
      failed += runs.back().failed;
      // Every pass must compute bit-identical forecasts.
      if (runs.back().digest != runs.front().digest) correct = false;
    }
    // Per slot: the fastest pass in ms, and the median pass in ref units.
    // The ratio has already cancelled the machine's speed; the median keeps
    // one pass whose reference ran unusually slow from pulling costs down.
    const Window& win = runs.front();
    std::vector<double> slot_ms = win.slot_ms;
    std::vector<std::vector<double>> pass_costs;
    for (const Window& r : runs) {
      pass_costs.push_back(slot_cost_ref(r));
      for (std::size_t i = 0; i < slot_ms.size() && i < r.slot_ms.size(); ++i) {
        slot_ms[i] = std::min(slot_ms[i], r.slot_ms[i]);
      }
    }
    std::vector<double> cost(slot_ms.size());
    for (std::size_t i = 0; i < cost.size(); ++i) {
      std::vector<double> across;
      for (const std::vector<double>& c : pass_costs) {
        if (i < c.size()) across.push_back(c[i]);
      }
      cost[i] = median(across);
    }
    double timed_s = 0.0, timed_ref = 0.0;
    std::vector<double> retrain_ms, retrain_ref;
    for (std::size_t i = 0; i < slot_ms.size(); ++i) {
      timed_s += slot_ms[i] / 1e3;
      timed_ref += cost[i];
      if (win.retrain[i]) {
        retrain_ms.push_back(slot_ms[i]);
        retrain_ref.push_back(cost[i]);
      }
    }
    std::vector<double> ref_us;
    for (const Window& r : runs) {
      for (double ms : r.ref_ms) ref_us.push_back(ms * 1e3);
    }
    const double per_slot = static_cast<double>(slots);
    metrics = {
        {"slot_ref_p50", perfbench::percentile(cost, 0.5), "ref"},
        {"slot_ref_p99", perfbench::percentile(cost, 0.99), "ref"},
        {"node_slots_per_ref", node_slots / timed_ref, "1/ref"},
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", peak_rss_mb() - trace_rss_mb, "MiB"},
        {"rmse_h1", win.rmse_sum.front() / per_slot, "utilization"},
        {"rmse_hmax", win.rmse_sum.back() / per_slot, "utilization"},
        {"traffic_fraction", static_cast<double>(win.delivered) / node_slots,
         "sends/node-slot"},
        {"uplink_bytes_per_node_slot",
         static_cast<double>(win.bytes) / node_slots, "B"},
    };
    std::vector<Metric> table = metrics;
    table.push_back({"slot_ms_p50", median(slot_ms), "ms"});
    table.push_back(
        {"slot_ms_p99", perfbench::percentile(slot_ms, 0.99), "ms"});
    table.push_back({"node_slots_per_s", node_slots / timed_s, "1/s"});
    table.push_back({"ref_us_p50", median(ref_us), "us"});
    table.push_back({"trace_rss_mb", trace_rss_mb, "MiB"});
    table.push_back({"failed_slot_fraction",
                     static_cast<double>(failed) /
                         static_cast<double>(attempted),
                     "1"});
    if (retrain_ms.size() >= kMinRetrainSlots) {
      table.push_back({"retrain_slot_ms_p50", median(retrain_ms), "ms"});
      table.push_back({"retrain_slot_ref_p50", median(retrain_ref), "ref"});
    }
    print_table("end-to-end (" + std::to_string(slots) + " timed slots x " +
                    std::to_string(w.passes) + " passes, " +
                    std::to_string(retrain_ms.size()) + " retrain slots)",
                table);
    std::printf("set-up per pass (s):");
    for (double s : setup_s) std::printf(" %.4f", s);
    std::printf("\nforecast_digest %016llx\n",
                static_cast<unsigned long long>(win.digest));
  } else {
    // Untraced window first (the reference for the tracing overhead and the
    // source of the exact allocation counts), then a traced window on a
    // fresh set-up. Both must produce the same forecasts.
    double s = 0.0;
    Window plain;
    {
      std::unique_ptr<System> system = set_up(w, trace, warmup, nullptr, s);
      plain = run_window(w, trace, *system, warmup, slots, false, false, {});
    }
    const Clock::time_point epoch = Clock::now();
    obs::TraceBuffer events(3 * (warmup + slots) + 64);
    std::unique_ptr<System> system = set_up(w, trace, warmup, &events, s);
    const std::size_t warmup_events = events.recorded();
    Window traced =
        run_window(w, trace, *system, warmup, slots, false, true, epoch);
    attempted = 2 * slots;
    failed = plain.failed + traced.failed;
    if (plain.digest != traced.digest) correct = false;
    if (events.dropped() != 0) correct = false;
    if (!attach_pipeline_events(traced.spans, events, warmup_events)) {
      correct = false;
    }
    std::map<std::string, std::vector<double>> self =
        self_ms_by_name(traced.spans, slots);
    auto p50 = [&](const std::string& name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    auto allocs_per_slot = [&](std::initializer_list<Site> sites) {
      std::uint64_t total = 0;
      for (const auto& slot : plain.sites) {
        for (Site site : sites) total += slot[site];
      }
      return static_cast<double>(total) / static_cast<double>(slots);
    };
    // Retrain medians need kMinRetrainSlots samples; below that they read 0,
    // like every layer that is not on the workload's slot path.
    std::vector<double> observe_ms, retrain_forecast_ms, retrain_slot_ms;
    std::vector<double> forecast_self = self["pipeline.forecast"];
    forecast_self.resize(slots, 0.0);
    for (std::size_t k = 0; k < slots; ++k) {
      (traced.retrain[k] ? retrain_forecast_ms : observe_ms)
          .push_back(forecast_self[k]);
      if (plain.retrain[k]) retrain_slot_ms.push_back(plain.slot_ms[k]);
    }
    auto retrain_p50 = [](const std::vector<double>& ms) {
      return ms.size() >= kMinRetrainSlots ? median(ms) : 0.0;
    };
    const double per_slot = static_cast<double>(slots);
    metrics = {
        {"slot.ms_p50", median(plain.slot_ms), "ms"},
        {"slot.ms_p99", perfbench::percentile(plain.slot_ms, 0.99), "ms"},
        {"slot.ref_us_p50", median(plain.ref_ms) * 1e3, "us"},
        {"collect.ms_p50",
         w.tcp ? p50(kSiteNames[kPolicy]) : p50("pipeline.collect"), "ms"},
        {"collect.sends_per_slot",
         static_cast<double>(w.tcp ? traced.policy_sends : traced.delivered) /
             per_slot,
         "count"},
        {"collect.allocs_per_slot", w.tcp ? allocs_per_slot({kPolicy}) : 0.0,
         "count"},
        {"net.encode_ms_p50", p50(kSiteNames[kEncode]), "ms"},
        {"net.send_ms_p50", p50(kSiteNames[kSend]), "ms"},
        {"net.collect_slot_ms_p50", p50(kSiteNames[kCollectSlot]), "ms"},
        {"net.frames_per_slot", static_cast<double>(traced.frames) / per_slot,
         "count"},
        {"net.bytes_per_slot",
         w.tcp ? static_cast<double>(traced.bytes) / per_slot : 0.0, "B"},
        {"net.allocs_per_slot",
         w.tcp ? allocs_per_slot({kEncode, kSend, kCollectSlot}) : 0.0,
         "count"},
        {"net.wire_errors", traced.wire_errors, "count"},
        {"core.ingest_ms_p50", w.tcp ? p50("pipeline.collect") : 0.0, "ms"},
        {"core.step_self_ms_p50", p50(kSiteNames[kStep]), "ms"},
        {"core.step_allocs_per_slot", allocs_per_slot({kStep}), "count"},
        {"core.forecast_all_ms_p50", p50(kSiteNames[kForecastAll]), "ms"},
        {"core.forecast_all_allocs_per_slot", allocs_per_slot({kForecastAll}),
         "count"},
        {"core.rss_growth_mb", plain.rss_growth_mb, "MiB"},
        {"cluster.ms_p50", p50("pipeline.cluster"), "ms"},
        {"cluster.kmeans_iters_per_slot", traced.kmeans_iters / per_slot,
         "count"},
        {"forecast.observe_ms_p50", median(observe_ms), "ms"},
        {"forecast.retrain_ms_p50", retrain_p50(retrain_forecast_ms), "ms"},
        {"forecast.retrain_slot_ms_p50", retrain_p50(retrain_slot_ms), "ms"},
        {"forecast.fits_total", traced.fits, "count"},
        {"forecast.training_s", traced.training_s, "s"},
        {"trace.generate_s", generate_s, "s"},
        {"obs.trace_overhead_pct",
         (median(slot_cost_ref(traced)) / median(slot_cost_ref(plain)) - 1.0) *
             100.0,
         "%"},
    };
    print_table("per-layer self times and counts (" + std::to_string(slots) +
                    " timed slots, " + std::to_string(retrain_slot_ms.size()) +
                    " retrain slots; trace events " +
                    std::to_string(events.recorded()) + ", dropped " +
                    std::to_string(events.dropped()) + ")",
                metrics);
    std::printf("forecast_digest %016llx\n",
                static_cast<unsigned long long>(traced.digest));
  }
  if (failed > 0) correct = false;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_slot: %s\n", e.what());
    return 2;
  }
}
