// The discrete-event workload, sim_storm.
//
// The scenario is assembled here from the library's public parts — event
// queue, packet pool, MdpDataPlane, TrafficGen, InterferenceModel and the
// ctrl Controller — in the same order and with the same seeds as
// harness::run_scenario, so that set-up can be timed apart from the run and
// each layer call can be wrapped in a span. A differential check at a short
// length proves the assembly is the program the figures measure.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/dataplane.hpp"
#include "core/scheduler.hpp"
#include "ctrl/actuator.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/slo_monitor.hpp"
#include "harness/experiment.hpp"
#include "net/packet_pool.hpp"
#include "nf/chain.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"
#include "workload/arrival.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {
namespace {

using namespace mdp;

constexpr std::uint64_t kStormPackets = 500'000;
/// Sub-scenarios per seed whose pooled latency histogram gives the
/// virtual-clock metrics. A storm scenario of 500k packets covers only
/// ~0.2 s of virtual time, whose tail swings by tens of percent from seed
/// to seed; eight of them pooled keep the spread inside the bounds.
constexpr std::size_t kStormScenarios = 8;
/// Length of the differential check against harness::run_scenario.
constexpr std::uint64_t kDiffPackets = 30'000;
/// Packets replayed through a standalone chain replica (traced run).
constexpr std::uint64_t kChainReplayPackets = 200'000;

harness::ScenarioConfig scenario(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.policy = "adaptive";
  cfg.num_paths = 4;
  cfg.chain = "fw-nat-lb";
  cfg.seed = seed;
  // Bursty arrivals, a noisy neighbour on paths 0-1 and the online
  // controller: dedup, reorder timers, hedges and ctrl carry the load.
  cfg.load = 0.5;
  cfg.packets = kStormPackets;
  cfg.bursty_arrivals = true;
  // Bursts of 10 us every 100 us (the default is 50 us every 500 us):
  // at 10x the base rate a burst overloads the paths, and hedges fired
  // into that overload feed back, so the default's few hundred long
  // bursts per scenario moved p50 by 3x from seed to seed.
  cfg.mmpp.mean_hi_dwell_ns = 10'000;
  cfg.mmpp.mean_lo_dwell_ns = 90'000;
  cfg.interference = true;
  cfg.interference_cfg.duty_cycle = 0.15;
  cfg.interference_cfg.mean_burst_ns = 120'000;
  cfg.interference_paths = {0, 1};
  cfg.ctrl_enabled = true;
  // With the default floor of one serving path, ctrl can quarantine
  // three of four paths and overload the last one; one such episode
  // multiplies a scenario's p99 by four. Three serving paths keep the
  // queues stable.
  cfg.ctrl.min_serving_paths = 3;
  return cfg;
}

workload::TrafficGenConfig traffic_config(const harness::ScenarioConfig& cfg) {
  workload::TrafficGenConfig tg;
  tg.seed = cfg.seed;
  tg.num_flows = cfg.num_flows;
  tg.latency_critical_fraction = cfg.lc_fraction;
  tg.mean_payload = cfg.mean_payload;
  return tg;
}

/// Wall-clock spans of one traced run, accumulated from the benchmark's
/// own calls into each layer.
struct SimSpans {
  std::uint64_t ingress_ns = 0;
  std::uint64_t sched_ns = 0, sched_calls = 0;
  std::uint64_t observe_ns = 0;
  std::uint64_t tick_ns = 0, ticks = 0;
  std::uint64_t gen_step_ns = 0, egress_step_ns = 0, other_step_ns = 0;
  std::uint64_t sentinels = 0;
  std::uint64_t loop_ns = 0;
};

/// Forwarding policy decorator: times every select() of the wrapped
/// scheduler and forwards everything else unchanged.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::SchedulerPtr inner, SimSpans& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  void select(const net::Packet& pkt, const core::PathContext& ctx,
              sim::Rng& rng, core::PathVec& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->select(pkt, ctx, rng, out);
    spans_.sched_ns += now_ns() - t0;
    ++spans_.sched_calls;
  }
  void select_batch(std::span<const net::Packet* const> pkts,
                    const core::PathContext& ctx, sim::Rng& rng,
                    std::vector<core::PathVec>& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->select_batch(pkts, ctx, rng, out);
    spans_.sched_ns += now_ns() - t0;
    spans_.sched_calls += pkts.size();
  }
  sim::TimeNs hedge_timeout_ns(const net::Packet& pkt,
                               const core::PathContext& ctx) const override {
    return inner_->hedge_timeout_ns(pkt, ctx);
  }
  void on_complete(std::uint16_t path, sim::TimeNs latency_ns) override {
    inner_->on_complete(path, latency_ns);
  }
  bool set_replication(std::size_t replicas) override {
    return inner_->set_replication(replicas);
  }
  bool set_hedge_timeout_ns(sim::TimeNs timeout_ns) override {
    return inner_->set_hedge_timeout_ns(timeout_ns);
  }

 private:
  core::SchedulerPtr inner_;
  SimSpans& spans_;
};

/// What one scenario run produced; the `virt` fields are exact for a seed.
struct SimOutcome {
  std::uint64_t setup_ns = 0, run_ns = 0;
  std::uint64_t emitted = 0, egressed = 0;
  std::uint64_t dispatched = 0, replicas = 0, hedges = 0, dup_dropped = 0;
  std::uint64_t chain_filtered = 0, queue_drops = 0;
  std::uint64_t reorder_accepted = 0, reorder_timeouts = 0;
  std::uint64_t dwell_p99 = 0;
  double reorder_ooo = 0;
  std::uint64_t egress_ooo = 0;
  double path_util_max = 0;
  std::uint64_t events = 0, decisions = 0;
  stats::LatencyHistogram latency;  ///< measured-phase egress latency

  bool same_virt(const SimOutcome& o) const {
    return latency.p50() == o.latency.p50() &&
           latency.p99() == o.latency.p99() &&
           latency.p999() == o.latency.p999() &&
           latency.count() == o.latency.count() && egressed == o.egressed &&
           hedges == o.hedges && replicas == o.replicas &&
           emitted == o.emitted;
  }
};

/// One sim scenario, assembled from public parts. Construction is the
/// set-up phase; run() is the measured phase. With `spans` set, every
/// layer call is timed and the event loop is stepped one event at a time.
class SimScenario {
 public:
  SimScenario(const harness::ScenarioConfig& cfg, SimSpans* spans)
      : cfg_(cfg), spans_(spans) {
    core::SchedulerPtr policy = core::make_scheduler(cfg.policy);
    if (spans_)
      policy = std::make_unique<TimedScheduler>(std::move(policy), *spans_);
    core::DataPlaneConfig dpc = cfg.dp;
    dpc.num_paths = cfg.num_paths;
    dpc.chain = cfg.chain;
    dpc.seed = cfg.seed * 7919 + 13;
    dp_ = std::make_unique<core::MdpDataPlane>(eq_, pool_, dpc,
                                               std::move(policy));
    if (cfg.interference) {
      for (std::size_t p : cfg.interference_paths) {
        noise_.push_back(std::make_unique<sim::InterferenceModel>(
            eq_, dp_->core(p), cfg.interference_cfg,
            cfg.seed * 104729 + p * 31 + 1));
        noise_.back()->start();
      }
    }
    if (cfg.ctrl_enabled) {
      slo_ = std::make_unique<ctrl::SloMonitor>(cfg.num_paths,
                                                cfg.ctrl.slo_target_ns);
      actuator_ = std::make_unique<ctrl::SimPlaneActuator>(eq_, *dp_, *slo_);
      ctrl_ = std::make_unique<ctrl::Controller>(cfg.ctrl, *actuator_, *slo_);
      arm_ticker();
    }
    seen_.resize(cfg.num_flows);
    next_seq_.assign(cfg.num_flows, 0);
    dp_->set_egress([this](net::PacketPtr pkt) { on_egress(*pkt); });

    const double svc = harness::mean_service_ns(cfg);
    const double mean_gap =
        svc / (static_cast<double>(cfg.num_paths) * cfg.load);
    workload::ArrivalPtr arrivals;
    if (cfg.bursty_arrivals) {
      workload::MmppConfig m = cfg.mmpp;
      const double p_hi =
          m.mean_hi_dwell_ns / (m.mean_hi_dwell_ns + m.mean_lo_dwell_ns);
      m.base_gap_ns = mean_gap * ((1 - p_hi) + p_hi * m.burst_factor);
      arrivals = std::make_unique<workload::MmppArrivals>(m);
    } else {
      arrivals = std::make_unique<workload::PoissonArrivals>(mean_gap);
    }
    gen_ = std::make_unique<workload::TrafficGen>(
        eq_, pool_, traffic_config(cfg), std::move(arrivals),
        [this](net::PacketPtr pkt) { ingress(std::move(pkt)); });
  }

  ~SimScenario() {
    // Pending events own packets and reference the plane: drop them first.
    eq_.clear();
  }

  SimScenario(const SimScenario&) = delete;
  SimScenario& operator=(const SimScenario&) = delete;

  void run() {
    gen_->start(cfg_.packets);
    if (spans_)
      drive_stepped();
    else
      drive();
  }

  /// Results and output checks; call after run().
  SimOutcome outcome(Result& res) const {
    SimOutcome o;
    o.emitted = gen_->emitted();
    o.egressed = dp_->egress_count();
    o.latency = latency_;
    const auto& fc = dp_->fast_counters();
    o.dispatched = fc.get(core::DpCounter::kDispatched);
    o.replicas = fc.get(core::DpCounter::kReplicas);
    o.hedges = fc.get(core::DpCounter::kHedges);
    o.dup_dropped = fc.get(core::DpCounter::kDupDropped);
    o.chain_filtered = fc.get(core::DpCounter::kChainFiltered);
    o.queue_drops = fc.get(core::DpCounter::kQueueDrops);
    const auto& rb = dp_->reorder();
    o.reorder_accepted = rb.in_order() + rb.out_of_order();
    o.reorder_timeouts = rb.timeout_releases();
    o.reorder_ooo = rb.ooo_fraction();
    o.dwell_p99 = rb.dwell().p99();
    o.egress_ooo = egress_ooo_;
    const sim::TimeNs active = last_egress_ns_ ? last_egress_ns_ : eq_.now();
    for (std::size_t p = 0; p < cfg_.num_paths; ++p)
      o.path_util_max = std::max(
          o.path_util_max, static_cast<double>(dp_->core(p).busy_ns()) /
                               static_cast<double>(active));
    o.events = eq_.events_processed() - (spans_ ? spans_->sentinels : 0);
    o.decisions = ctrl_ ? ctrl_->decisions().size() : 0;

    // Output checks.
    if (dup_egress_)
      res.violate(std::to_string(dup_egress_) +
                  " (flow, seq) pairs egressed more than once");
    if (o.emitted != cfg_.packets)
      res.violate("generator emitted " + std::to_string(o.emitted) + " of " +
                  std::to_string(cfg_.packets));
    if (o.emitted != o.egressed + o.chain_filtered + o.queue_drops)
      res.violate("emitted " + std::to_string(o.emitted) + " != egressed " +
                  std::to_string(o.egressed) + " + chain_filtered " +
                  std::to_string(o.chain_filtered) + " + queue_drops " +
                  std::to_string(o.queue_drops));
    if (pool_.in_use())
      res.violate(std::to_string(pool_.in_use()) +
                  " pool packets still in use after drain");
    return o;
  }

 private:
  void ingress(net::PacketPtr pkt) {
    if (!spans_) {
      dp_->ingress(std::move(pkt));
      return;
    }
    const std::uint64_t t0 = now_ns();
    dp_->ingress(std::move(pkt));
    spans_->ingress_ns += now_ns() - t0;
  }

  void on_egress(const net::Packet& pkt) {
    const auto& an = pkt.anno();
    if (slo_) {
      if (spans_) {
        const std::uint64_t t0 = now_ns();
        slo_->observe(an.path_id, an.egress_ns - an.ingress_ns);
        spans_->observe_ns += now_ns() - t0;
      } else {
        slo_->observe(an.path_id, an.egress_ns - an.ingress_ns);
      }
    }
    // Exactly-once: per-flow sequence bitmap.
    std::vector<bool>& seen = seen_[an.flow_id];
    if (an.seq >= seen.size()) seen.resize(an.seq + 1 + seen.size() / 2);
    if (seen[an.seq]) ++dup_egress_;
    seen[an.seq] = true;
    if (an.seq < next_seq_[an.flow_id])
      ++egress_ooo_;
    else
      next_seq_[an.flow_id] = an.seq + 1;

    if (dp_->egress_count() <= cfg_.warmup_packets) return;
    latency_.record(an.egress_ns - an.ingress_ns);
    last_egress_ns_ = an.egress_ns;
  }

  void arm_ticker() {
    const sim::TimeNs period = cfg_.ctrl_tick_interval_ns > 0
                                   ? cfg_.ctrl_tick_interval_ns
                                   : sim::kMillisecond;
    eq_.schedule_in(period, [this] {
      if (spans_) {
        const std::uint64_t t0 = now_ns();
        ctrl_->tick(static_cast<std::uint64_t>(eq_.now()));
        spans_->tick_ns += now_ns() - t0;
        ++spans_->ticks;
      } else {
        ctrl_->tick(static_cast<std::uint64_t>(eq_.now()));
      }
      arm_ticker();
    });
  }

  // The harness drive loop: 20 ms slices until the generator finished and
  // one slice passed with no egress.
  static constexpr sim::TimeNs kSlice = 20 * sim::kMillisecond;
  static constexpr sim::TimeNs kHorizon = 600 * sim::kSecond;

  bool done() {
    if (gen_->emitted() < cfg_.packets) return false;
    const bool quiet = dp_->egress_count() == last_egress_count_;
    last_egress_count_ = dp_->egress_count();
    return quiet;
  }

  void drive() {
    while (eq_.now() < kHorizon) {
      eq_.run_until(eq_.now() + kSlice);
      if (done()) break;
    }
  }

  /// The same slices, stepped one event at a time so each step can be
  /// timed and attributed. A sentinel event 1 ns past each slice end marks
  /// the boundary (EventQueue exposes no peek); ties never reorder the real
  /// events, and the traced run checks its virtual results against the
  /// untraced ones.
  void drive_stepped() {
    SimSpans& s = *spans_;
    const std::uint64_t loop0 = now_ns();
    for (sim::TimeNs until = kSlice; eq_.now() < kHorizon; until += kSlice) {
      bool boundary = false;
      eq_.schedule_at(until + 1, [&boundary] { boundary = true; });
      ++s.sentinels;
      while (!boundary) {
        const std::uint64_t emitted = gen_->emitted();
        const std::uint64_t completed = path_completions();
        const std::uint64_t t0 = now_ns();
        eq_.step();
        const std::uint64_t dt = now_ns() - t0;
        if (gen_->emitted() != emitted)
          s.gen_step_ns += dt;
        else if (path_completions() != completed)
          s.egress_step_ns += dt;
        else
          s.other_step_ns += dt;
      }
      if (done()) break;
    }
    s.loop_ns += now_ns() - loop0;
  }

  std::uint64_t path_completions() const {
    std::uint64_t n = 0;
    for (std::size_t p = 0; p < cfg_.num_paths; ++p)
      n += dp_->monitor().completed(p) + dp_->monitor().filtered(p);
    return n;
  }

  const harness::ScenarioConfig& cfg_;
  SimSpans* spans_;
  sim::EventQueue eq_;
  net::PacketPool pool_{4096, 2048, /*allow_growth=*/true};
  std::unique_ptr<core::MdpDataPlane> dp_;
  std::vector<std::unique_ptr<sim::InterferenceModel>> noise_;
  std::unique_ptr<ctrl::SloMonitor> slo_;
  std::unique_ptr<ctrl::SimPlaneActuator> actuator_;
  std::unique_ptr<ctrl::Controller> ctrl_;
  std::unique_ptr<workload::TrafficGen> gen_;
  stats::LatencyHistogram latency_;
  std::vector<std::vector<bool>> seen_;
  std::vector<std::uint64_t> next_seq_;
  std::uint64_t dup_egress_ = 0, egress_ooo_ = 0;
  std::uint64_t last_egress_count_ = 0;
  sim::TimeNs last_egress_ns_ = 0;
};

SimOutcome run_once(const harness::ScenarioConfig& cfg, SimSpans* spans,
                    Result& res) {
  const std::uint64_t t0 = now_ns();
  SimScenario sc(cfg, spans);
  const std::uint64_t t1 = now_ns();
  sc.run();
  const std::uint64_t t2 = now_ns();
  SimOutcome o = sc.outcome(res);
  o.setup_ns = t1 - t0;
  o.run_ns = t2 - t1;
  return o;
}

double kpps(const SimOutcome& o) {
  return static_cast<double>(o.emitted) * 1e6 / static_cast<double>(o.run_ns);
}

/// The benchmark's assembly must reproduce harness::run_scenario exactly.
void differential_check(harness::ScenarioConfig cfg, Result& res) {
  cfg.packets = kDiffPackets;
  cfg.warmup_packets = kDiffPackets / 10;
  const harness::ScenarioResult ref = harness::run_scenario(cfg);
  Result scratch;
  const SimOutcome o = run_once(cfg, nullptr, scratch);
  for (const std::string& v : scratch.violations) res.violate(v);
  res.attempted += o.emitted;
  const stats::LatencyHistogram& l = o.latency;
  const bool same = l.p50() == ref.latency.p50() &&
                    l.p99() == ref.latency.p99() &&
                    l.p999() == ref.latency.p999() &&
                    l.count() == ref.measured && o.egressed == ref.egressed &&
                    o.hedges == ref.hedges;
  if (!same)
    res.violate("differential check: assembly p50/p99/p99.9/egress/hedges " +
                std::to_string(l.p50()) + "/" + std::to_string(l.p99()) + "/" +
                std::to_string(l.p999()) + "/" + std::to_string(o.egressed) +
                "/" + std::to_string(o.hedges) + " vs run_scenario " +
                std::to_string(ref.latency.p50()) + "/" +
                std::to_string(ref.latency.p99()) + "/" +
                std::to_string(ref.latency.p999()) + "/" +
                std::to_string(ref.egressed) + "/" +
                std::to_string(ref.hedges));
}

/// nf.chain_ns_per_pkt: the workload's own packets (same generator, same
/// seed) pushed through a standalone replica of the chain, one push per
/// packet as a path does. Generation is outside the timed span.
double chain_ns_per_pkt(const harness::ScenarioConfig& cfg) {
  sim::EventQueue eq;
  net::PacketPool pool(4096, 2048, /*allow_growth=*/true);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  auto built = nf::build_chain(router, "replay",
                               nf::ChainSpec::preset(cfg.chain), &err);
  auto* sink = router.add_element("replay_sink", "Discard", {}, &err);
  if (!built || !sink || !router.connect(built->tail, 0, sink, 0, &err) ||
      !router.initialize(&err)) {
    std::fprintf(stderr, "chain replay set-up failed: %s\n", err.c_str());
    return 0;
  }
  std::vector<net::PacketPtr> batch;
  batch.reserve(2048);
  std::uint64_t timed_ns = 0, pushed = 0;
  auto flush = [&] {
    const std::uint64_t t0 = now_ns();
    for (auto& pkt : batch) built->head->push(0, std::move(pkt));
    timed_ns += now_ns() - t0;
    pushed += batch.size();
    batch.clear();
  };
  workload::TrafficGen gen(
      eq, pool, traffic_config(cfg),
      std::make_unique<workload::PoissonArrivals>(1000.0),
      [&](net::PacketPtr pkt) { batch.push_back(std::move(pkt)); });
  gen.start(kChainReplayPackets);
  while (eq.step())
    if (batch.size() == 2048) flush();
  flush();
  return pushed ? static_cast<double>(timed_ns) / static_cast<double>(pushed)
                : 0;
}

void add_end_to_end(Result& res, const std::vector<SimOutcome>& runs,
                    const stats::LatencyHistogram& pooled) {
  // Throughput over the whole measured time (every repeat, set-up
  // excluded). On a shared host the speed of a memory-heavy run swings
  // between two levels for tens of seconds at a time; the pooled rate
  // moves less between runs than a median that flips between the levels.
  std::uint64_t packets = 0, run_ns = 0;
  for (const SimOutcome& o : runs) {
    packets += o.emitted;
    run_ns += o.run_ns;
  }
  res.add("kpps", static_cast<double>(packets) * 1e6 /
                      static_cast<double>(run_ns),
          "kpps");
  res.add("p50_us", static_cast<double>(pooled.p50()) / 1e3, "us");
  res.add("setup_s", median_of(runs, [](const SimOutcome& o) {
            return static_cast<double>(o.setup_ns) * 1e-9;
          }),
          "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_per_layer(Result& res, const std::vector<SimOutcome>& traced,
                   const std::vector<SimSpans>& spans,
                   const std::vector<SimOutcome>& untraced,
                   const stats::LatencyHistogram& pooled,
                   const harness::ScenarioConfig& cfg) {
  // Span totals per ingress packet, median over the traced repeats.
  std::vector<std::pair<const SimSpans*, double>> sp;
  for (std::size_t i = 0; i < spans.size(); ++i)
    sp.emplace_back(&spans[i], static_cast<double>(traced[i].emitted));
  auto per_pkt = [&](auto field) {
    return median_of(sp, [&](const auto& e) {
      return static_cast<double>(e.first->*field) / e.second;
    });
  };
  auto count = [&](auto fn) { return median_of(traced, fn); };

  res.add("core.ingress_ns_per_pkt", per_pkt(&SimSpans::ingress_ns), "ns");
  res.add("core.sched_ns_per_call", median_of(spans, [](const SimSpans& s) {
            return ratio(s.sched_ns, s.sched_calls);
          }),
          "ns");
  res.add("nf.chain_ns_per_pkt", chain_ns_per_pkt(cfg), "ns");
  res.add("sim.events_per_pkt", count([](const SimOutcome& o) {
            return ratio(o.events, o.emitted);
          }),
          "count");
  // Step self times: each step group minus the layer spans nested in it.
  res.add("workload.gen_ns_per_pkt", per_pkt(&SimSpans::gen_step_ns) -
                                         per_pkt(&SimSpans::ingress_ns),
          "ns");
  res.add("core.egress_step_ns_per_pkt",
          per_pkt(&SimSpans::egress_step_ns) - per_pkt(&SimSpans::observe_ns),
          "ns");
  res.add("sim.other_step_ns_per_pkt",
          per_pkt(&SimSpans::other_step_ns) - per_pkt(&SimSpans::tick_ns),
          "ns");
  res.add("ctrl.observe_ns_per_pkt", per_pkt(&SimSpans::observe_ns), "ns");
  res.add("ctrl.tick_us", median_of(spans, [](const SimSpans& s) {
            return ratio(s.tick_ns, s.ticks) / 1e3;
          }),
          "us");
  res.add("ctrl.decisions", count([](const SimOutcome& o) {
            return static_cast<double>(o.decisions);
          }),
          "count");
  res.add("dup_copy_frac", count([](const SimOutcome& o) {
            return ratio(o.replicas + o.hedges, o.emitted);
          }),
          "ratio");
  res.add("core.copies_per_pkt", count([](const SimOutcome& o) {
            return ratio(o.dispatched, o.emitted);
          }),
          "count");
  res.add("core.hedges_per_pkt", count([](const SimOutcome& o) {
            return ratio(o.hedges, o.emitted);
          }),
          "count");
  res.add("core.dedup_useful_ratio", count([](const SimOutcome& o) {
            return ratio(o.reorder_accepted,
                         o.reorder_accepted + o.dup_dropped);
          }),
          "ratio");
  res.add("core.reorder_ooo_frac", count([](const SimOutcome& o) {
            return o.reorder_ooo;
          }),
          "ratio");
  res.add("core.reorder_timeouts", count([](const SimOutcome& o) {
            return static_cast<double>(o.reorder_timeouts);
          }),
          "count");
  res.add("core.reorder_dwell_p99_us", count([](const SimOutcome& o) {
            return static_cast<double>(o.dwell_p99) / 1e3;
          }),
          "us");
  res.add("core.egress_ooo_frac", count([](const SimOutcome& o) {
            return ratio(o.egress_ooo, o.egressed);
          }),
          "ratio");
  res.add("sim.path_util_max", count([](const SimOutcome& o) {
            return o.path_util_max;
          }),
          "ratio");
  res.add("sim.virt_p99_us", static_cast<double>(pooled.p99()) / 1e3, "us");
  res.add("sim.virt_p999_us", static_cast<double>(pooled.p999()) / 1e3, "us");

  const double resid = median_of(spans, [](const SimSpans& s) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return residual_frac(
        d(s.loop_ns),
        {d(s.gen_step_ns) - d(s.ingress_ns), d(s.ingress_ns) - d(s.sched_ns),
         d(s.sched_ns), d(s.egress_step_ns) - d(s.observe_ns), d(s.observe_ns),
         d(s.other_step_ns) - d(s.tick_ns), d(s.tick_ns)});
  });
  res.add("ledger.residual_frac", resid, "ratio");
  res.add("trace.overhead_frac",
          1.0 - median_of(traced, kpps) / median_of(untraced, kpps), "ratio");
  check_residual(res, resid);
}

}  // namespace

Result run_sim(const Options& opt) {
  Result res;
  auto config = [&](std::size_t k) { return scenario(opt.seed * 1000 + k); };
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);

  differential_check(config(0), res);

  // The first pass over the seed's sub-scenarios defines the virtual-clock
  // metrics (one pooled histogram). Further repeats cycle through them
  // until the time is used: each must reproduce its sub-scenario's virtual
  // results exactly, and adds a set-up and a throughput sample. A traced
  // run pairs every untraced repeat with a traced one of the same
  // sub-scenario, so trace.overhead_frac compares like with like.
  std::vector<SimOutcome> first, untraced, traced;
  std::vector<SimSpans> spans;
  for (std::size_t i = 0;; ++i) {
    const bool traced_turn = opt.trace && i % 2 == 1;
    const std::size_t k = (opt.trace ? i / 2 : i) % kStormScenarios;
    const bool pass_done = first.size() == kStormScenarios;
    if (!traced_turn && (opt.trace ? i >= 2 : pass_done) &&
        now_ns() >= deadline)
      break;
    const harness::ScenarioConfig cfg = config(k);
    SimSpans s;
    SimOutcome o = run_once(cfg, traced_turn ? &s : nullptr, res);
    res.attempted += o.emitted;
    res.failed += o.queue_drops;
    std::printf(
        "{\"repeat\": %zu, \"scenario\": %zu, \"traced\": %d, "
        "\"setup_s\": %.6f, \"run_s\": %.6f, \"kpps\": %.3f}\n",
        i, k, traced_turn ? 1 : 0, static_cast<double>(o.setup_ns) * 1e-9,
        static_cast<double>(o.run_ns) * 1e-9, kpps(o));
    if (k == first.size()) {
      first.push_back(o);
    } else if (!o.same_virt(first[k])) {
      res.violate("repeat " + std::to_string(i) + " of sub-scenario " +
                  std::to_string(k) + " changed its virtual-clock results");
    }
    if (traced_turn) {
      traced.push_back(std::move(o));
      spans.push_back(s);
    } else {
      untraced.push_back(std::move(o));
    }
  }
  stats::LatencyHistogram pooled;
  for (const SimOutcome& o : first) pooled.merge(o.latency);
  if (opt.trace)
    add_per_layer(res, traced, spans, untraced, pooled, config(0));
  else
    add_end_to_end(res, untraced, pooled);
  return res;
}

}  // namespace perfbench
