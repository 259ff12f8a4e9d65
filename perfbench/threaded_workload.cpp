// The real-thread workload, threaded_loopback.
//
// A closed loop keeps kWindow frames in flight through ThreadedDataPlane
// over a LoopbackBackend pair: the driver builds 64-byte-payload UDP frames
// across 256 seeded flows, tx_bursts them into the wire, pump() carries
// them through dispatch, the path rings, two workers and the collector and
// back out, and the driver rx_bursts, checks and replaces each one. Caller,
// two workers and the collector make four threads. A closed loop models
// window-limited flows; open-loop tails on a small shared host measure the
// host scheduler instead of the plane.
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/threaded_dataplane.hpp"
#include "io/loopback_backend.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

using namespace mdp;

constexpr std::size_t kWindow = 64;  ///< frames in flight
constexpr std::size_t kFlows = 256;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kPayloadOffset =
    net::kEthernetHeaderLen + net::kIpv4MinHeaderLen + net::kUdpHeaderLen;
constexpr std::uint64_t kWarmNs = 200'000'000;
/// Statistics are per slice; a repeat measures kSlices of them.
constexpr std::uint64_t kSliceNs = 250'000'000;
constexpr std::size_t kSlices = 4;
constexpr std::uint64_t kDrainTimeoutNs = 2'000'000'000;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Caller-thread spans of a traced repeat (measured slices only).
struct DriverSpans {
  std::uint64_t pump_ns = 0, pump_calls = 0, pump_pkts = 0;
  std::uint64_t rx_ns = 0, check_ns = 0, build_ns = 0, tx_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t turns = 0, idle_turns = 0, max_gap_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t wall_ns = 0;
};

struct Slice {
  double kpps = 0;
  double p50_ns = 0, p99_ns = 0, p999_ns = 0;
};

struct RepeatOutcome {
  std::uint64_t setup_ns = 0;
  std::vector<Slice> slices;
  DriverSpans spans;
  std::uint64_t queue_wait_p50 = 0, queue_wait_p99 = 0, service_p50 = 0;
  std::uint64_t merge_wait_p50 = 0, merge_wait_p99 = 0;
};

/// The seeded flow mix: 256 5-tuples and the generator that picks one per
/// frame.
struct FlowMix {
  explicit FlowMix(std::uint64_t seed) : rng(mix64(seed ^ 0x7468726561646564))
  {
    for (std::size_t f = 0; f < kFlows; ++f) {
      net::FlowKey k;
      k.src_ip = 0x0a010000u | static_cast<std::uint32_t>(rng.uniform_u64(1u << 16));
      k.dst_ip = 0x0a020001u;
      k.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
      k.dst_port = 4789;
      k.protocol = net::kIpProtoUdp;
      keys[f] = k;
      hashes[f] = net::hash_flow(k);
    }
  }
  net::FlowKey keys[kFlows];
  std::uint64_t hashes[kFlows];
  sim::Rng rng;
};

/// One closed-loop repeat. Construction is the set-up: frame pool,
/// loopback pair and plane, with the plane's threads started. run() warms,
/// measures kSlices slices, drains, stops and checks.
class LoopbackRun {
 public:
  LoopbackRun(std::uint64_t seed, std::uint64_t repeat, bool traced)
      : seed_(seed),
        traced_(traced),
        mix_(seed + repeat * 1'000'003),
        wire_(io::LoopbackBackend::make_pair({})),
        dp_(plane_config(traced, wire_.second.get()), nullptr) {
    dp_.start();
  }

  RepeatOutcome run(Result& res) {
    RepeatOutcome out;
    // Prime the window.
    net::PacketPtr frames[kWindow];
    std::size_t primed = 0;
    for (std::size_t w = 0; w < kWindow; ++w)
      if (net::PacketPtr f = build(w, res)) frames[primed++] = std::move(f);
    transmit(frames, primed, res);

    const std::uint64_t measure_start = now_ns() + kWarmNs;
    const std::uint64_t measure_end = measure_start + kSlices * kSliceNs;
    samples_.reserve(1 << 20);
    loop(measure_start, measure_end, out, res);
    drain(res);
    dp_.stop();

    if (dp_.completed() != dp_.submitted())
      res.violate("completed " + std::to_string(dp_.completed()) +
                  " != submitted " + std::to_string(dp_.submitted()));
    if (dp_.rejected())
      res.violate(std::to_string(dp_.rejected()) + " frames rejected by pump");
    res.attempted += next_seq_;
    if (traced_) {
      out.queue_wait_p50 = dp_.queue_wait_hist().p50();
      out.queue_wait_p99 = dp_.queue_wait_hist().p99();
      out.service_p50 = dp_.service_hist().p50();
      out.merge_wait_p50 = dp_.merge_wait_hist().p50();
      out.merge_wait_p99 = dp_.merge_wait_hist().p99();
    }
    // Every frame is back in the driver's hands and released.
    if (pool_.in_use())
      res.violate(std::to_string(pool_.in_use()) +
                  " frames still in use after stop");
    return out;
  }

 private:
  struct Outstanding {
    std::uint64_t seq = 0;
    std::uint64_t tx_ns = 0;
    bool live = false;
  };

  void fill_payload(std::byte* p, std::uint64_t seq, std::uint64_t w) const {
    std::uint64_t words[kPayload / 8];
    words[0] = seq;
    words[1] = w;
    for (std::size_t i = 2; i < kPayload / 8; ++i)
      words[i] = mix64(seed_ ^ (seq * 8 + i));
    std::memcpy(p, words, kPayload);
  }

  net::PacketPtr build(std::size_t w, Result& res) {
    const std::size_t f = mix_.rng.uniform_u64(kFlows);
    net::BuildSpec spec;
    spec.flow = mix_.keys[f];
    spec.payload_len = kPayload;
    net::PacketPtr pkt = net::build_udp(pool_, spec);
    if (!pkt) {
      res.violate("frame pool exhausted");
      return pkt;
    }
    const std::uint64_t seq = next_seq_++;
    fill_payload(pkt->data() + kPayloadOffset, seq, w);
    // The payload changed after build_udp summed it: send without a UDP
    // checksum (zero is "none" over IPv4) rather than a wrong one.
    std::memset(pkt->data() + kPayloadOffset - net::kUdpHeaderLen + 6, 0, 2);
    auto& a = pkt->anno();
    a.flow_hash = mix_.hashes[f];
    a.flow_id = static_cast<std::uint32_t>(f);
    a.seq = seq;
    win_[w].seq = seq;
    win_[w].live = true;
    ++outstanding_;
    return pkt;
  }

  void transmit(net::PacketPtr* frames, std::size_t n, Result& res) {
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t w;
      std::memcpy(&w, frames[i]->data() + kPayloadOffset + 8, 8);
      win_[w].tx_ns = t;
    }
    const std::size_t sent =
        wire_.first->tx_burst(std::span<net::PacketPtr>(frames, n));
    for (std::size_t i = sent; i < n; ++i) {
      std::uint64_t w;
      std::memcpy(&w, frames[i]->data() + kPayloadOffset + 8, 8);
      win_[w].live = false;
      --outstanding_;
      res.violate("driver tx refused a frame");
      frames[i].reset();
    }
  }

  /// Check one returned frame; returns its window slot, or kWindow if it
  /// is not a frame this loop has outstanding.
  std::size_t check(const net::Packet& pkt, Result& res) {
    if (pkt.length() != kPayloadOffset + kPayload) {
      res.violate("returned frame has length " + std::to_string(pkt.length()));
      return kWindow;
    }
    const std::byte* p = pkt.data() + kPayloadOffset;
    std::uint64_t seq, w;
    std::memcpy(&seq, p, 8);
    std::memcpy(&w, p + 8, 8);
    if (w >= kWindow || !win_[w].live || win_[w].seq != seq) {
      res.violate("frame seq " + std::to_string(seq) +
                  " returned twice or never sent");
      return kWindow;
    }
    std::byte expect[kPayload];
    fill_payload(expect, seq, w);
    if (std::memcmp(expect, p, kPayload) != 0)
      res.violate("frame seq " + std::to_string(seq) + " payload corrupted");
    win_[w].live = false;
    --outstanding_;
    return w;
  }

  void loop(std::uint64_t measure_start, std::uint64_t measure_end,
            RepeatOutcome& out, Result& res) {
    DriverSpans& s = out.spans;
    net::PacketPtr got[kWindow];
    net::PacketPtr fresh[kWindow];
    std::size_t slot_of[kWindow];
    std::uint64_t slice_end = measure_start + kSliceNs;
    std::uint64_t slice_frames = 0;
    std::uint64_t wall_start = 0, last_turn = 0, idle_spins = 0;
    while (true) {
      // Traced turns read the clock at every span boundary from the start
      // of the measured phase; untraced turns only when frames come back.
      std::uint64_t t = traced_ ? now_ns() : 0;
      const bool spans_on = traced_ && t >= measure_start;
      if (spans_on) {
        if (wall_start)
          s.max_gap_ns = std::max(s.max_gap_ns, t - last_turn);
        else
          wall_start = t;
        last_turn = t;
        ++s.turns;
      }
      const std::size_t admitted = dp_.pump();
      if (spans_on) {
        const std::uint64_t t2 = now_ns();
        s.pump_ns += t2 - t;
        ++s.pump_calls;
        s.pump_pkts += admitted;
        t = t2;
      }
      const std::size_t n =
          wire_.first->rx_burst(std::span<net::PacketPtr>(got, kWindow));
      if (spans_on) {
        const std::uint64_t t2 = now_ns();
        s.rx_ns += t2 - t;
        t = t2;
      }
      if (n == 0) {
        if (admitted == 0) {
          std::this_thread::yield();
          if (spans_on) {
            s.idle_ns += now_ns() - t;
            ++s.idle_turns;
          }
          if (++idle_spins % 4096 == 0 &&
              now_ns() > measure_end + kDrainTimeoutNs) {
            res.violate("closed loop stalled");
            return;
          }
        }
        continue;
      }
      idle_spins = 0;
      const std::uint64_t t_rx = spans_on ? t : now_ns();
      while (t_rx >= slice_end && out.slices.size() < kSlices) {
        close_slice(slice_frames, out);
        slice_frames = 0;
        slice_end += kSliceNs;
      }
      const bool measuring = t_rx >= measure_start && t_rx < measure_end;
      for (std::size_t i = 0; i < n; ++i) {
        slot_of[i] = check(*got[i], res);
        if (measuring && slot_of[i] < kWindow)
          samples_.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
              t_rx - win_[slot_of[i]].tx_ns, UINT32_MAX)));
        got[i].reset();
      }
      if (measuring) slice_frames += n;
      if (spans_on) {
        const std::uint64_t t2 = now_ns();
        s.check_ns += t2 - t;
        s.frames += n;
        t = t2;
      }
      if (t_rx >= measure_end) {
        // Measurement over: stop refilling; drain() collects the rest.
        if (spans_on) s.wall_ns = t - wall_start;
        return;
      }
      std::size_t built = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (slot_of[i] < kWindow)
          if (net::PacketPtr f = build(slot_of[i], res))
            fresh[built++] = std::move(f);
      if (spans_on) {
        const std::uint64_t t2 = now_ns();
        s.build_ns += t2 - t;
        t = t2;
      }
      transmit(fresh, built, res);
      if (spans_on) s.tx_ns += now_ns() - t;
    }
  }

  void close_slice(std::uint64_t frames, RepeatOutcome& out) {
    Slice sl;
    sl.kpps = static_cast<double>(frames) * 1e6 / static_cast<double>(kSliceNs);
    sl.p50_ns = static_cast<double>(sample_percentile(samples_, 0.50));
    sl.p99_ns = static_cast<double>(sample_percentile(samples_, 0.99));
    sl.p999_ns = static_cast<double>(sample_percentile(samples_, 0.999));
    out.slices.push_back(sl);
    samples_.clear();
  }

  void drain(Result& res) {
    net::PacketPtr got[kWindow];
    const std::uint64_t give_up = now_ns() + kDrainTimeoutNs;
    while (outstanding_ > 0 && now_ns() < give_up) {
      dp_.pump();
      const std::size_t n =
          wire_.first->rx_burst(std::span<net::PacketPtr>(got, kWindow));
      for (std::size_t i = 0; i < n; ++i) {
        check(*got[i], res);
        got[i].reset();
      }
      if (n == 0) std::this_thread::yield();
    }
    if (outstanding_ > 0)
      res.violate(std::to_string(outstanding_) + " frames never returned");
  }

  static core::ThreadedConfig plane_config(bool traced,
                                           io::PacketBackend* backend) {
    core::ThreadedConfig cfg;
    cfg.num_paths = 2;
    cfg.payload_bytes = kPayload;
    cfg.work_iterations = 1;
    cfg.policy = "jsq";
    cfg.burst_size = 32;
    cfg.record_stage_hist = traced;
    cfg.backend = backend;
    return cfg;
  }

  std::uint64_t seed_;
  bool traced_;
  FlowMix mix_;
  Outstanding win_[kWindow];
  std::uint64_t next_seq_ = 0;
  std::uint64_t outstanding_ = 0;
  std::vector<std::uint32_t> samples_;
  // Declared in dependency order: the plane goes first, then the wire,
  // then the pool every frame returns to.
  net::PacketPool pool_{1024, 2048, /*allow_growth=*/false};
  std::pair<std::unique_ptr<io::LoopbackBackend>,
            std::unique_ptr<io::LoopbackBackend>>
      wire_;  ///< first: the driver's end; second: the plane's
  core::ThreadedDataPlane dp_;
};

}  // namespace

Result run_threaded(const Options& opt) {
  Result res;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<RepeatOutcome> untraced, traced;
  const std::size_t min_repeats = 3;
  std::uint64_t repeat = 0;
  while (untraced.size() < min_repeats || now_ns() < deadline ||
         (opt.trace && traced.size() < min_repeats)) {
    const bool traced_turn = opt.trace && traced.size() < untraced.size();
    const std::uint64_t t0 = now_ns();
    LoopbackRun run(opt.seed, repeat++, traced_turn);
    const std::uint64_t setup_ns = now_ns() - t0;
    RepeatOutcome o = run.run(res);
    o.setup_ns = setup_ns;
    std::vector<double> rate, p99;
    for (const Slice& sl : o.slices) {
      rate.push_back(sl.kpps);
      p99.push_back(sl.p99_ns / 1e3);
    }
    std::printf(
        "{\"repeat\": %llu, \"traced\": %d, \"setup_s\": %.6f, "
        "\"kpps\": %.3f, \"p99_us\": %.3f}\n",
        static_cast<unsigned long long>(repeat - 1), traced_turn ? 1 : 0,
        static_cast<double>(o.setup_ns) * 1e-9, median(rate), median(p99));
    (traced_turn ? traced : untraced).push_back(std::move(o));
  }

  auto slices = [](const std::vector<RepeatOutcome>& runs,
                   double Slice::*field) {
    std::vector<double> v;
    for (const RepeatOutcome& r : runs)
      for (const Slice& sl : r.slices) v.push_back(sl.*field);
    return v;
  };
  if (!opt.trace) {
    // Frames over the whole measured time, like sim_storm: the
    // mean of equal-length slices.
    const std::vector<double> rate = slices(untraced, &Slice::kpps);
    res.add("kpps",
            std::accumulate(rate.begin(), rate.end(), 0.0) /
                static_cast<double>(rate.size()),
            "kpps");
    res.add("p50_us", median(slices(untraced, &Slice::p50_ns)) / 1e3, "us");
    res.add("setup_s", median_of(untraced, [](const RepeatOutcome& r) {
              return static_cast<double>(r.setup_ns) * 1e-9;
            }),
            "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Per-layer: span totals of each traced repeat, median over repeats.
  auto per_frame = [&](std::uint64_t DriverSpans::*field) {
    return median_of(traced, [field](const RepeatOutcome& r) {
      return ratio(r.spans.*field, r.spans.frames);
    });
  };
  auto stage = [&](std::uint64_t RepeatOutcome::*field) {
    return median_of(traced, [field](const RepeatOutcome& r) {
      return static_cast<double>(r.*field);
    });
  };
  res.add("net.build_ns_per_pkt", per_frame(&DriverSpans::build_ns), "ns");
  res.add("io.tx_ns_per_pkt", per_frame(&DriverSpans::tx_ns), "ns");
  res.add("io.rx_ns_per_pkt", per_frame(&DriverSpans::rx_ns), "ns");
  res.add("driver.check_ns_per_pkt", per_frame(&DriverSpans::check_ns), "ns");
  res.add("core.pump_ns_per_call", median_of(traced, [](const RepeatOutcome& r) {
            return ratio(r.spans.pump_ns, r.spans.pump_calls);
          }),
          "ns");
  res.add("core.pump_pkts_per_call",
          median_of(traced, [](const RepeatOutcome& r) {
            return ratio(r.spans.pump_pkts, r.spans.pump_calls);
          }),
          "count");
  res.add("driver.idle_frac", median_of(traced, [](const RepeatOutcome& r) {
            return ratio(r.spans.idle_turns, r.spans.turns);
          }),
          "ratio");
  res.add("driver.max_gap_us", median_of(traced, [](const RepeatOutcome& r) {
            return static_cast<double>(r.spans.max_gap_ns) / 1e3;
          }),
          "us");
  res.add("driver.rtt_p99_us", median(slices(traced, &Slice::p99_ns)) / 1e3,
          "us");
  res.add("driver.rtt_p999_us", median(slices(traced, &Slice::p999_ns)) / 1e3,
          "us");
  res.add("core.queue_wait_p50_ns", stage(&RepeatOutcome::queue_wait_p50),
          "ns");
  res.add("core.queue_wait_p99_ns", stage(&RepeatOutcome::queue_wait_p99),
          "ns");
  res.add("core.service_p50_ns", stage(&RepeatOutcome::service_p50), "ns");
  res.add("core.merge_wait_p50_ns", stage(&RepeatOutcome::merge_wait_p50),
          "ns");
  res.add("core.merge_wait_p99_ns", stage(&RepeatOutcome::merge_wait_p99),
          "ns");
  const double resid = median_of(traced, [](const RepeatOutcome& r) {
    const DriverSpans& s = r.spans;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return residual_frac(d(s.wall_ns),
                         {d(s.pump_ns), d(s.rx_ns), d(s.check_ns),
                          d(s.build_ns), d(s.tx_ns), d(s.idle_ns)});
  });
  res.add("ledger.residual_frac", resid, "ratio");
  res.add("trace.overhead_frac",
          1.0 - median(slices(traced, &Slice::kpps)) /
                    median(slices(untraced, &Slice::kpps)),
          "ratio");
  check_residual(res, resid);
  return res;
}

}  // namespace perfbench
