// Benchmark program for the NoC simulation path.
//
// Builds one workload's network through the library's public API
// (noc::Network, Simulator::settle/tick, Network::drain), times set-up,
// the measured window and the drain from outside the library, checks the
// simulated results, and prints one JSON object on the last line of
// stdout.  perfbench/run.py builds this program, runs it and turns that
// object into the benchmark's result line; README.md in this directory
// describes the workloads and metrics.
//
//   noc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--kernel compiled|event] [--short] [--setup-only]
//             [--trace-out PATH]
//
// Every in-process workload runs a fixed number of simulated cycles per
// repetition (warm-up, measured window, then pauseTraffic + drain), so the
// simulated results depend only on the seed.  The first sub-seed is then
// repeated a fixed number of times, scaled by --seconds, for the host
// timings; every repetition must reproduce the first one's digest.
//
// --trace 1 alternates untraced and traced repetitions.  Traced ones turn
// on module profiling, sample the network between cycles and record spans
// (workload > setup > {noc.build, sim.program_build}, warmup, measure >
// {sim.settle, sim.edge} per cycle, drain) in memory; self times come from
// the spans, and --trace-out writes them as Chrome/Perfetto JSON checked
// with telemetry::validatePerfettoJson.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "sim/compile.hpp"
#include "telemetry/trace_event.hpp"

using namespace rasoc;

namespace {

using Clock = std::chrono::steady_clock;
using Kernel = sim::Simulator::Kernel;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Pools samples into the library's own percentile rule.
noc::LatencyStats pooled(const std::vector<double>& samples) {
  noc::LatencyStats stats;
  for (double v : samples) stats.record(v);
  return stats;
}

// ---------------------------------------------------------------- spans

// In-memory span recorder.  Spans nest through open()/close(); per-cycle
// leaves are added with explicit timestamps so a cycle costs three clock
// reads.  Self time per span name (duration minus the time covered by
// child spans) is accumulated for every span; individual spans are kept
// for export only up to kMaxStored.
class SpanRecorder {
 public:
  struct Totals {
    const char* name;
    double selfS = 0.0;
  };

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  void open(const char* name) {
    stack_.push_back({name, Clock::now(), 0.0, store(name)});
  }

  void close() {
    const Clock::time_point end = Clock::now();
    Open top = stack_.back();
    stack_.pop_back();
    finish(top, end);
  }

  void leaf(const char* name, Clock::time_point start,
            Clock::time_point end) {
    Open span{name, start, 0.0, store(name)};
    finish(span, end);
  }

  Totals totalsFor(const char* name) const {
    for (const Totals& t : totals_)
      if (std::strcmp(t.name, name) == 0) return t;
    return Totals{name};
  }
  void resetTotals() { totals_.clear(); }

  std::size_t droppedSpans() const { return dropped_; }

  std::string perfettoJson() const {
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"noc_bench\"}}";
    for (std::size_t i = 0; i < stored_.size(); ++i) {
      const Stored& s = stored_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld}}",
                    s.name, s.startUs, s.durUs, i,
                    static_cast<long long>(s.parent));
      out << buf;
    }
    out << "]}";
    return out.str();
  }

 private:
  static constexpr std::size_t kMaxStored = 40000;

  struct Open {
    const char* name;
    Clock::time_point start;
    double childS;
    std::int64_t slot;  // index in stored_, or -1
  };
  struct Stored {
    const char* name;
    double startUs;
    double durUs;
    std::int64_t parent;
  };

  std::int64_t store(const char* name) {
    if (stored_.size() >= kMaxStored) {
      ++dropped_;
      return -1;
    }
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().slot;
    stored_.push_back({name, 0.0, 0.0, parent});
    return static_cast<std::int64_t>(stored_.size() - 1);
  }

  void finish(const Open& span, Clock::time_point end) {
    const double dur = secondsBetween(span.start, end);
    if (!stack_.empty()) stack_.back().childS += dur;
    Totals* t = nullptr;
    for (Totals& x : totals_)
      if (x.name == span.name) t = &x;
    if (t == nullptr) {
      totals_.push_back(Totals{span.name});
      t = &totals_.back();
    }
    t->selfS += dur - span.childS;
    if (span.slot >= 0) {
      Stored& s = stored_[static_cast<std::size_t>(span.slot)];
      s.startUs = 1e6 * secondsBetween(origin_, span.start);
      s.durUs = 1e6 * dur;
    }
  }

  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::vector<Totals> totals_;
  std::size_t dropped_ = 0;
};

// Opens a span on construction and closes it on destruction; a null
// recorder (untraced repetition) makes both no-ops.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_) rec_->open(name);
  }
  ~ScopedSpan() {
    if (rec_) rec_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

// ------------------------------------------------------------- workloads

struct Spec {
  Kernel kernel = Kernel::Compiled;
  std::uint64_t warmup = 0;
  std::uint64_t measure = 0;
  bool drain = true;
  std::uint64_t drainCap = 0;
  // Traffic/fault seeds pooled per run for the simulated metrics.
  std::uint64_t subSeeds = 6;
  // Timing repetitions per second of --seconds.  The count is fixed, not
  // time-bounded, so a faster simulator does not take its floors over more
  // repetitions; the rates make a run last about --seconds on a quiet
  // 4-core Xeon VM.
  double timingRepsPerSecond = 1.0;
  std::function<std::unique_ptr<noc::Network>(Kernel)> build;
};

noc::NetworkConfig baseConfig(Kernel kernel) {
  noc::NetworkConfig cfg;
  cfg.params.n = 16;
  cfg.params.p = 4;
  cfg.kernel = kernel;
  return cfg;
}

noc::FlowSpec flow(router::TrafficClass cls, double load, int payload,
                   std::uint64_t seed) {
  noc::FlowSpec f;
  f.trafficClass = cls;
  f.traffic.pattern = noc::TrafficPattern::UniformRandom;
  f.traffic.offeredLoad = load;
  f.traffic.payloadFlits = payload;
  f.traffic.seed = seed;
  return f;
}

// The paper's router as designed: single-lane wormhole, XY, round-robin.
Spec mesh8Uniform(std::uint64_t seed) {
  Spec s;
  s.warmup = 500;
  s.measure = 6000;
  s.subSeeds = 12;  // cheap, and its p99 sits near the knee
  s.timingRepsPerSecond = 2.5;
  s.drainCap = 20000;
  s.build = [seed, w = s.warmup](Kernel k) {
    auto net = std::make_unique<noc::Network>(noc::makeTopology("mesh", 8, 8),
                                              baseConfig(k));
    net->ledger().setWarmupCycles(w);
    net->attachTraffic(
        flow(router::TrafficClass::BestEffort, 0.20, 6, seed).traffic);
    return net;
  };
  return s;
}

// Four VCs with QoS classes: a low-rate Control probe beside a Bulk flow.
Spec mesh8QosVc4(std::uint64_t seed) {
  Spec s;
  s.warmup = 300;
  s.measure = 1000;  // short repetitions: the slowest workload per cycle
  s.subSeeds = 8;  // its Bulk-dominated p99 varies from seed to seed
  s.timingRepsPerSecond = 0.6;
  s.drainCap = 20000;
  s.build = [seed, w = s.warmup](Kernel k) {
    noc::NetworkConfig cfg = baseConfig(k);
    cfg.params.numVCs = 4;
    cfg.params.qosClasses = true;
    auto net = std::make_unique<noc::Network>(noc::makeTopology("mesh", 8, 8),
                                              cfg);
    net->ledger().setWarmupCycles(w);
    net->attachTraffic(std::vector<noc::FlowSpec>{
        flow(router::TrafficClass::Control, 0.02, 2, seed),
        flow(router::TrafficClass::Bulk, 0.20, 6, seed)});
    return net;
  };
  return s;
}

// Faulty torus with HLP parity and end-to-end retransmission, using the
// reliability settings of bench_noc_faultsweep.  The fault campaign is
// generated over the measured window's length and shifted past warm-up.
Spec torus8FaultsReliable(std::uint64_t seed) {
  Spec s;
  s.warmup = 300;
  s.measure = 3000;
  s.drainCap = 60000;
  s.timingRepsPerSecond = 1.5;
  s.build = [seed, w = s.warmup, m = s.measure](Kernel k) {
    auto topo = noc::makeTopology("torus", 8, 8);
    noc::NetworkConfig cfg = baseConfig(k);
    cfg.hlpParity = true;
    cfg.reliability.enabled = true;
    cfg.reliability.seqBits = 6;
    cfg.reliability.window = 8;
    cfg.reliability.rtoInitial = 256;
    cfg.reliability.rtoMax = 4096;
    cfg.reliability.nackMinInterval = 16;
    noc::CampaignConfig campaign;
    campaign.horizon = m;
    campaign.corruptRate = 0.01;
    campaign.corruptLinkFraction = 0.75;
    campaign.stallEvents = 3;
    campaign.dropEvents = 3;
    campaign.minDuration = 16;
    campaign.maxDuration = 96;
    campaign.seed = seed ^ 0xfa17;
    cfg.faultPlan = noc::makeFaultPlan(*topo, campaign);
    for (noc::FaultEvent& e : cfg.faultPlan.events) e.start += w;
    auto net = std::make_unique<noc::Network>(topo, cfg);
    net->ledger().setWarmupCycles(w);
    net->attachTraffic(
        flow(router::TrafficClass::BestEffort, 0.10, 6, seed).traffic);
    return net;
  };
  return s;
}

// The cells bench_noc_loadsweep runs with default flags (4x4 mesh, event
// kernel, seed 99, 800 warm-up + 3000 measured cycles, no drain), in the
// order it prints them: three pattern tables over load x FIFO depth, then
// the VC table.  Its three instrumented report runs are not replayed.
struct ReplayCell {
  noc::TrafficPattern pattern;
  double load;
  int p;
  int vcs;
};

std::vector<std::vector<ReplayCell>> loadsweepRows() {
  std::vector<std::vector<ReplayCell>> rows;
  for (noc::TrafficPattern pattern :
       {noc::TrafficPattern::UniformRandom, noc::TrafficPattern::Transpose,
        noc::TrafficPattern::HotSpot})
    for (double load : {0.02, 0.05, 0.10, 0.20, 0.35, 0.50}) {
      std::vector<ReplayCell> row;
      for (int p : {2, 4, 8}) row.push_back({pattern, load, p, 1});
      rows.push_back(row);
    }
  for (double load : {0.05, 0.20, 0.35, 0.50}) {
    std::vector<ReplayCell> row;
    for (int vcs : {1, 2, 4})
      row.push_back({noc::TrafficPattern::UniformRandom, load, 4, vcs});
    rows.push_back(row);
  }
  return rows;
}

Spec replayCell(const ReplayCell& cell) {
  Spec s;
  s.kernel = Kernel::EventDriven;
  s.warmup = 800;
  s.measure = 3000;
  s.drain = false;
  s.build = [cell, w = s.warmup](Kernel k) {
    noc::NetworkConfig cfg = baseConfig(k);
    cfg.params.p = cell.p;
    cfg.params.numVCs = cell.vcs;
    auto net = std::make_unique<noc::Network>(noc::makeTopology("mesh", 4, 4),
                                              cfg);
    net->ledger().setWarmupCycles(w);
    noc::TrafficConfig traffic;
    traffic.pattern = cell.pattern;
    traffic.offeredLoad = cell.load;
    traffic.payloadFlits = 6;
    traffic.seed = 99;
    traffic.hotspot = noc::NodeId{1, 1};
    traffic.hotspotFraction = 0.3;
    net->attachTraffic(traffic);
    return net;
  };
  return s;
}

// ----------------------------------------------------------- repetition

// FNV-1a over 64-bit words: the digest of one repetition's simulated
// results.  Kernel-independent by construction (no work counters).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

struct LayerSample {
  double settleS = 0, edgeS = 0, measureSelfS = 0;
  std::vector<double> stepUs;  // traced only; moved out once pooled
  double evals = 0, routerUnits = 0, linkUnits = 0, niUnits = 0;
  double inflightSum = 0, sendQueueMax = 0;
  double thunks = 0, ops = 0, segments = 0, iterSegments = 0, edgeItems = 0,
         arenaWords = 0;
};

// Host time of one repetition, phase by phase; warm-up, measured window
// and drain are cut into kChunk-cycle pieces.  Repetitions of one seed do
// identical work chunk for chunk, which is what lets timeFloor() below
// compare them piecewise.
constexpr std::uint64_t kChunk = 64;

struct Timeline {
  std::vector<double> warm, measure, drain;
};

struct Rep {
  double setupS = 0, buildS = 0, programS = 0, measureS = 0, drainS = 0,
         wallS = 0;
  Timeline timeline;
  std::uint64_t measured = 0, completion = 0, drainCycles = 0;
  std::uint64_t digest = 0;
  std::uint64_t queued = 0, delivered = 0, unattributed = 0, abandoned = 0;
  bool healthy = true, drained = true;
  double throughput = 0, linkUtilMean = 0, linkUtilMax = 0, latencyMean = 0;
  noc::ReliabilityStats reliability;
  std::uint64_t corrupted = 0, dropped = 0, stallCycles = 0;
  LayerSample layer;
};

// Packet latencies after warm-up, pooled over the repetitions that are
// given a pool (one per sub-seed).  Timing repetitions keep none, so the
// process's peak memory does not grow with their number.
struct LatencyPool {
  std::vector<double> all, control;
  bool classes = false;  // QoS classes on: `control` holds Control packets
  // The top class present: without classes, every packet.
  const std::vector<double>& top() const { return classes ? control : all; }
};

// Per-module-kind unit executions (profiling), by module-name prefix.
struct KindCounts {
  double router = 0, link = 0, ni = 0;
};

KindCounts kindCounts(sim::Simulator& sim) {
  KindCounts k;
  for (const auto& [name, count] :
       sim.hottestModules(std::numeric_limits<std::size_t>::max())) {
    const double c = static_cast<double>(count);
    if (name.rfind("r(", 0) == 0) k.router += c;
    else if (name.rfind("link(", 0) == 0) k.link += c;
    else if (name.rfind("ni(", 0) == 0) k.ni += c;
  }
  return k;
}

struct Setup {
  std::unique_ptr<noc::Network> net;
  double setupS = 0, buildS = 0, programS = 0;
};

// Network construction + attachTraffic + the first settle (which builds
// the compiled program under Kernel::Compiled).
Setup setUp(const Spec& spec, Kernel kernel, SpanRecorder* rec,
            bool profile) {
  Setup s;
  ScopedSpan span(rec, "setup");
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan b(rec, "noc.build");
    s.net = spec.build(kernel);
    if (profile) s.net->simulator().enableProfiling();
  }
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan p(rec, "sim.program_build");
    s.net->simulator().settle();
  }
  const Clock::time_point t2 = Clock::now();
  s.buildS = secondsBetween(t0, t1);
  s.programS = secondsBetween(t1, t2);
  s.setupS = secondsBetween(t0, t2);
  return s;
}

Rep runRep(const Spec& spec, Kernel kernel, SpanRecorder* rec,
           LatencyPool* pool = nullptr) {
  Rep r;
  const bool traced = rec != nullptr;
  const Clock::time_point start = Clock::now();
  ScopedSpan workload(rec, "workload");
  Setup s = setUp(spec, kernel, rec, traced);
  noc::Network& net = *s.net;
  sim::Simulator& sim = net.simulator();
  r.setupS = s.setupS;
  r.buildS = s.buildS;
  r.programS = s.programS;
  const int nodes = net.topology().nodes();

  if (const sim::CompiledProgram* prog = sim.compiledProgram()) {
    r.layer.thunks = static_cast<double>(prog->thunkCount());
    r.layer.ops = static_cast<double>(prog->opCount());
    r.layer.segments = static_cast<double>(prog->segmentCount());
    r.layer.iterSegments = static_cast<double>(prog->iterateSegmentCount());
    r.layer.edgeItems = static_cast<double>(prog->edgeItemCount());
    r.layer.arenaWords = static_cast<double>(prog->wordCount());
  }

  {
    ScopedSpan warm(rec, "warmup");
    Clock::time_point t = Clock::now();
    for (std::uint64_t c = 0; c < spec.warmup; ++c) {
      if (c > 0) sim.settle();  // cycle 0 was settled by set-up
      sim.tick();
      if ((c + 1) % kChunk == 0 || c + 1 == spec.warmup) {
        const Clock::time_point n = Clock::now();
        r.timeline.warm.push_back(secondsBetween(t, n));
        t = n;
      }
    }
  }

  const std::uint64_t evals0 = sim.evaluateCalls();
  KindCounts kinds0;
  if (traced) kinds0 = kindCounts(sim);
  const Clock::time_point m0 = Clock::now();
  if (!traced) {
    Clock::time_point t = m0;
    for (std::uint64_t c = 0; c < spec.measure; ++c) {
      sim.settle();
      sim.tick();
      if ((c + 1) % kChunk == 0 || c + 1 == spec.measure) {
        const Clock::time_point n = Clock::now();
        r.timeline.measure.push_back(secondsBetween(t, n));
        t = n;
      }
    }
  } else {
    ScopedSpan measure(rec, "measure");
    r.layer.stepUs.reserve(spec.measure);
    for (std::uint64_t c = 0; c < spec.measure; ++c) {
      const Clock::time_point a = Clock::now();
      sim.settle();
      const Clock::time_point b = Clock::now();
      sim.tick();
      const Clock::time_point e = Clock::now();
      rec->leaf("sim.settle", a, b);
      rec->leaf("sim.edge", b, e);
      r.layer.stepUs.push_back(1e6 * secondsBetween(a, e));
      // Between-cycle sampling of the modelled network's backlog.
      r.layer.inflightSum += static_cast<double>(net.ledger().inFlight());
      for (int i = 0; i < nodes; ++i)
        r.layer.sendQueueMax = std::max(
            r.layer.sendQueueMax,
            static_cast<double>(
                net.ni(net.topology().nodeAt(i)).sendQueueFlits()));
    }
  }
  const Clock::time_point m1 = Clock::now();
  r.measureS = secondsBetween(m0, m1);
  r.measured = spec.measure;
  r.layer.evals = static_cast<double>(sim.evaluateCalls() - evals0);
  if (traced) {
    const KindCounts kinds1 = kindCounts(sim);
    r.layer.routerUnits = kinds1.router - kinds0.router;
    r.layer.linkUnits = kinds1.link - kinds0.link;
    r.layer.niUnits = kinds1.ni - kinds0.ni;
  }
  r.throughput =
      net.ledger().throughputFlitsPerCyclePerNode(spec.measure, nodes);
  r.linkUtilMean = net.meanLinkUtilization();
  r.linkUtilMax = net.maxLinkUtilization();

  if (spec.drain) {
    ScopedSpan drain(rec, "drain");
    const std::uint64_t before = sim.cycle();
    const Clock::time_point d0 = Clock::now();
    net.pauseTraffic(true);
    // Draining in kChunk-cycle calls runs the same cycles as one call: the
    // extra settle() at each call boundary re-settles a settled network.
    Clock::time_point t = d0;
    r.drained = false;
    while (!r.drained && sim.cycle() - before < spec.drainCap) {
      r.drained = net.drain(kChunk);
      const Clock::time_point n = Clock::now();
      r.timeline.drain.push_back(secondsBetween(t, n));
      t = n;
    }
    r.drainS = secondsBetween(d0, t);
    r.drainCycles = sim.cycle() - before;
  }
  r.completion = sim.cycle();
  r.wallS = secondsBetween(start, Clock::now());

  const noc::DeliveryLedger& ledger = net.ledger();
  const noc::LatencyStats& lat = ledger.packetLatency();
  r.latencyMean = lat.mean();
  if (pool) {
    pool->all.insert(pool->all.end(), lat.samples().begin(),
                     lat.samples().end());
    pool->classes = net.config().params.qosClasses;
    if (pool->classes) {
      const auto& ctrl =
          ledger.packetLatency(router::TrafficClass::Control).samples();
      pool->control.insert(pool->control.end(), ctrl.begin(), ctrl.end());
    }
  }
  r.queued = ledger.queued();
  r.delivered = ledger.delivered();
  r.unattributed = net.unattributedPackets();
  r.healthy = net.healthy();
  r.reliability = net.reliabilityStats();
  r.abandoned = r.reliability.abandoned;
  r.corrupted = net.flitsCorrupted();
  r.dropped = net.flitsDropped();
  r.stallCycles = net.faultStallCycles();

  Digest d;
  d.add(r.completion);
  d.add(r.queued);
  d.add(r.delivered);
  d.add(ledger.flitsDelivered());
  for (int c = 0; c < router::kNumTrafficClasses; ++c) {
    const auto cls = static_cast<router::TrafficClass>(c);
    d.add(ledger.queued(cls));
    d.add(ledger.delivered(cls));
  }
  for (double v : lat.samples()) d.add(static_cast<std::uint64_t>(v));
  const noc::ReliabilityStats& rs = r.reliability;
  for (std::uint64_t v :
       {rs.dataFramesSent, rs.retransmissions, rs.timeouts, rs.acksSent,
        rs.nacksSent, rs.acksReceived, rs.nacksReceived,
        rs.duplicatesDropped, rs.outOfOrderBuffered, rs.malformedFrames,
        rs.payloadsDelivered, rs.abandoned})
    d.add(v);
  for (std::uint64_t v : {r.corrupted, r.dropped, r.stallCycles,
                          net.parityErrorsDetected(), r.unattributed})
    d.add(v);
  r.digest = d.h;
  return r;
}

// -------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  long seconds = 10;
  bool trace = false;
  std::optional<Kernel> kernel;
  bool shortRun = false;
  bool setupOnly = false;
  std::string traceOut;
};

constexpr const char* kUsage =
    "usage: noc_bench --workload "
    "mesh8_uniform|mesh8_qos_vc4|torus8_faults_reliable|loadsweep_replay "
    "[--seed 0..4294967295] [--seconds 1..600] [--trace 0|1] "
    "[--kernel compiled|event] [--short] [--setup-only] [--trace-out PATH]";

[[noreturn]] void usageError(const std::string& what) {
  std::fprintf(stderr, "noc_bench: %s\n%s\n", what.c_str(), kUsage);
  std::exit(2);
}

// Whole decimal number in [lo, hi]; anything else (sign, space, suffix,
// empty, overflow) is rejected.
std::uint64_t parseNumber(std::string_view flag, std::string_view text,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() ||
      end != text.data() + text.size() || v < lo || v > hi)
    usageError(std::string(flag) + " expects a whole number in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
               std::string(text) + "'");
  return v;
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usageError(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = parseNumber(arg, value(), 0, 4294967295ull);
    } else if (arg == "--seconds") {
      o.seconds = static_cast<long>(parseNumber(arg, value(), 1, 600));
    } else if (arg == "--trace") {
      o.trace = parseNumber(arg, value(), 0, 1) == 1;
    } else if (arg == "--kernel") {
      const std::string_view k = value();
      if (k == "compiled") o.kernel = Kernel::Compiled;
      else if (k == "event") o.kernel = Kernel::EventDriven;
      else usageError("unknown kernel '" + std::string(k) + "'");
    } else if (arg == "--short") {
      o.shortRun = true;
    } else if (arg == "--setup-only") {
      o.setupOnly = true;
    } else if (arg == "--trace-out") {
      o.traceOut = value();
    } else {
      usageError("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (o.workload != "mesh8_uniform" && o.workload != "mesh8_qos_vc4" &&
      o.workload != "torus8_faults_reliable" &&
      o.workload != "loadsweep_replay")
    usageError(o.workload.empty() ? "--workload is required"
                                  : "unknown workload '" + o.workload + "'");
  return o;
}

const char* kernelName(Kernel k) {
  return k == Kernel::Compiled ? "compiled" : "event";
}

// ------------------------------------------------------------------ JSON

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void addStamp(JsonObject& out, const Options& o, Kernel kernel) {
  out.str("workload", o.workload)
      .num("seed", static_cast<double>(o.seed))
      .str("kernel", kernelName(kernel))
      .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef __VERSION__
      .str("compiler", __VERSION__)
#endif
#ifdef NDEBUG
      .boolean("assertions", false);
#else
      .boolean("assertions", true);
#endif
}

bool writeTrace(const Options& o, const SpanRecorder& rec) {
  if (o.traceOut.empty()) return true;
  const std::string json = rec.perfettoJson();
  std::string error;
  if (!telemetry::validatePerfettoJson(json, &error)) {
    std::fprintf(stderr, "noc_bench: span export invalid: %s\n",
                 error.c_str());
    return false;
  }
  std::FILE* f = std::fopen(o.traceOut.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "noc_bench: cannot write %s\n", o.traceOut.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

// Set-up is timed in kSetupGroups groups of kSetupGroup back-to-back
// stand-alone set-ups, spread evenly between the timing repetitions.
// setup_s is the median of the groups' fastest set-ups: the group minimum
// filters the same bursts as timeFloor().
constexpr int kSetupGroup = 5;
constexpr std::size_t kSetupGroups = 15;

double setupGroup(const Spec& spec, Kernel kernel, std::vector<double>& buildS,
                  std::vector<double>& programS) {
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kSetupGroup; ++k) {
    const Setup s = setUp(spec, kernel, nullptr, false);
    best = std::min(best, s.setupS);
    buildS.push_back(s.buildS);
    programS.push_back(s.programS);
  }
  return best;
}

// Per-layer figures of the traced repetitions (medians for host times,
// the first traced repetition for counts, which repeat exactly); `steps`
// pools their per-cycle step times.
JsonObject layerJson(const std::vector<Rep>& traced,
                     const std::vector<double>& steps,
                     const std::vector<double>& buildS,
                     const std::vector<double>& programS,
                     double tracedCps, double untracedCps) {
  std::vector<double> settle, edge, measureSelf, drainS;
  for (const Rep& r : traced) {
    const double m = static_cast<double>(r.measured);
    settle.push_back(1e6 * r.layer.settleS / m);
    edge.push_back(1e6 * r.layer.edgeS / m);
    measureSelf.push_back(1e6 * r.layer.measureSelfS / m);
    drainS.push_back(r.drainS);
  }
  const Rep& f = traced.front();
  const double m = static_cast<double>(f.measured);
  const noc::ReliabilityStats& rs = f.reliability;
  const double sends =
      static_cast<double>(rs.dataFramesSent + rs.retransmissions);
  JsonObject l;
  l.num("sim.settle_us_per_cycle", median(settle))
      .num("sim.edge_us_per_cycle", median(edge))
      .num("sim.step_us_p50", pooled(steps).percentile(0.5))
      .num("sim.step_us_p99", pooled(steps).percentile(0.99))
      .num("sim.step_samples", static_cast<double>(steps.size()))
      .num("sim.thunks", f.layer.thunks)
      .num("sim.ops", f.layer.ops)
      .num("sim.evals_per_cycle", f.layer.evals / m)
      .num("sim.segments", f.layer.segments)
      .num("sim.iterate_segments", f.layer.iterSegments)
      .num("sim.edge_items", f.layer.edgeItems)
      .num("sim.arena_words", f.layer.arenaWords)
      .num("sim.program_build_s", median(programS))
      .num("noc.build_s", median(buildS))
      .num("router.units_per_cycle", f.layer.routerUnits / m)
      .num("link.units_per_cycle", f.layer.linkUnits / m)
      .num("ni.units_per_cycle", f.layer.niUnits / m)
      .num("noc.inflight_mean", f.layer.inflightSum / m)
      .num("noc.send_queue_flits_max", f.layer.sendQueueMax)
      .num("noc.link_util_mean", f.linkUtilMean)
      .num("noc.link_util_max", f.linkUtilMax)
      .num("noc.drain_s", median(drainS))
      .num("noc.drain_cycles", static_cast<double>(f.drainCycles))
      .num("reliable.retransmissions", static_cast<double>(rs.retransmissions))
      .num("reliable.timeouts", static_cast<double>(rs.timeouts))
      .num("reliable.duplicates_dropped",
           static_cast<double>(rs.duplicatesDropped))
      .num("reliable.useful_frame_ratio",
           sends > 0 ? static_cast<double>(rs.dataFramesSent) / sends : 0.0)
      .num("router.flits_corrupted", static_cast<double>(f.corrupted))
      .num("router.flits_dropped", static_cast<double>(f.dropped))
      .num("router.fault_stall_cycles", static_cast<double>(f.stallCycles))
      .num("bench.measure_self_us_per_cycle", median(measureSelf))
      .num("trace.overhead_ratio",
           untracedCps > 0 ? tracedCps / untracedCps : 0.0);
  return l;
}

// Moves one traced repetition's span self times into its layer sample
// and its step times into `steps`.
void collectSpanTotals(SpanRecorder& rec, Rep& r, std::vector<double>& steps) {
  r.layer.settleS = rec.totalsFor("sim.settle").selfS;
  r.layer.edgeS = rec.totalsFor("sim.edge").selfS;
  r.layer.measureSelfS = rec.totalsFor("measure").selfS;
  rec.resetTotals();
  steps.insert(steps.end(), r.layer.stepUs.begin(), r.layer.stepUs.end());
  std::vector<double>().swap(r.layer.stepUs);
}

Spec makeSpec(const Options& o, std::uint64_t seed) {
  Spec spec = o.workload == "mesh8_uniform"   ? mesh8Uniform(seed)
              : o.workload == "mesh8_qos_vc4" ? mesh8QosVc4(seed)
                                              : torus8FaultsReliable(seed);
  if (o.shortRun) {
    spec.warmup = 50;
    spec.measure = 300;
  }
  return spec;
}

// Sum over chunk positions of the fastest repetition's time for that
// chunk.  Host interference on shared machines comes in bursts that last
// seconds and only ever slow a chunk down; repetitions of one seed do the
// same work chunk for chunk, so the floor estimates the uncontended time
// of exactly that work.  The floor falls as repetitions are added, which
// is why their number is fixed per workload (Spec::timingRepsPerSecond).
double timeFloor(const std::vector<const Rep*>& reps,
                 std::vector<double> Timeline::*phase) {
  double total = 0.0;
  const std::size_t n = (reps.front()->timeline.*phase).size();
  for (std::size_t k = 0; k < n; ++k) {
    double best = std::numeric_limits<double>::infinity();
    for (const Rep* r : reps)
      if (k < (r->timeline.*phase).size())
        best = std::min(best, (r->timeline.*phase)[k]);
    total += best;
  }
  return total;
}

// One untraced repetition per sub-seed gives the simulated results; the
// first sub-seed is repeated a fixed number of times for the host timings
// (under --trace 1, which runs only that sub-seed, half of them traced,
// alternating).
int runInProcess(const Options& o) {
  const Spec nominal = makeSpec(o, 0);
  const std::uint64_t subSeeds = nominal.subSeeds;
  std::vector<Spec> specs;
  for (std::uint64_t j = 0; j < (o.trace ? 1 : subSeeds); ++j)
    specs.push_back(makeSpec(o, o.seed * subSeeds + j));
  const Kernel kernel = o.kernel.value_or(specs.front().kernel);
  const Clock::time_point start = Clock::now();
  // Bounds a run on a heavily loaded host (or a much slower simulator):
  // past twice --seconds, timing stops once three repetitions are in.
  const Clock::time_point giveUp = start + std::chrono::seconds(2 * o.seconds);
  SpanRecorder rec(start);

  const std::size_t timingReps =
      o.shortRun ? 1
                 : std::max<std::size_t>(
                       3, static_cast<std::size_t>(std::llround(
                              static_cast<double>(o.seconds) *
                              nominal.timingRepsPerSecond)));
  const std::size_t wantPlain =
      o.trace ? std::max<std::size_t>(1, timingReps / 2) : timingReps;
  const std::size_t wantTraced = o.trace ? wantPlain : 0;

  std::vector<Rep> results;  // one per sub-seed
  LatencyPool latency;       // theirs, pooled
  std::vector<Rep> plain, traced;  // repetitions of sub-seed 0
  std::vector<double> setupS, buildS, programS, steps;
  auto noteSetup = [&](const Rep& r) {
    buildS.push_back(r.buildS);
    programS.push_back(r.programS);
  };
  // The timing repetitions are spread over the whole run, a share after
  // each sub-seed, so their floors sample the host over all of it and not
  // over one stretch.
  const std::size_t want = wantPlain + wantTraced;
  bool cut = false;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    results.push_back(runRep(specs[j], kernel, nullptr, &latency));
    noteSetup(results.back());
    if (j == 0) plain.push_back(results.front());
    const std::size_t due = want * (j + 1) / specs.size();
    while (!cut && plain.size() + traced.size() < due) {
      if (plain.size() + traced.size() >= 3 && Clock::now() > giveUp) {
        std::fprintf(stderr,
                     "noc_bench: stopped after %zu of %zu timing repetitions\n",
                     plain.size() + traced.size(), want);
        cut = true;
        break;
      }
      const bool tracedRep = traced.size() < wantTraced &&
                             (traced.size() < plain.size() ||
                              plain.size() >= wantPlain);
      Rep r = runRep(specs.front(), kernel, tracedRep ? &rec : nullptr);
      if (tracedRep) collectSpanTotals(rec, r, steps);
      noteSetup(r);
      (tracedRep ? traced : plain).push_back(std::move(r));
      while (setupS.size() * want <
             kSetupGroups * (plain.size() + traced.size()))
        setupS.push_back(setupGroup(specs.front(), kernel, buildS, programS));
    }
  }
  while (!o.shortRun && setupS.size() < kSetupGroups)
    setupS.push_back(setupGroup(specs.front(), kernel, buildS, programS));

  bool deterministic = true;
  for (const std::vector<Rep>* group : {&plain, &traced})
    for (const Rep& r : *group)
      deterministic = deterministic && r.digest == results.front().digest;

  std::uint64_t attempted = 0, failed = 0, completion = 0;
  bool ok = true;
  double throughput = 0.0;
  Digest digest;
  std::string subDigests;
  for (const Rep& r : results) {
    attempted += r.queued;
    failed += (r.queued - std::min(r.queued, r.delivered)) + r.unattributed +
              r.abandoned + (r.healthy ? 0 : 1);
    ok = ok && r.healthy && r.drained && r.delivered == r.queued &&
         r.unattributed == 0 && r.abandoned == 0;
    throughput += r.throughput / static_cast<double>(results.size());
    completion += r.completion;
    digest.add(r.digest);
    subDigests += (subDigests.empty() ? "\"" : ",\"") + hex(r.digest) + "\"";
  }
  for (const Rep& r : traced)
    ok = ok && r.healthy && r.drained && r.delivered == r.queued;

  std::vector<const Rep*> timing;
  std::vector<double> setupFloor, cps, wall;
  for (const Rep& r : plain) {
    timing.push_back(&r);
    setupFloor.push_back(r.setupS);
    cps.push_back(static_cast<double>(r.measured) / r.measureS);
    wall.push_back(r.wallS);
  }
  const double measureFloor = timeFloor(timing, &Timeline::measure);
  const double wallFloor =
      *std::min_element(setupFloor.begin(), setupFloor.end()) +
      timeFloor(timing, &Timeline::warm) + measureFloor +
      timeFloor(timing, &Timeline::drain);
  const double untracedCps = median(cps);

  const Rep& first = results.front();
  JsonObject out;
  addStamp(out, o, kernel);
  out.num("reps", static_cast<double>(results.size() + plain.size() - 1 +
                                      traced.size()))
      .num("timing_reps", static_cast<double>(plain.size()))
      .num("timing_reps_wanted", static_cast<double>(wantPlain))
      .num("setup_groups", static_cast<double>(setupS.size()))
      .str("digest", hex(digest.h))
      .raw("sub_digests", "[" + subDigests + "]")
      .boolean("deterministic", deterministic)
      .raw("checks", JsonObject()
                         .boolean("healthy", first.healthy)
                         .boolean("drained", first.drained)
                         .boolean("delivered_eq_queued",
                                  first.delivered == first.queued)
                         .boolean("unattributed_zero", first.unattributed == 0)
                         .boolean("abandoned_zero", first.abandoned == 0)
                         .json())
      .boolean("ok", ok && deterministic)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("pkt_latency_samples", static_cast<double>(latency.all.size()))
      .num("ctrl_latency_samples", static_cast<double>(latency.top().size()))
      .raw("medians", JsonObject()
                          .num("sim_cycles_per_s", untracedCps)
                          .num("wall_s", median(wall))
                          .json())
      .raw("metrics",
           JsonObject()
               .num("sim_cycles_per_s",
                    static_cast<double>(first.measured) / measureFloor)
               .num("wall_s", wallFloor)
               .num("setup_s", median(setupS))
               .num("peak_rss_mb", peakRssMb())
               .num("pkt_latency_p50_cycles",
                    pooled(latency.all).percentile(0.5))
               .num("pkt_latency_p99_cycles",
                    pooled(latency.all).percentile(0.99))
               .num("ctrl_latency_p99_cycles",
                    pooled(latency.top()).percentile(0.99))
               .num("accepted_flits_per_node_cycle", throughput)
               .num("completion_cycles", static_cast<double>(completion) /
                                             static_cast<double>(
                                                 results.size()))
               .json());
  if (o.trace) {
    std::vector<double> tcps;
    for (const Rep& r : traced)
      tcps.push_back(static_cast<double>(r.measured) / r.measureS);
    out.raw("per_layer",
            layerJson(traced, steps, buildS, programS, median(tcps),
                      untracedCps)
                .json())
        .num("spans_dropped", static_cast<double>(rec.droppedSpans()));
    if (!writeTrace(o, rec)) return 1;
  }
  std::printf("%s\n", out.json().c_str());
  return 0;
}

std::string fmt(double v, const char* f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// In-process replay of bench_noc_loadsweep's default table cells.  With
// --setup-only it only sets every cell's network up (setup_s of the CLI
// workload); otherwise it runs them, untraced and traced passes
// alternating, and reports the rows in the CLI's own number format so
// the caller can check them against the CLI's output.
int runReplay(const Options& o) {
  const Kernel kernel = o.kernel.value_or(Kernel::EventDriven);
  const auto rows = loadsweepRows();
  const Clock::time_point start = Clock::now();
  SpanRecorder rec(start);
  JsonObject out;
  addStamp(out, o, kernel);

  if (o.setupOnly) {
    std::vector<double> setupS, buildS, programS;
    for (const auto& row : rows)
      for (const ReplayCell& cell : row)
        setupS.push_back(
            setupGroup(replayCell(cell), kernel, buildS, programS));
    std::string samples;
    for (double v : setupS)
      samples += (samples.empty() ? "" : ",") + number(v);
    out.raw("setup_samples", "[" + samples + "]")
        .num("row_count", static_cast<double>(rows.size()));
    std::printf("%s\n", out.json().c_str());
    return 0;
  }

  const Clock::time_point deadline =
      start + std::chrono::seconds(o.seconds);
  std::vector<double> plainCps, tracedCps, buildS, programS, steps;
  std::vector<Rep> tracedReps;  // one aggregate per traced pass
  std::string table;
  bool ok = true;
  for (std::size_t pass = 0;; ++pass) {
    const bool tracedPass = o.trace && pass % 2 == 1;
    double cycles = 0, measureS = 0;
    Rep agg;
    std::string passTable = "[";
    for (const auto& row : rows) {
      std::string line = "[\"" + fmt(row.front().load, "%.2f") + "\"";
      for (const ReplayCell& cell : row) {
        Rep r = runRep(replayCell(cell), kernel, tracedPass ? &rec : nullptr);
        ok = ok && r.healthy;
        cycles += static_cast<double>(r.measured);
        measureS += r.measureS;
        buildS.push_back(r.buildS);
        programS.push_back(r.programS);
        line += ",\"" + fmt(r.latencyMean, "%.2f") + "\",\"" +
                fmt(r.throughput, "%.4f") + "\"";
        if (tracedPass) {
          collectSpanTotals(rec, r, steps);
          agg.layer.settleS += r.layer.settleS;
          agg.layer.edgeS += r.layer.edgeS;
          agg.layer.measureSelfS += r.layer.measureSelfS;
          agg.layer.evals += r.layer.evals;
          agg.layer.routerUnits += r.layer.routerUnits;
          agg.layer.linkUnits += r.layer.linkUnits;
          agg.layer.niUnits += r.layer.niUnits;
          agg.layer.inflightSum += r.layer.inflightSum;
          agg.layer.sendQueueMax =
              std::max(agg.layer.sendQueueMax, r.layer.sendQueueMax);
          agg.linkUtilMean += r.linkUtilMean * static_cast<double>(r.measured);
          agg.linkUtilMax = std::max(agg.linkUtilMax, r.linkUtilMax);
          agg.measured += r.measured;
        }
      }
      passTable += (passTable.size() > 1 ? "," : "") + line + "]";
    }
    passTable += "]";
    if (table.empty()) table = passTable;
    ok = ok && passTable == table;
    (tracedPass ? tracedCps : plainCps).push_back(cycles / measureS);
    if (tracedPass) {
      agg.linkUtilMean /= static_cast<double>(agg.measured);
      tracedReps.push_back(std::move(agg));
    }
    if ((!o.trace || pass >= 1) && Clock::now() >= deadline) break;
  }

  out.boolean("ok", ok).raw("rows", table);
  if (o.trace) {
    out.raw("per_layer", layerJson(tracedReps, steps, buildS, programS,
                                   median(tracedCps), median(plainCps))
                             .json());
    if (!writeTrace(o, rec)) return 1;
  }
  std::printf("%s\n", out.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseOptions(argc, argv);
  try {
    return o.workload == "loadsweep_replay" ? runReplay(o) : runInProcess(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "noc_bench: %s\n", e.what());
    return 1;
  }
}
