/**
 * @file
 * an2bench — runs one workload of the repository benchmark and prints
 * its measurements as one JSON object on stdout.
 *
 *     an2bench --workload iq16-pim --seed 7 --seconds 25 --trace 0
 *     an2bench --workload lan-fattree8-serial --seed 7 --seconds 0 \
 *              --trace 1 --tiny
 *
 * Everything is measured from outside the library: the classes below
 * wrap the public TrafficGenerator, Matcher and SwitchModel interfaces,
 * and the LAN workloads time the public Topology / Lan / ParallelNet
 * calls. No library code is instrumented.
 *
 * A run repeats one fixed-size simulation ("rep") until --seconds have
 * passed (at least once). Every rep of a seed simulates the same thing,
 * so its simulated statistics must repeat exactly. Set-up times are
 * reported as medians; slot and frame times as the 90th percentile over
 * timed chunks / frames (see steadyTime()).
 * With --trace 1 the run alternates plain reps with traced reps; each
 * traced rep's simulated statistics must equal the plain ones.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "an2/harness/sweep.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/serial_greedy.h"
#include "an2/network/network.h"
#include "an2/sim/cioq_switch.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"
#include "an2/topo/lan.h"
#include "an2/topo/parallel_net.h"
#include "an2/topo/topology.h"

namespace {

using namespace an2;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The q-quantile of `v`, interpolating linearly between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Host speed statistic for chunk and frame times: their 90th percentile.
 * On shared hosts a run's chunks come in two states lasting seconds to
 * minutes — a slow one and bursts up to ~1.7x faster — so a median flips
 * between them from run to run, while the 90th percentile stays in the
 * slow state unless a run is almost all burst (perfbench/README.md,
 * "Noise").
 */
double
steadyTime(std::vector<double> times)
{
    return quantile(std::move(times), 0.9);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Metric name -> (value, unit), in emission order. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;

    void put(const std::string& name, double value, const std::string& unit)
    {
        rows.push_back({name, {value, unit}});
    }
};

/** Slots in one switch frame, the unit of frame_ms, and the LAN's slot
    time in picoseconds (the 1 Gb/s cell time). */
const double kFrameSlots = NetworkConfig{}.switch_frame_slots;
const double kSlotPs = static_cast<double>(NetworkConfig{}.slot_ps);

/** Simulated statistics that must repeat exactly for a seed. Values are
    kept as doubles and printed with round-trip precision. */
using SimStats = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Wrappers timing each layer's public entry point

/** Times Matcher::matchInto and counts useful work per call. */
class TimedMatcher final : public Matcher
{
  public:
    explicit TimedMatcher(std::unique_ptr<Matcher> inner)
        : inner_(std::move(inner))
    {
    }

    Matching match(const RequestMatrix& req) override
    {
        return inner_->match(req);  // no switch calls this path
    }

    void matchInto(const RequestMatrix& req, Matching& out) override
    {
        const int64_t t0 = nowNs();
        inner_->matchInto(req, out);
        const int64_t t1 = nowNs();
        ns += t1 - t0;
        ++calls;
        // Yield: matched pairs over the most any matching could pair.
        // Counted after t1 and reported as excluded time, so it is
        // charged to no layer.
        const int in_words = (req.numOutputs() + 63) / 64;
        const int out_words = (req.numInputs() + 63) / 64;
        int want_in = 0;
        int want_out = 0;
        for (PortId i = 0; i < req.numInputs(); ++i)
            want_in += anyBit(req.rowMask(i), in_words);
        for (PortId j = 0; j < req.numOutputs(); ++j)
            want_out += anyBit(req.colMask(j), out_words);
        matched += out.size();
        possible += std::min(want_in, want_out);
        excluded_ns += nowNs() - t1;
    }

    std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }

    int64_t ns = 0;
    int64_t excluded_ns = 0;
    int64_t calls = 0;
    int64_t matched = 0;
    int64_t possible = 0;

  private:
    static int anyBit(const uint64_t* words, int n)
    {
        for (int w = 0; w < n; ++w)
            if (words[w] != 0)
                return 1;
        return 0;
    }

    std::unique_ptr<Matcher> inner_;
};

/** Times TrafficGenerator::generate. */
class TimedTraffic final : public TrafficGenerator
{
  public:
    TimedTraffic(TrafficGenerator& inner, int n)
        : TrafficGenerator(n, n), inner_(inner)
    {
    }

    void generate(SlotTime slot, std::vector<Cell>& out) override
    {
        const int64_t t0 = nowNs();
        inner_.generate(slot, out);
        ns += nowNs() - t0;
    }

    std::string name() const override { return inner_.name(); }

    int64_t ns = 0;

  private:
    TrafficGenerator& inner_;
};

/**
 * Forwards every SwitchModel call to `inner`. Plain mode splits the
 * post-warm-up part of runSlots() into chunks and times each (one clock
 * read per chunk, the inner batched loop untouched). Traced mode runs
 * the slot loop itself and times the SlotDriver calls, acceptCell and
 * runSlot of every post-warm-up slot.
 */
class TimedSwitch final : public SwitchModel
{
  public:
    /** Plain mode. */
    TimedSwitch(SwitchModel& inner, SlotTime warmup, SlotTime chunk)
        : inner_(inner), warmup_(warmup), chunk_(chunk)
    {
    }

    /** Traced mode: `traffic` and `matcher` are the wrappers inside. */
    TimedSwitch(SwitchModel& inner, SlotTime warmup,
                const TimedTraffic& traffic, const TimedMatcher& matcher)
        : inner_(inner), warmup_(warmup), chunk_(0), traffic_(&traffic),
          matcher_(&matcher)
    {
    }

    void acceptCell(const Cell& cell) override { inner_.acceptCell(cell); }
    const std::vector<Cell>& runSlot(SlotTime slot) override
    {
        return inner_.runSlot(slot);
    }

    void runSlots(SlotTime first, SlotTime count, SlotDriver& driver) override
    {
        const SlotTime end = first + count;
        SlotTime s = first;
        if (s < warmup_) {
            const SlotTime n = std::min(end, warmup_) - s;
            inner_.runSlots(s, n, driver);
            s += n;
        }
        if (traffic_ != nullptr) {
            tracedSlots(s, end, driver);
            return;
        }
        while (s < end) {
            const SlotTime n = std::min(chunk_, end - s);
            const int64_t t0 = nowNs();
            inner_.runSlots(s, n, driver);
            const int64_t ns = nowNs() - t0;
            chunk_slot_ns.push_back(static_cast<double>(ns) /
                                    static_cast<double>(n));
            measured_ns += ns;
            s += n;
        }
    }

    int bufferedCells() const override { return inner_.bufferedCells(); }
    std::string name() const override { return inner_.name(); }
    int size() const override { return inner_.size(); }
    void setInputPortLive(PortId i, bool live) override
    {
        inner_.setInputPortLive(i, live);
    }
    void setOutputPortLive(PortId j, bool live) override
    {
        inner_.setOutputPortLive(j, live);
    }
    bool inputPortLive(PortId i) const override
    {
        return inner_.inputPortLive(i);
    }
    bool outputPortLive(PortId j) const override
    {
        return inner_.outputPortLive(j);
    }
    int64_t droppedCells() const override { return inner_.droppedCells(); }
    void fillOccupancy(int32_t* voq, int32_t* backlog) const override
    {
        inner_.fillOccupancy(voq, backlog);
    }

    /** Plain mode: host ns per slot of each timed chunk, and their sum. */
    std::vector<double> chunk_slot_ns;
    int64_t measured_ns = 0;

    /** Traced mode: post-warm-up totals. */
    struct Trace
    {
        int64_t slots = 0;
        int64_t cells_accepted = 0;
        int64_t wall_ns = 0;
        int64_t traffic_ns = 0;
        int64_t enqueue_ns = 0;
        int64_t match_ns = 0;
        int64_t match_calls = 0;
        int64_t matched = 0;
        int64_t possible = 0;
        int64_t slot_self_ns = 0;
        int64_t metrics_ns = 0;
        int64_t buffered_sum = 0;
    } trace;

  private:
    void tracedSlots(SlotTime s, SlotTime end, SlotDriver& driver)
    {
        const int64_t gen0 = traffic_->ns;
        const int64_t match0 = matcher_->ns;
        const int64_t excl0 = matcher_->excluded_ns;
        const int64_t calls0 = matcher_->calls;
        const int64_t matched0 = matcher_->matched;
        const int64_t possible0 = matcher_->possible;
        int64_t begin_ns = 0;
        int64_t run_ns = 0;
        const int64_t w0 = nowNs();
        for (; s < end; ++s) {
            const int64_t a = nowNs();
            const std::vector<Cell>& arrivals = driver.beginSlot(s);
            const int64_t b = nowNs();
            for (const Cell& c : arrivals)
                inner_.acceptCell(c);
            const int64_t c = nowNs();
            const std::vector<Cell>& departed = inner_.runSlot(s);
            const int64_t d = nowNs();
            driver.endSlot(s, departed);
            const int64_t e = nowNs();
            begin_ns += b - a;
            trace.enqueue_ns += c - b;
            run_ns += d - c;
            trace.metrics_ns += e - d;
            trace.cells_accepted += static_cast<int64_t>(arrivals.size());
            trace.buffered_sum += inner_.bufferedCells();
            ++trace.slots;
        }
        trace.wall_ns += nowNs() - w0;
        const int64_t gen = traffic_->ns - gen0;
        const int64_t match = matcher_->ns - match0;
        trace.traffic_ns += gen;
        trace.metrics_ns += begin_ns - gen;
        trace.match_ns += match;
        trace.slot_self_ns +=
            run_ns - match - (matcher_->excluded_ns - excl0);
        trace.match_calls += matcher_->calls - calls0;
        trace.matched += matcher_->matched - matched0;
        trace.possible += matcher_->possible - possible0;
    }

    SwitchModel& inner_;
    SlotTime warmup_;
    SlotTime chunk_;
    const TimedTraffic* traffic_ = nullptr;
    const TimedMatcher* matcher_ = nullptr;
};

// ---------------------------------------------------------------------------
// Switch workloads

struct SwitchWorkload
{
    int n;
    double load;
    SlotTime warmup;
    SlotTime measured;
    SlotTime chunk;
    std::function<std::unique_ptr<SwitchModel>(std::unique_ptr<Matcher>)>
        make_switch;
    std::function<std::unique_ptr<Matcher>(uint64_t seed)> make_matcher;
    std::function<std::unique_ptr<TrafficGenerator>(uint64_t seed)>
        make_traffic;
};

SimStats
simStats(const SimResult& r)
{
    return {{"injected", static_cast<double>(r.injected)},
            {"delivered", static_cast<double>(r.delivered)},
            {"mean_delay_slots", r.mean_delay},
            {"p99_delay_slots", r.p99_delay},
            {"max_occupancy", static_cast<double>(r.max_occupancy)}};
}

constexpr int kSetupBuilds = 3;

struct SwitchRep
{
    SimStats sim;
    std::vector<double> setup_s;
    std::vector<double> chunk_slot_ns;      ///< plain reps
    double slots_per_s = 0.0;               ///< whole measured span
    TimedSwitch::Trace trace;               ///< traced reps
    double cells_per_slot = 0.0;
};

SwitchRep
runSwitchRep(const SwitchWorkload& w, uint64_t seed, bool traced)
{
    SwitchRep rep;
    const uint64_t matcher_seed = harness::runSeed(seed, 0, 0);
    const uint64_t traffic_seed = harness::runSeed(seed, 0, 1);
    SimConfig cfg;
    cfg.warmup = w.warmup;
    cfg.slots = w.warmup + w.measured;

    // Built kSetupBuilds times (the last build is simulated) so set-up
    // time is a median even when a run has a single rep.
    std::unique_ptr<SwitchModel> sw;
    std::unique_ptr<TrafficGenerator> traffic;
    TimedMatcher* timed_matcher = nullptr;
    for (int b = 0; b < kSetupBuilds; ++b) {
        sw.reset();
        traffic.reset();
        const int64_t t0 = nowNs();
        std::unique_ptr<Matcher> matcher = w.make_matcher(matcher_seed);
        if (traced) {
            auto tm = std::make_unique<TimedMatcher>(std::move(matcher));
            timed_matcher = tm.get();
            matcher = std::move(tm);
        }
        sw = w.make_switch(std::move(matcher));
        traffic = w.make_traffic(traffic_seed);
        rep.setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    SimResult r;
    if (traced) {
        TimedTraffic timed_traffic(*traffic, w.n);
        TimedSwitch timed(*sw, w.warmup, timed_traffic, *timed_matcher);
        r = runSimulation(timed, timed_traffic, cfg);
        rep.trace = timed.trace;
    } else {
        TimedSwitch timed(*sw, w.warmup, w.chunk);
        r = runSimulation(timed, *traffic, cfg);
        rep.chunk_slot_ns = std::move(timed.chunk_slot_ns);
        rep.slots_per_s = static_cast<double>(w.measured) /
                          (static_cast<double>(timed.measured_ns) * 1e-9);
    }
    rep.sim = simStats(r);
    rep.cells_per_slot =
        static_cast<double>(r.delivered) / static_cast<double>(w.measured);
    return rep;
}

SwitchWorkload
switchWorkload(const std::string& name, bool tiny)
{
    SwitchWorkload w;
    w.load = 0.9;
    if (name == "iq16-pim" || name == "cioq16-3class") {
        w.n = 16;
        w.warmup = tiny ? 200 : 10'000;
        w.measured = tiny ? 2'000 : 100'000;
        w.chunk = tiny ? 500 : 10'000;
    } else {
        w.n = tiny ? 64 : 1024;
        // Warm-up past the phase where most of the 1M flows are first
        // seen (queue and flow-table allocation), which is not steady.
        w.warmup = tiny ? 100 : 2'500;
        w.measured = tiny ? 400 : 5'000;
        w.chunk = tiny ? 100 : 20;
    }
    const int n = w.n;
    const double load = w.load;
    if (name == "cioq16-3class") {
        w.make_switch = [n](std::unique_ptr<Matcher> m) {
            CioqSwitchConfig cfg;
            cfg.n = n;
            cfg.speedup = 2;
            cfg.service = ServiceDiscipline::Strict;
            return std::make_unique<CioqSwitch>(cfg, std::move(m));
        };
        w.make_matcher = [](uint64_t seed) {
            return std::make_unique<SerialGreedyMatcher>(true, seed);
        };
        w.make_traffic = [n, load](uint64_t seed) {
            return std::make_unique<MultiClassUniformTraffic>(n, load, seed);
        };
        return w;
    }
    w.make_switch = [n](std::unique_ptr<Matcher> m) {
        return std::make_unique<InputQueuedSwitch>(IqSwitchConfig{.n = n},
                                                   std::move(m));
    };
    if (name == "iq16-pim") {
        w.make_matcher = [](uint64_t seed) -> std::unique_ptr<Matcher> {
            PimConfig cfg;
            cfg.iterations = 4;
            cfg.seed = seed;
            return std::make_unique<PimMatcher>(cfg);
        };
    } else {
        w.make_matcher = [](uint64_t) -> std::unique_ptr<Matcher> {
            return std::make_unique<IslipMatcher>(4);
        };
    }
    w.make_traffic = [n, load](uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
    return w;
}

// ---------------------------------------------------------------------------
// LAN workloads

struct LanWorkload
{
    int k;
    int hosts_per_edge;
    int threads;
    int frames;         ///< simulated per rep
    int warm_frames;    ///< leading frames excluded from frame timing
};

struct LanRep
{
    SimStats sim;
    double topology_s = 0.0;
    double lan_build_s = 0.0;
    double place_vbr_s = 0.0;
    double place_cbr_s = 0.0;
    int nodes = 0;
    std::vector<double> frame_ms;        ///< workload engine, post warm-up
    // Traced reps only: frames rotated over three engines.
    std::vector<double> frame_ms_1shard;
    std::vector<double> frame_ms_4shard;
    int64_t windows = 0;                 ///< over the workload-engine frames
    double window_frames_ms = 0.0;       ///< host time of those frames
};

LanWorkload
lanWorkload(const std::string& name, bool tiny)
{
    if (name == "lan-fattree16-sharded")
        return tiny ? LanWorkload{4, 4, 2, 4, 1} : LanWorkload{16, 16, 2, 8, 2};
    return tiny ? LanWorkload{4, 2, 1, 4, 1} : LanWorkload{8, 8, 1, 12, 2};
}

SimStats
lanSimStats(const topo::LanStats& st, int frames)
{
    return {{"injected", static_cast<double>(st.injected)},
            {"delivered", static_cast<double>(st.delivered)},
            {"order_violations", static_cast<double>(st.order_violations)},
            {"link_lost", static_cast<double>(st.link_lost)},
            {"vbr_dropped", static_cast<double>(st.vbr_dropped)},
            {"cells_forwarded_per_frame",
             static_cast<double>(st.cbr_forwarded + st.vbr_forwarded) /
                 frames},
            {"mean_wall_latency_ps", st.mean_wall_latency_ps}};
}

/** 99th percentile over flows of each flow's mean wall latency, in
    nominal slots (the LAN keeps no per-cell latency distribution). */
double
flowP99DelaySlots(const topo::Lan& lan)
{
    std::vector<double> means;
    const topo::Topology& t = lan.topology();
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        if (!t.isHost(n))
            continue;
        for (const auto& [flow, st] :
             lan.net().controller(n).allDeliveryStats())
            if (st.delivered > 0)
                means.push_back(st.wall_latency_ps.mean());
    }
    if (means.empty())
        return 0.0;
    std::sort(means.begin(), means.end());
    const size_t idx = (means.size() - 1) * 99 / 100;
    return means[idx] / kSlotPs;
}

LanRep
runLanRep(const LanWorkload& w, uint64_t seed, bool traced)
{
    LanRep rep;
    topo::LanConfig config;
    config.seed = harness::runSeed(seed, 0, 0);
    config.matcher = [](int, uint64_t s) -> std::unique_ptr<Matcher> {
        PimConfig cfg;
        cfg.iterations = 4;
        cfg.seed = s;
        return std::make_unique<PimMatcher>(cfg);
    };
    const uint64_t place_seed = harness::runSeed(seed, 0, 1);

    const int64_t t0 = nowNs();
    topo::Topology topo = topo::Topology::fatTree(w.k, w.hosts_per_edge);
    const int64_t t1 = nowNs();
    topo::Lan lan(topo, config);
    const int64_t t2 = nowNs();
    lan.placeMatrix(topo::Pattern::Uniform,
                    topo::TrafficSpec{TrafficClass::VBR, 0.10, 0},
                    place_seed);
    const int64_t t3 = nowNs();
    lan.placeMatrix(topo::Pattern::Uniform,
                    topo::TrafficSpec{TrafficClass::CBR, 0.0, 1},
                    place_seed + 1);
    const int64_t t4 = nowNs();
    rep.topology_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.lan_build_s = static_cast<double>(t2 - t1) * 1e-9;
    rep.place_vbr_s = static_cast<double>(t3 - t2) * 1e-9;
    rep.place_cbr_s = static_cast<double>(t4 - t3) * 1e-9;
    rep.nodes = lan.net().numNodes();

    const NetworkConfig& net = lan.net().config();
    const PicoTime frame_ps =
        static_cast<PicoTime>(net.switch_frame_slots) * net.slot_ps;
    // Traced reps rotate post-warm-up frames over the workload's own
    // engine and external 1- and 4-shard engines on the same network;
    // every engine gives byte-identical results, so the simulated
    // statistics still match the plain reps.
    std::unique_ptr<topo::ParallelNet> one;
    std::unique_ptr<topo::ParallelNet> four;
    if (traced) {
        one = std::make_unique<topo::ParallelNet>(lan.net(), 1);
        four = std::make_unique<topo::ParallelNet>(lan.net(), 4);
    }
    for (int f = 0; f < w.frames; ++f) {
        const PicoTime until = static_cast<PicoTime>(f + 1) * frame_ps;
        const int engine = traced && f >= w.warm_frames
                               ? (f - w.warm_frames) % 3
                               : 0;
        const int64_t win0 = w.threads > 1 ? lan.shardWindows()
                                           : (one ? one->windows() : 0);
        const int64_t a = nowNs();
        if (engine == 0)
            lan.run(until, w.threads);
        else if (engine == 1)
            one->run(until);
        else
            four->run(until);
        const double ms = static_cast<double>(nowNs() - a) * 1e-6;
        if (f < w.warm_frames)
            continue;
        if (engine == 0) {
            rep.frame_ms.push_back(ms);
            if (w.threads > 1) {
                rep.windows += lan.shardWindows() - win0;
                rep.window_frames_ms += ms;
            }
        } else if (engine == 1) {
            rep.frame_ms_1shard.push_back(ms);
            if (w.threads <= 1) {
                rep.windows += one->windows() - win0;
                rep.window_frames_ms += ms;
            }
        } else {
            rep.frame_ms_4shard.push_back(ms);
        }
    }
    rep.sim = lanSimStats(lan.stats(), w.frames);
    rep.sim["p99_flow_delay_slots"] = flowP99DelaySlots(lan);
    return rep;
}

// ---------------------------------------------------------------------------
// Driver

struct Cli
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
};

bool
isSwitchWorkload(const std::string& name)
{
    return name == "iq16-pim" || name == "iq1024-islip" ||
           name == "cioq16-3class";
}

bool
isLanWorkload(const std::string& name)
{
    return name == "lan-fattree16-sharded" || name == "lan-fattree8-serial";
}

bool
parseCli(int argc, char** argv, Cli& cli, std::string& err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc && a != "--tiny") {
            err = a + " needs an argument";
            return false;
        }
        if (a == "--workload") {
            cli.workload = argv[++i];
        } else if (a == "--seed") {
            char* end = nullptr;
            cli.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0') {
                err = "--seed must be a non-negative integer";
                return false;
            }
        } else if (a == "--seconds") {
            cli.seconds = std::atof(argv[++i]);
            if (cli.seconds < 0) {
                err = "--seconds must be non-negative";
                return false;
            }
        } else if (a == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") {
                err = "--trace must be 0 or 1";
                return false;
            }
            cli.trace = v == "1";
        } else if (a == "--tiny") {
            cli.tiny = true;
        } else {
            err = "unknown option: " + a;
            return false;
        }
    }
    if (!isSwitchWorkload(cli.workload) && !isLanWorkload(cli.workload)) {
        err = "unknown workload '" + cli.workload + "'";
        return false;
    }
    return true;
}

/** Repeats `rep` until `seconds` have passed (at least once). */
template <typename Rep, typename F>
std::vector<Rep>
repeatFor(double seconds, F&& rep)
{
    std::vector<Rep> reps;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(seconds * 1e9);
    do {
        reps.push_back(rep(reps.size()));
    } while (nowNs() < deadline);
    return reps;
}

/** Every rep's simulated stats equal the first's; mismatches go to
    `errors`. */
template <typename Rep>
int
checkRepeats(const std::vector<Rep>& reps, const char* what,
             std::vector<std::string>& errors)
{
    int failed = 0;
    for (size_t r = 1; r < reps.size(); ++r) {
        if (reps[r].sim != reps[0].sim) {
            ++failed;
            errors.push_back(std::string(what) + " rep " +
                             std::to_string(r) +
                             " simulated stats differ from rep 0");
        }
    }
    return failed;
}

void
switchMetrics(const Cli& cli, const std::vector<SwitchRep>& plain,
              const std::vector<SwitchRep>& traced, Metrics& m)
{
    std::vector<double> slot_ns;
    std::vector<double> setups;
    std::vector<double> plain_rates;
    for (const SwitchRep& r : plain) {
        slot_ns.insert(slot_ns.end(), r.chunk_slot_ns.begin(),
                       r.chunk_slot_ns.end());
        setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
        plain_rates.push_back(r.slots_per_s);
    }
    const double slots_per_s = 1e9 / steadyTime(slot_ns);
    const SimStats& sim = plain.front().sim;
    if (!cli.trace) {
        m.put("slots_per_s", slots_per_s, "slots/s");
        m.put("frame_ms", kFrameSlots / slots_per_s * 1e3, "ms");
        m.put("cells_per_s", slots_per_s * plain.front().cells_per_slot,
              "cells/s");
        m.put("setup_s", median(setups), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("mean_delay_slots", sim.at("mean_delay_slots"), "slots");
        m.put("p99_delay_slots", sim.at("p99_delay_slots"), "slots");
        m.put("mean_latency_us", sim.at("mean_delay_slots") * kSlotPs * 1e-6,
              "us");
        return;
    }
    TimedSwitch::Trace t;
    std::vector<double> traced_rates;
    for (const SwitchRep& r : traced) {
        const TimedSwitch::Trace& x = r.trace;
        t.slots += x.slots;
        t.cells_accepted += x.cells_accepted;
        t.traffic_ns += x.traffic_ns;
        t.enqueue_ns += x.enqueue_ns;
        t.match_ns += x.match_ns;
        t.match_calls += x.match_calls;
        t.matched += x.matched;
        t.possible += x.possible;
        t.slot_self_ns += x.slot_self_ns;
        t.metrics_ns += x.metrics_ns;
        t.buffered_sum += x.buffered_sum;
        traced_rates.push_back(static_cast<double>(x.slots) /
                               (static_cast<double>(x.wall_ns) * 1e-9));
    }
    const double total = static_cast<double>(
        t.traffic_ns + t.enqueue_ns + t.match_ns + t.slot_self_ns +
        t.metrics_ns);
    const double slots = static_cast<double>(t.slots);
    auto per = [](int64_t ns, int64_t count) {
        return count > 0 ? static_cast<double>(ns) / static_cast<double>(count)
                         : 0.0;
    };
    m.put("sim.traffic_ns_per_slot", per(t.traffic_ns, t.slots), "ns/slot");
    m.put("sim.traffic_share", t.traffic_ns / total, "share");
    m.put("queueing.enqueue_ns_per_cell", per(t.enqueue_ns, t.cells_accepted),
          "ns/cell");
    m.put("queueing.enqueue_share", t.enqueue_ns / total, "share");
    m.put("matching.match_ns_per_call", per(t.match_ns, t.match_calls),
          "ns/call");
    m.put("matching.calls_per_slot", t.match_calls / slots, "calls/slot");
    m.put("matching.match_share", t.match_ns / total, "share");
    m.put("matching.match_yield", per(t.matched, t.possible), "share");
    m.put("sim.slot_self_ns_per_slot", per(t.slot_self_ns, t.slots),
          "ns/slot");
    m.put("sim.slot_self_share", t.slot_self_ns / total, "share");
    m.put("sim.metrics_ns_per_slot", per(t.metrics_ns, t.slots), "ns/slot");
    m.put("sim.metrics_share", t.metrics_ns / total, "share");
    m.put("queueing.buffered_cells_mean", t.buffered_sum / slots, "cells");
    // Whole-rep rates on both sides: plain and traced reps alternate, so
    // both medians see the same host states.
    m.put("bench.trace_overhead",
          median(plain_rates) / median(traced_rates) - 1.0, "share");
}

void
lanMetrics(const Cli& cli, const LanWorkload& w,
           const std::vector<LanRep>& plain,
           const std::vector<LanRep>& traced, Metrics& m)
{
    std::vector<double> frames;
    std::vector<double> setups;
    for (const LanRep& r : plain) {
        frames.insert(frames.end(), r.frame_ms.begin(), r.frame_ms.end());
        setups.push_back(r.topology_s + r.lan_build_s + r.place_vbr_s +
                         r.place_cbr_s);
    }
    const double frame_ms = steadyTime(frames);
    const SimStats& sim = plain.front().sim;
    const LanRep& first = plain.front();
    if (!cli.trace) {
        m.put("slots_per_s", kFrameSlots / (frame_ms * 1e-3), "slots/s");
        m.put("frame_ms", frame_ms, "ms");
        m.put("cells_per_s",
              sim.at("delivered") / w.frames / (frame_ms * 1e-3), "cells/s");
        m.put("setup_s", median(setups), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("mean_delay_slots", sim.at("mean_wall_latency_ps") / kSlotPs,
              "slots");
        m.put("p99_delay_slots", sim.at("p99_flow_delay_slots"), "slots");
        m.put("mean_latency_us", sim.at("mean_wall_latency_ps") * 1e-6, "us");
        return;
    }
    std::vector<double> topology, build, vbr, cbr, own, one, four;
    int64_t windows = 0;
    double window_ms = 0.0;
    double frame_max = 0.0;
    for (const LanRep& r : traced) {
        topology.push_back(r.topology_s);
        build.push_back(r.lan_build_s);
        vbr.push_back(r.place_vbr_s);
        cbr.push_back(r.place_cbr_s);
        own.insert(own.end(), r.frame_ms.begin(), r.frame_ms.end());
        one.insert(one.end(), r.frame_ms_1shard.begin(),
                   r.frame_ms_1shard.end());
        four.insert(four.end(), r.frame_ms_4shard.begin(),
                    r.frame_ms_4shard.end());
        windows += r.windows;
        window_ms += r.window_frames_ms;
    }
    for (double f : own)
        frame_max = std::max(frame_max, f);
    const double window_frame_count = static_cast<double>(
        w.threads > 1 ? own.size() : one.size());
    m.put("topo.topology_s", median(topology), "s");
    m.put("topo.lan_build_s", median(build), "s");
    m.put("topo.place_vbr_s", median(vbr), "s");
    m.put("cbr.place_cbr_s", median(cbr), "s");
    m.put("topo.frame_ms_max", frame_max, "ms");
    m.put("network.ns_per_node_slot",
          median(own) * 1e6 / (first.nodes * kFrameSlots), "ns/node-slot");
    m.put("network.cells_forwarded_per_frame",
          sim.at("cells_forwarded_per_frame"), "cells");
    m.put("topo.windows_per_frame",
          static_cast<double>(windows) / window_frame_count, "count");
    m.put("topo.us_per_window",
          windows > 0 ? window_ms * 1e3 / static_cast<double>(windows) : 0.0,
          "us");
    m.put("topo.frame_ms_1shard", median(one), "ms");
    m.put("topo.frame_ms_4shard", median(four), "ms");
    m.put("topo.parallel_speedup", median(one) / median(four), "ratio");
    m.put("bench.trace_overhead", median(own) / median(frames) - 1.0,
          "share");
}

void
printJsonString(const std::string& s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        std::putchar(c);
    }
    std::putchar('"');
}

void
printResult(const Cli& cli, int reps, int failed,
            const std::vector<std::string>& errors, const SimStats& sim,
            const Metrics& m)
{
    std::printf("{\"workload\": ");
    printJsonString(cli.workload);
    std::printf(", \"seed\": %" PRIu64 ", \"trace\": %d, \"tiny\": %s",
                cli.seed, cli.trace ? 1 : 0, cli.tiny ? "true" : "false");
    std::printf(", \"reps\": %d, \"failed\": %d, \"errors\": [", reps,
                failed);
    for (size_t i = 0; i < errors.size(); ++i) {
        if (i)
            std::printf(", ");
        printJsonString(errors[i]);
    }
    std::printf("], \"sim\": {");
    bool sep = false;
    for (const auto& [k, v] : sim) {
        std::printf("%s", sep ? ", " : "");
        printJsonString(k);
        std::printf(": %.17g", v);
        sep = true;
    }
    std::printf("}, \"metrics\": {");
    sep = false;
    for (const auto& [name, vu] : m.rows) {
        std::printf("%s", sep ? ", " : "");
        printJsonString(name);
        std::printf(": {\"value\": %.17g, \"unit\": ", vu.first);
        printJsonString(vu.second);
        std::printf("}");
        sep = true;
    }
    std::printf("}}\n");
}

template <typename Rep, typename RunRep>
int
runWorkload(const Cli& cli, RunRep&& run_rep,
            const std::function<void(const std::vector<Rep>&,
                                     const std::vector<Rep>&, Metrics&)>&
                metrics)
{
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    std::vector<std::string> errors;
    int failed = 0;
    // Traced runs alternate plain and traced reps, so the overhead ratio
    // compares reps made under the same host conditions.
    repeatFor<int>(cli.seconds, [&](size_t r) {
        const bool trace_this = cli.trace && r % 2 == 1;
        (trace_this ? traced : plain).push_back(run_rep(trace_this));
        return 0;
    });
    if (cli.trace && traced.empty())
        traced.push_back(run_rep(true));
    failed += checkRepeats(plain, "plain", errors);
    for (size_t r = 0; r < traced.size(); ++r) {
        if (traced[r].sim != plain.front().sim) {
            ++failed;
            errors.push_back("traced rep " + std::to_string(r) +
                             " simulated stats differ from the plain run");
        }
    }
    Metrics m;
    metrics(plain, traced, m);
    printResult(cli, static_cast<int>(plain.size() + traced.size()), failed,
                errors, plain.front().sim, m);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    std::string err;
    if (!parseCli(argc, argv, cli, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--tiny]\n",
                     argv[0]);
        return 2;
    }
    try {
        if (isSwitchWorkload(cli.workload)) {
            const SwitchWorkload w = switchWorkload(cli.workload, cli.tiny);
            return runWorkload<SwitchRep>(
                cli,
                [&](bool traced) { return runSwitchRep(w, cli.seed, traced); },
                [&](const std::vector<SwitchRep>& p,
                    const std::vector<SwitchRep>& t, Metrics& m) {
                    switchMetrics(cli, p, t, m);
                });
        }
        const LanWorkload w = lanWorkload(cli.workload, cli.tiny);
        return runWorkload<LanRep>(
            cli, [&](bool traced) { return runLanRep(w, cli.seed, traced); },
            [&](const std::vector<LanRep>& p, const std::vector<LanRep>& t,
                Metrics& m) { lanMetrics(cli, w, p, t, m); });
    } catch (const std::exception& e) {
        // An AN2_ASSERT / AN2_REQUIRE inside the model: the output is
        // wrong, so no result is printed.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    }
}
