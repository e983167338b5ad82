/**
 * @file
 * The repository benchmark program. It runs one named workload over
 * the sweep grid library's public API for a fixed host-time budget,
 * checks every row, and prints its metrics; the last line of
 * standard output is one JSON object (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--expected FILE] [--scratch DIR] [--digest-only]
 *
 * Untraced passes call service::runItem (or drive a SweepService)
 * exactly as sweep_runner and sweep_service do. The traced pass runs
 * the same items through the same public classes with every layer
 * timed from outside (layers.hh), and must reproduce the untraced
 * rows byte for byte.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/log.hh"
#include "common/snapshot.hh"
#include "isa/interpreter.hh"
#include "layers.hh"
#include "litmus/codegen.hh"
#include "litmus/shapes.hh"
#include "mem/main_memory.hh"
#include "multiscalar/checkpoint.hh"
#include "multiscalar/processor.hh"
#include "service/grid.hh"
#include "service/job_journal.hh"
#include "service/service.hh"
#include "svc/corruptor.hh"
#include "svc/invariants.hh"
#include "svc/system.hh"
#include "trace_io/stimulus_cli.hh"
#include "workloads/workloads.hh"

namespace perfbench
{
namespace
{

using namespace svc;
using service::ItemResult;
using service::SweepItem;

// ---- Fixed workload shape (see README.md for the choices) ----

/** Scale of the fig19/fig20 items: long enough to time each one. */
constexpr unsigned kPaperScale = 2;
constexpr unsigned kRecoveryScale = 1;
/** Litmus iterations per cell: every SVC iteration takes at least
 *  one last-good capture, so a short campaign already exercises the
 *  snapshot layer the workload exists for. 24 is the least that lets
 *  the two-thread shapes reach a corruption kind of the fault mix. */
constexpr std::uint64_t kLitmusIters = 24;
constexpr unsigned kServiceScale = 4;
constexpr Cycle kServiceSlice = 5000;
constexpr unsigned kServiceWorkers = 2;
/** Canonical seeds the benchmark seed offsets. */
constexpr std::uint64_t kBaseBenchSeed = 12345;
/** Recovery cells offset their seed by a multiple of 15, so each
 *  cell keeps its corruption count (seed % 3) and first corruption
 *  cycle (seed % 5) and only the data and fault draws change. */
constexpr std::uint64_t kRecoverySeedStride = 60;

/** Set-up sampling: a first window, then one after every pass. */
constexpr double kFirstSetupSeconds = 0.2;
constexpr double kPassSetupSeconds = 0.05;
constexpr int kSnapshotReps = 40;
constexpr int kJournalProbeRecords = 120;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (user+sys, all threads). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/** Linear-interpolated quantile @p q of @p v (0 if empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

std::uint64_t
rowsDigest(const std::vector<std::string> &rows)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &row : rows) {
        h = snapshotFnv1a(row.data(), row.size(), h);
        h = snapshotFnv1a("\n", 1, h);
    }
    return h;
}

/** The integer after "key": in a compact JSON row (0 if absent). */
std::uint64_t
rowField(const std::string &row, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = row.find(needle);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(row.c_str() + at + needle.size(), nullptr, 10);
}

/** Every layer clock and exact count of the traced pass. */
struct Layers
{
    LayerClock build, multiscalar, svcMem, arbMem, isa, recovery;
    LayerClock protocolCheck, systemCheck, wakeCheck;
    LayerClock litmusSvc, litmusArb, serviceStart, serviceDrain;
    SpecMemCounts svcCounts, arbCounts;
    std::uint64_t svcCycles = 0, arbCycles = 0;
    std::uint64_t checkerCalls = 0, checkAnchors = 0;
    std::uint64_t captures = 0, rollbacks = 0, episodes = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t litmusFaults = 0, litmusEpisodes = 0;

    /** Sum of every clock's self time. */
    double
    selfSeconds() const
    {
        double s = 0.0;
        for (const LayerClock *c :
             {&build, &multiscalar, &svcMem, &arbMem, &isa, &recovery,
              &protocolCheck, &systemCheck, &wakeCheck, &litmusSvc,
              &litmusArb, &serviceStart, &serviceDrain})
            s += c->selfSeconds();
        return s;
    }
};

/** A span only when tracing (layers non-null). */
class MaybeSpan
{
  public:
    MaybeSpan(Layers *layers, LayerClock Layers::*clock)
    {
        if (layers)
            span.emplace(layers->*clock);
    }

  private:
    std::optional<Span> span;
};

/** One pass over a workload's fixed item set. */
struct Pass
{
    std::vector<std::string> rows;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> itemMs;  ///< serial workloads only
    std::vector<double> itemCpu; ///< process CPU s per item, likewise
    double wall = 0.0;           ///< item phase (service: drain)
    double cpu = 0.0;            ///< process CPU over the item phase
    double tracedWall = 0.0;     ///< whole traced pass
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<double> recoveredIpc;
    std::uint64_t litmusIters = 0;
    service::ServiceCounters counters;
    std::uint64_t journalRecords = 0;
};

/** The stimulus grid.cc's bench items open for @p it. */
std::unique_ptr<workloads::StimulusSource>
openStimulus(const SweepItem &it)
{
    trace_io::StimulusOptions so;
    so.workload = it.workload;
    so.traceIn = it.tracePath;
    so.scale = it.scale;
    so.seed = it.seed;
    return trace_io::makeStimulus(so, it.workload);
}

std::uint32_t
interpreterChecksum(const isa::Program &program, Addr check_base,
                    Layers &layers)
{
    Span s(layers.isa);
    MainMemory mem;
    const auto res = isa::Interpreter::run(program, mem, 2'000'000'000);
    if (!res.halted)
        fatal("perfbench: reference interpreter run did not halt");
    return mem.readWord(check_base);
}

// ---- Traced item runners: the grid library's item paths, built
//      from the same public classes with every layer decorated ----

ItemResult
tracedBench(const SweepItem &it, Layers &layers)
{
    std::unique_ptr<workloads::StimulusSource> stim;
    {
        Span s(layers.build);
        stim = openStimulus(it);
    }
    if (!stim->program())
        fatal("perfbench: bench item '%s' has no program",
              it.id.c_str());
    const bool svc_backend = it.memKind == "svc";
    MainMemory mem;
    std::unique_ptr<SpecMem> inner = makeSpecMem(it.memKind, it.cfg, mem);
    TimedSpecMem sys(*inner,
                     svc_backend ? layers.svcMem : layers.arbMem,
                     svc_backend ? layers.svcCounts : layers.arbCounts);
    stim->loadInitialImage(mem);
    Processor cpu(bench::paperCpuConfig(), *stim->program(), sys);
    RunStats rs;
    {
        Span s(layers.multiscalar);
        rs = cpu.run();
    }
    sys.finalizeMemory();
    (svc_backend ? layers.svcCycles : layers.arbCycles) += rs.cycles;

    ItemResult r;
    bench::BenchRow &row = r.row;
    row.workload = stim->name();
    row.memSystem = sys.name();
    row.kind = "program";
    row.scale = stim->scale();
    row.seed = stim->seed();
    row.ipc = rs.ipc;
    row.instructions = rs.committedInstructions;
    row.cycles = rs.cycles;
    row.violationSquashes = rs.violationSquashes;
    row.taskMispredicts = rs.taskMispredicts;
    row.verified = mem.readWord(stim->checkBase()) ==
                   interpreterChecksum(*stim->program(),
                                       stim->checkBase(), layers);
    row.missRatio = sys.missRatio();
    const StatSet st = sys.stats();
    if (st.has("bus.utilization"))
        row.busUtilization = st.get("bus.utilization");
    return r;
}

ItemResult
tracedRecovery(const SweepItem &it, Layers &layers)
{
    ItemResult r;
    const workloads::Workload w = [&] {
        Span s(layers.build);
        workloads::WorkloadParams wp;
        wp.scale = it.scale;
        wp.seed = it.seed;
        return workloads::lookup(it.workload, wp);
    }();
    const std::uint32_t ref_checksum =
        interpreterChecksum(w.program, w.checkBase, layers);
    const SvcConfig svc_cfg = bench::paperSvcConfig(8);

    {
        MainMemory mem;
        SvcSystem sys(svc_cfg, mem);
        TimedSpecMem timed(sys, layers.svcMem, layers.svcCounts);
        w.program.loadInto(mem);
        Processor cpu(bench::paperCpuConfig(), w.program, timed);
        RunStats rs;
        {
            Span s(layers.multiscalar);
            rs = cpu.run();
        }
        timed.finalizeMemory();
        layers.svcCycles += rs.cycles;
        r.refIpc = rs.ipc;
    }

    MainMemory mem;
    SvcSystem sys(svc_cfg, mem);
    FaultConfig fcfg;
    fcfg.seed = it.seed * 7919 + 1;
    FaultInjector inj(fcfg);
    // SvcSystem::attachInvariants, with each checker decorated.
    InvariantEngine eng;
    eng.addChecker(std::make_unique<TimedChecker>(
        std::make_unique<SvcProtocolChecker>(sys.protocol()),
        layers.protocolCheck, layers.checkerCalls));
    eng.addChecker(std::make_unique<TimedChecker>(
        std::make_unique<SvcSystemChecker>(sys), layers.systemCheck,
        layers.checkerCalls));
    eng.addChecker(std::make_unique<TimedChecker>(
        std::make_unique<SvcLostWakeupChecker>(sys), layers.wakeCheck,
        layers.checkerCalls));
    sys.attachTracer(&eng);
    TimedSpecMem timed(sys, layers.svcMem, layers.svcCounts);
    w.program.loadInto(mem);
    Processor cpu(bench::paperCpuConfig(), w.program, timed);
    RecoveryConfig rcfg;
    rcfg.policy = it.policy;
    RecoveryManager rm(rcfg, cpu, sys, mem, eng, nullptr, 0x5ecu);
    SvcCorruptor corruptor(sys.protocol(), inj);

    struct Event
    {
        Cycle at;
        bool fired = false;
    };
    std::vector<Event> schedule;
    const Cycle first = 300 + (it.seed % 5) * 137;
    for (unsigned i = 0; i < it.corruptions; ++i)
        schedule.push_back({first + i * 400});
    cpu.setTickHook([&](Cycle at) {
        for (Event &e : schedule) {
            if (e.fired || at < e.at)
                continue;
            if (corruptor.corrupt(it.faultKind).injected) {
                e.fired = true;
                ++r.injectedCount;
                eng.runChecks(at);
            }
            break;
        }
        Span s(layers.recovery);
        rm.onTick(at);
    });

    RunStats rs;
    {
        Span s(layers.multiscalar);
        rs = cpu.run();
    }
    timed.finalizeMemory();
    eng.runFinalChecks();
    layers.svcCycles += rs.cycles;
    layers.checkAnchors += eng.checksRun();
    layers.captures += rm.nCheckpoints;
    layers.rollbacks += rm.nRollbacks;
    layers.episodes += rm.nEpisodes;
    layers.deferrals += rm.nCommitDeferrals;

    r.ipc = rs.ipc;
    r.episodes = rm.nEpisodes;
    r.repairs = rm.nLineRepairs;
    r.replays = rm.nTaskReplays;
    r.rollbacks = rm.nRollbacks;
    r.degraded = rm.degraded();
    r.highestStage = rm.highestStageReached();
    r.recovered = rs.halted && eng.clean() &&
                  mem.readWord(w.checkBase) == ref_checksum;
    return r;
}

litmus::EngineConfig
litmusConfig(const SweepItem &it)
{
    litmus::EngineConfig cfg;
    cfg.backend = it.litmusBackend;
    cfg.design = it.litmusDesign;
    cfg.iterations = it.litmusIters;
    cfg.seed = it.seed;
    cfg.faultMode = it.litmusFaults ? litmus::FaultMode::Mix
                                    : litmus::FaultMode::None;
    return cfg;
}

ItemResult
tracedLitmus(const SweepItem &it, Layers &layers)
{
    const litmus::LitmusTest *test = litmus::findShape(it.workload);
    if (!test)
        fatal("perfbench: unknown litmus shape '%s'",
              it.workload.c_str());
    ItemResult r;
    {
        Span s(it.litmusBackend == litmus::Backend::Svc
                   ? layers.litmusSvc
                   : layers.litmusArb);
        r.litmus = litmus::runShape(*test, litmusConfig(it));
    }
    layers.litmusFaults += r.litmus.injected;
    layers.litmusEpisodes += r.litmus.episodes;
    return r;
}

ItemResult
tracedItem(const SweepItem &it, Layers &layers)
{
    switch (it.kind) {
    case SweepItem::Bench:
        return tracedBench(it, layers);
    case SweepItem::Recovery:
        return tracedRecovery(it, layers);
    case SweepItem::Litmus:
        return tracedLitmus(it, layers);
    default:
        fatal("perfbench: no traced runner for item '%s'",
              it.id.c_str());
    }
}

// ---- Direct layer probes ----

struct SnapshotProbe
{
    double captureUs = 0.0;
    double restoreUs = 0.0;
    std::uint64_t imageBytes = 0;
};

/**
 * Median saveCheckpoint/restoreCheckpoint time for @p program on an
 * SVC of @p svc_cfg, captured at the first quiescent cycle at or
 * after @p warm_cycles (or at the end of a shorter run).
 */
SnapshotProbe
probeSnapshot(const isa::Program &program, const SvcConfig &svc_cfg,
              const MultiscalarConfig &cpu_cfg, Cycle warm_cycles)
{
    MainMemory mem;
    SvcSystem sys(svc_cfg, mem);
    program.loadInto(mem);
    Processor cpu(cpu_cfg, program, sys);
    while (!cpu.done() &&
           (cpu.now() < warm_cycles || !cpu.checkpointQuiescent()))
        cpu.tick();
    const std::uint64_t hash = checkpointConfigHash(cpu_cfg, sys.name());
    std::vector<std::uint8_t> image;
    std::vector<double> capture, restore;
    std::string err;
    for (int i = 0; i < kSnapshotReps; ++i) {
        image.clear();
        const double t0 = wallNow();
        if (!saveCheckpoint(cpu, sys, mem, nullptr, hash, false, image,
                            err))
            fatal("perfbench: snapshot probe capture failed: %s",
                  err.c_str());
        capture.push_back(wallNow() - t0);
    }
    for (int i = 0; i < kSnapshotReps; ++i) {
        const double t0 = wallNow();
        if (!restoreCheckpoint(image, cpu, sys, mem, nullptr, hash, err))
            fatal("perfbench: snapshot probe restore failed: %s",
                  err.c_str());
        restore.push_back(wallNow() - t0);
    }
    return {median(capture) * 1e6, median(restore) * 1e6, image.size()};
}

/** p50/p90 microseconds of the service's STRT and CMPL appends
 *  (@p rows as CMPL payloads) on a fresh journal at @p path. */
std::pair<double, double>
probeJournal(const std::vector<std::string> &rows,
             const std::string &path)
{
    std::filesystem::remove(path);
    service::JobJournal journal;
    std::string err;
    if (!journal.open(path, err))
        fatal("perfbench: journal probe: %s", err.c_str());
    std::vector<double> us;
    for (int i = 0; i < kJournalProbeRecords / 2; ++i) {
        const std::string &row = rows[i % rows.size()];
        double t0 = wallNow();
        bool ok = journal.appendStart(i, 1, err);
        us.push_back((wallNow() - t0) * 1e6);
        t0 = wallNow();
        ok = ok && journal.appendComplete(i, false, row, err);
        us.push_back((wallNow() - t0) * 1e6);
        if (!ok)
            fatal("perfbench: journal probe: %s", err.c_str());
    }
    journal.close();
    std::filesystem::remove(path);
    return {quantile(us, 0.5), quantile(us, 0.9)};
}

// ---- Workloads ----

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool digestOnly = false;
    std::string expected;
    std::string scratch = ".bench_build/perfbench-scratch";
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Grid expansion and stimulus construction (timed as set-up). */
    virtual void setup() = 0;
    /** One pass over the item set; traced when @p layers is set. */
    virtual Pass run(Layers *layers) = 0;
    /** Snapshot probe on this workload's own configuration. */
    virtual SnapshotProbe snapshotProbe() = 0;
    /** Traced-run extras (the service's serial reference). */
    virtual double serialReferenceCpu() { return 0.0; }
    /** Which per-layer metrics read 0 on this workload, and why. */
    virtual const char *zeroLayers() const = 0;
};

/** Compress on the paper's SVC, the bench and recovery probe. */
SnapshotProbe
compressSnapshotProbe(unsigned scale, std::uint64_t seed)
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    wp.seed = seed;
    const workloads::Workload w = workloads::lookup("compress", wp);
    return probeSnapshot(w.program, bench::paperSvcConfig(8),
                         bench::paperCpuConfig(), 2000);
}

/**
 * Pins this thread to the next of the CPUs it may run on, in turn.
 * On a shared host one CPU can stay slowed by a neighbour for minutes;
 * moving each pass to the next CPU lets every item's fastest run
 * (fastestPass) come from the least disturbed one. Best effort: a
 * host that refuses the pin leaves the thread where it is.
 */
void
pinToNextCpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
            }
        }
        return v;
    }();
    static std::size_t next = 0;
    if (cpus.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

/** A serial workload: one grid item at a time on this thread. */
class SerialWorkload : public Workload
{
  public:
    explicit SerialWorkload(std::uint64_t seed) : seed(seed) {}

    Pass
    run(Layers *layers) override
    {
        Pass p;
        pinToNextCpu();
        const double c0 = cpuNow();
        const double t0 = wallNow();
        for (const SweepItem &it : items) {
            const double i0 = wallNow();
            const double ic0 = cpuNow();
            const ItemResult r =
                layers ? tracedItem(it, *layers) : service::runItem(it);
            p.itemMs.push_back((wallNow() - i0) * 1e3);
            p.itemCpu.push_back(cpuNow() - ic0);
            p.rows.push_back(service::renderRow(it, r));
            const std::string why = service::rowFailure(it, r);
            if (!why.empty()) {
                ++p.failed;
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             it.id.c_str(), why.c_str());
            }
            p.cycles += r.row.cycles;
            p.instructions += r.row.instructions;
            if (it.kind == SweepItem::Recovery)
                p.recoveredIpc.push_back(r.ipc);
            p.litmusIters += r.litmus.iterations;
        }
        p.wall = wallNow() - t0;
        p.cpu = cpuNow() - c0;
        p.tracedWall = p.wall;
        p.attempted = items.size();
        return p;
    }

  protected:
    std::uint64_t seed;
    std::vector<SweepItem> items;
};

/** fig19 + fig20, every item verified against the interpreter. */
class PaperIpc : public SerialWorkload
{
  public:
    using SerialWorkload::SerialWorkload;

    void
    setup() override
    {
        trace_io::StimulusOptions stim;
        stim.seed = kBaseBenchSeed + seed;
        stim.seedSet = true;
        items = service::buildGrid("fig19", kPaperScale, stim);
        const auto fig20 = service::buildGrid("fig20", kPaperScale, stim);
        items.insert(items.end(), fig20.begin(), fig20.end());
        for (const SweepItem &it : items) {
            if (!openStimulus(it)->program())
                fatal("perfbench: '%s' has no program", it.id.c_str());
        }
    }

    SnapshotProbe
    snapshotProbe() override
    {
        return compressSnapshotProbe(kPaperScale, kBaseBenchSeed + seed);
    }

    const char *
    zeroLayers() const override
    {
        return "invariants.*, recovery.*, litmus.*, service.*, "
               "journal.records: not run by this workload";
    }
};

/** The recovery grid: checked, recovered compress cells. */
class RecoveryChecked : public SerialWorkload
{
  public:
    using SerialWorkload::SerialWorkload;

    void
    setup() override
    {
        items = service::buildGrid("recovery", kRecoveryScale, {});
        for (SweepItem &it : items) {
            it.seed += kRecoverySeedStride * seed;
            workloads::WorkloadParams wp;
            wp.scale = it.scale;
            wp.seed = it.seed;
            workloads::lookup(it.workload, wp);
        }
    }

    SnapshotProbe
    snapshotProbe() override
    {
        return compressSnapshotProbe(kRecoveryScale,
                                     1 + kRecoverySeedStride * seed);
    }

    const char *
    zeroLayers() const override
    {
        return "arb.*, litmus.*, service.*, journal.records: not run by "
               "this workload";
    }
};

/** The litmus grid under the fault mix, oracle-checked. */
class LitmusFaults : public SerialWorkload
{
  public:
    using SerialWorkload::SerialWorkload;

    void
    setup() override
    {
        items = service::buildGrid("litmus", 1, {});
        for (SweepItem &it : items) {
            it.litmusIters = kLitmusIters;
            it.seed = kBaseBenchSeed + seed;
            const litmus::LitmusTest *test =
                litmus::findShape(it.workload);
            if (!test)
                fatal("perfbench: unknown litmus shape '%s'",
                      it.workload.c_str());
            litmus::buildProgram(*test, litmus::taskOrderByIndex(*test, 0));
        }
    }

    SnapshotProbe
    snapshotProbe() override
    {
        // The engine's processor rail: default SVC design point, its
        // own cycle cap, capture at the first quiescent cycle as its
        // recovery manager does.
        const litmus::LitmusTest *test = litmus::findShape("MP");
        const litmus::LitmusProgram prog =
            litmus::buildProgram(*test, litmus::taskOrderByIndex(*test, 0));
        MultiscalarConfig mcfg;
        mcfg.maxCycles = 2'000'000;
        mcfg.watchdogFatal = false;
        return probeSnapshot(prog.program, makeDesign(SvcDesign::Final),
                             mcfg, 0);
    }

    const char *
    zeroLayers() const override
    {
        return "multiscalar.*, svc.*, arb.*, isa.*, workloads.*, "
               "invariants.*, recovery.*: run inside litmus::runShape, "
               "which builds its own components, so not measurable from "
               "outside; service.*, journal.records: not run by this "
               "workload";
    }
};

/** The fig19 grid as one preemptive SweepService campaign. */
class ServiceWorkload : public Workload
{
  public:
    ServiceWorkload(std::uint64_t seed, const std::string &scratch)
    {
        cfg.journalPath = scratch + "/service.journal";
        cfg.quarantinePrefix = scratch + "/quarantine";
        cfg.grid = "fig19";
        cfg.scale = kServiceScale;
        cfg.stim.seed = kBaseBenchSeed + seed;
        cfg.stim.seedSet = true;
        cfg.workers = kServiceWorkers;
        cfg.sliceCycles = kServiceSlice;
        cfg.isolation = service::Isolation::Thread;
    }

    void
    setup() override
    {
        std::filesystem::remove(cfg.journalPath);
        service::SweepService svc(cfg);
        start(svc);
    }

    Pass
    run(Layers *layers) override
    {
        Pass p;
        const double t0 = wallNow();
        std::filesystem::remove(cfg.journalPath);
        service::SweepService svc(cfg);
        {
            MaybeSpan s(layers, &Layers::serviceStart);
            start(svc);
        }
        const double c0 = cpuNow();
        const double d0 = wallNow();
        bool drained = false;
        {
            MaybeSpan s(layers, &Layers::serviceDrain);
            drained = svc.drain();
        }
        p.wall = wallNow() - d0;
        p.cpu = cpuNow() - c0;

        const std::uint64_t n = svc.campaign().itemCount;
        p.rows = svc.completedRows();
        p.counters = svc.counters();
        p.attempted = n;
        p.failed = svc.failedJobs() + p.counters.quarantined +
                   (n - std::min<std::uint64_t>(n, p.rows.size()));
        if (!drained || svc.crashed()) {
            std::fprintf(stderr, "perfbench: service did not drain: %s\n",
                         svc.crashReason().c_str());
            p.failed = n;
        }
        for (const std::string &row : p.rows) {
            p.cycles += rowField(row, "cycles");
            p.instructions += rowField(row, "instructions");
        }
        p.journalRecords =
            scanJournalFile(cfg.journalPath).records.size();
        p.tracedWall = wallNow() - t0;
        return p;
    }

    SnapshotProbe
    snapshotProbe() override
    {
        return compressSnapshotProbe(kServiceScale, cfg.stim.seed);
    }

    const char *
    zeroLayers() const override
    {
        return "multiscalar.*, svc.*, arb.*, isa.*, workloads.*: run "
               "inside the service's worker attempts, so not measurable "
               "from outside; invariants.*, recovery.*, litmus.*: not run "
               "by this workload";
    }

    double
    serialReferenceCpu() override
    {
        const double c0 = cpuNow();
        for (const SweepItem &it :
             service::buildGrid(cfg.grid, cfg.scale, cfg.stim))
            service::runItem(it);
        return cpuNow() - c0;
    }

  private:
    void
    start(service::SweepService &svc)
    {
        std::string err;
        if (!svc.start(err))
            fatal("perfbench: service start failed: %s", err.c_str());
    }

    service::ServiceConfig cfg;
};

// ---- Reporting ----

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** The committed digest for (@p workload, @p seed), if any. */
std::optional<std::string>
expectedDigest(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    if (path.empty())
        return std::nullopt;
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read expected digests '%s'",
              path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string w, digest;
        std::uint64_t s = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> w >> s >> digest))
            continue;
        if (w == workload && s == seed)
            return digest;
    }
    return std::nullopt;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_ipc|recovery_checked|litmus_faults|"
                 "service_sliced --seed N --seconds S --trace 0|1 "
                 "[--expected FILE] [--scratch DIR] [--digest-only]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--digest-only") {
            o.digestOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage("--seed needs an unsigned integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds needs a positive number");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace needs 0 or 1");
            o.trace = v[0] == '1';
        } else if (a == "--expected") {
            o.expected = v;
        } else if (a == "--scratch") {
            o.scratch = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload != "paper_ipc" && o.workload != "recovery_checked" &&
        o.workload != "litmus_faults" && o.workload != "service_sliced")
        usage("unknown or missing --workload");
    return o;
}

/** Rows of @p p that differ from @p base (by position). */
std::uint64_t
rowMismatches(const std::vector<std::string> &base, const Pass &p)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < std::max(base.size(), p.rows.size());
         ++i) {
        if (i >= base.size() || i >= p.rows.size() ||
            base[i] != p.rows[i])
            ++n;
    }
    return n;
}

/** Row checks over every pass; see README.md "Seeds and correctness". */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::string digestNote;
};

Verdict
checkRows(const Options &opt, const std::vector<Pass> &passes,
          const std::optional<Pass> &traced)
{
    Verdict v;
    const std::vector<std::string> &base = passes.front().rows;
    std::uint64_t mismatched = 0;
    for (const Pass &p : passes) {
        v.attempted += p.attempted;
        v.failed += p.failed;
        mismatched += rowMismatches(base, p);
    }
    if (traced) {
        v.attempted += traced->attempted;
        v.failed += traced->failed;
        const std::uint64_t m = rowMismatches(base, *traced);
        if (m)
            std::fprintf(stderr, "perfbench: traced rows differ from "
                                 "untraced rows (%" PRIu64 ")\n", m);
        mismatched += m;
    }
    v.digest = hex64(rowsDigest(base));
    const auto want = expectedDigest(opt.expected, opt.workload, opt.seed);
    if (!want) {
        v.digestNote =
            "no committed digest for this seed: determinism checks only";
    } else if (*want == v.digest) {
        v.digestNote = "matches the committed digest";
    } else {
        std::fprintf(stderr,
                     "perfbench: %s seed %" PRIu64 " rows digest %s, "
                     "expected %s\n", opt.workload.c_str(), opt.seed,
                     v.digest.c_str(), want->c_str());
        v.digestNote = "DIFFERS from the committed digest";
        mismatched += base.size();
    }
    if (mismatched)
        std::fprintf(stderr, "perfbench: %" PRIu64
                     " rows differ across passes or from the digest\n",
                     mismatched);
    v.failed = std::min(v.failed + mismatched, v.attempted);
    return v;
}

/** Wall and CPU seconds of one pass, as free of interference as the run
 *  shows it. Interference on a shared host only ever adds time, and it
 *  comes and goes within seconds, so the fastest timing is far steadier
 *  from run to run than a median. Serial workloads time every item, so
 *  each item contributes its fastest run; the service gives its
 *  fastest pass. */
std::pair<double, double>
fastestPass(const std::vector<Pass> &passes)
{
    double wall = passes.front().wall, cpu = passes.front().cpu;
    for (const Pass &p : passes) {
        wall = std::min(wall, p.wall);
        cpu = std::min(cpu, p.cpu);
    }
    const std::size_t items = passes.front().itemCpu.size();
    if (items == 0)
        return {wall, cpu};
    wall = cpu = 0.0;
    for (std::size_t i = 0; i < items; ++i) {
        double w = passes.front().itemMs[i] / 1e3;
        double c = passes.front().itemCpu[i];
        for (const Pass &p : passes) {
            w = std::min(w, p.itemMs[i] / 1e3);
            c = std::min(c, p.itemCpu[i]);
        }
        wall += w;
        cpu += c;
    }
    return {wall, cpu};
}

/** End-to-end metrics that exist on some workloads only (0 elsewhere). */
std::vector<Metric>
partialMetrics(const std::vector<Pass> &passes, const Verdict &v)
{
    std::vector<double> itemMs, kips, itersPerS;
    for (const Pass &p : passes) {
        itemMs.insert(itemMs.end(), p.itemMs.begin(), p.itemMs.end());
        kips.push_back(p.instructions / p.cpu / 1e3);
        itersPerS.push_back(p.litmusIters / p.cpu);
    }
    const Pass &first = passes.front();
    double simIpc = 0.0;
    if (!first.recoveredIpc.empty()) {
        for (double ipc : first.recoveredIpc)
            simIpc += ipc;
        simIpc /= static_cast<double>(first.recoveredIpc.size());
    } else if (first.cycles) {
        simIpc = static_cast<double>(first.instructions) /
                 static_cast<double>(first.cycles);
    }
    return {
        {"item_ms_p50", quantile(itemMs, 0.5), "ms"},
        {"item_ms_p90", quantile(itemMs, 0.9), "ms"},
        {"item_samples", static_cast<double>(itemMs.size()), "count"},
        {"sim_kips", first.instructions ? median(kips) : 0.0, "kinst/s"},
        {"sim_cycles", static_cast<double>(first.cycles), "cycles"},
        {"sim_ipc", simIpc, "ratio"},
        {"litmus_iters_per_s", first.litmusIters ? median(itersPerS) : 0.0,
         "1/s"},
        {"failed_ratio",
         static_cast<double>(v.failed) / static_cast<double>(v.attempted),
         "ratio"},
    };
}

/** Per-layer metrics of the traced pass @p t and the direct probes. */
std::vector<Metric>
layerMetrics(const Layers &layers, const Pass &t, double host_cpu,
             const SnapshotProbe &snap,
             const std::pair<double, double> &journal, double serial_cpu)
{
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const double invariantsS = layers.protocolCheck.totalSeconds() +
                               layers.systemCheck.totalSeconds() +
                               layers.wakeCheck.totalSeconds();
    return {
        {"multiscalar.self_s", layers.multiscalar.selfSeconds(), "s"},
        {"svc.busy_s", layers.svcMem.selfSeconds(), "s"},
        {"arb.busy_s", layers.arbMem.selfSeconds(), "s"},
        {"svc.issue_calls", count(layers.svcCounts.issues), "count"},
        {"arb.issue_calls", count(layers.arbCounts.issues), "count"},
        {"svc.tick_calls", count(layers.svcCounts.ticks), "count"},
        {"arb.tick_calls", count(layers.arbCounts.ticks), "count"},
        {"svc.sim_cycles", count(layers.svcCycles), "cycles"},
        {"arb.sim_cycles", count(layers.arbCycles), "cycles"},
        {"svc.ticks_per_sim_cycle",
         ratio(count(layers.svcCounts.ticks), count(layers.svcCycles)),
         "ratio"},
        {"arb.ticks_per_sim_cycle",
         ratio(count(layers.arbCounts.ticks), count(layers.arbCycles)),
         "ratio"},
        {"svc.issue_accept_ratio",
         ratio(count(layers.svcCounts.accepted),
               count(layers.svcCounts.issues)),
         "ratio"},
        {"arb.issue_accept_ratio",
         ratio(count(layers.arbCounts.accepted),
               count(layers.arbCounts.issues)),
         "ratio"},
        {"isa.interpreter_s", layers.isa.selfSeconds(), "s"},
        {"workloads.build_s", layers.build.selfSeconds(), "s"},
        {"invariants.busy_s", invariantsS, "s"},
        {"invariants.svc_protocol_s", layers.protocolCheck.totalSeconds(),
         "s"},
        {"invariants.svc_system_s", layers.systemCheck.totalSeconds(),
         "s"},
        {"invariants.svc_lost_wakeup_s", layers.wakeCheck.totalSeconds(),
         "s"},
        {"invariants.check_anchors", count(layers.checkAnchors), "count"},
        {"invariants.checker_calls", count(layers.checkerCalls), "count"},
        {"recovery.self_s", layers.recovery.selfSeconds(), "s"},
        {"recovery.captures", count(layers.captures), "count"},
        {"recovery.rollbacks", count(layers.rollbacks), "count"},
        {"recovery.episodes", count(layers.episodes), "count"},
        {"recovery.commit_deferrals", count(layers.deferrals), "count"},
        {"snapshot.capture_us", snap.captureUs, "us"},
        {"snapshot.restore_us", snap.restoreUs, "us"},
        {"snapshot.image_bytes", count(snap.imageBytes), "B"},
        {"litmus.svc_cell_s", layers.litmusSvc.selfSeconds(), "s"},
        {"litmus.arb_cell_s", layers.litmusArb.selfSeconds(), "s"},
        {"litmus.faults_injected", count(layers.litmusFaults), "count"},
        {"litmus.recovery_episodes", count(layers.litmusEpisodes),
         "count"},
        {"service.start_s", layers.serviceStart.selfSeconds(), "s"},
        {"service.drain_s", layers.serviceDrain.selfSeconds(), "s"},
        {"service.attempts", count(t.counters.started), "count"},
        {"service.preemptions", count(t.counters.preemptions), "count"},
        {"service.useful_attempt_ratio",
         ratio(count(t.counters.completed), count(t.counters.started)),
         "ratio"},
        {"service.parallel_efficiency",
         ratio(serial_cpu, kServiceWorkers * t.wall), "ratio"},
        {"journal.records", count(t.journalRecords), "count"},
        {"journal.append_us_p50", journal.first, "us"},
        {"journal.append_us_p90", journal.second, "us"},
        {"trace.overhead_ratio", t.cpu / host_cpu - 1.0, "ratio"},
        {"trace.pass_s", t.tracedWall, "s"},
        {"other_s", t.tracedWall - layers.selfSeconds(), "s"},
    };
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
run(const Options &opt)
{
    std::filesystem::create_directories(opt.scratch);
    std::unique_ptr<Workload> wl;
    if (opt.workload == "paper_ipc")
        wl = std::make_unique<PaperIpc>(opt.seed);
    else if (opt.workload == "recovery_checked")
        wl = std::make_unique<RecoveryChecked>(opt.seed);
    else if (opt.workload == "litmus_faults")
        wl = std::make_unique<LitmusFaults>(opt.seed);
    else
        wl = std::make_unique<ServiceWorkload>(opt.seed, opt.scratch);

    // Set-up samples are taken in short windows spread over the run,
    // so they see the same host conditions as the passes.
    std::vector<double> setup;
    const auto setupWindow = [&](double seconds) {
        const double s0 = wallNow();
        do {
            const double t0 = wallNow();
            wl->setup();
            setup.push_back(wallNow() - t0);
        } while (wallNow() - s0 < seconds);
    };
    setupWindow(kFirstSetupSeconds);

    if (opt.digestOnly) {
        const Pass p = wl->run(nullptr);
        std::printf("%s %" PRIu64 " %s\n", opt.workload.c_str(), opt.seed,
                    hex64(rowsDigest(p.rows)).c_str());
        return p.failed ? 1 : 0;
    }

    // Untraced passes fill the budget (half of it in a traced run).
    std::vector<Pass> passes;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const double m0 = wallNow();
    while (passes.size() < 2 || wallNow() - m0 < budget) {
        passes.push_back(wl->run(nullptr));
        setupWindow(kPassSetupSeconds);
    }
    Layers layers;
    std::optional<Pass> traced;
    if (opt.trace)
        traced = wl->run(&layers);

    const Verdict v = checkRows(opt, passes, traced);
    const bool correct = v.failed == 0;
    std::vector<double> cpu;
    for (const Pass &p : passes)
        cpu.push_back(p.cpu);
    const auto [bestWall, hostCpu] = fastestPass(passes);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // The fastest set-up, for the reason fastestPass gives.
    const std::vector<Metric> e2e = {
        {"items_per_s", passes.front().attempted / bestWall, "1/s"},
        {"host_cpu_s", hostCpu, "s"},
        {"setup_s", *std::min_element(setup.begin(), setup.end()), "s"},
        {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
    };
    const std::vector<Metric> partial = partialMetrics(passes, v);

    std::printf("workload %s seed %" PRIu64 ": %zu passes of %" PRIu64
                " items, rows digest %s (%s)\n",
                opt.workload.c_str(), opt.seed, passes.size(),
                passes.front().attempted, v.digest.c_str(),
                v.digestNote.c_str());
    std::printf("  pass cpu quartiles %.6g %.6g %.6g over %zu passes; "
                "set-up median %.6g s over %zu set-ups\n  cpu by pass:",
                quantile(cpu, 0.25), median(cpu), quantile(cpu, 0.75),
                passes.size(), median(setup), setup.size());
    for (double c : cpu)
        std::printf(" %.4f", c);
    std::printf("\n");
    printMetrics(e2e);
    printMetrics(partial);

    if (!opt.trace) {
        printJson(correct, v.attempted, v.failed, e2e);
        return correct ? 0 : 1;
    }

    std::vector<Metric> pl = layerMetrics(
        layers, *traced, hostCpu, wl->snapshotProbe(),
        probeJournal(passes.front().rows,
                     opt.scratch + "/journal-probe.journal"),
        wl->serialReferenceCpu());
    std::printf("  traced pass: %.6f s, layers %.6f s, other %.6f s\n",
                traced->tracedWall, layers.selfSeconds(),
                traced->tracedWall - layers.selfSeconds());
    printMetrics(pl);
    std::printf("  reads 0 here: %s\n", wl->zeroLayers());
    pl.insert(pl.end(), partial.begin(), partial.end());
    printJson(correct, v.attempted, v.failed, pl);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
