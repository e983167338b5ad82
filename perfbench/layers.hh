/**
 * @file
 * Host-time accounting for the benchmark's traced run, done from
 * outside the program: every layer is timed by wrapping the calls
 * into its public functions, never by code inside src/.
 *
 * A Span charges its wall duration to one LayerClock and, when it
 * runs inside another Span on the same thread, to that span's clock
 * as nested ("child") time. A layer's self time is its inclusive
 * time minus its child time, so the self times of all clocks add up
 * to the wall time the outermost spans cover.
 *
 * The two decorators wrap the layers the program reaches only
 * through an interface: TimedSpecMem forwards every SpecMem virtual
 * (including the event kernel's wake hooks and the checkpoint
 * hooks, so the simulation is unchanged) and TimedChecker forwards an
 * InvariantChecker registered via InvariantEngine::addChecker.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/invariants.hh"
#include "mem/spec_mem.hh"

namespace perfbench
{

/** Host time charged to one layer. */
struct LayerClock
{
    std::int64_t totalNs = 0; ///< inclusive span time
    std::int64_t childNs = 0; ///< part covered by nested spans
    std::uint64_t spans = 0;

    double totalSeconds() const { return totalNs * 1e-9; }
    double selfSeconds() const { return (totalNs - childNs) * 1e-9; }
};

/** RAII span charging its duration to a LayerClock. */
class Span
{
  public:
    explicit Span(LayerClock &clock);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerClock &clock;
    Span *parent;
    std::chrono::steady_clock::time_point start;
};

/** Exact call counts of one decorated memory system. */
struct SpecMemCounts
{
    std::uint64_t issues = 0;   ///< issue() calls
    std::uint64_t accepted = 0; ///< issue() calls that returned true
    std::uint64_t ticks = 0;    ///< tick() calls (elided ticks excluded)
};

/** Forwarding SpecMem decorator timing every call into @p inner. */
class TimedSpecMem : public svc::SpecMem
{
  public:
    TimedSpecMem(svc::SpecMem &inner, LayerClock &clock,
                 SpecMemCounts &counts)
        : inner(inner), clock(clock), counts(counts)
    {}

    void setViolationHandler(ViolationFn fn) override;
    void assignTask(svc::PuId pu, svc::TaskSeq seq) override;
    bool issue(const svc::MemReq &req, DoneFn done) override;
    void commitTask(svc::PuId pu) override;
    void squashTask(svc::PuId pu) override;
    void tick() override;
    bool busyWithRequests() const override;
    svc::StatSet stats() const override { return inner.stats(); }
    const char *name() const override { return inner.name(); }
    void attachTracer(svc::TraceSink *sink) override;
    void finalizeMemory() override;
    double missRatio() const override { return inner.missRatio(); }
    svc::Cycle nextWakeCycle() const override;
    void skipCycles(svc::Cycle n) override;
    bool checkpointQuiescent() const override;
    void saveState(svc::SnapshotWriter &w) const override;
    bool restoreState(svc::SnapshotReader &r) override;

  private:
    svc::SpecMem &inner;
    LayerClock &clock;
    SpecMemCounts &counts;
};

/** Forwarding InvariantChecker decorator timing each check. */
class TimedChecker : public svc::InvariantChecker
{
  public:
    TimedChecker(std::unique_ptr<svc::InvariantChecker> inner,
                 LayerClock &clock, std::uint64_t &calls)
        : inner(std::move(inner)), clock(clock), calls(calls)
    {}

    const char *name() const override { return inner->name(); }
    void check(const svc::InvariantEngine &eng,
               svc::InvariantReport &rep) override;
    void checkFinal(const svc::InvariantEngine &eng,
                    svc::InvariantReport &rep) override;

  private:
    std::unique_ptr<svc::InvariantChecker> inner;
    LayerClock &clock;
    std::uint64_t &calls;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
