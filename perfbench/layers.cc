#include "layers.hh"

namespace perfbench
{

namespace
{

/** Innermost open span on this thread. */
thread_local Span *openSpan = nullptr;

} // namespace

Span::Span(LayerClock &clock)
    : clock(clock), parent(openSpan),
      start(std::chrono::steady_clock::now())
{
    openSpan = this;
}

Span::~Span()
{
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    clock.totalNs += ns;
    ++clock.spans;
    if (parent)
        parent->clock.childNs += ns;
    openSpan = parent;
}

void
TimedSpecMem::setViolationHandler(ViolationFn fn)
{
    Span s(clock);
    inner.setViolationHandler(std::move(fn));
}

void
TimedSpecMem::assignTask(svc::PuId pu, svc::TaskSeq seq)
{
    Span s(clock);
    inner.assignTask(pu, seq);
}

bool
TimedSpecMem::issue(const svc::MemReq &req, DoneFn done)
{
    ++counts.issues;
    Span s(clock);
    const bool ok = inner.issue(req, std::move(done));
    if (ok)
        ++counts.accepted;
    return ok;
}

void
TimedSpecMem::commitTask(svc::PuId pu)
{
    Span s(clock);
    inner.commitTask(pu);
}

void
TimedSpecMem::squashTask(svc::PuId pu)
{
    Span s(clock);
    inner.squashTask(pu);
}

void
TimedSpecMem::tick()
{
    ++counts.ticks;
    Span s(clock);
    inner.tick();
}

bool
TimedSpecMem::busyWithRequests() const
{
    Span s(clock);
    return inner.busyWithRequests();
}

void
TimedSpecMem::attachTracer(svc::TraceSink *sink)
{
    inner.attachTracer(sink);
}

void
TimedSpecMem::finalizeMemory()
{
    Span s(clock);
    inner.finalizeMemory();
}

svc::Cycle
TimedSpecMem::nextWakeCycle() const
{
    Span s(clock);
    return inner.nextWakeCycle();
}

void
TimedSpecMem::skipCycles(svc::Cycle n)
{
    Span s(clock);
    inner.skipCycles(n);
}

bool
TimedSpecMem::checkpointQuiescent() const
{
    Span s(clock);
    return inner.checkpointQuiescent();
}

void
TimedSpecMem::saveState(svc::SnapshotWriter &w) const
{
    Span s(clock);
    inner.saveState(w);
}

bool
TimedSpecMem::restoreState(svc::SnapshotReader &r)
{
    Span s(clock);
    return inner.restoreState(r);
}

void
TimedChecker::check(const svc::InvariantEngine &eng,
                    svc::InvariantReport &rep)
{
    ++calls;
    Span s(clock);
    inner->check(eng, rep);
}

void
TimedChecker::checkFinal(const svc::InvariantEngine &eng,
                         svc::InvariantReport &rep)
{
    ++calls;
    Span s(clock);
    inner->checkFinal(eng, rep);
}

} // namespace perfbench
