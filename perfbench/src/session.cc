#include "session.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "vm/vm_object.hh"

namespace perfbench
{

namespace
{

/** Ring large enough that draining at half-full never drops. */
constexpr std::size_t kSinkCapacity = 1u << 16;
constexpr std::uint64_t kDrainAt = kSinkCapacity / 2;

constexpr const char *kKindNames[] = {
    "mem_copy", "mem_zero", "fault_trap", "software", "pmap_op",
    "tlb_miss", "tlb_flush", "ipi", "disk", "ipc",
};
static_assert(std::size(kKindNames) == mach::SimClock::numKinds);

std::uint64_t
hostNs(Session::Clock::duration d)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/** Word @p i of stamp @p stamp's pattern, given h = mix64(stamp). */
inline std::uint64_t
patternWord(std::uint64_t h, std::size_t i)
{
    return h ^ (i * 0x9e3779b97f4a7c15ull);
}

} // namespace

void
fillPattern(std::uint32_t stamp, std::uint8_t *buf, std::size_t len)
{
    if (stamp == 0) {
        std::memset(buf, 0, len);
        return;
    }
    const std::uint64_t h = mix64(stamp);
    for (std::size_t i = 0; i < len; i += 8) {
        std::uint64_t w = patternWord(h, i / 8);
        std::memcpy(buf + i, &w, std::min<std::size_t>(8, len - i));
    }
}

bool
patternMatches(std::uint32_t stamp, const std::uint8_t *buf,
               std::size_t len)
{
    const std::uint64_t h = stamp ? mix64(stamp) : 0;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t got;
        std::memcpy(&got, buf + i, 8);
        if (got != (stamp ? patternWord(h, i / 8) : 0))
            return false;
    }
    if (i == len)
        return true;
    std::uint64_t tail = stamp ? patternWord(h, i / 8) : 0;
    return std::memcmp(buf + i, &tail, len - i) == 0;
}

const char *
callName(Call c)
{
    switch (c) {
      case Call::Touch: return "touch";
      case Call::Fork: return "fork";
      case Call::Terminate: return "terminate";
      case Call::VmOp: return "vm_op";
      case Call::File: return "file";
      case Call::Count: break;
    }
    return "?";
}

void
Ledger::merge(Ledger &&o)
{
    for (std::size_t i = 0; i < kNumCalls; ++i) {
        calls[i].ns.insert(calls[i].ns.end(), o.calls[i].ns.begin(),
                           o.calls[i].ns.end());
        calls[i].totalNs += o.calls[i].totalNs;
    }
    faultHost.ns.insert(faultHost.ns.end(), o.faultHost.ns.begin(),
                        o.faultHost.ns.end());
    faultHost.totalNs += o.faultHost.totalNs;
    faultSim.insert(faultSim.end(), o.faultSim.begin(), o.faultSim.end());
    faultHostInTouchNs += o.faultHostInTouchNs;
    touchPages += o.touchPages;
    for (std::size_t i = 0; i < events.size(); ++i)
        events[i] += o.events[i];
    eventsDropped += o.eventsDropped;
    wallNs += o.wallNs;
}

Session::Session(const mach::MachineSpec &spec,
                 const mach::KernelConfig &cfg)
    : kernel(spec, cfg), page(kernel.pageSize())
{
}

void
Session::beginTimed(Ledger *l)
{
    ledger = l;
    if (!l)
        return;
    // The kernel's own dispatch (current task's map on the faulting
    // CPU), with host and simulated time taken around vm_fault.
    kernel.machine.setFaultHandler(
        [this](mach::CpuId cpu, VmOffset va, mach::FaultType type) {
            return timedFault(cpu, va, type);
        });
    sink = std::make_unique<mach::TraceSink>(kSinkCapacity);
    traceSeen = 0;
    kernel.machine.clock().setTraceSink(sink.get());
}

void
Session::endTimed()
{
    if (!ledger)
        return;
    drain();
    kernel.machine.clock().setTraceSink(nullptr);
    ledger = nullptr;
}

KernReturn
Session::timedFault(mach::CpuId cpu, VmOffset va, mach::FaultType type)
{
    Task *task = kernel.currentTask(cpu);
    if (!task)
        return KernReturn::InvalidAddress;
    kernel.machine.setCurrentCpu(cpu);
    if (!ledger)
        return kernel.vm->fault(task->map(), va, type);
    SimTime s0 = kernel.now();
    Clock::time_point h0 = Clock::now();
    KernReturn kr = kernel.vm->fault(task->map(), va, type);
    std::uint64_t h = hostNs(Clock::now() - h0);
    ledger->faultHost.add(h);
    ledger->faultSim.push_back(kernel.now() - s0);
    if (inTouch)
        ledger->faultHostInTouchNs += h;
    return kr;
}

void
Session::drain()
{
    std::uint64_t total = sink->totalEmitted();
    std::uint64_t fresh = total - traceSeen;
    std::size_t held = sink->size();
    if (fresh > held) {
        ledger->eventsDropped += fresh - held;
        fresh = held;
    }
    for (std::size_t i = held - fresh; i < held; ++i)
        ++ledger->events[static_cast<std::size_t>(sink->at(i).type)];
    traceSeen = total;
}

template <class F>
auto
Session::timed(Call c, F &&f)
{
    if (!ledger)
        return f();
    Clock::time_point t0 = Clock::now();
    auto r = f();
    ledger->calls[static_cast<std::size_t>(c)].add(
        hostNs(Clock::now() - t0));
    if (sink->totalEmitted() - traceSeen >= kDrainAt)
        drain();
    return r;
}

Signature
Session::sample()
{
    Signature s;
    const mach::SimClock &clock = kernel.machine.clock();
    s.emplace_back("sim.elapsed_ns", clock.now());
    for (std::size_t k = 0; k < mach::SimClock::numKinds; ++k) {
        s.emplace_back(std::string("sim.") + kKindNames[k] + "_ns",
                       clock.kindTotal(static_cast<mach::CostKind>(k)));
    }
    std::uint64_t hits = 0, misses = 0, flushes = 0;
    for (unsigned c = 0; c < kernel.machine.numCpus(); ++c) {
        const mach::Tlb &tlb = kernel.machine.cpu(c).tlb;
        hits += tlb.hits();
        misses += tlb.misses();
        flushes += tlb.flushes();
    }
    s.emplace_back("hw.tlb.hits", hits);
    s.emplace_back("hw.tlb.misses", misses);
    s.emplace_back("hw.tlb.flushes", flushes);
    s.emplace_back("hw.ipis", kernel.machine.ipiCount());
    s.emplace_back("hw.faults", kernel.machine.faultCount());
    s.emplace_back("hw.ticks", kernel.machine.tickCount());
    s.emplace_back("disk.reads",
                   kernel.disk.readOps() + kernel.swapDisk.readOps());
    s.emplace_back("disk.writes",
                   kernel.disk.writeOps() + kernel.swapDisk.writeOps());
    s.emplace_back("disk.errors",
                   kernel.disk.ioErrors() + kernel.swapDisk.ioErrors());
    s.emplace_back("bench.ops", ops);
    s.emplace_back("bench.failed", failedOps);
    for (const auto &[name, v] : kernel.vm->metricsSnapshot().counters)
        s.emplace_back(name, v);
    return s;
}

std::uint64_t
Session::pagesSpanned(VmOffset va, VmSize len) const
{
    if (len == 0)
        return 0;
    VmOffset first = va / page;
    VmOffset last = (va + len - 1) / page;
    return last - first + 1;
}

void
Session::fail(std::uint64_t n, const char *what, int detail)
{
    failedOps += n;
    if (errors.size() < 8) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s (%d)", what, detail);
        errors.emplace_back(buf);
    }
}

bool
Session::touch(Task &t, VmOffset va, VmSize len, AccessType type)
{
    std::uint64_t n = pagesSpanned(va, len);
    ops += n;
    if (ledger)
        ledger->touchPages += n;
    inTouch = true;
    KernReturn kr = timed(Call::Touch, [&] {
        return kernel.taskTouch(t, va, len, type);
    });
    inTouch = false;
    if (kr != KernReturn::Success) {
        fail(n, "taskTouch returned", int(kr));
        return false;
    }
    return true;
}

bool
Session::read(Task &t, VmOffset va, void *buf, VmSize len)
{
    std::uint64_t n = pagesSpanned(va, len);
    ops += n;
    if (ledger)
        ledger->touchPages += n;
    inTouch = true;
    KernReturn kr = timed(Call::Touch, [&] {
        return kernel.taskRead(t, va, buf, len);
    });
    inTouch = false;
    if (kr != KernReturn::Success) {
        fail(n, "taskRead returned", int(kr));
        return false;
    }
    return true;
}

bool
Session::write(Task &t, VmOffset va, const void *buf, VmSize len)
{
    std::uint64_t n = pagesSpanned(va, len);
    ops += n;
    if (ledger)
        ledger->touchPages += n;
    inTouch = true;
    KernReturn kr = timed(Call::Touch, [&] {
        return kernel.taskWrite(t, va, buf, len);
    });
    inTouch = false;
    if (kr != KernReturn::Success) {
        fail(n, "taskWrite returned", int(kr));
        return false;
    }
    return true;
}

Task *
Session::create()
{
    return timed(Call::Fork, [&] { return kernel.taskCreate(); });
}

Task *
Session::fork(Task &parent)
{
    return timed(Call::Fork, [&] { return kernel.taskFork(parent); });
}

void
Session::terminate(Task *t)
{
    timed(Call::Terminate, [&] {
        kernel.taskTerminate(t);
        return 0;
    });
}

bool
Session::allocate(Task &t, VmOffset *addr, VmSize size)
{
    *addr = 0;
    KernReturn kr = timed(Call::VmOp, [&] {
        return t.map().allocate(addr, size, true);
    });
    if (kr != KernReturn::Success)
        fail(1, "vm_allocate returned", int(kr));
    return kr == KernReturn::Success;
}

bool
Session::deallocate(Task &t, VmOffset addr, VmSize size)
{
    KernReturn kr = timed(Call::VmOp, [&] {
        return t.map().deallocate(addr, size);
    });
    if (kr != KernReturn::Success)
        fail(1, "vm_deallocate returned", int(kr));
    return kr == KernReturn::Success;
}

bool
Session::protect(Task &t, VmOffset addr, VmSize size, VmProt prot)
{
    KernReturn kr = timed(Call::VmOp, [&] {
        return t.map().protect(addr, size, false, prot);
    });
    if (kr != KernReturn::Success)
        fail(1, "vm_protect returned", int(kr));
    return kr == KernReturn::Success;
}

bool
Session::mapFile(Task &t, const std::string &name, VmOffset *addr,
                 VmSize *size)
{
    KernReturn kr = timed(Call::VmOp, [&] {
        return kernel.mapFile(t, name, addr, size);
    });
    if (kr != KernReturn::Success)
        fail(1, "mapFile returned", int(kr));
    return kr == KernReturn::Success;
}

bool
Session::fileRead(const std::string &name, VmOffset off, void *buf,
                  VmSize len)
{
    std::uint64_t n = pagesSpanned(off, len);
    ops += n;
    VmSize got = 0;
    KernReturn kr = timed(Call::File, [&] {
        return kernel.fileRead(name, off, buf, len, &got);
    });
    if (kr != KernReturn::Success || got != len) {
        fail(n, "fileRead returned", int(kr));
        return false;
    }
    return true;
}

bool
Session::fileWrite(const std::string &name, VmOffset off,
                   const void *buf, VmSize len)
{
    std::uint64_t n = pagesSpanned(off, len);
    ops += n;
    KernReturn kr = timed(Call::File, [&] {
        return kernel.fileWrite(name, off, buf, len);
    });
    if (kr != KernReturn::Success) {
        fail(n, "fileWrite returned", int(kr));
        return false;
    }
    return true;
}

void
Session::check(const std::uint8_t *got, const std::uint32_t *stamps,
               unsigned count, VmSize unit, const char *what)
{
    for (unsigned i = 0; i < count; ++i) {
        if (!patternMatches(stamps[i], got + i * unit, unit))
            fail(1, what, int(i));
    }
}

unsigned
shadowChainOf(const std::vector<Task *> &tasks)
{
    unsigned longest = 0;
    for (Task *t : tasks) {
        for (const mach::VmMapEntry &e : t->map().entryList()) {
            if (e.object)
                longest = std::max(longest, e.object->chainLength());
        }
    }
    return longest;
}

} // namespace perfbench
