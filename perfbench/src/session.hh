/**
 * @file
 * The benchmark's view of one booted system: a Kernel driven only
 * through its public entry points, with every call optionally timed
 * on the host and the trace sink drained into per-event counts.
 *
 * Untraced sessions (the end-to-end runs) call straight through: no
 * sink is attached and the kernel's own fault handler stays in
 * place.  Traced sessions reinstall the fault handler as a timed
 * wrapper with the kernel's dispatch logic, time every Kernel/VmMap
 * call, and attach a TraceSink for the timed region.
 */

#ifndef PERFBENCH_SESSION_HH
#define PERFBENCH_SESSION_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kern/kernel.hh"
#include "sim/trace.hh"

namespace perfbench
{

using mach::AccessType;
using mach::Kernel;
using mach::KernReturn;
using mach::SimTime;
using mach::Task;
using mach::VmOffset;
using mach::VmProt;
using mach::VmSize;

/** splitmix64 finaliser: the only source of pseudo-randomness. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Deterministic generator stream derived from the workload seed. */
struct Rng
{
    std::uint64_t s;
    std::uint64_t next() { return mix64(s++); }
    std::uint32_t below(std::uint32_t n) { return next() % n; }
    bool percent(unsigned p) { return below(100) < p; }
};

/**
 * Page contents for data stamp @p stamp: stamp 0 is a zero page
 * (never-written anonymous memory), any other stamp a distinct
 * pseudo-random pattern, so a page that comes back from the wrong
 * version, object or offset never matches.
 */
void fillPattern(std::uint32_t stamp, std::uint8_t *buf, std::size_t len);

/** Does @p buf hold the first @p len bytes of @p stamp's pattern? */
bool patternMatches(std::uint32_t stamp, const std::uint8_t *buf,
                    std::size_t len);

/**
 * One generated operation.  The generator decides everything up
 * front, including the data each read must return; the executor only
 * performs the call and compares.  Field meaning is per workload.
 */
struct Op
{
    std::uint8_t kind = 0;
    std::uint8_t cpu = 0;
    std::uint8_t pages = 1;
    std::uint32_t task = 0;
    std::uint32_t arg = 0;
    std::uint32_t stamp = 0;
};
static_assert(sizeof(Op) == 16, "ops are kept compact: streams are long");

/** The Kernel/VmMap call classes the ledger times. */
enum class Call : unsigned
{
    Touch,     //!< taskTouch / taskRead / taskWrite
    Fork,      //!< taskCreate / taskFork
    Terminate, //!< taskTerminate
    VmOp,      //!< VmMap allocate / deallocate / protect, mapFile
    File,      //!< fileRead / fileWrite
    Count,
};

constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::Count);

const char *callName(Call c);

/** The @p q quantile of @p v (nearest rank, reorders); 0 if empty. */
template <class T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0;
    std::size_t rank =
        std::min(v.size() - 1, std::size_t(q * double(v.size())));
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return double(v[rank]);
}

/** Host-time samples of one timed call class. */
struct HostSamples
{
    std::vector<std::uint32_t> ns;
    std::uint64_t totalNs = 0;

    void
    add(std::uint64_t v)
    {
        ns.push_back(v > 0xffffffffu ? 0xffffffffu : std::uint32_t(v));
        totalNs += v;
    }
};

/** Per-layer host and event accounting of traced timed regions. */
struct Ledger
{
    std::array<HostSamples, kNumCalls> calls;
    HostSamples faultHost;
    std::vector<SimTime> faultSim;
    std::uint64_t faultHostInTouchNs = 0;
    std::uint64_t touchPages = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(mach::TraceEventType::NumTypes)>
        events{};
    std::uint64_t eventsDropped = 0; //!< overwritten before drained
    double wallNs = 0;

    /** Fold another rep's ledger into this one. */
    void merge(Ledger &&o);
};

/** Name -> value of every simulated quantity, as a delta or final. */
using Signature = std::vector<std::pair<std::string, std::uint64_t>>;

class Session
{
  public:
    using Clock = std::chrono::steady_clock;

    Session(const mach::MachineSpec &spec, const mach::KernelConfig &cfg);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    Kernel kernel;

    /**
     * Enter the timed region.  With @p ledger the fault-handler
     * wrapper and the trace sink are attached and every call is
     * timed into it; without, nothing is installed.
     */
    void beginTimed(Ledger *ledger);
    /** Leave the timed region (drains and detaches the sink). */
    void endTimed();

    /** Absolute values of every simulated counter right now. */
    Signature sample();

    /** @name Entry points (record failures; count pages as ops) @{ */
    bool touch(Task &t, VmOffset va, VmSize len, AccessType type);
    bool read(Task &t, VmOffset va, void *buf, VmSize len);
    bool write(Task &t, VmOffset va, const void *buf, VmSize len);
    Task *create();
    Task *fork(Task &parent);
    void terminate(Task *t);
    bool allocate(Task &t, VmOffset *addr, VmSize size);
    bool deallocate(Task &t, VmOffset addr, VmSize size);
    bool protect(Task &t, VmOffset addr, VmSize size, VmProt prot);
    bool mapFile(Task &t, const std::string &name, VmOffset *addr,
                 VmSize *size);
    bool fileRead(const std::string &name, VmOffset off, void *buf,
                  VmSize len);
    bool fileWrite(const std::string &name, VmOffset off,
                   const void *buf, VmSize len);
    /** @} */

    /**
     * Compare @p got, @p count runs of @p unit bytes, with the
     * patterns of @p stamps; each mismatching run is a failed op.
     */
    void check(const std::uint8_t *got, const std::uint32_t *stamps,
               unsigned count, VmSize unit, const char *what);
    /** Count one op whose data did not match as failed. */
    void mismatch(const char *what) { fail(1, what, 0); }

    VmSize page;
    std::uint64_t ops = 0;        //!< pages of user data accessed
    std::uint64_t failedOps = 0;  //!< failed pages + failed calls
    std::vector<std::string> errors; //!< first few failures, for logs

  private:
    template <class F> auto timed(Call c, F &&f);
    KernReturn timedFault(mach::CpuId cpu, VmOffset va,
                          mach::FaultType type);
    void drain();
    /** Count @p n failed ops; log "what (detail)" for the first few. */
    void fail(std::uint64_t n, const char *what, int detail);
    std::uint64_t pagesSpanned(VmOffset va, VmSize len) const;

    Ledger *ledger = nullptr;
    std::unique_ptr<mach::TraceSink> sink;
    std::uint64_t traceSeen = 0;
    bool inTouch = false;
};

/** A workload: generated once from the seed, replayed per rep. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual mach::MachineSpec spec() const = 0;
    virtual mach::KernelConfig config() const = 0;
    /** Create files, tasks and warm state (timed as set-up). */
    virtual void setup(Session &s) = 0;
    /** Replay the timed op stream. */
    virtual void run(Session &s) = 0;
    /** Longest shadow chain reachable from the workload's tasks. */
    virtual unsigned maxShadowChain() const = 0;
};

std::unique_ptr<Workload> makeChurn(std::uint64_t seed);
std::unique_ptr<Workload> makeMpResident(std::uint64_t seed);
std::unique_ptr<Workload> makeFileRw(std::uint64_t seed);

/** Longest shadow chain reachable from @p tasks' map entries. */
unsigned shadowChainOf(const std::vector<Task *> &tasks);

} // namespace perfbench

#endif // PERFBENCH_SESSION_HH
