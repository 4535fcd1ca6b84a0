/**
 * @file
 * `mp_resident`: a few long-lived tasks on a 4-CPU Encore MultiMax
 * (NS32082 pmap).  Each task runs in bursts on all four CPUs at once,
 * accesses going round-robin across the CPUs, about 3 reads to 1
 * write.  Working sets fit in RAM but exceed every CPU's 32-entry
 * TLB, and are resident and mapped before timing.  A periodic
 * write-protect and re-grant of a small slice of the hot window forces
 * shootdown IPIs and refaults.  Host time goes to hw translate/TLB,
 * pmap hwLookup and shootdowns; faults, pageouts and disk stay near 0,
 * which is what `churn` loads.
 */

#include "base/logging.hh"
#include "session.hh"

namespace perfbench
{
namespace
{

enum Kind : std::uint8_t
{
    WarmPage, //!< write a whole page of initial slot values
    Read,     //!< read one 8-byte slot
    Write,    //!< write one 8-byte slot
    Protect,  //!< write-protect a slice
    Regrant,  //!< restore read/write on the slice
};

constexpr unsigned kCpus = 4;
constexpr unsigned kTasks = 3;
constexpr unsigned kWsPages = 1536;   //!< per task; TLB holds 32
constexpr unsigned kPageBytes = 512;  //!< NS32082 page
constexpr unsigned kSlotBytes = 8;
constexpr unsigned kSlots = kPageBytes / kSlotBytes;
constexpr unsigned kBurst = 4096;     //!< accesses per task burst
constexpr unsigned kWindow = 24;      //!< hot pages, fits a TLB
constexpr unsigned kWindowMove = 512; //!< accesses per hot window
constexpr unsigned kHotPercent = 85;
constexpr unsigned kWritePercent = 25;
constexpr unsigned kProtectEvery = 2048;
constexpr unsigned kProtectFor = 256; //!< accesses until re-grant
constexpr unsigned kSlicePages = 8;
constexpr unsigned kTimedBursts = 600;

class MpResident : public Workload
{
  public:
    explicit MpResident(std::uint64_t seed) { generate(seed); }

    mach::MachineSpec
    spec() const override
    {
        return mach::MachineSpec::encoreMultimax(kCpus);
    }

    mach::KernelConfig config() const override { return {}; }

    void
    setup(Session &s) override
    {
        if (s.page != kPageBytes)
            mach::panic("mp_resident: expected %u-byte pages",
                        kPageBytes);
        tasks.clear();
        bases.clear();
        for (unsigned t = 0; t < kTasks; ++t) {
            tasks.push_back(s.create());
            VmOffset base = 0;
            s.allocate(*tasks.back(), &base, kWsPages * s.page);
            bases.push_back(base);
        }
        buf.resize(s.page);
        replay(s, warm);
    }

    void run(Session &s) override { replay(s, timed); }

    unsigned
    maxShadowChain() const override
    {
        return shadowChainOf(tasks);
    }

  private:
    void generate(std::uint64_t seed);
    void replay(Session &s, const std::vector<Op> &ops);

    std::vector<Op> warm, timed;

    // Executor state, rebuilt by every set-up.
    std::vector<Task *> tasks;
    std::vector<VmOffset> bases;
    std::vector<std::uint8_t> buf;
};

void
MpResident::generate(std::uint64_t seed)
{
    Rng rng{mix64(seed ^ 0x3b3b3b3bull)};
    // Slot i starts as stamp 1 + i; writes take stamps above all of
    // those.
    const std::uint32_t initBase = 1;
    std::uint32_t nextStamp = 1u << 24;
    std::vector<std::uint32_t> model(std::size_t(kTasks) * kWsPages *
                                     kSlots);
    for (std::size_t i = 0; i < model.size(); ++i)
        model[i] = initBase + std::uint32_t(i);

    for (unsigned t = 0; t < kTasks; ++t) {
        for (unsigned p = 0; p < kWsPages; ++p) {
            Op op;
            op.kind = WarmPage;
            op.task = t;
            op.arg = p;
            op.stamp = initBase + (t * kWsPages + p) * kSlots;
            warm.push_back(op);
        }
    }

    // Bursts: the first round of bursts (one per task) warms each
    // CPU's TLB and the pmaps' hardware tables; the rest are timed.
    for (unsigned b = 0; b < kTasks + kTimedBursts; ++b) {
        std::vector<Op> &out = b < kTasks ? warm : timed;
        const unsigned t = b % kTasks;
        unsigned window = 0;
        bool sliceHeld = false;
        unsigned slice = 0, releaseAt = 0;
        for (unsigned i = 0; i < kBurst; ++i) {
            const auto cpu = std::uint8_t(i % kCpus);
            if (i % kWindowMove == 0)
                window = rng.below(kWsPages - kWindow);
            if (sliceHeld && i == releaseAt) {
                Op op;
                op.kind = Regrant;
                op.cpu = cpu;
                op.task = t;
                op.arg = slice;
                op.pages = kSlicePages;
                out.push_back(op);
                sliceHeld = false;
            }
            if (i % kProtectEvery == kProtectEvery / 2 && !sliceHeld) {
                slice = window + rng.below(kWindow - kSlicePages);
                Op op;
                op.kind = Protect;
                op.cpu = cpu;
                op.task = t;
                op.arg = slice;
                op.pages = kSlicePages;
                out.push_back(op);
                sliceHeld = true;
                releaseAt = i + kProtectFor;
            }
            unsigned page = rng.percent(kHotPercent)
                ? window + rng.below(kWindow)
                : rng.below(kWsPages);
            unsigned slot = rng.below(kSlots);
            bool protectedPage = sliceHeld && page >= slice &&
                page < slice + kSlicePages;
            std::size_t idx =
                (std::size_t(t) * kWsPages + page) * kSlots + slot;
            Op op;
            op.cpu = cpu;
            op.task = t;
            op.arg = page * kSlots + slot;
            if (rng.percent(kWritePercent) && !protectedPage) {
                op.kind = Write;
                model[idx] = nextStamp++;
            } else {
                op.kind = Read;
            }
            op.stamp = model[idx];
            out.push_back(op);
        }
        if (sliceHeld) {
            Op op;
            op.kind = Regrant;
            op.task = t;
            op.arg = slice;
            op.pages = kSlicePages;
            out.push_back(op);
        }
    }
}

void
MpResident::replay(Session &s, const std::vector<Op> &ops)
{
    const VmSize pg = s.page;
    mach::Machine &machine = s.kernel.machine;
    for (const Op &op : ops) {
        Task &t = *tasks[op.task];
        machine.setCurrentCpu(op.cpu);
        VmOffset va = bases[op.task] + (op.arg / kSlots) * pg +
            (op.arg % kSlots) * kSlotBytes;
        switch (op.kind) {
          case WarmPage: {
            VmOffset page_va = bases[op.task] + op.arg * pg;
            for (unsigned i = 0; i < kSlots; ++i) {
                fillPattern(op.stamp + i, buf.data() + i * kSlotBytes,
                            kSlotBytes);
            }
            s.write(t, page_va, buf.data(), pg);
            break;
          }
          case Read: {
            std::uint8_t word[kSlotBytes];
            if (s.read(t, va, word, kSlotBytes) &&
                !patternMatches(op.stamp, word, kSlotBytes))
                s.mismatch("mp slot mismatch");
            break;
          }
          case Write: {
            std::uint8_t word[kSlotBytes];
            fillPattern(op.stamp, word, kSlotBytes);
            s.write(t, va, word, kSlotBytes);
            break;
          }
          case Protect:
            s.protect(t, bases[op.task] + op.arg * pg, op.pages * pg,
                      VmProt::Read);
            break;
          case Regrant:
            s.protect(t, bases[op.task] + op.arg * pg, op.pages * pg,
                      VmProt::Default);
            break;
        }
    }
}

} // namespace

std::unique_ptr<Workload>
makeMpResident(std::uint64_t seed)
{
    return std::make_unique<MpResident>(seed);
}

} // namespace perfbench
