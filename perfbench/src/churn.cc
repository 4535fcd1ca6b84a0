/**
 * @file
 * `churn`: a task-churn storm on a MicroVAX II whose RAM is capped far
 * below the aggregate working set.  Tasks fork from a live population,
 * COW-write inherited data, read a shared file-backed text segment,
 * exec every Nth time and exit oldest-first, so vm fault/map/object,
 * the pageout daemon, the default pager's swap and pmap removeAll /
 * copyOnWrite do nearly all the work.  Each page is touched about
 * once per task, so the TLB-hit path is not what this loads.
 */

#include <deque>

#include "session.hh"

namespace perfbench
{
namespace
{

enum Kind : std::uint8_t
{
    Create,
    Fork,
    Exec,
    Terminate,
    TextRead,
    DataRead,
    DataWrite,
    ScratchTouch,
};

constexpr unsigned kTextPages = 256;   //!< shared file-backed text
constexpr unsigned kDataPages = 32;    //!< COW-inherited data
constexpr unsigned kHalves = 2 * kDataPages; //!< data write granule
constexpr unsigned kScratchPages = 16; //!< private zero-fill scratch
constexpr unsigned kPopulation = 64;   //!< live tasks
constexpr unsigned kExecEvery = 5;     //!< every Nth child execs
constexpr unsigned kWarmTasks = kPopulation; //!< spawned in set-up
constexpr unsigned kTimedTasks = 8000; //!< spawned in the timed region

class Churn : public Workload
{
  public:
    explicit Churn(std::uint64_t seed) { generate(seed); }

    mach::MachineSpec
    spec() const override
    {
        mach::MachineSpec s = mach::MachineSpec::microVax2();
        // Population x (data + scratch) + text is ~3x this, so the
        // pageout daemon and swap never rest.
        s.physMemBytes = 512ull << 10;
        return s;
    }

    mach::KernelConfig
    config() const override
    {
        mach::KernelConfig cfg;
        cfg.swapBytes = 32ull << 20;
        return cfg;
    }

    void
    setup(Session &s) override
    {
        std::vector<std::uint8_t> text(kTextPages * s.page);
        for (unsigned p = 0; p < kTextPages; ++p)
            fillPattern(kTextStamp + p, text.data() + p * s.page, s.page);
        s.kernel.createFile("text", text.data(), text.size());
        slots.assign(kWarmTasks + kTimedTasks, nullptr);
        layouts.assign(slots.size(), Layout{});
        buf.resize(s.page);
        replay(s, warm);
    }

    void run(Session &s) override { replay(s, timed); }

    unsigned
    maxShadowChain() const override
    {
        std::vector<Task *> live;
        for (Task *t : slots) {
            if (t)
                live.push_back(t);
        }
        return shadowChainOf(live);
    }

  private:
    struct Layout
    {
        VmOffset text = 0;
        VmOffset data = 0;
        VmOffset scratch = 0;
    };

    void generate(std::uint64_t seed);
    void build(Session &s, std::uint32_t slot);
    void replay(Session &s, const std::vector<Op> &ops);

    std::vector<Op> warm, timed;
    /** Both half-page stamps of each DataRead (Op::stamp indexes
     *  here). */
    std::vector<std::uint32_t> readStamps;
    /** Data stamps start above the text segment's. */
    static constexpr std::uint32_t kTextStamp = 1;
    static constexpr std::uint32_t kFirstDataStamp = 1u << 20;

    // Executor state, rebuilt by every set-up.
    std::vector<Task *> slots;
    std::vector<Layout> layouts;
    std::vector<std::uint8_t> buf;
};

void
Churn::generate(std::uint64_t seed)
{
    Rng rng{mix64(seed ^ 0xc4c4c4c4ull)};
    std::uint32_t nextStamp = kFirstDataStamp;

    struct Model
    {
        std::uint32_t slot;
        std::array<std::uint32_t, kHalves> data;
    };
    std::deque<Model> live;

    for (std::uint32_t seq = 0; seq < kWarmTasks + kTimedTasks; ++seq) {
        std::vector<Op> &out = seq < kWarmTasks ? warm : timed;
        auto emit = [&](Kind k, std::uint32_t arg = 0,
                        std::uint32_t stamp = 0) {
            Op op;
            op.kind = k;
            op.task = seq;
            op.arg = arg;
            op.stamp = stamp;
            out.push_back(op);
        };

        Model m{seq, {}};
        if (live.empty()) {
            emit(Create);
            // Prime the data region so forks really share pages.
            for (unsigned h = 0; h < kHalves; ++h) {
                m.data[h] = nextStamp++;
                emit(DataWrite, h, m.data[h]);
            }
        } else {
            const Model &parent = live[rng.below(unsigned(live.size()))];
            emit(Fork, parent.slot);
            m.data = parent.data;
            if (seq % kExecEvery == 0) {
                emit(Exec);
                m.data.fill(0);
            }
        }
        for (unsigned i = 0; i < 12; ++i) {
            unsigned p = rng.below(kTextPages);
            emit(TextRead, p, kTextStamp + p);
        }
        for (unsigned i = 0; i < 4; ++i) {
            unsigned p = rng.below(kDataPages);
            emit(DataRead, p, std::uint32_t(readStamps.size()));
            readStamps.push_back(m.data[2 * p]);
            readStamps.push_back(m.data[2 * p + 1]);
        }
        // Half-page writes: a COW copy must carry the other half over.
        for (unsigned i = 0; i < 8; ++i) {
            unsigned h = rng.below(kHalves);
            m.data[h] = nextStamp++;
            emit(DataWrite, h, m.data[h]);
        }
        for (unsigned i = 0; i < 8; ++i)
            emit(ScratchTouch, rng.below(kScratchPages));
        live.push_back(m);
        while (live.size() > kPopulation) {
            Op op;
            op.kind = Terminate;
            op.task = live.front().slot;
            out.push_back(op);
            live.pop_front();
        }
    }
}

void
Churn::build(Session &s, std::uint32_t slot)
{
    Task &t = *slots[slot];
    Layout l;
    VmSize size = 0;
    s.mapFile(t, "text", &l.text, &size);
    s.allocate(t, &l.data, kDataPages * s.page);
    s.allocate(t, &l.scratch, kScratchPages * s.page);
    layouts[slot] = l;
}

void
Churn::replay(Session &s, const std::vector<Op> &ops)
{
    const VmSize pg = s.page;
    for (const Op &op : ops) {
        switch (op.kind) {
          case Create:
            slots[op.task] = s.create();
            build(s, op.task);
            break;
          case Fork: {
            Task &child = *s.fork(*slots[op.arg]);
            slots[op.task] = &child;
            // Scratch is private: the child replaces its copy.
            Layout l = layouts[op.arg];
            s.deallocate(child, l.scratch, kScratchPages * pg);
            s.allocate(child, &l.scratch, kScratchPages * pg);
            layouts[op.task] = l;
            break;
          }
          case Exec: {
            Task &t = *slots[op.task];
            mach::VmMap &m = t.map();
            s.deallocate(t, m.minAddress(),
                         m.maxAddress() - m.minAddress());
            build(s, op.task);
            break;
          }
          case Terminate:
            s.terminate(slots[op.task]);
            slots[op.task] = nullptr;
            break;
          case TextRead:
            if (s.read(*slots[op.task], layouts[op.task].text + op.arg * pg,
                       buf.data(), pg))
                s.check(buf.data(), &op.stamp, 1, pg, "churn text mismatch");
            break;
          case DataRead:
            if (s.read(*slots[op.task], layouts[op.task].data + op.arg * pg,
                       buf.data(), pg)) {
                s.check(buf.data(), &readStamps[op.stamp], 2, pg / 2,
                        "churn data mismatch, half");
            }
            break;
          case DataWrite:
            fillPattern(op.stamp, buf.data(), pg / 2);
            s.write(*slots[op.task],
                    layouts[op.task].data + op.arg * (pg / 2), buf.data(),
                    pg / 2);
            break;
          case ScratchTouch:
            s.touch(*slots[op.task],
                    layouts[op.task].scratch + op.arg * pg, pg,
                    AccessType::Write);
            break;
        }
    }
}

} // namespace

std::unique_ptr<Workload>
makeChurn(std::uint64_t seed)
{
    return std::make_unique<Churn>(seed);
}

} // namespace perfbench
