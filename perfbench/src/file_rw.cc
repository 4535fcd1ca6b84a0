/**
 * @file
 * `file_rw`: mapped-file and fileRead/fileWrite traffic on a VAX 8200,
 * the machine of the paper's Table 7-1 read rows.  Sequential reads,
 * random reads, rereads that should hit the object cache, reads
 * through a mapping, and whole-page writes whose dirty pages go back
 * through the vnode pager.  The file set exceeds both RAM and the
 * object cache limit, and a low transient-only disk error rate keeps
 * the I/O retry path busy, so pager, disk and the retry/recovery code
 * carry the work.
 */

#include <deque>

#include "session.hh"

namespace perfbench
{
namespace
{

enum Kind : std::uint8_t
{
    FileRead,
    FileWrite,
    MapRead,
};

constexpr unsigned kFiles = 16;
constexpr unsigned kFilePages = 160;  //!< 16 x 160 pages = 5x RAM
constexpr unsigned kMapped = 2;       //!< files 0..kMapped-1 are mapped
constexpr unsigned kSeqPages = 8;     //!< pages per sequential read
constexpr unsigned kMaxWritePages = 4;
constexpr unsigned kRecent = 16;      //!< reread candidates
constexpr unsigned kWarmSteps = 400;
constexpr unsigned kTimedSteps = 250000;

class FileRw : public Workload
{
  public:
    explicit FileRw(std::uint64_t seed) : seed(seed) { generate(); }

    mach::MachineSpec
    spec() const override
    {
        mach::MachineSpec s = mach::MachineSpec::vax8200();
        s.physMemBytes = 256ull << 10;
        return s;
    }

    mach::KernelConfig
    config() const override
    {
        mach::KernelConfig cfg;
        cfg.objectCacheLimit = 6;
        return cfg;
    }

    void
    setup(Session &s) override
    {
        std::vector<std::uint8_t> data(kFilePages * s.page);
        names.clear();
        for (unsigned f = 0; f < kFiles; ++f) {
            names.push_back("file" + std::to_string(f));
            for (unsigned p = 0; p < kFilePages; ++p) {
                fillPattern(initStamp(f, p), data.data() + p * s.page,
                            s.page);
            }
            s.kernel.createFile(names.back(), data.data(), data.size());
        }
        reader = s.create();
        mapBase.assign(kMapped, 0);
        for (unsigned f = 0; f < kMapped; ++f) {
            VmSize size = 0;
            s.mapFile(*reader, names[f], &mapBase[f], &size);
        }
        buf.resize(kSeqPages * s.page);
        replay(s, warm);
        // Injection starts once the files are on disk: file creation
        // is set-up, not traffic whose errors the VM must absorb.
        mach::FaultPlan plan;
        plan.seed = mix64(seed ^ 0xd15cull);
        // Sites heal for good after transientAttempts failures, so the
        // error count is bounded by the distinct blocks touched.
        plan.readErrorRate = 0.05;
        plan.writeErrorRate = 0.05;
        plan.permanentFraction = 0.0;
        plan.timeoutFraction = 0.25;
        plan.transientAttempts = 2;
        s.kernel.setFaultPlan(plan);
    }

    void run(Session &s) override { replay(s, timed); }

    unsigned
    maxShadowChain() const override
    {
        return shadowChainOf({reader});
    }

  private:
    /** Initial file contents; writes take stamps above these. */
    static std::uint32_t
    initStamp(unsigned f, unsigned p)
    {
        return 1 + f * kFilePages + p;
    }

    void generate();
    void replay(Session &s, const std::vector<Op> &ops);

    const std::uint64_t seed;
    std::vector<Op> warm, timed;
    /** Per-page stamps each op reads back or writes (Op::stamp
     *  indexes here). */
    std::vector<std::uint32_t> stamps;

    // Executor state, rebuilt by every set-up.
    std::vector<std::string> names;
    Task *reader = nullptr;
    std::vector<VmOffset> mapBase;
    std::vector<std::uint8_t> buf;
};

void
FileRw::generate()
{
    Rng rng{mix64(seed ^ 0xf11ef11eull)};
    std::uint32_t nextStamp = 1u << 24;
    std::vector<std::uint32_t> model(std::size_t(kFiles) * kFilePages);
    for (unsigned f = 0; f < kFiles; ++f) {
        for (unsigned p = 0; p < kFilePages; ++p)
            model[f * kFilePages + p] = initStamp(f, p);
    }

    struct Range
    {
        unsigned file, page, pages;
    };
    std::deque<Range> recent;
    unsigned seqFile = 0, seqPage = 0;

    for (unsigned step = 0; step < kWarmSteps + kTimedSteps; ++step) {
        std::vector<Op> &out = step < kWarmSteps ? warm : timed;
        Op op;
        op.kind = FileRead;
        unsigned r = rng.below(100);
        Range range{};
        if (r < 30) {
            range = {seqFile, seqPage,
                     std::min(kSeqPages, kFilePages - seqPage)};
            seqPage += range.pages;
            if (seqPage == kFilePages) {
                seqFile = rng.below(kFiles);
                seqPage = 0;
            }
        } else if (r < 55 || (r < 70 && recent.empty())) {
            range = {rng.below(kFiles), rng.below(kFilePages), 1};
        } else if (r < 70) {
            range = recent[rng.below(unsigned(recent.size()))];
        } else if (r < 90) {
            op.kind = FileWrite;
            unsigned n = 1 + rng.below(kMaxWritePages);
            range = {rng.below(kFiles), rng.below(kFilePages - n + 1), n};
        } else {
            op.kind = MapRead;
            range = {rng.below(kMapped), rng.below(kFilePages), 1};
        }
        op.task = range.file;
        op.arg = range.page;
        op.pages = std::uint8_t(range.pages);
        op.stamp = std::uint32_t(stamps.size());
        for (unsigned i = 0; i < range.pages; ++i) {
            std::uint32_t &cur = model[range.file * kFilePages +
                                       range.page + i];
            if (op.kind == FileWrite)
                cur = nextStamp++;
            stamps.push_back(cur);
        }
        if (op.kind == FileRead) {
            recent.push_back(range);
            if (recent.size() > kRecent)
                recent.pop_front();
        }
        out.push_back(op);
    }
}

void
FileRw::replay(Session &s, const std::vector<Op> &ops)
{
    const VmSize pg = s.page;
    for (const Op &op : ops) {
        const std::uint32_t *want = &stamps[op.stamp];
        VmSize len = op.pages * pg;
        switch (op.kind) {
          case FileRead:
            if (s.fileRead(names[op.task], op.arg * pg, buf.data(), len)) {
                s.check(buf.data(), want, op.pages, pg,
                        "fileRead mismatch, page");
            }
            break;
          case FileWrite:
            for (unsigned i = 0; i < op.pages; ++i)
                fillPattern(want[i], buf.data() + i * pg, pg);
            s.fileWrite(names[op.task], op.arg * pg, buf.data(), len);
            break;
          case MapRead:
            if (s.read(*reader, mapBase[op.task] + op.arg * pg,
                       buf.data(), len))
                s.check(buf.data(), want, op.pages, pg, "mapped read mismatch");
            break;
        }
    }
}

} // namespace

std::unique_ptr<Workload>
makeFileRw(std::uint64_t seed)
{
    return std::make_unique<FileRw>(seed);
}

} // namespace perfbench
