/**
 * @file
 * perfbench: replays one generated workload in repetitions,
 * each a fresh boot, and prints every metric plus the checks that the
 * outputs were right.
 *
 *   perfbench --workload churn|mp_resident|file_rw --seed N
 *             --seconds S --trace 0|1
 *
 * --trace 0 measures for S seconds with nothing attached and reports
 * the end-to-end metrics.  --trace 1 spends half of S on untraced
 * repetitions and half on traced ones (timed fault wrapper, timed
 * calls, trace sink) and reports the per-layer metrics.  Every
 * repetition of either kind must produce identical simulated counts.
 * The last stdout line is one JSON object (see run.py).
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "session.hh"

namespace perfbench
{
namespace
{

using Clock = Session::Clock;

constexpr unsigned kMinReps = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One repetition: boot, set up, replay the timed op stream. */
struct Rep
{
    double setupS = 0;
    double wallS = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    Signature delta;
    std::vector<std::string> errors;

    std::uint64_t
    get(const std::string &name) const
    {
        for (const auto &[n, v] : delta) {
            if (n == name)
                return v;
        }
        return 0;
    }
};

/**
 * Host CPUs this process may run on.  Repetitions rotate over them so
 * one run samples every core instead of whichever one the scheduler
 * happened to pick, which on shared hosts differ in speed.
 */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

Rep
runRep(Workload &w, Ledger *ledger)
{
    Rep r;
    Clock::time_point t0 = Clock::now();
    Session s(w.spec(), w.config());
    w.setup(s);
    const std::uint64_t setupOps = s.ops;
    Signature before = s.sample();
    Clock::time_point t1 = Clock::now();
    s.beginTimed(ledger);
    w.run(s);
    s.endTimed();
    Clock::time_point t2 = Clock::now();
    Signature after = s.sample();
    after.emplace_back("vm.object.max_shadow_chain", w.maxShadowChain());

    r.setupS = std::chrono::duration<double>(t1 - t0).count();
    r.wallS = std::chrono::duration<double>(t2 - t1).count();
    if (ledger)
        ledger->wallNs = r.wallS * 1e9;
    r.ops = s.ops - setupOps;
    r.failed = s.failedOps;
    r.errors = s.errors;
    // By name: a registry counter first used in the timed region is
    // absent from `before`.
    std::map<std::string, std::uint64_t> base(before.begin(), before.end());
    for (const auto &[name, v] : after)
        r.delta.emplace_back(name, v - base[name]);
    return r;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Quartiles with Python statistics.quantiles(n=4) semantics. */
void
quartiles(std::vector<double> v, double *q1, double *q3)
{
    std::sort(v.begin(), v.end());
    double n = double(v.size());
    auto at = [&](double pos) {
        // Exclusive method: position (n + 1) * p, 1-based.
        pos = std::clamp(pos, 1.0, n);
        std::size_t lo = std::size_t(pos) - 1;
        double frac = pos - std::floor(pos);
        if (lo + 1 >= v.size())
            return v[lo];
        return v[lo] + frac * (v[lo + 1] - v[lo]);
    };
    *q1 = at((n + 1) * 0.25);
    *q3 = at((n + 1) * 0.75);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

/** First differences between two signatures, "" when identical. */
std::string
signatureDiff(const Signature &a, const Signature &b)
{
    std::string out;
    unsigned shown = 0;
    if (a.size() != b.size())
        return "different metric sets";
    for (std::size_t i = 0; i < a.size() && shown < 4; ++i) {
        if (a[i] != b[i]) {
            char buf[200];
            std::snprintf(buf, sizeof(buf), "%s%s: %llu vs %s %llu",
                          out.empty() ? "" : "; ", a[i].first.c_str(),
                          (unsigned long long)a[i].second,
                          b[i].first.c_str(),
                          (unsigned long long)b[i].second);
            out += buf;
            ++shown;
        }
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics,
          const std::vector<Check> &checks)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}, \"checks\": [");
    for (std::size_t i = 0; i < checks.size(); ++i) {
        std::string detail;
        for (char c : checks[i].detail)
            detail += (c == '"' || c == '\\') ? '\'' : c;
        std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                    i ? ", " : "", checks[i].name.c_str(),
                    checks[i].ok ? "true" : "false", detail.c_str());
    }
    std::printf("]}\n");
}

std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, std::uint64_t attempted,
         std::uint64_t failed)
{
    std::vector<double> rates, times, setups;
    for (const Rep &r : reps) {
        rates.push_back(double(r.ops) / r.wallS);
        times.push_back(r.wallS);
        setups.push_back(r.setupS);
    }
    const Rep &r0 = reps.front();
    double elapsed = double(r0.get("sim.elapsed_ns"));
    double disk = double(r0.get("sim.disk_ns"));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    // Throughput at the 75th-percentile repetition time: the highest
    // percentile with well over ten repetitions beyond it.  On a
    // shared 4-vCPU Xeon VM the same repetition swings up to 1.7x with
    // neighbour load, and across 8-10 runs this figure spread 5-12%
    // where the median spread 13-16%.
    double t1 = 0, t3 = 0;
    quartiles(times, &t1, &t3);
    double q1 = 0, q3 = 0;
    quartiles(rates, &q1, &q3);
    std::printf("ops_per_s over %zu reps: min %.0f q1 %.0f median %.0f "
                "q3 %.0f max %.0f (iqr/median %.4f)\n",
                rates.size(), *std::min_element(rates.begin(), rates.end()),
                q1, median(rates), q3,
                *std::max_element(rates.begin(), rates.end()),
                ratio(q3 - q1, median(rates)));

    return {
        {"ops_per_s", double(r0.ops) / t3, "1/s"},
        {"sim_ns_per_op", ratio(elapsed, double(r0.ops)), "ns"},
        {"sim_sys_ns_per_op", ratio(elapsed - disk, double(r0.ops)), "ns"},
        {"op_success_ratio", 1.0 - ratio(double(failed), double(attempted)),
         "ratio"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Rep> &untraced, const std::vector<Rep> &traced,
         Ledger &ledger)
{
    const Rep &r = traced.front();
    auto c = [&](const char *name) { return double(r.get(name)); };
    const std::size_t nTraced = traced.size();
    std::vector<Metric> m;
    const double wall = ledger.wallNs;

    double attributed = 0;
    for (std::size_t i = 0; i < kNumCalls; ++i) {
        HostSamples &hs = ledger.calls[i];
        std::string base = std::string("kern.") + callName(Call(i));
        m.push_back({base + ".calls", double(hs.ns.size() / nTraced),
                     "count"});
        m.push_back({base + ".host_ns_p50", quantile(hs.ns, 0.50), "ns"});
        m.push_back({base + ".host_ns_p99", quantile(hs.ns, 0.99), "ns"});
        m.push_back({base + ".host_share", ratio(double(hs.totalNs), wall),
                     "ratio"});
        attributed += double(hs.totalNs);
    }
    m.push_back({"host.unattributed_share", 1.0 - ratio(attributed, wall),
                 "ratio"});
    std::vector<double> rates;
    for (const Rep &u : untraced)
        rates.push_back(double(u.ops) / u.wallS);
    double q1 = 0, q3 = 0;
    quartiles(rates, &q1, &q3);
    m.push_back({"host.rep_spread", ratio(q3 - q1, median(rates)),
                 "ratio"});

    m.push_back({"vm.fault.count", c("vm.faults"), "count"});
    m.push_back({"vm.fault.host_ns_p50", quantile(ledger.faultHost.ns, 0.50),
                 "ns"});
    m.push_back({"vm.fault.host_ns_p99", quantile(ledger.faultHost.ns, 0.99),
                 "ns"});
    m.push_back({"vm.fault.host_share",
                 ratio(double(ledger.faultHost.totalNs), wall), "ratio"});
    m.push_back({"vm.fault.sim_ns_p50", quantile(ledger.faultSim, 0.50), "ns"});
    m.push_back({"vm.fault.sim_ns_p99", quantile(ledger.faultSim, 0.99), "ns"});
    m.push_back({"vm.fault.zero_fill", c("vm.zero_fills"), "count"});
    m.push_back({"vm.fault.cow", c("vm.cow_faults"), "count"});
    m.push_back({"vm.fault.pagein", c("vm.pageins"), "count"});
    m.push_back({"vm.fault.busy_waits", c("vm.busy_page_waits"), "count"});

    double touchSelf = double(ledger.calls[0].totalNs) -
        double(ledger.faultHostInTouchNs);
    m.push_back({"hw.access.self_host_ns_per_page",
                 ratio(touchSelf, double(ledger.touchPages)), "ns"});
    m.push_back({"hw.tlb.hits", c("hw.tlb.hits"), "count"});
    m.push_back({"hw.tlb.misses", c("hw.tlb.misses"), "count"});
    m.push_back({"hw.tlb.flushes", c("hw.tlb.flushes"), "count"});
    m.push_back({"hw.tlb.hit_ratio",
                 ratio(c("hw.tlb.hits"), c("hw.tlb.hits") + c("hw.tlb.misses")),
                 "ratio"});

    auto ev = [&](mach::TraceEventType t) {
        return double(ledger.events[std::size_t(t)] / nTraced);
    };
    using mach::TraceEventType;
    m.push_back({"pmap.enter", ev(TraceEventType::PmapEnter), "count"});
    m.push_back({"pmap.remove", ev(TraceEventType::PmapRemove), "count"});
    m.push_back({"pmap.protect", ev(TraceEventType::PmapProtect), "count"});
    m.push_back({"pmap.remove_all", ev(TraceEventType::PmapRemoveAll),
                 "count"});
    m.push_back({"pmap.cow", ev(TraceEventType::PmapCow), "count"});
    m.push_back({"pmap.shootdown.rounds", c("tlb.shootdown_rounds"),
                 "count"});
    m.push_back({"pmap.shootdown.ipis", c("tlb.shootdown_ipis"), "count"});
    m.push_back({"pmap.shootdown.coalesced", c("tlb.shootdowns_coalesced"),
                 "count"});
    m.push_back({"pmap.shootdown.lazy_skips", c("tlb.lazy_skips"), "count"});
    m.push_back({"pmap.shootdown.ipis_per_round",
                 ratio(c("tlb.shootdown_ipis"), c("tlb.shootdown_rounds")),
                 "ratio"});

    m.push_back({"vm.pageout.passes", c("pageout.passes"), "count"});
    m.push_back({"vm.pageout.scanned", c("pageout.pages_scanned"), "count"});
    m.push_back({"vm.pageout.reclaimed", c("pageout.pages_reclaimed"),
                 "count"});
    m.push_back({"vm.pageout.laundered", c("pageout.pages_laundered"),
                 "count"});
    m.push_back({"vm.pageout.reclaim_ratio",
                 ratio(c("pageout.pages_reclaimed"),
                       c("pageout.pages_scanned")),
                 "ratio"});
    m.push_back({"vm.pageout.reactivations", c("vm.reactivations"),
                 "count"});
    m.push_back({"vm.object.created", c("vm.objects_created"), "count"});
    m.push_back({"vm.object.collapses", c("vm.object_collapses"), "count"});
    m.push_back({"vm.object.bypasses", c("vm.object_bypasses"), "count"});
    m.push_back({"vm.object.cache_hits", c("vm.objects_cached"), "count"});
    m.push_back({"vm.object.max_shadow_chain",
                 c("vm.object.max_shadow_chain"), "count"});
    m.push_back({"vm.map.lookups", c("vm.lookups"), "count"});
    m.push_back({"vm.map.hint_hit_ratio",
                 ratio(c("vm.lookup_hits"), c("vm.lookups")), "ratio"});

    m.push_back({"pager.in", ev(TraceEventType::PagerIn), "count"});
    m.push_back({"pager.out", ev(TraceEventType::PagerOut), "count"});
    m.push_back({"pager.io_errors", c("io.errors"), "count"});
    m.push_back({"pager.retries",
                 c("io.pagein_retries") + c("io.pageout_retries"), "count"});
    m.push_back({"pager.recoveries", c("io.transient_recoveries"),
                 "count"});
    m.push_back({"disk.reads", c("disk.reads"), "count"});
    m.push_back({"disk.writes", c("disk.writes"), "count"});

    double kinds = 0;
    for (const auto &[name, v] : r.delta) {
        if (name.rfind("sim.", 0) == 0 && name != "sim.elapsed_ns") {
            m.push_back({name, double(v), "ns"});
            kinds += double(v);
        }
    }
    m.push_back({"sim.elapsed_ns", c("sim.elapsed_ns"), "ns"});
    m.push_back({"sim.closure_diff_ns", kinds - c("sim.elapsed_ns"), "ns"});

    std::uint64_t events = 0;
    for (std::uint64_t e : ledger.events)
        events += e;
    std::vector<double> tw, uw;
    for (const Rep &t : traced)
        tw.push_back(t.wallS);
    for (const Rep &u : untraced)
        uw.push_back(u.wallS);
    m.push_back({"trace.events", double(events / nTraced), "count"});
    m.push_back({"trace.dropped", double(ledger.eventsDropped), "count"});
    m.push_back({"trace.overhead_ratio", ratio(median(tw), median(uw)),
                 "ratio"});
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload churn|mp_resident|file_rw "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    mach::setQuiet(true);

    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            trace = std::atoi(val);
        else
            return usage();
    }
    std::unique_ptr<Workload> w;
    if (workload == "churn")
        w = makeChurn(seed);
    else if (workload == "mp_resident")
        w = makeMpResident(seed);
    else if (workload == "file_rw")
        w = makeFileRw(seed);
    if (!w || !(seconds > 0) || (trace != 0 && trace != 1))
        return usage();

    const double untracedBudget = trace ? seconds / 2 : seconds;
    std::vector<Rep> untraced, traced;
    const std::vector<int> cpus = allowedCpus();
    std::size_t repNo = 0;
    auto nextCpu = [&] {
        if (!cpus.empty())
            pinTo(cpus[repNo++ % cpus.size()]);
    };
    Clock::time_point start = Clock::now();
    while (untraced.size() < kMinReps ||
           secondsSince(start) < untracedBudget) {
        nextCpu();
        untraced.push_back(runRep(*w, nullptr));
    }
    Ledger ledger;
    if (trace) {
        start = Clock::now();
        while (traced.empty() || secondsSince(start) < seconds / 2) {
            Ledger one;
            nextCpu();
            traced.push_back(runRep(*w, &one));
            ledger.merge(std::move(one));
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    for (const std::vector<Rep> *set : {&untraced, &traced}) {
        for (const Rep &r : *set) {
            attempted += r.ops;
            failed += r.failed;
            for (const std::string &e : r.errors) {
                if (errors.size() < 4)
                    errors.push_back(e);
            }
        }
    }

    std::vector<Check> checks;
    std::string joined;
    for (const std::string &e : errors)
        joined += (joined.empty() ? "" : "; ") + e;
    checks.push_back({"data", failed == 0, joined});

    std::string diff;
    const Rep &ref = untraced.front();
    for (std::size_t i = 1; i < untraced.size() && diff.empty(); ++i)
        diff = signatureDiff(ref.delta, untraced[i].delta);
    checks.push_back({"deterministic_reps", diff.empty(), diff});
    if (trace) {
        diff.clear();
        for (std::size_t i = 0; i < traced.size() && diff.empty(); ++i)
            diff = signatureDiff(ref.delta, traced[i].delta);
        checks.push_back({"traced_matches_untraced", diff.empty(),
                          diff.empty() ? "" : "untraced vs traced: " + diff});
    }
    std::uint64_t kinds = 0;
    for (const auto &[name, v] : ref.delta) {
        if (name.rfind("sim.", 0) == 0 && name != "sim.elapsed_ns")
            kinds += v;
    }
    std::int64_t closure =
        std::int64_t(kinds) - std::int64_t(ref.get("sim.elapsed_ns"));
    checks.push_back({"sim_closure", closure == 0,
                      "kinds - elapsed = " + std::to_string(closure)});
    if (trace) {
        checks.push_back({"trace_complete", ledger.eventsDropped == 0,
                          std::to_string(ledger.eventsDropped) +
                              " events dropped"});
    }

    std::printf("workload %s seed %llu: %zu untraced + %zu traced reps, "
                "%llu ops per rep\n",
                workload.c_str(), (unsigned long long)seed, untraced.size(),
                traced.size(), (unsigned long long)ref.ops);
    std::vector<Metric> metrics = trace
        ? perLayer(untraced, traced, ledger)
        : endToEnd(untraced, attempted, failed);
    bool correct = true;
    for (const Check &c : checks)
        correct = correct && c.ok;
    printJson(correct, attempted, failed, metrics, checks);
    return 0;
}
