/**
 * @file
 * pccsim benchmark program: three workloads, end-to-end metrics from
 * untraced runs, per-layer metrics from a traced replay.
 *
 *   perfbench --workload graph-sweep|suite-thp|tenant-node --seed N
 *             --seconds S --trace 0|1 [--scale small|ci]
 *             [--print-expected]
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. perfbench/README.md defines every
 * metric and workload.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "replay.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "workloads/registry.hpp"

using namespace perfbench;

namespace {

// ---------------------------------------------------------------- clocks

u64
wallNanos()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Process CPU time, all threads, user + system. */
u64
cpuNanos()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ns = [](const timeval &tv) {
        return static_cast<u64>(tv.tv_sec) * 1'000'000'000ull +
               static_cast<u64>(tv.tv_usec) * 1000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            throw std::runtime_error("geomean of a non-positive value");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
ratioOf(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// -------------------------------------------------------- run conditions

/** Steal ticks of the aggregate "cpu" line of /proc/stat. */
u64
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return 0;
    u64 fields[8] = {};
    for (u64 &f : fields)
        in >> f;
    return fields[7];
}

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double load = 0.0;
    in >> load;
    return load;
}

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Unset: graph-sweep runs at small scale, the others at ci. */
    std::optional<workloads::Scale> scale;
    bool print_expected = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "graph-sweep|suite-thp|tenant-node --seed N --seconds S "
                 "--trace 0|1 [--scale small|ci] [--print-expected]\n",
                 why.c_str());
    std::exit(2);
}

u64
parseU64(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--print-expected") {
            opt.print_expected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = parseU64(flag, value);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseU64(flag, value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--scale") {
            if (value == "small")
                opt.scale = workloads::Scale::Small;
            else if (value == "ci")
                opt.scale = workloads::Scale::Ci;
            else
                usage("--scale takes small or ci");
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!opt.scale) {
        opt.scale = opt.workload == "graph-sweep" ? workloads::Scale::Small
                                                  : workloads::Scale::Ci;
    }
    return opt;
}

// ------------------------------------------------------------ workloads

/** One simulation of a workload. */
struct Sim
{
    std::string label;                        //!< "app/policy" or mode
    std::vector<workloads::WorkloadSpec> inputs; //!< one per job
    sim::SystemConfig config;
    sim::ExperimentSpec spec; //!< Runner-driven sims only
};

/** A benchmark workload: its simulations and how a round runs them. */
struct Workload
{
    std::string name;
    std::vector<Sim> sims;
    /** Runner-driven: request order (indices into sims, repeats dedup). */
    std::vector<size_t> requests;
    u32 runner_jobs = 0; //!< 0 = sims run on sim::System directly
    /** Speedup pairs (baseline sim, policy sim) per job. */
    std::vector<std::pair<size_t, size_t>> speedup_pairs;
    /** Share-of-ideal triples (base, pcc, ideal). */
    struct Share
    {
        size_t base, pcc, ideal;
    };
    std::vector<Share> share_triples;
};

sim::ExperimentSpec
appSpec(const std::string &app, const Options &opt, sim::PolicyKind kind)
{
    sim::ExperimentSpec s;
    s.workload.name = app;
    s.workload.scale = *opt.scale;
    s.workload.seed = opt.seed;
    s.policy = kind;
    if (kind == sim::PolicyKind::Base)
        s.cap_percent = 0.0;
    return s;
}

Sim
runnerSim(std::string label, sim::ExperimentSpec spec)
{
    Sim s;
    s.label = std::move(label);
    s.inputs = {spec.workload};
    s.config = sim::configFor(spec);
    s.spec = std::move(spec);
    return s;
}

/** Add an app's runs; returns the sim index of each label suffix. */
std::map<std::string, size_t>
addApp(Workload &w, const std::string &app,
       const std::vector<std::pair<std::string, sim::ExperimentSpec>> &runs)
{
    std::map<std::string, size_t> at;
    for (const auto &[policy, spec] : runs) {
        at[policy] = w.sims.size();
        w.sims.push_back(runnerSim(app + "/" + policy, spec));
    }
    return at;
}

Workload
graphSweep(const Options &opt)
{
    Workload w;
    w.name = "graph-sweep";
    w.runner_jobs = 2;
    for (const std::string app : {"bfs", "pr"}) {
        const auto pccSized = [&](u32 entries) {
            auto s = appSpec(app, opt, sim::PolicyKind::Pcc);
            s.cap_percent = 32.0; // fig06's budget
            if (entries != 0) {
                s.tweak = [entries](sim::SystemConfig &cfg) {
                    cfg.pcc.pcc2m.entries = entries;
                };
                s.tweak_key = "pcc2m=" + std::to_string(entries);
            }
            return s;
        };
        // The hot set is about a dozen huge regions, so a PCC of 16 or
        // more entries never evicts and repeats the default's results;
        // 2 entries is below the hot set and runs the victim path.
        const auto at = addApp(
            w, app,
            {{"base-4k", appSpec(app, opt, sim::PolicyKind::Base)},
             {"all-huge", appSpec(app, opt, sim::PolicyKind::AllHuge)},
             {"pcc", pccSized(0)},
             {"pcc-2", pccSized(2)}});
        // (baseline, variant) pairs as geomeanSpeedup batches them: the
        // repeated baseline exercises the Runner's dedup.
        for (const char *variant : {"all-huge", "pcc", "pcc-2"}) {
            w.requests.push_back(at.at("base-4k"));
            w.requests.push_back(at.at(variant));
            w.speedup_pairs.push_back({at.at("base-4k"), at.at(variant)});
        }
        w.share_triples.push_back(
            {at.at("base-4k"), at.at("pcc"), at.at("all-huge")});
    }
    return w;
}

Workload
suiteThp(const Options &opt)
{
    Workload w;
    w.name = "suite-thp";
    w.runner_jobs = 1;
    for (const std::string app : {"mcf", "dedup", "omnetpp", "canneal"}) {
        const auto at = addApp(
            w, app,
            {{"base-4k", appSpec(app, opt, sim::PolicyKind::Base)},
             {"linux-thp", appSpec(app, opt, sim::PolicyKind::LinuxThp)},
             {"hawkeye", appSpec(app, opt, sim::PolicyKind::HawkEye)},
             {"pcc", appSpec(app, opt, sim::PolicyKind::Pcc)}});
        for (const char *variant : {"linux-thp", "hawkeye", "pcc"})
            w.speedup_pairs.push_back({at.at("base-4k"), at.at(variant)});
        // Without fragmentation linux-thp maps every region huge at fault
        // time, exactly as all-huge would: it is the ideal here.
        w.share_triples.push_back(
            {at.at("base-4k"), at.at("pcc"), at.at("linux-thp")});
    }
    for (size_t i = 0; i < w.sims.size(); ++i)
        w.requests.push_back(i);
    return w;
}

Workload
tenantNode(const Options &opt)
{
    Workload w;
    w.name = "tenant-node";
    const std::vector<std::string> apps = {"bfs", "mcf", "omnetpp",
                                           "canneal"};
    std::vector<workloads::WorkloadSpec> inputs;
    for (u32 t = 0; t < apps.size(); ++t) {
        workloads::WorkloadSpec spec;
        spec.name = apps[t];
        spec.scale = *opt.scale;
        spec.seed = opt.seed + t;
        inputs.push_back(spec);
    }
    const auto node = [&](const std::string &label, sim::PolicyKind kind,
                          tenant::SwitchMode mode) {
        sim::SystemConfig cfg = sim::SystemConfig::forScale(*opt.scale);
        cfg.num_cores = 1;
        cfg.tenant.cores = 1;
        cfg.tenant.switch_mode = mode;
        cfg.policy = kind;
        cfg.pcc_policy.arbiter = "propshare";
        cfg.pcc_policy.regions_to_promote = 1;
        cfg.frag_fraction = 0.9;
        if (kind == sim::PolicyKind::AllHuge) {
            // The ideal, as configFor defines it: unfragmented, ample
            // memory.
            cfg.frag_fraction = 0.0;
            cfg.phys_headroom = 2.0;
        }
        if (kind == sim::PolicyKind::Base)
            cfg.promotion_cap_percent = 0.0;
        cfg.telemetry.enabled = true;
        cfg.telemetry.audit = true;
        cfg.seed = opt.seed;
        Sim s;
        s.label = label;
        s.inputs = inputs;
        s.config = cfg;
        w.sims.push_back(std::move(s));
        return w.sims.size() - 1;
    };
    const size_t base =
        node("base-4k-asid", sim::PolicyKind::Base, tenant::SwitchMode::Asid);
    const size_t asid =
        node("pcc-asid", sim::PolicyKind::Pcc, tenant::SwitchMode::Asid);
    const size_t flush =
        node("pcc-flush", sim::PolicyKind::Pcc, tenant::SwitchMode::Flush);
    const size_t ideal = node("all-huge-asid", sim::PolicyKind::AllHuge,
                              tenant::SwitchMode::Asid);
    w.speedup_pairs = {{base, asid}, {base, flush}, {base, ideal}};
    w.share_triples = {{base, asid, ideal}};
    for (size_t i = 0; i < w.sims.size(); ++i)
        w.requests.push_back(i);
    return w;
}

Workload
makeBenchWorkload(const Options &opt)
{
    if (opt.workload == "graph-sweep")
        return graphSweep(opt);
    if (opt.workload == "suite-thp")
        return suiteThp(opt);
    if (opt.workload == "tenant-node")
        return tenantNode(opt);
    usage("unknown workload '" + opt.workload + "'");
}

// ----------------------------------------------------------------- setup

struct SetupTimes
{
    u64 build_ns = 0;    //!< graph generation + workload construction
    u64 fragment_ns = 0; //!< fragment + scramble
    u64 process_ns = 0;  //!< Workload::setup on a fresh process
};

/**
 * Build every distinct input from scratch once. Graph inputs are
 * generated directly (the registry's cache would otherwise hide the
 * cost after the first call); the product is discarded — the timed
 * simulations read the same graph from that cache.
 */
SetupTimes
setupOnce(const Workload &w)
{
    SetupTimes t;
    std::set<std::pair<std::string, u64>> seen;
    std::set<std::pair<bool, u64>> graphs; // (weighted, seed)
    u64 declared = 0;
    for (const Sim &s : w.sims) {
        for (const auto &in : s.inputs) {
            if (!seen.insert({in.name, in.seed}).second)
                continue;
            const u64 t0 = wallNanos();
            // bfs and pr read the same graph: generate it once.
            if (workloads::isGraphWorkload(in.name) &&
                graphs.insert({in.name == "sssp", in.seed}).second) {
                const workloads::ScaleParams p =
                    workloads::scaleParams(in.scale);
                graph::GraphSpec g;
                g.scale = p.graph_scale;
                g.avg_degree = p.avg_degree;
                g.kind = in.network;
                g.weighted = in.name == "sssp";
                g.seed = in.seed;
                const graph::CsrGraph built = graph::generate(g);
                if (built.numNodes() == 0)
                    throw std::runtime_error("empty graph");
            }
            workloads::WorkloadPtr wl = workloads::makeWorkload(in);
            const u64 t1 = wallNanos();
            os::Process proc(1, s.config.heap_capacity);
            wl->setup(proc);
            declared += proc.footprintBytes();
            const u64 t2 = wallNanos();
            t.build_ns += t1 - t0;
            t.process_ns += t2 - t1;
        }
    }
    std::set<std::pair<double, u64>> frags;
    for (const Sim &s : w.sims) {
        if (s.config.frag_fraction <= 0.0 ||
            !frags.insert({s.config.frag_fraction, s.config.seed}).second)
            continue;
        u64 bytes = static_cast<u64>(static_cast<double>(declared) *
                                     s.config.phys_headroom) +
                    (64ull << 20);
        bytes = mem::alignUp(bytes, mem::PageSize::Huge1G);
        const u64 t0 = wallNanos();
        mem::PhysicalMemory phys(bytes);
        Rng rng(s.config.seed ^ 0xf7a6);
        phys.fragment(s.config.frag_fraction, rng);
        phys.scramble(rng);
        t.fragment_ns += wallNanos() - t0;
    }
    return t;
}

// ---------------------------------------------------------------- rounds

using ResultPtr = std::shared_ptr<const sim::RunResult>;

struct Round
{
    std::vector<ResultPtr> results; //!< one per sim
    u64 accesses = 0;               //!< simulated accesses executed
    u64 wall_ns = 0;
    u64 cpu_ns = 0;
    /** Per-sim host time; filled when the sims run one at a time. */
    std::vector<u64> sim_wall_ns;
    std::vector<u64> sim_cpu_ns;
    double parallel_efficiency = 0.0;
    double memo_hit_ratio = 0.0;
};

std::vector<workloads::WorkloadPtr>
buildInputs(const Sim &s)
{
    std::vector<workloads::WorkloadPtr> ws;
    for (const auto &in : s.inputs)
        ws.push_back(workloads::makeWorkload(in));
    return ws;
}

std::vector<sim::System::Job>
jobsOf(const std::vector<workloads::WorkloadPtr> &ws)
{
    std::vector<sim::System::Job> jobs;
    for (const auto &wl : ws)
        jobs.push_back({wl.get(), 1});
    return jobs;
}

Round
runRound(const Workload &w, u32 runner_jobs)
{
    Round r;
    r.results.resize(w.sims.size());
    const u64 wall0 = wallNanos();
    const u64 cpu0 = cpuNanos();
    if (runner_jobs > 1) {
        sim::Runner runner(runner_jobs);
        std::vector<sim::ExperimentSpec> specs;
        for (size_t i : w.requests)
            specs.push_back(w.sims[i].spec);
        const auto out = runner.runMany(specs);
        for (size_t k = 0; k < w.requests.size(); ++k)
            r.results[w.requests[k]] = out[k];
        const sim::Runner::Stats st = runner.stats();
        r.accesses = st.total_accesses;
        r.parallel_efficiency =
            ratioOf(static_cast<double>(st.sim_nanos),
                    static_cast<double>(st.wall_nanos) * runner_jobs);
        r.memo_hit_ratio = ratioOf(static_cast<double>(st.memo_hits),
                                   static_cast<double>(st.requested));
    } else {
        // One simulation at a time, each timed on its own.
        sim::Runner runner(1);
        r.sim_wall_ns.assign(w.sims.size(), 0);
        r.sim_cpu_ns.assign(w.sims.size(), 0);
        for (size_t i : w.requests) {
            const u64 sim_wall0 = wallNanos();
            const u64 sim_cpu0 = cpuNanos();
            if (runner_jobs == 1) {
                r.results[i] = runner.run(w.sims[i].spec);
            } else {
                const auto ws = buildInputs(w.sims[i]);
                sim::System system(w.sims[i].config);
                r.results[i] = std::make_shared<const sim::RunResult>(
                    system.run(jobsOf(ws)));
            }
            r.sim_cpu_ns[i] += cpuNanos() - sim_cpu0;
            r.sim_wall_ns[i] += wallNanos() - sim_wall0;
            r.accesses += r.results[i]->total_accesses;
        }
        r.parallel_efficiency = 1.0;
        if (runner_jobs == 1) {
            const sim::Runner::Stats st = runner.stats();
            r.parallel_efficiency =
                ratioOf(static_cast<double>(st.sim_nanos),
                        static_cast<double>(st.wall_nanos));
            r.memo_hit_ratio = ratioOf(static_cast<double>(st.memo_hits),
                                       static_cast<double>(st.requested));
        }
    }
    r.cpu_ns = cpuNanos() - cpu0;
    r.wall_ns = wallNanos() - wall0;
    for (const ResultPtr &p : r.results) {
        if (!p)
            throw std::runtime_error("simulation produced no result");
    }
    return r;
}

// ---------------------------------------------------------------- checks

/** The counters the expected-values file pins, as one line. */
std::string
counterLine(const Options &opt, const Workload &w, const Sim &s,
            const sim::RunResult &r)
{
    std::ostringstream os;
    os << workloads::to_string(*opt.scale) << ' ' << w.name << ' '
       << s.label;
    for (size_t j = 0; j < r.jobs.size(); ++j) {
        const sim::JobResult &jr = r.jobs[j];
        const std::string p = " j" + std::to_string(j) + ".";
        os << p << "wall_cycles=" << jr.wall_cycles << p
           << "accesses=" << jr.accesses << p
           << "tlb_accesses=" << jr.tlb_accesses << p
           << "l1_hits=" << jr.l1_hits << p << "l2_hits=" << jr.l2_hits
           << p << "walks=" << jr.walks << p << "faults=" << jr.faults
           << p << "promotions=" << jr.promotions;
    }
    os << " compactions=" << r.compactions << " shootdowns="
       << r.shootdowns << " intervals=" << r.intervals;
    return os.str();
}

/** Seed-independent invariants of one result; "" when they hold. */
std::string
checkInvariants(const sim::RunResult &r)
{
    if (r.jobs.empty())
        return "no jobs";
    u64 accesses = 0;
    for (const sim::JobResult &j : r.jobs) {
        if (j.l1_hits + j.l2_hits + j.walks != j.tlb_accesses)
            return "l1_hits + l2_hits + walks != tlb_accesses";
        if (j.accesses == 0 || j.wall_cycles == 0)
            return "empty job";
        accesses += j.accesses;
    }
    if (accesses != r.total_accesses)
        return "job accesses do not sum to total_accesses";
    return "";
}

/** Expected counter lines keyed by "scale workload label". */
std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected values " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string scale, workload, label;
        is >> scale >> workload >> label;
        out[scale + ' ' + workload + ' ' + label] = line;
    }
    return out;
}

// The seed the committed expected values were produced with.
constexpr u64 kExpectedSeed = 1;

struct Verdict
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> notes;

    void
    fail(const std::string &note)
    {
        ++failed;
        if (notes.size() < 20)
            notes.push_back(note);
    }
};

/** Per-round checks: invariants, and equality with the first round. */
void
checkRound(const Workload &w, const Round &round, const Round &first,
           Verdict &v)
{
    for (size_t i = 0; i < w.sims.size(); ++i) {
        ++v.attempted;
        const std::string bad = checkInvariants(*round.results[i]);
        if (!bad.empty())
            v.fail(w.sims[i].label + ": " + bad);
        else if (!(*round.results[i] == *first.results[i]))
            v.fail(w.sims[i].label + ": result differs between rounds");
    }
}

/** Once-per-run checks against the expected values and serial runs. */
void
checkOnce(const Options &opt, const Workload &w, const Round &first,
          Verdict &v)
{
    if (opt.seed == kExpectedSeed) {
        const auto expected = loadExpected(PERFBENCH_EXPECTED);
        for (size_t i = 0; i < w.sims.size(); ++i) {
            const std::string line =
                counterLine(opt, w, w.sims[i], *first.results[i]);
            const std::string key = workloads::to_string(*opt.scale) + ' ' +
                                    w.name + ' ' + w.sims[i].label;
            const auto it = expected.find(key);
            ++v.attempted;
            if (it == expected.end())
                v.fail(w.sims[i].label + ": no expected values");
            else if (it->second != line)
                v.fail(w.sims[i].label + ": counters differ from expected");
        }
    }
    if (w.runner_jobs > 1) {
        // The parallel Runner must reproduce a serial run exactly.
        const Round serial = runRound(w, 1);
        for (size_t i = 0; i < w.sims.size(); ++i) {
            ++v.attempted;
            if (!(*serial.results[i] == *first.results[i]))
                v.fail(w.sims[i].label + ": 2-worker result differs "
                                         "from serial");
        }
    }
}

// --------------------------------------------------------------- metrics

using Metrics = std::vector<std::pair<std::string, std::pair<double,
                                                             std::string>>>;

void
put(Metrics &m, const std::string &name, double value,
    const std::string &unit)
{
    m.push_back({name, {value, unit}});
}

/** Exact simulated outcomes of one round's results. */
void
simulatedMetrics(const Workload &w, const Round &r, Metrics &m)
{
    double cycles = 0, walks = 0, accesses = 0;
    for (const ResultPtr &p : r.results) {
        cycles += static_cast<double>(p->wall_cycles);
        for (const auto &j : p->jobs) {
            walks += static_cast<double>(j.walks);
            accesses += static_cast<double>(j.accesses);
        }
    }
    std::vector<double> speedups;
    for (const auto &[base, policy] : w.speedup_pairs) {
        const auto &b = *r.results[base];
        const auto &p = *r.results[policy];
        for (size_t j = 0; j < b.jobs.size(); ++j)
            speedups.push_back(sim::speedup(b, p, j));
    }
    std::vector<double> shares;
    for (const auto &t : w.share_triples) {
        const auto &b = *r.results[t.base];
        for (size_t j = 0; j < b.jobs.size(); ++j) {
            const double s_pcc = sim::speedup(b, *r.results[t.pcc], j);
            const double s_ideal = sim::speedup(b, *r.results[t.ideal], j);
            shares.push_back((s_pcc - 1.0) / (s_ideal - 1.0));
        }
    }
    put(m, "sim_gcycles", cycles / 1e9, "Gcycles");
    put(m, "sim_walks_per_kacc", 1000.0 * walks / accesses, "1/kacc");
    put(m, "sim_speedup_geomean", geomean(speedups), "x");
    put(m, "sim_pcc_share_of_ideal", geomean(shares), "share");
}

// ------------------------------------------------------------- printing

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const Verdict &v, const Metrics &m)
{
    std::string out = "{\"correct\": ";
    out += v.failed == 0 && v.attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<u64>(1, v.attempted));
    out += ", \"failed\": " +
           std::to_string(v.attempted == 0 ? 1 : v.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + m[i].first + "\": {\"value\": " +
               fmt(m[i].second.first) + ", \"unit\": \"" +
               m[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------------ the runs

// Set-up is timed in samples of at least kSetupSampleNs each: a sample
// repeats the whole set-up back to back and keeps the mean, so a set-up
// far shorter than the timer's noise still reads steadily. Sampling
// repeats at least kMinSetupSamples times and until it has taken
// kSetupBudgetNs, at most kMaxSetupSamples times; setup_s is the median
// sample.
constexpr int kMinSetupSamples = 5;
constexpr int kMaxSetupSamples = 25;
constexpr u64 kSetupSampleNs = 40'000'000;
constexpr u64 kSetupBudgetNs = 1'000'000'000;

struct SetupSummary
{
    double setup_s = 0;
    double build_s = 0;
};

SetupSummary
measureSetup(const Workload &w)
{
    std::vector<double> total, build;
    const u64 t0 = wallNanos();
    for (int i = 0; i < kMaxSetupSamples; ++i) {
        if (i >= kMinSetupSamples && wallNanos() - t0 >= kSetupBudgetNs)
            break;
        SetupTimes sum;
        u64 reps = 0;
        const u64 s0 = wallNanos();
        do {
            const SetupTimes t = setupOnce(w);
            sum.build_ns += t.build_ns;
            sum.fragment_ns += t.fragment_ns;
            sum.process_ns += t.process_ns;
            ++reps;
        } while (wallNanos() - s0 < kSetupSampleNs);
        const double n = static_cast<double>(reps);
        total.push_back(static_cast<double>(sum.build_ns + sum.fragment_ns +
                                            sum.process_ns) /
                        1e9 / n);
        build.push_back(static_cast<double>(sum.build_ns) / 1e9 / n);
    }
    return {median(total), median(build)};
}

void
runUntraced(const Options &opt, const Workload &w, Verdict &v,
            Metrics &m)
{
    const SetupSummary setup = measureSetup(w);
    std::vector<Round> rounds;
    const u64 deadline =
        wallNanos() + static_cast<u64>(opt.seconds * 1e9);
    do {
        rounds.push_back(runRound(w, w.runner_jobs));
        checkRound(w, rounds.back(), rounds.front(), v);
    } while (wallNanos() < deadline);
    checkOnce(opt, w, rounds.front(), v);

    // Host load only ever slows a simulation down, and it comes and goes
    // within seconds: the fastest time of each piece of work is the
    // steadiest estimate of what the code costs. The pieces are single
    // simulations where they run one at a time, else whole rounds.
    std::vector<double> wall, per_access;
    for (const Round &r : rounds) {
        wall.push_back(static_cast<double>(r.wall_ns) / 1e9);
        per_access.push_back(static_cast<double>(r.cpu_ns) /
                             static_cast<double>(r.accesses));
    }
    double fastest_wall = 0, fastest_cpu_per_access = 0;
    if (rounds.front().sim_cpu_ns.empty()) {
        fastest_wall = *std::min_element(wall.begin(), wall.end());
        fastest_cpu_per_access =
            *std::min_element(per_access.begin(), per_access.end());
    } else {
        double cpu_ns = 0;
        for (size_t i = 0; i < w.sims.size(); ++i) {
            u64 best_wall = ~0ull, best_cpu = ~0ull;
            for (const Round &r : rounds) {
                best_wall = std::min(best_wall, r.sim_wall_ns[i]);
                best_cpu = std::min(best_cpu, r.sim_cpu_ns[i]);
            }
            fastest_wall += static_cast<double>(best_wall) / 1e9;
            cpu_ns += static_cast<double>(best_cpu);
        }
        fastest_cpu_per_access =
            cpu_ns / static_cast<double>(rounds.front().accesses);
    }
    put(m, "wall_s", setup.setup_s + fastest_wall, "s");
    put(m, "setup_s", setup.setup_s, "s");
    put(m, "cpu_ns_per_access", fastest_cpu_per_access, "ns");
    put(m, "peak_rss_mb", peakRssMb(), "MB");
    put(m, "ok_share",
        ratioOf(static_cast<double>(v.attempted - v.failed),
                static_cast<double>(v.attempted)),
        "share");
    simulatedMetrics(w, rounds.front(), m);
    std::printf("rounds %zu, accesses/round %llu, cpu ns/access:",
                rounds.size(),
                static_cast<unsigned long long>(rounds.front().accesses));
    for (double x : per_access)
        std::printf(" %.2f", x);
    std::printf("\n");
}

void
runTraced(const Options &opt, const Workload &w, Verdict &v, Metrics &m)
{
    const SetupSummary setup = measureSetup(w);
    Tracer tracer(64);
    LayerCounts counts;
    std::vector<double> untraced_cpu, replay_cpu;
    double efficiency = 0, memo = 0;
    u64 replayed_accesses = 0;
    const u64 deadline =
        wallNanos() + static_cast<u64>(opt.seconds * 1e9);
    do {
        const Round round = runRound(w, w.runner_jobs);
        untraced_cpu.push_back(static_cast<double>(round.cpu_ns) /
                               static_cast<double>(round.accesses));
        efficiency = round.parallel_efficiency;
        memo = round.memo_hit_ratio;
        const u64 cpu0 = cpuNanos();
        u64 accesses = 0;
        for (size_t i = 0; i < w.sims.size(); ++i) {
            ++v.attempted;
            const auto ws = buildInputs(w.sims[i]);
            Replay replay(w.sims[i].config, tracer);
            const sim::RunResult replayed = replay.run(jobsOf(ws));
            accesses += replayed.total_accesses;
            counts.add(replay.counts());
            const std::string diff = compareResults(
                *round.results[i], replayed, replay.counts());
            if (!diff.empty())
                v.fail(w.sims[i].label + ": replay differs in " + diff);
        }
        replayed_accesses += accesses;
        replay_cpu.push_back(static_cast<double>(cpuNanos() - cpu0) /
                             static_cast<double>(accesses));
    } while (wallNanos() < deadline);

    const double acc = static_cast<double>(counts.accesses);
    const LayerTime &empty = tracer.layer(Layer::Empty);
    const double span_ns = ratioOf(static_cast<double>(empty.self_ns),
                                   static_cast<double>(empty.timed));
    const auto kacc = [&](u64 n) {
        return 1000.0 * static_cast<double>(n) / acc;
    };
    // Mean self time per call, less the cost of an empty span; and the
    // estimated total self time of all calls (sampled layers scale up).
    const auto meanNs = [&](Layer l) {
        const LayerTime &t = tracer.layer(l);
        return t.timed == 0 ? 0.0
                            : static_cast<double>(t.self_ns) /
                                      static_cast<double>(t.timed) -
                                  span_ns;
    };
    double layer_ns_total = 0;
    for (unsigned l = 0; l < static_cast<unsigned>(Layer::Empty); ++l) {
        const Layer layer = static_cast<Layer>(l);
        layer_ns_total += std::max(0.0, meanNs(layer)) *
                          static_cast<double>(tracer.layer(layer).calls);
    }
    const double untraced = median(untraced_cpu);

    put(m, "workloads.gen_ns_per_op",
        ratioOf(static_cast<double>(tracer.layer(Layer::Gen).self_ns) -
                    span_ns * static_cast<double>(
                                  tracer.layer(Layer::Gen).timed),
                static_cast<double>(counts.gen_ops)),
        "ns");
    put(m, "workloads.build_s", setup.build_s, "s");
    put(m, "sim.sched_ns_per_access", untraced - layer_ns_total / acc, "ns");
    put(m, "runner.parallel_efficiency", efficiency, "share");
    put(m, "runner.memo_hit_ratio", memo, "share");
    put(m, "tlb.access_ns", meanNs(Layer::TlbAccess), "ns");
    put(m, "tlb.fill_ns", meanNs(Layer::TlbFill), "ns");
    put(m, "tlb.flush_ns", meanNs(Layer::TlbFlush), "ns");
    put(m, "tlb.calls_per_kacc", kacc(tracer.layer(Layer::TlbAccess).calls),
        "1/kacc");
    put(m, "tlb.ltc_hit_ratio",
        ratioOf(static_cast<double>(counts.ltc_hits),
                static_cast<double>(counts.tlb_accesses)),
        "share");
    put(m, "tlb.l1_hit_ratio",
        ratioOf(static_cast<double>(counts.tlb_l1_hits),
                static_cast<double>(counts.tlb_accesses)),
        "share");
    put(m, "tlb.l2_hit_ratio",
        ratioOf(static_cast<double>(counts.tlb_l2_hits),
                static_cast<double>(counts.tlb_accesses -
                                    counts.tlb_l1_hits)),
        "share");
    put(m, "pt.walk_ns", meanNs(Layer::Walk), "ns");
    put(m, "pt.walks_per_kacc", kacc(counts.walks), "1/kacc");
    put(m, "pt.refs_per_walk",
        ratioOf(static_cast<double>(counts.walker_refs),
                static_cast<double>(counts.walks)),
        "count");
    put(m, "pcc.observe_ns", meanNs(Layer::PccObserve), "ns");
    put(m, "pcc.calls_per_kacc",
        kacc(tracer.layer(Layer::PccObserve).calls), "1/kacc");
    put(m, "pcc.occupancy_share",
        ratioOf(static_cast<double>(counts.pcc_occupied),
                static_cast<double>(counts.pcc_capacity)),
        "share");
    put(m, "cache.access_ns", meanNs(Layer::Cache), "ns");
    put(m, "cache.calls_per_kacc", kacc(tracer.layer(Layer::Cache).calls),
        "1/kacc");
    const double c_l2 =
        static_cast<double>(counts.cache_accesses - counts.cache_l1_hits);
    const double c_llc = c_l2 - static_cast<double>(counts.cache_l2_hits);
    put(m, "cache.l1_hit_ratio",
        ratioOf(static_cast<double>(counts.cache_l1_hits),
                static_cast<double>(counts.cache_accesses)),
        "share");
    put(m, "cache.l2_hit_ratio",
        ratioOf(static_cast<double>(counts.cache_l2_hits), c_l2), "share");
    put(m, "cache.llc_hit_ratio",
        ratioOf(static_cast<double>(counts.cache_llc_hits), c_llc),
        "share");
    put(m, "cache.dram_per_kacc", kacc(counts.cache_dram), "1/kacc");
    put(m, "os.fault_ns", meanNs(Layer::Fault), "ns");
    put(m, "os.faults_per_kacc", kacc(counts.faults), "1/kacc");
    put(m, "os.interval_ns", meanNs(Layer::Interval), "ns");
    put(m, "os.promotions", static_cast<double>(counts.promotions), "count");
    put(m, "os.promote_success_ratio",
        ratioOf(static_cast<double>(counts.promotions),
                static_cast<double>(counts.promotions +
                                    counts.promote_no_frame)),
        "share");
    put(m, "os.shootdowns", static_cast<double>(counts.shootdowns), "count");
    put(m, "mem.fragment_s", static_cast<double>(counts.fragment_ns) / 1e9,
        "s");
    put(m, "mem.compactions", static_cast<double>(counts.compactions),
        "count");
    put(m, "mem.compaction_runs_per_promotion",
        ratioOf(static_cast<double>(counts.compactions),
                static_cast<double>(counts.promotions)),
        "count");
    put(m, "tenant.claim_ns", meanNs(Layer::Claim), "ns");
    put(m, "tenant.switches_per_kacc", kacc(counts.switches), "1/kacc");
    put(m, "tenant.budget_skips", static_cast<double>(counts.budget_skips),
        "count");
    put(m, "telemetry.audit_records",
        static_cast<double>(counts.audit_records), "count");
    put(m, "trace.span_ns", span_ns, "ns");
    put(m, "trace.overhead_ratio", median(replay_cpu) / untraced, "x");
    std::printf("replayed %llu accesses in %zu passes\n",
                static_cast<unsigned long long>(replayed_accesses),
                replay_cpu.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const Workload w = makeBenchWorkload(opt);

    const u64 steal0 = stealTicks();
    const u64 wall0 = wallNanos();
    const u64 cpu0 = cpuNanos();
    Verdict v;
    Metrics m;
    try {
        // Keep every input alive for the whole run: graph inputs then
        // stay in the registry cache and no timed round rebuilds them.
        std::vector<workloads::WorkloadPtr> keep;
        for (const Sim &s : w.sims) {
            for (auto &wl : buildInputs(s))
                keep.push_back(std::move(wl));
        }
        if (opt.print_expected) {
            const Round r = runRound(w, w.runner_jobs);
            for (size_t i = 0; i < w.sims.size(); ++i)
                std::printf("%s\n",
                            counterLine(opt, w, w.sims[i], *r.results[i])
                                .c_str());
            return 0;
        }
        if (opt.trace)
            runTraced(opt, w, v, m);
        else
            runUntraced(opt, w, v, m);
    } catch (const std::exception &e) {
        v.fail(std::string("exception: ") + e.what());
    }
    for (const std::string &note : v.notes)
        std::printf("FAILED %s\n", note.c_str());
    std::printf("conditions {\"nproc\": %ld, \"load1\": %.2f, "
                "\"steal_ticks\": %llu, \"wall_s\": %.3f, \"cpu_s\": %.3f}\n",
                sysconf(_SC_NPROCESSORS_ONLN), loadAverage1(),
                static_cast<unsigned long long>(stealTicks() - steal0),
                static_cast<double>(wallNanos() - wall0) / 1e9,
                static_cast<double>(cpuNanos() - cpu0) / 1e9);
    printResult(v, m);
    return 0;
}
