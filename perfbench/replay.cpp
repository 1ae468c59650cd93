#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "os/policy_registry.hpp"
#include "tlb/hw_registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

u64
nowNanos()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("replay: unsupported ") +
                                 what);
}

/** RAII span over one layer call: always counted, timed when `on`. */
class Span
{
  public:
    Span(Tracer &tracer, Layer layer, bool on)
        : tracer_(on ? &tracer : nullptr)
    {
        tracer.count(layer);
        if (tracer_)
            tracer_->begin(layer);
    }
    ~Span()
    {
        if (tracer_)
            tracer_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace

void
Tracer::begin(Layer layer)
{
    if (depth_ == stack_.size())
        throw std::runtime_error("replay: span stack overflow");
    stack_[depth_++] = Frame{layer, nowNanos(), 0};
}

void
Tracer::end()
{
    const u64 now = nowNanos();
    Frame &frame = stack_[--depth_];
    const u64 total = now - frame.start;
    LayerTime &lt = layers_[idx(frame.layer)];
    lt.self_ns += total - std::min(total, frame.child);
    ++lt.timed;
    if (depth_ > 0)
        stack_[depth_ - 1].child += total;
}

void
LayerCounts::add(const LayerCounts &o)
{
    accesses += o.accesses;
    ltc_hits += o.ltc_hits;
    tlb_accesses += o.tlb_accesses;
    tlb_l1_hits += o.tlb_l1_hits;
    tlb_l2_hits += o.tlb_l2_hits;
    walks += o.walks;
    walker_refs += o.walker_refs;
    gen_ops += o.gen_ops;
    cache_accesses += o.cache_accesses;
    cache_l1_hits += o.cache_l1_hits;
    cache_l2_hits += o.cache_l2_hits;
    cache_llc_hits += o.cache_llc_hits;
    cache_dram += o.cache_dram;
    pcc_occupied += o.pcc_occupied;
    pcc_capacity += o.pcc_capacity;
    faults += o.faults;
    promotions += o.promotions;
    promote_no_frame += o.promote_no_frame;
    shootdowns += o.shootdowns;
    compactions += o.compactions;
    switches += o.switches;
    budget_skips += o.budget_skips;
    audit_records += o.audit_records;
    fragment_ns += o.fragment_ns;
}

struct Replay::Core
{
    explicit Core(const sim::SystemConfig &cfg)
        : tlb(cfg.tlb), walker(cfg.pwc), pcc(cfg.pcc), dcache(cfg.cache)
    {
    }

    tlb::TlbHierarchy tlb;
    pt::Walker walker;
    pcc::PccUnit pcc;
    cache::CacheHierarchy dcache;
    Cycles cycles = 0;
    u64 accesses = 0;
    u64 faults = 0;
    Addr last_page_base = 0;
    u64 last_page_bytes = 0;

    void
    noteTranslated(Addr vaddr, mem::PageSize size)
    {
        last_page_base = mem::pageBase(vaddr, size);
        last_page_bytes = mem::bytesOf(size);
    }
};

struct Replay::Lane
{
    std::unique_ptr<workloads::AccessBuffer> buf;
    Generator<workloads::BatchEnd> gen;
    u32 consumed = 0;
    bool pending_barrier = false;
    bool pending_eof = false;
    CoreId core = 0;
    u32 job = 0;
    bool done = false;
};

Replay::Replay(sim::SystemConfig config, Tracer &tracer)
    : config_(std::move(config)), tracer_(tracer)
{
    // The same pre-hardware config transforms System applies.
    if (!config_.hw.empty()) {
        const util::Status status =
            tlb::HwRegistry::instance().apply(config_.hw, config_);
        require(status.ok(), "hw backend");
    }
    if (!config_.policy_str.empty()) {
        const util::Status status =
            os::PolicyRegistry::instance().prepare(config_.policy_str,
                                                   config_);
        require(status.ok(), "policy selector");
    }
    require(config_.batch_engine, "scalar engine");
    require(!config_.sampling.enabled(), "sampling");
    require(!config_.oracle.enabled, "oracle");
    require(!config_.faults.any(), "fault injection");
    require(!config_.check_invariants, "invariant sweeps");
    require(config_.last_translation_cache, "LTC off");
    require(config_.mutation == sim::HotPathMutation::None, "mutation");
    require(!config_.record_trace, "trace recording");
    require(config_.pcc.source != pcc::CandidateSource::L2Victims,
            "L2-victim candidates");
    require(!config_.telemetry.enabled ||
                (!config_.telemetry.attribution &&
                 !config_.telemetry.histograms),
            "attribution/histogram telemetry");
    cores_.reserve(config_.num_cores);
    for (u32 c = 0; c < config_.num_cores; ++c)
        cores_.emplace_back(config_);
    core_process_.assign(config_.num_cores, nullptr);
}

Replay::~Replay() = default;

os::Process &
Replay::processOnCore(CoreId core)
{
    return *core_process_.at(core);
}

pcc::PccUnit &
Replay::pccUnit(CoreId core)
{
    return cores_.at(core).pcc;
}

void
Replay::chargeCore(CoreId core, Cycles cycles)
{
    cores_.at(core).cycles += cycles;
}

void
Replay::installHooks()
{
    os_->setShootdownHook([this](Pid pid, Addr base, u64 bytes) -> Cycles {
        Span span(tracer_, Layer::TlbFlush, true);
        ++shootdowns_;
        const Asid asid =
            (tsched_ &&
             config_.tenant.switch_mode == tenant::SwitchMode::Asid)
                ? static_cast<Asid>(pid)
                : 0;
        for (auto &core : cores_) {
            core.tlb.shootdown(base, bytes, asid);
            core.walker.shootdown(base, bytes);
            core.pcc.shootdown(base, bytes);
            core.last_page_bytes = 0;
        }
        if (bytes >= mem::kBytes2M) {
            for (u32 c = 0; c < config_.num_cores; ++c) {
                if (core_process_[c] && core_process_[c]->pid() == pid)
                    cores_[c].cycles += config_.costs.shootdown;
            }
        }
        return 0;
    });
    os_->setReclaimRanker([this](Pid pid, Addr base) -> u64 {
        const Vpn v2m = mem::vpnOf(base, mem::PageSize::Huge2M);
        const Vpn v1g = mem::vpnOf(base, mem::PageSize::Huge1G);
        u64 score = 0;
        for (u32 c = 0; c < config_.num_cores; ++c) {
            if (!tsched_ &&
                (!core_process_[c] || core_process_[c]->pid() != pid))
                continue;
            const auto &unit = cores_[c].pcc;
            if (auto f = unit.pcc2m().frequencyOf(v2m))
                score = std::max(score, *f * mem::kPagesPer2M);
            if (auto f = unit.pcc1g().frequencyOf(v1g))
                score = std::max(score, *f);
        }
        return score;
    });
}

Cycles
Replay::chargeWalkRefs(Core &core, const os::Process &proc, Addr vaddr,
                       unsigned refs, mem::PageSize size)
{
    if (!config_.timing.pt_through_dcache) {
        return config_.timing.walk_base +
               static_cast<Cycles>(refs) * config_.timing.walk_ref;
    }
    const Addr pt_base = 0xFA00'0000'0000ull +
                         (static_cast<Addr>(proc.pid()) << 44);
    Addr levels[4];
    unsigned depth = 0;
    switch (size) {
      case mem::PageSize::Base4K:
        levels[depth++] =
            pt_base + mem::vpnOf(vaddr, mem::PageSize::Base4K) * 8;
        [[fallthrough]];
      case mem::PageSize::Huge2M:
        levels[depth++] = pt_base + 0x0080'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge2M) * 8;
        [[fallthrough]];
      case mem::PageSize::Huge1G:
        levels[depth++] = pt_base + 0x00C0'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge1G) * 8;
        levels[depth++] = pt_base + 0x00E0'0000'0000ull + (vaddr >> 39) * 8;
        break;
    }
    Cycles cost = 0;
    const unsigned n = std::min(refs, depth);
    for (unsigned i = 0; i < n; ++i) {
        Span span(tracer_, Layer::Cache, tracer_.sampled());
        cost += core.dcache.access(levels[i]);
    }
    return cost;
}

Cycles
Replay::doAccess(Core &core, os::Process &proc, Addr vaddr)
{
    const bool timed = tracer_.nextAccess();
    if (timed) {
        tracer_.begin(Layer::Empty);
        tracer_.end();
    }
    Cycles cost = config_.timing.op_cost;
    ++core.accesses;
    proc.noteTouched(vaddr);

    if (!proc.faulted(vaddr)) {
        {
            Span span(tracer_, Layer::Fault, true);
            const bool want_huge = policy_->wantHugeFault(proc, vaddr);
            cost += os_->handleFault(proc, vaddr, want_huge);
        }
        ++core.faults;
        const mem::PageSize filled = proc.mappingSizeOf(vaddr);
        {
            Span span(tracer_, Layer::TlbFill, timed);
            core.tlb.fill(vaddr, filled);
        }
        core.noteTranslated(vaddr, filled);
        Span span(tracer_, Layer::Cache, timed);
        return cost + core.dcache.access(vaddr);
    }

    if (vaddr - core.last_page_base < core.last_page_bytes) {
        core.tlb.noteRepeatL1Hit();
        ++counts_.ltc_hits;
        Span span(tracer_, Layer::Cache, timed);
        return cost + core.dcache.access(vaddr);
    }

    const mem::PageSize size = proc.mappingSizeOf(vaddr);
    tlb::HitLevel level;
    {
        Span span(tracer_, Layer::TlbAccess, timed);
        level = core.tlb.access(vaddr, size);
    }
    if (level == tlb::HitLevel::L2) {
        cost += config_.timing.l2_tlb_hit;
    } else if (level == tlb::HitLevel::Miss) {
        pt::WalkOutcome walk;
        {
            Span span(tracer_, Layer::Walk, timed);
            walk = core.walker.walk(proc.pageTable(), vaddr);
            cost += chargeWalkRefs(core, proc, vaddr, walk.memory_refs,
                                   walk.size);
        }
        {
            Span span(tracer_, Layer::TlbFill, timed);
            core.tlb.fill(vaddr, size);
        }
        Span span(tracer_, Layer::PccObserve, timed);
        core.pcc.observeWalk(vaddr, walk);
    }
    core.noteTranslated(vaddr, size);
    Span span(tracer_, Layer::Cache, timed);
    return cost + core.dcache.access(vaddr);
}

void
Replay::onInterval(u32 total_lanes)
{
    ++intervals_;
    next_interval_at_ +=
        config_.interval_accesses * std::max<u32>(1, total_lanes);
    Span span(tracer_, Layer::Interval, true);
    policy_->onInterval(*this);
}

void
Replay::tenantClaim(const Lane &lane)
{
    os::Process *proc = job_process_[lane.job];
    Span span(tracer_, Layer::Claim, true);
    if (!tsched_->claim(lane.core, lane.job))
        return;
    Core &core = cores_[lane.core];
    core.cycles += config_.costs.context_switch;
    if (config_.tenant.switch_mode == tenant::SwitchMode::Flush) {
        Span flush(tracer_, Layer::TlbFlush, true);
        core.tlb.flushAll();
        core.walker.flushAll();
    } else {
        core.tlb.setCurrentAsid(static_cast<Asid>(proc->pid()));
    }
    core.last_page_bytes = 0;
    core_process_[lane.core] = proc;
}

sim::RunResult
Replay::run(std::vector<sim::System::Job> jobs)
{
    require(config_.validate().ok(), "invalid config");
    require(!jobs.empty(), "empty job list");
    const bool tenant_mode = config_.tenant.enabled();
    for (const auto &job : jobs)
        require(job.lanes == 1, "multi-lane jobs");
    require(tenant_mode || jobs.size() == 1, "multi-job legacy runs");
    const u32 total_lanes = static_cast<u32>(jobs.size());

    // Physical memory is sized from a dry setup on scratch processes,
    // exactly as System::run does (setup() runs twice per workload).
    u64 declared = 0;
    for (auto &job : jobs) {
        os::Process scratch(999, config_.heap_capacity);
        job.workload->setup(scratch);
        declared += scratch.footprintBytes();
    }
    u64 phys_bytes = config_.phys_bytes;
    if (phys_bytes == 0) {
        phys_bytes = static_cast<u64>(static_cast<double>(declared) *
                                      config_.phys_headroom);
        phys_bytes += 64ull << 20;
        phys_bytes = mem::alignUp(phys_bytes, mem::PageSize::Huge1G);
    }
    phys_ = std::make_unique<mem::PhysicalMemory>(phys_bytes);

    os::Os::Params os_params;
    os_params.costs = config_.costs;
    os_params.promote_retries = config_.promote_retries;
    os_params.reclaim_on_pressure = config_.reclaim_on_pressure;
    if (config_.promotion_cap_percent == 0.0) {
        os_params.promotion_cap_bytes = 0;
    } else if (config_.promotion_cap_percent > 0.0) {
        os_params.promotion_cap_bytes = mem::alignUp(
            static_cast<u64>(config_.promotion_cap_percent / 100.0 *
                             static_cast<double>(declared)),
            mem::PageSize::Huge2M);
    }
    os_ = std::make_unique<os::Os>(os_params, *phys_);
    {
        const std::string selector = sim::policyNameOf(config_);
        util::Status status;
        policy_ = os::PolicyRegistry::instance().make(selector, config_,
                                                      status);
        require(status.ok() && policy_, "policy");
    }
    installHooks();
    if (config_.telemetry.enabled && config_.telemetry.audit) {
        audit_ = std::make_unique<telemetry::PromotionAuditLog>(
            config_.telemetry.max_audit_records);
        audit_->setClock([this] { return total_accesses_; });
        os_->setAuditLog(audit_.get());
    }

    if (config_.frag_fraction > 0.0) {
        const u64 t0 = nowNanos();
        Rng rng(config_.seed ^ 0xf7a6);
        phys_->fragment(config_.frag_fraction, rng);
        phys_->scramble(rng);
        counts_.fragment_ns += nowNanos() - t0;
    }

    std::vector<os::Process *> procs;
    for (u32 j = 0; j < jobs.size(); ++j) {
        os::Process &proc = os_->createProcess(config_.heap_capacity);
        jobs[j].workload->setup(proc);
        if (config_.process_setup)
            config_.process_setup(proc, j);
        procs.push_back(&proc);
    }

    const u32 quantum =
        total_lanes == 1 ? std::max<u32>(1, config_.batch_capacity)
                         : std::max<u32>(1, config_.tenant.quantum_ops);
    std::vector<Lane> lanes(jobs.size());
    for (u32 j = 0; j < jobs.size(); ++j) {
        Lane &lane = lanes[j];
        lane.buf = std::make_unique<workloads::AccessBuffer>(quantum);
        lane.gen = jobs[j].workload->batchLane(0, 1, *lane.buf);
        lane.core = tenant_mode ? j % config_.tenant.cores : j;
        lane.job = j;
        if (!tenant_mode || j < config_.tenant.cores)
            core_process_[lane.core] = procs[j];
    }
    const u32 used_cores =
        tenant_mode ? std::min<u32>(config_.tenant.cores,
                                    static_cast<u32>(jobs.size()))
                    : total_lanes;
    for (u32 c = used_cores; c < config_.num_cores; ++c)
        core_process_[c] = procs[0];
    job_process_ = procs;
    if (tenant_mode) {
        tsched_ = std::make_unique<tenant::Scheduler>(
            config_.tenant, static_cast<u32>(jobs.size()));
        for (u32 c = 0; c < used_cores; ++c) {
            tsched_->seed(c, c);
            if (config_.tenant.switch_mode == tenant::SwitchMode::Asid) {
                cores_[c].tlb.setCurrentAsid(
                    static_cast<Asid>(procs[c]->pid()));
            }
        }
    }
    next_interval_at_ =
        config_.interval_accesses * std::max<u32>(1, total_lanes);

    // Per-job tallies of the shared cores' counters (tenant mode).
    std::vector<sim::JobResult> tally(jobs.size());
    std::vector<u64> tally_refs(jobs.size(), 0);
    std::vector<Cycles> job_wall(jobs.size(), 0);
    u32 live = total_lanes;
    while (live > 0) {
        for (auto &lane : lanes) {
            if (lane.done)
                continue;
            if (tsched_)
                tenantClaim(lane);
            Core &core = cores_[lane.core];
            os::Process &proc = *core_process_[lane.core];
            workloads::AccessBuffer &buf = *lane.buf;
            const u64 t_acc = core.accesses;
            const u64 t_tlb = core.tlb.accesses();
            const u64 t_l1 = core.tlb.l1Hits();
            const u64 t_l2 = core.tlb.l2Hits();
            const u64 t_walks = core.tlb.walks();
            const u64 t_faults = core.faults;
            const u64 t_refs = core.walker.totalRefs();
            u32 b = 0;
            while (b < quantum) {
                if (lane.consumed == buf.size()) {
                    if (lane.pending_barrier) {
                        // A single-lane job's barrier releases at once,
                        // but it still ends the lane's turn.
                        lane.pending_barrier = false;
                        break;
                    }
                    if (lane.pending_eof) {
                        lane.done = true;
                        --live;
                        job_wall[lane.job] = core.cycles;
                        break;
                    }
                    buf.clear();
                    lane.consumed = 0;
                    Span span(tracer_, Layer::Gen, true);
                    if (lane.gen.next()) {
                        lane.pending_barrier =
                            lane.gen.value() ==
                            workloads::BatchEnd::Barrier;
                    } else {
                        lane.pending_eof = true;
                    }
                    counts_.gen_ops += buf.size();
                    continue;
                }
                const u32 chunk =
                    std::min(buf.size() - lane.consumed, quantum - b);
                const Addr *addrs = buf.addrs() + lane.consumed;
                for (u32 i = 0; i < chunk; ++i) {
                    core.cycles += doAccess(core, proc, addrs[i]);
                    ++total_accesses_;
                    if (total_accesses_ >= next_interval_at_)
                        onInterval(total_lanes);
                }
                lane.consumed += chunk;
                b += chunk;
            }
            if (tsched_) {
                sim::JobResult &t = tally[lane.job];
                t.accesses += core.accesses - t_acc;
                t.tlb_accesses += core.tlb.accesses() - t_tlb;
                t.l1_hits += core.tlb.l1Hits() - t_l1;
                t.l2_hits += core.tlb.l2Hits() - t_l2;
                t.walks += core.tlb.walks() - t_walks;
                t.faults += core.faults - t_faults;
                tally_refs[lane.job] += core.walker.totalRefs() - t_refs;
                tsched_->noteOps(lane.job, core.accesses - t_acc);
            }
        }
    }

    sim::RunResult result;
    result.total_accesses = total_accesses_;
    result.os_background_cycles = os_->backgroundCycles();
    result.compactions = phys_->stats().get("compactions");
    result.shootdowns = shootdowns_;
    result.intervals = intervals_;
    auto &res = result.resilience;
    res.promote_retries = os_->stats().get("promote_retries");
    res.promote_retry_successes =
        os_->stats().get("promote_retry_successes");
    res.reclaim_events = os_->stats().get("reclaim_events");
    res.reclaim_demotions = os_->stats().get("reclaim_demotions");
    res.reclaimed_frames = os_->stats().get("reclaimed_frames");

    for (u32 j = 0; j < jobs.size(); ++j) {
        sim::JobResult job;
        u64 refs = 0;
        if (tsched_) {
            job = tally[j];
            refs = tally_refs[j];
        } else {
            const Core &core = cores_[lanes[j].core];
            job.accesses = core.accesses;
            job.tlb_accesses = core.tlb.accesses();
            job.l1_hits = core.tlb.l1Hits();
            job.l2_hits = core.tlb.l2Hits();
            job.walks = core.tlb.walks();
            job.faults = core.faults;
            refs = core.walker.totalRefs();
        }
        job.workload = jobs[j].workload->name();
        job.pid = procs[j]->pid();
        job.wall_cycles = job_wall[j];
        job.refs_per_walk =
            job.walks == 0 ? 0.0
                           : static_cast<double>(refs) /
                                 static_cast<double>(job.walks);
        job.promotions = procs[j]->promotions();
        job.promotions_1g = procs[j]->promotions1G();
        job.demotions = procs[j]->demotions();
        job.footprint_bytes = procs[j]->footprintBytes();
        job.promoted_bytes = procs[j]->promotedBytes();
        job.bloat_pages = procs[j]->bloatPages();
        result.wall_cycles = std::max(result.wall_cycles, job_wall[j]);
        result.jobs.push_back(std::move(job));
    }

    LayerCounts &c = counts_;
    c.accesses = total_accesses_;
    for (const Core &core : cores_) {
        c.tlb_accesses += core.tlb.accesses();
        c.tlb_l1_hits += core.tlb.l1Hits();
        c.tlb_l2_hits += core.tlb.l2Hits();
        c.walks += core.tlb.walks();
        c.walker_refs += core.walker.totalRefs();
        c.faults += core.faults;
        c.cache_accesses += core.dcache.accesses();
        c.cache_l1_hits += core.dcache.l1Hits();
        c.cache_l2_hits += core.dcache.l2Hits();
        c.cache_llc_hits += core.dcache.llcHits();
        c.cache_dram += core.dcache.dramAccesses();
        c.pcc_occupied += core.pcc.occupancy();
        c.pcc_capacity += core.pcc.pcc2m().capacity() +
                          (config_.pcc.enable_1g
                               ? core.pcc.pcc1g().capacity()
                               : 0);
    }
    c.promotions = os_->stats().get("promotions");
    c.promote_no_frame = os_->stats().get("promotion_no_frame");
    c.shootdowns = shootdowns_;
    c.compactions = result.compactions;
    c.switches = tsched_ ? tsched_->switches() : 0;
    if (audit_) {
        const telemetry::AuditReport report = audit_->report();
        c.audit_records = report.records.size() + report.records_dropped;
        for (const auto &[reason, count] : report.reason_counts) {
            if (reason == "skip:tenant-budget")
                c.budget_skips += count;
        }
    }
    return result;
}

std::string
compareResults(const sim::RunResult &untraced,
               const sim::RunResult &replayed,
               const LayerCounts &replay_counts)
{
    if (untraced.jobs.size() != replayed.jobs.size())
        return "job count";
    for (size_t j = 0; j < untraced.jobs.size(); ++j) {
        const sim::JobResult &a = untraced.jobs[j];
        const sim::JobResult &b = replayed.jobs[j];
        const std::string at = "job " + std::to_string(j) + " ";
        if (a.accesses != b.accesses) return at + "accesses";
        if (a.faults != b.faults) return at + "faults";
        if (a.tlb_accesses != b.tlb_accesses) return at + "tlb_accesses";
        if (a.l1_hits != b.l1_hits) return at + "tlb l1_hits";
        if (a.l2_hits != b.l2_hits) return at + "tlb l2_hits";
        if (a.walks != b.walks) return at + "walks";
        if (a.refs_per_walk != b.refs_per_walk) return at + "walker refs";
        if (a.promotions != b.promotions) return at + "promotions";
        if (a.wall_cycles != b.wall_cycles) return at + "wall_cycles";
        if (!(a == b)) return at + "other job fields";
    }
    if (untraced.total_accesses != replayed.total_accesses)
        return "total_accesses";
    if (untraced.compactions != replayed.compactions)
        return "compactions";
    if (untraced.shootdowns != replayed.shootdowns)
        return "shootdowns";
    if (untraced.intervals != replayed.intervals)
        return "intervals";
    if (untraced.os_background_cycles != replayed.os_background_cycles)
        return "os_background_cycles";
    if (!(untraced.resilience == replayed.resilience))
        return "resilience";
    if (untraced.telemetry) {
        const auto &tel = *untraced.telemetry;
        u64 switches = 0;
        for (const auto &[name, value] : tel.counters) {
            if (name == "tenant_switches")
                switches = value;
        }
        if (switches != replay_counts.switches)
            return "tenant switches";
        if (tel.audit.records.size() + tel.audit.records_dropped !=
            replay_counts.audit_records)
            return "audit records";
    }
    return "";
}

} // namespace perfbench
