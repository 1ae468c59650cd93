#include "sim/system.hpp"

#include <algorithm>

#include "os/policy_registry.hpp"
#include "sim/invariants.hpp"
#include "tlb/hw_registry.hpp"
#include "util/host_profile.hpp"
#include "util/log.hpp"

namespace pccsim::sim {

std::string
to_string(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Base: return "base-4k";
      case PolicyKind::AllHuge: return "all-huge";
      case PolicyKind::LinuxThp: return "linux-thp";
      case PolicyKind::HawkEye: return "hawkeye";
      case PolicyKind::Pcc: return "pcc";
      case PolicyKind::TraceReplay: return "trace-replay";
    }
    return "?";
}

std::optional<PolicyKind>
parsePolicyKind(std::string_view name)
{
    // Compatibility shim: the accepted names and aliases now live in
    // the policy registry, keyed back onto the enum via legacy_kind.
    // Registry-only contenders (trident, ubpf, ...) have no enum value
    // and correctly fall out as nullopt here; select those through
    // applyPolicySelector().
    const os::PolicyRegistry::Entry *entry =
        os::PolicyRegistry::instance().find(name);
    if (entry && entry->legacy_kind >= 0)
        return static_cast<PolicyKind>(entry->legacy_kind);
    return std::nullopt;
}

util::Status
applyPolicySelector(SystemConfig &cfg, std::string_view selector)
{
    const os::PolicyRegistry &reg = os::PolicyRegistry::instance();
    const util::Selector sel = util::Selector::parse(selector);
    const os::PolicyRegistry::Entry *entry = reg.find(sel.key);
    if (!entry)
        return reg.unknownKeyError(sel.key);
    if (sel.params.empty() && entry->legacy_kind >= 0) {
        // Bare legacy keys canonicalize onto the enum: spec keys, memo
        // entries, and baselines stay bit-identical to pre-registry
        // builds.
        cfg.policy = static_cast<PolicyKind>(entry->legacy_kind);
        cfg.policy_str.clear();
        return {};
    }
    if (util::Status status = reg.validateSelector(selector);
        !status.ok())
        return status;
    cfg.policy_str = std::string(selector);
    return {};
}

std::string
policyNameOf(const SystemConfig &cfg)
{
    return cfg.policy_str.empty() ? to_string(cfg.policy)
                                  : cfg.policy_str;
}

namespace {

template <typename Entries>
std::string
listText(const Entries &entries)
{
    std::string out;
    for (const auto &entry : entries) {
        out += "  ";
        out += entry.key;
        const size_t pad =
            entry.key.size() < 14 ? 14 - entry.key.size() : 1;
        out.append(pad, ' ');
        out += entry.description;
        if (!entry.grammar.empty()) {
            out += "  [";
            out += entry.grammar;
            out += "]";
        }
        out += "\n";
    }
    return out;
}

} // namespace

std::string
policyListText()
{
    return listText(os::PolicyRegistry::instance().entries());
}

std::string
hwListText()
{
    return listText(tlb::HwRegistry::instance().entries());
}

namespace {

bool
isPow2(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Ops a lane of a multi-lane run consumes per turn (see run()). */
constexpr u32 kSchedQuantum = 64;

} // namespace

util::Status
SystemConfig::validate() const
{
    using util::Status;
    Status status;

    if (num_cores < 1)
        status.update(Status::error("num_cores must be >= 1"));

    // Registry selectors fail here — with a nearest-key suggestion —
    // instead of silently falling back to a default policy/hardware.
    if (!policy_str.empty()) {
        status.update(os::PolicyRegistry::instance().validateSelector(
            policy_str));
    }
    if (!hw.empty()) {
        status.update(
            tlb::HwRegistry::instance().validateSelector(hw));
    }

    const auto checkTlb = [&status](const char *label,
                                    const tlb::TlbParams &p) {
        if (p.ways == 0) {
            status.update(Status::error(label, ": zero-way TLB"));
            return;
        }
        // 32 ways is the widest TLB the differential tests cover.
        if (p.ways > 32) {
            status.update(Status::error(
                label, ": ", p.ways, " ways exceeds the 32-way limit"));
            return;
        }
        if (p.entries == 0) {
            status.update(Status::error(label, ": zero entries"));
            return;
        }
        if (p.entries % p.ways != 0) {
            status.update(Status::error(
                label, ": entries (", p.entries,
                ") not a multiple of ways (", p.ways, ")"));
            return;
        }
        if (!isPow2(p.entries / p.ways)) {
            status.update(Status::error(
                label, ": non-power-of-two set count ",
                p.entries / p.ways));
        }
    };
    checkTlb("tlb.l1_4k", tlb.l1_4k);
    checkTlb("tlb.l1_2m", tlb.l1_2m);
    checkTlb("tlb.l1_1g", tlb.l1_1g);
    checkTlb("tlb.l2", tlb.l2);
    if (pwc.enabled) {
        checkTlb("pwc.pml4e", pwc.pml4e);
        checkTlb("pwc.pdpte", pwc.pdpte);
        checkTlb("pwc.pde", pwc.pde);
    }

    const auto checkCache = [&status](const char *label,
                                      const cache::CacheParams &p) {
        if (p.ways == 0) {
            status.update(Status::error(label, ": zero-way cache"));
            return;
        }
        if (p.ways > cache::Cache::kMaxWays) {
            status.update(Status::error(
                label, ": ", p.ways, " ways exceeds the ",
                cache::Cache::kMaxWays, "-way limit of a u8 LRU rank"));
            return;
        }
        if (!isPow2(p.line_bytes)) {
            status.update(Status::error(
                label, ": line size ", p.line_bytes,
                " not a power of two"));
            return;
        }
        const u64 way_bytes = static_cast<u64>(p.ways) * p.line_bytes;
        if (p.size_bytes == 0 || p.size_bytes % way_bytes != 0) {
            status.update(Status::error(
                label, ": size ", p.size_bytes,
                " not a multiple of ways x line (", way_bytes, ")"));
        }
        // Unlike the TLBs, non-power-of-two cache set counts are a
        // supported geometry (the model falls back to modulo
        // indexing): real LLC slices — e.g. the paper profile's
        // 20MB 16-way Haswell LLC — land on 20480 sets.
    };
    if (cache.enabled) {
        checkCache("cache.l1", cache.l1);
        checkCache("cache.l2", cache.l2);
        checkCache("cache.llc", cache.llc);
    }

    const auto checkPcc = [&status](const char *label,
                                    const pcc::PccConfig &p) {
        if (p.entries == 0)
            status.update(Status::error(label, ": zero entries"));
        if (p.counter_bits < 1 || p.counter_bits > 63) {
            status.update(Status::error(
                label, ": counter_bits ", p.counter_bits,
                " outside [1, 63]"));
        }
    };
    checkPcc("pcc.pcc2m", pcc.pcc2m);
    if (pcc.enable_1g)
        checkPcc("pcc.pcc1g", pcc.pcc1g);

    if (interval_accesses == 0)
        status.update(Status::error("interval_accesses must be >= 1"));
    if (sampling.enabled()) {
        if (sampling.fastforward == 0) {
            status.update(Status::error(
                "sampling.fastforward must be >= 1 when sampling"));
        }
        if (!batch_engine) {
            status.update(Status::error(
                "sampling requires the batch engine"));
        }
        if (oracle.enabled) {
            status.update(Status::error(
                "sampling is incompatible with the oracle (the "
                "reference model cannot skip fast-forward phases)"));
        }
    }
    if (batch_capacity == 0)
        status.update(Status::error("batch_capacity must be >= 1"));
    if (oracle.enabled && oracle.sample_every == 0)
        status.update(Status::error("oracle.sample_every must be >= 1"));
    if (promotion_cap_percent > 100.0) {
        status.update(Status::error(
            "promotion_cap_percent ", promotion_cap_percent,
            " exceeds 100"));
    }
    if (frag_fraction < 0.0 || frag_fraction > 1.0) {
        status.update(Status::error(
            "frag_fraction ", frag_fraction, " outside [0, 1]"));
    }
    if (phys_bytes == 0 && phys_headroom <= 0.0) {
        status.update(Status::error(
            "phys_headroom must be positive when phys_bytes is auto"));
    }
    if (heap_capacity < mem::kBytes2M) {
        status.update(Status::error(
            "heap_capacity ", heap_capacity, " below one 2MB region"));
    }
    if (telemetry.enabled && telemetry.top_k == 0)
        status.update(Status::error("telemetry.top_k must be >= 1"));
    if (telemetry.enabled && telemetry.attribution &&
        telemetry.attribution_regions == 0) {
        status.update(
            Status::error("telemetry.attribution_regions must be >= 1"));
    }
    if (telemetry.enabled && telemetry.audit &&
        telemetry.max_audit_records == 0) {
        status.update(
            Status::error("telemetry.max_audit_records must be >= 1"));
    }
    if (telemetry.enabled && telemetry.histograms &&
        telemetry.exemplar_k == 0) {
        status.update(Status::error(
            "telemetry.exemplar_k must be >= 1 when histograms are on"));
    }
    if (tenant.enabled()) {
        if (!batch_engine) {
            status.update(Status::error(
                "tenant mode requires the batch engine"));
        }
        if (sampling.enabled()) {
            status.update(Status::error(
                "tenant mode is incompatible with sampling"));
        }
        if (oracle.enabled) {
            status.update(Status::error(
                "tenant mode is incompatible with the oracle (the "
                "reference model has no ASID/switch notion)"));
        }
        if (tenant.cores > num_cores) {
            status.update(Status::error(
                "tenant.cores (", tenant.cores, ") exceeds num_cores (",
                num_cores, ")"));
        }
        if (tenant.quantum_ops == 0) {
            status.update(
                Status::error("tenant.quantum_ops must be >= 1"));
        }
    }

    return status;
}

System::System(SystemConfig config) : config_(std::move(config))
{
    // Config transforms must land before any core hardware is built:
    // the hw backend reshapes TLB/cache geometry, and a policy's
    // prepare hook may enable the 1GB PCC.
    if (!config_.hw.empty()) {
        if (util::Status status =
                tlb::HwRegistry::instance().apply(config_.hw, config_);
            !status.ok()) {
            fatal("hw backend '", config_.hw,
                  "': ", status.toString());
        }
    }
    if (!config_.policy_str.empty()) {
        if (util::Status status =
                os::PolicyRegistry::instance().prepare(
                    config_.policy_str, config_);
            !status.ok()) {
            fatal("policy '", config_.policy_str,
                  "': ", status.toString());
        }
    }
    PCCSIM_ASSERT(config_.num_cores >= 1);
    cores_.reserve(config_.num_cores);
    for (u32 c = 0; c < config_.num_cores; ++c)
        cores_.emplace_back(config_);
    core_process_.assign(config_.num_cores, nullptr);
    // Victim-buffer candidate source (Sec. 5.4.1 alternative). Only
    // wire the hook when that source is selected: observeL2Victim() is
    // a no-op otherwise, and an unset hook lets the TLB skip a
    // std::function call on every L2 displacement (a hot-path cost on
    // walk-heavy workloads).
    if (config_.pcc.source == pcc::CandidateSource::L2Victims) {
        for (auto &core : cores_) {
            core.tlb.setL2VictimHook(
                [&core](Vpn vpn, mem::PageSize size) {
                    core.pcc.observeL2Victim(vpn, size);
                });
        }
    }
}

System::~System() = default;

std::unique_ptr<os::Policy>
System::makePolicy()
{
    // Enum and selector both resolve through the registry; a bare
    // legacy key's factory builds from the config's policy params,
    // exactly what the old PolicyKind switch constructed.
    const std::string selector = config_.policy_str.empty()
                                     ? to_string(config_.policy)
                                     : config_.policy_str;
    util::Status status;
    std::unique_ptr<os::Policy> policy =
        os::PolicyRegistry::instance().make(selector, config_, status);
    if (!status.ok())
        fatal("policy '", selector, "': ", status.toString());
    PCCSIM_ASSERT(policy != nullptr);
    return policy;
}

os::Process &
System::processOnCore(CoreId core)
{
    PCCSIM_ASSERT(core < core_process_.size() && core_process_[core]);
    return *core_process_[core];
}

pcc::PccUnit &
System::pccUnit(CoreId core)
{
    return cores_.at(core).pcc;
}

void
System::chargeCore(CoreId core, Cycles cycles)
{
    cores_.at(core).cycles += cycles;
}

void
System::installShootdownHook()
{
    os_->setShootdownHook([this](Pid pid, Addr base, u64 bytes) -> Cycles {
        ++shootdowns_;
        // Under ASID switching the owner's entries are tagged with its
        // pid; the invalidation must target that tag or it would miss
        // them entirely. Flush mode (and legacy runs) tag everything 0.
        const Asid asid =
            (tsched_ &&
             config_.tenant.switch_mode == tenant::SwitchMode::Asid)
                ? static_cast<Asid>(pid)
                : 0;
        for (auto &core : cores_) {
            core.tlb.shootdown(base, bytes, asid);
            core.walker.shootdown(base, bytes);
            core.pcc.shootdown(base, bytes);
            // The mapping (size or frame) changed somewhere; drop the
            // last-translation fast path so the next access re-probes.
            if (config_.mutation != HotPathMutation::StaleLtc)
                core.last_page_bytes = 0;
        }
        if (oracle_)
            oracle_->onShootdown(base, bytes);
        // The IPI cost lands on every core running the owning process.
        // Per-4KB invalidations (migration) are batched by the kernel
        // and charged once per compaction, so only charge full
        // shootdowns (>= one region) here.
        if (bytes >= mem::kBytes2M) {
            Cycles cost = config_.costs.shootdown;
            // An injected shootdown storm: IPI delivery contends with
            // a burst of unrelated invalidations, inflating latency.
            if (injector_)
                cost += injector_->shootdownDelay();
            for (u32 c = 0; c < config_.num_cores; ++c) {
                if (core_process_[c] && core_process_[c]->pid() == pid)
                    cores_[c].cycles += cost;
            }
            // Trace only region-sized broadcasts: per-4KB migration
            // invalidations would flood the event log (they are batched
            // cost-wise for the same reason).
            if (telemetry_)
                telemetry_->recordShootdown(pid, base, bytes, cost);
        }
        return 0;
    });
}

void
System::installFaultInjection()
{
    injector_.reset();
    if (!config_.faults.any())
        return;
    injector_ =
        std::make_unique<FaultInjector>(config_.faults, config_.seed);
    phys_->setAllocGate(
        [this](unsigned order) { return injector_->allowAlloc(order); });
    phys_->setCompactionGate(
        [this] { return injector_->compactionMovesAllowed(); });
}

void
System::installReclaimRanker()
{
    // Rank reclaim victims by the same hardware signal that ranks
    // promotions: page-walk frequency from the PCCs of every core
    // running the owner. Promoted 2MB regions were invalidated from
    // the 2MB PCC, but their walks (as 2MB-mapped pages) still feed
    // the 1GB PCC, so the containing gigabyte's frequency stands in
    // as the hotness estimate; a 2MB-PCC hit (post-demotion residue)
    // is an even stronger signal.
    os_->setReclaimRanker([this](Pid pid, Addr base) -> u64 {
        const Vpn v2m = mem::vpnOf(base, mem::PageSize::Huge2M);
        const Vpn v1g = mem::vpnOf(base, mem::PageSize::Huge1G);
        u64 score = 0;
        for (u32 c = 0; c < config_.num_cores; ++c) {
            // Tenant mode: the owner may be scheduled out right now,
            // but any shared core it ran on still holds its candidates
            // (addresses are globally disjoint, so no false matches).
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

void
System::runInvariantChecks()
{
    util::Status status =
        checkMemoryConsistency(*os_, *phys_);
    for (u32 c = 0; c < config_.num_cores; ++c) {
        if (!core_process_[c])
            continue;
        const os::Process &proc = *core_process_[c];
        status.update(checkTlbResidency(cores_[c].tlb, proc));
        status.update(checkPccResidency(cores_[c].pcc, proc));
    }
    ++invariant_checks_;
    if (!status.ok()) {
        ++invariant_failures_;
        if (first_invariant_failure_.empty()) {
            first_invariant_failure_ = status.toString();
            warn("invariant violation (interval ", intervals_,
                 "): ", first_invariant_failure_);
        }
    }
}

Cycles
System::chargeWalkRefs(CoreState &core, const os::Process &proc,
                       Addr vaddr, unsigned refs, mem::PageSize size)
{
    if (!config_.timing.pt_through_dcache) {
        return config_.timing.walk_base +
               static_cast<Cycles>(refs) * config_.timing.walk_ref;
    }
    // Synthetic, per-process page-table entry addresses: walks fetch
    // real cache lines, so PTE locality (8 entries/line) and PT cache
    // pressure emerge naturally instead of being a constant.
    const Addr pt_base = 0xFA00'0000'0000ull +
                         (static_cast<Addr>(proc.pid()) << 44);
    const Addr pte_addr =
        pt_base + mem::vpnOf(vaddr, mem::PageSize::Base4K) * 8;
    const Addr pmd_addr = pt_base + 0x0080'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge2M) * 8;
    const Addr pud_addr = pt_base + 0x00C0'0000'0000ull +
                          mem::vpnOf(vaddr, mem::PageSize::Huge1G) * 8;
    const Addr pgd_addr =
        pt_base + 0x00E0'0000'0000ull + (vaddr >> 39) * 8;

    // Deepest level first; a walk with P refs touches the P deepest
    // levels of its leaf depth.
    Addr levels[4];
    unsigned depth = 0;
    switch (size) {
      case mem::PageSize::Base4K:
        levels[depth++] = pte_addr;
        [[fallthrough]];
      case mem::PageSize::Huge2M:
        levels[depth++] = pmd_addr;
        [[fallthrough]];
      case mem::PageSize::Huge1G:
        levels[depth++] = pud_addr;
        levels[depth++] = pgd_addr;
        break;
    }

    Cycles cost = 0;
    const unsigned n = std::min(refs, depth);
    for (unsigned i = 0; i < n; ++i)
        cost += core.dcache.access(levels[i]);
    return cost;
}

System::AccessCost
System::doAccess(CoreState &core, os::Process &proc, Addr vaddr,
                 bool write)
{
    (void)write;
    Cycles cost = config_.timing.op_cost;
    ++core.accesses;
    // Keep liveness knowledge current even for huge-backed pages, whose
    // accesses never fault again — the pressure reclaimer must be able
    // to tell data from bloat.
    proc.noteTouched(vaddr);

    if (!proc.faulted(vaddr)) {
        const bool want_huge = policy_->wantHugeFault(proc, vaddr);
        const Cycles fault_cost =
            os_->handleFault(proc, vaddr, want_huge);
        cost += fault_cost;
        ++core.faults;
        // The fault handler's walk loaded the translation.
        const mem::PageSize filled = proc.mappingSizeOf(vaddr);
        core.tlb.fill(vaddr, filled);
        core.noteTranslated(vaddr, filled);
        if (oracle_)
            oracle_->onFault(indexOf(core), proc.pid(), vaddr, filled);
        const Cycles data = touchData(core, vaddr);
        if (telemetry_) {
            telemetry_->recordAccess(indexOf(core), core.job, proc.pid(),
                                     vaddr, telemetry::TailOutcome::Fault,
                                     cost + data, 0, fault_cost, core.faults);
        }
        return {cost, data};
    }

    // Last-translation fast path: the page is still L1-resident and
    // MRU (any mapping change since would have shot it down), so skip
    // the mapping query and the TLB set scan but account the access
    // identically to the L1-hit path below.
    if (config_.last_translation_cache &&
        vaddr - core.last_page_base < core.last_page_bytes) {
        core.tlb.noteRepeatL1Hit();
        if (oracle_)
            oracle_->onLtcAccess(indexOf(core), proc.pid(), vaddr);
        const Cycles data = touchData(core, vaddr);
        if (telemetry_) {
            telemetry_->recordAccess(indexOf(core), core.job, proc.pid(),
                                     vaddr, telemetry::TailOutcome::L1,
                                     cost + data, 0, 0, core.faults);
        }
        return {cost, data};
    }

    const mem::PageSize size = proc.mappingSizeOf(vaddr);
    const tlb::HitLevel level = core.tlb.access(vaddr, size);
    Cycles walk_cost = 0;
    if (level == tlb::HitLevel::L2) {
        cost += config_.timing.l2_tlb_hit;
    } else if (level == tlb::HitLevel::Miss) {
        const auto walk = core.walker.walk(proc.pageTable(), vaddr);
        PCCSIM_DCHECK(walk.present, "walk missed a faulted page");
        walk_cost = chargeWalkRefs(
            core, proc, vaddr, walk.memory_refs, walk.size);
        cost += walk_cost;
        core.walk_cycles += walk_cost;
        if (config_.mutation == HotPathMutation::SkipL2Fill)
            core.tlb.l1Of(size).access(mem::vpnOf(vaddr, size));
        else
            core.tlb.fill(vaddr, size);
        if (telemetry_) {
            telemetry_->recordWalk(core.pcc, proc.pid(), vaddr, walk,
                                   walk_cost);
        }
        core.pcc.observeWalk(vaddr, walk);
    }
    if (oracle_)
        oracle_->onAccess(indexOf(core), proc.pid(), vaddr, size, level);
    core.noteTranslated(vaddr, size);
    const Cycles data = touchData(core, vaddr);
    if (telemetry_) {
        using telemetry::TailOutcome;
        telemetry_->recordAccess(
            indexOf(core), core.job, proc.pid(), vaddr,
            level == tlb::HitLevel::Miss ? TailOutcome::Walk
            : level == tlb::HitLevel::L2 ? TailOutcome::L2
                                         : TailOutcome::L1,
            cost + data, walk_cost, 0, core.faults);
    }
    return {cost, data};
}

void
System::maybeReleaseBarrier(u32 job)
{
    bool all_parked = true;
    for (const auto &lane : lanes_) {
        if (lane.job == job && !lane.done && !lane.at_barrier) {
            all_parked = false;
            break;
        }
    }
    if (!all_parked)
        return;

    // Barrier wait: every core of the job advances to the job maximum.
    const Cycles max_cycles = jobWall(job);
    for (auto &lane : lanes_) {
        if (lane.job == job) {
            cores_[lane.core].cycles = max_cycles;
            lane.at_barrier = false;
        }
    }
}

void
System::tenantClaim(const LaneState &lane)
{
    os::Process *proc = job_process_[lane.job];
    if (!tsched_->claim(lane.core, lane.job))
        return; // tenant already current: no switch, no cost

    CoreState &core = cores_[lane.core];
    // Charged identically in both switch modes, so a flush-vs-ASID
    // comparison isolates the refill misses — the quantity Fig. 10
    // reports — rather than folding in direct switch overhead.
    core.cycles += config_.costs.context_switch;
    if (config_.tenant.switch_mode == tenant::SwitchMode::Flush) {
        // Non-PCID CR3 write: the whole TLB hierarchy and the page-walk
        // caches are lost (the paper's multiprogrammed baseline).
        core.tlb.flushAll();
        core.walker.flushAll();
    } else {
        // PCID hardware: entries of both tenants coexist, tagged; the
        // switch just retags subsequent lookups and fills.
        core.tlb.setCurrentAsid(static_cast<Asid>(proc->pid()));
    }
    // The last-translation cache holds the *departing* tenant's page:
    // never valid for the incoming tenant (disjoint address spaces),
    // and possibly evicted from L1 by the time the owner returns.
    core.last_page_bytes = 0;
    core_process_[lane.core] = proc;
    core.job = lane.job;
}

void
System::onInterval()
{
    ++intervals_;
    next_interval_at_ += interval_stride_;
    if (injector_ && injector_->shockDue(intervals_))
        shock_pins_ += injector_->applyShock(*phys_);
    policy_->onInterval(*this);
    if (config_.check_invariants)
        runInvariantChecks();
    // Sample after the policy acted so this interval's promotions land
    // in this interval's row; series length therefore equals
    // RunResult::intervals.
    if (telemetry_)
        telemetry_->sampleInterval(intervals_);
}

Cycles
System::jobWall(u32 job) const
{
    Cycles wall = 0;
    for (const auto &lane : lanes_)
        if (lane.job == job)
            wall = std::max(wall, cores_[lane.core].cycles);
    return wall;
}

void
System::finishLane(LaneState &lane)
{
    lane.done = true;
    --live_lanes_;
    if (--job_live_[lane.job] == 0)
        job_wall_[lane.job] = jobWall(lane.job);
    maybeReleaseBarrier(lane.job);
}

CoreCounters
System::machineCounters() const
{
    CoreCounters total;
    for (const CoreState &core : cores_)
        total += core.counters();
    return total;
}

void
System::advanceSampling()
{
    Cycles cycles = 0;
    for (const CoreState &core : cores_)
        cycles += core.cycles;
    sampler_.advance(machineCounters(), cycles);
}

template <typename Turn>
void
System::scheduleLanes(Turn &&turn)
{
    while (live_lanes_ > 0) {
        bool progressed = false;
        for (auto &lane : lanes_) {
            if (lane.done || lane.at_barrier)
                continue;
            progressed = true;
            if (tsched_)
                tenantClaim(lane);
            CoreState &core = cores_[lane.core];
            const CoreCounters before = core.counters();
            turn(lane, core, *core_process_[lane.core]);
            const CoreCounters delta = core.counters() - before;
            job_counters_[lane.job] += delta;
            if (tsched_)
                tsched_->noteOps(lane.job, delta.accesses);
            // Supervision: publish progress, honor a pending cancel.
            if (config_.progress) {
                config_.progress->store(total_accesses_,
                                        std::memory_order_relaxed);
            }
            if (config_.cancel &&
                config_.cancel->load(std::memory_order_relaxed)) {
                throw CancelledError(
                    "run cancelled after " +
                    std::to_string(total_accesses_) + " accesses");
            }
        }
        PCCSIM_ASSERT(progressed || live_lanes_ == 0,
                      "scheduler deadlock: all live lanes parked");
    }
}

void
System::runScalarLoop()
{
    scheduleLanes([this](LaneState &lane, CoreState &core,
                         os::Process &proc) {
        for (u32 b = 0; b < kSchedQuantum; ++b) {
            if (!lane.scalar_gen.next()) {
                finishLane(lane);
                return;
            }
            const auto &op = lane.scalar_gen.value();
            if (op.kind == workloads::OpKind::Barrier) {
                lane.at_barrier = true;
                maybeReleaseBarrier(lane.job);
                return;
            }
            const AccessCost cost =
                doAccess(core, proc, op.addr,
                         op.kind == workloads::OpKind::Store);
            core.cycles += cost.core;
            endSegment(core, cost.data, &op.addr, 1);
            ++total_accesses_;
            if (total_accesses_ >= next_interval_at_)
                onInterval();
        }
    });
}

// Flatten the whole consuming path (doAccess, the TLB and cache
// probes, the fault handler's entry) into the loop: the per-op call
// overhead is measurable at the ns/access scale this loop targets.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((flatten))
#endif
void
System::runBatchLoop()
{
    const bool sampled = config_.sampling.enabled();
    const u32 quantum = quantum_;
    scheduleLanes([this, sampled, quantum](LaneState &lane, CoreState &core,
                                           os::Process &proc) {
        workloads::AccessBuffer &buf = *lane.buf;
        u32 b = 0;
        while (b < quantum) {
            if (lane.consumed == buf.size()) {
                // Buffer drained: take a deferred batch end, or refill.
                // Refills happen lazily *here* — at the start of the
                // consuming turn, exactly where the scalar engine would
                // resume the generator — so barrier/EOF discovery and
                // host-side production keep the scalar engine's timing.
                if (lane.pending_barrier) {
                    lane.pending_barrier = false;
                    lane.at_barrier = true;
                    maybeReleaseBarrier(lane.job);
                    return;
                }
                if (lane.pending_eof) {
                    finishLane(lane);
                    return;
                }
                buf.clear();
                lane.consumed = 0;
                if (lane.gen.next()) {
                    lane.pending_barrier =
                        lane.gen.value() == workloads::BatchEnd::Barrier;
                    PCCSIM_ASSERT(!buf.empty() || lane.pending_barrier,
                                  "batchLane yielded an empty Ops batch");
                } else {
                    lane.pending_eof = true;
                }
                continue;
            }
            u32 chunk = std::min(buf.size() - lane.consumed, quantum - b);
            if (sampled)
                chunk = sampler_.clamp(chunk);
            const Addr *addrs = buf.addrs() + lane.consumed;
            const u8 *kinds = buf.kinds() + lane.consumed;
            if (!sampled || !sampler_.fastForwarding()) {
                // The open segment: its first access and its
                // data-cache cycles.
                u32 seg_begin = 0;
                Cycles seg_data = 0;
                for (u32 i = 0; i < chunk; ++i) {
                    const AccessCost cost = doAccess(
                        core, proc, addrs[i],
                        kinds[i] ==
                            static_cast<u8>(workloads::OpKind::Store));
                    core.cycles += cost.core;
                    seg_data += cost.data;
                    ++total_accesses_;
                    if (total_accesses_ >= next_interval_at_) {
                        endSegment(core, seg_data, addrs + seg_begin,
                                   i + 1 - seg_begin);
                        seg_begin = i + 1;
                        seg_data = 0;
                        onInterval();
                    }
                }
                endSegment(core, seg_data, addrs + seg_begin,
                           chunk - seg_begin);
            } else {
                for (u32 i = 0; i < chunk; ++i) {
                    doFastForward(core, proc, addrs[i]);
                    ++total_accesses_;
                    if (total_accesses_ >= next_interval_at_)
                        onInterval();
                }
            }
            lane.consumed += chunk;
            b += chunk;
            if (sampled && sampler_.consume(chunk))
                advanceSampling();
        }
    });
}

void
System::doFastForward(CoreState &core, os::Process &proc, Addr vaddr)
{
    ++core.accesses;
    // Accessed-bit state *before* this access, mirroring the
    // pte_was_accessed observation a real walk would have made.
    const bool was_touched = proc.touched(vaddr);
    proc.noteTouched(vaddr);
    Cycles cost = sampler_.ffCharge();
    if (!proc.faulted(vaddr)) {
        const bool want_huge = policy_->wantHugeFault(proc, vaddr);
        cost += os_->handleFault(proc, vaddr, want_huge);
        ++core.faults;
        // No TLB fill, no dcache touch: fast-forward keeps the OS
        // truthful, not the hardware warm.
    }
    if (sampler_.feedPcc()) {
        core.pcc.observeSampled(
            vaddr, proc.mappingSizeOf(vaddr) == mem::PageSize::Base4K,
            was_touched);
    }
    core.cycles += cost;
}

RunResult
System::run(std::vector<Job> jobs, CacheTapeStore *tapes,
            const std::string &stream_key)
{
    if (util::Status status = config_.validate(); !status.ok())
        fatal("invalid SystemConfig: ", status.toString());
    PCCSIM_ASSERT(!jobs.empty());
    u64 phase_t0 = util::HostProfile::nowNanos();
    u32 total_lanes = 0;
    for (const auto &job : jobs)
        total_lanes += job.lanes;
    const bool tenant_mode = config_.tenant.enabled();
    if (tenant_mode) {
        // Tenants are single-lane streams time-sharing tenant.cores
        // cores; the whole point is more tenants than cores.
        for (const auto &job : jobs) {
            PCCSIM_ASSERT(job.lanes == 1,
                          "tenant mode runs single-lane jobs");
        }
    } else {
        PCCSIM_ASSERT(total_lanes <= config_.num_cores,
                      "more lanes than cores");
    }

    // ---- set up processes and workloads ----
    // Processes are built before the OS: their mapped footprints size
    // physical memory and the promotion cap. Pids run 0..N-1 in job
    // order, as createProcess would assign them.
    std::vector<std::unique_ptr<os::Process>> built;
    u64 declared = 0;
    for (u32 j = 0; j < jobs.size(); ++j) {
        built.push_back(
            std::make_unique<os::Process>(j, config_.heap_capacity));
        jobs[j].workload->setup(*built.back());
        // Use the VMA-rounded footprint: promotion budgets and
        // coverage percentages are defined over whole regions.
        declared += built.back()->footprintBytes();
    }
    u64 phys_bytes = config_.phys_bytes;
    if (phys_bytes == 0) {
        phys_bytes = static_cast<u64>(
            static_cast<double>(declared) * config_.phys_headroom);
        phys_bytes += 64ull << 20;
        phys_bytes = mem::alignUp(phys_bytes, mem::PageSize::Huge1G);
    }
    phys_ = std::make_unique<mem::PhysicalMemory>(phys_bytes);
    installFaultInjection();

    os::Os::Params os_params;
    os_params.costs = config_.costs;
    os_params.promote_retries = config_.promote_retries;
    os_params.reclaim_on_pressure = config_.reclaim_on_pressure;
    if (config_.promotion_cap_percent == 0.0) {
        os_params.promotion_cap_bytes = 0;
    } else if (config_.promotion_cap_percent > 0.0) {
        // Round the budget up to whole 2MB regions so small-footprint
        // runs can still express the paper's 1-4% utility points.
        os_params.promotion_cap_bytes = mem::alignUp(
            static_cast<u64>(config_.promotion_cap_percent / 100.0 *
                             static_cast<double>(declared)),
            mem::PageSize::Huge2M);
    }
    os_ = std::make_unique<os::Os>(os_params, *phys_);
    policy_ = makePolicy();
    installShootdownHook();
    installReclaimRanker();
    if (config_.record_trace) {
        os_->setPromotionHook(
            [this](Pid pid, Addr base, mem::PageSize size) {
                recorded_.record(total_accesses_, pid, base, size);
            });
    }
    tsched_.reset();
    if (tenant_mode) {
        tsched_ = std::make_unique<tenant::Scheduler>(
            config_.tenant, static_cast<u32>(jobs.size()));
    }
    job_counters_.assign(jobs.size(), CoreCounters{});
    telemetry_.reset();
    if (config_.telemetry.enabled) {
        std::vector<pcc::PccUnit *> pccs;
        for (CoreState &core : cores_)
            pccs.push_back(&core.pcc);
        telemetry_ = std::make_unique<RunTelemetry>(
            config_.telemetry, static_cast<u32>(jobs.size()),
            RunTelemetry::Sources{
                .os = os_.get(), .injector = injector_.get(),
                .tsched = tsched_.get(), .pccs = std::move(pccs),
                .core_process = &core_process_, .clock = &total_accesses_,
                .shootdowns = &shootdowns_, .jobs = &job_counters_,
                .machine = [this] { return machineCounters(); },
                .job_cycles = [this](u32 job) { return jobWall(job); }});
    }
    oracle_.reset();
    if (config_.oracle.enabled) {
        oracle_ = std::make_unique<DiffChecker>(
            config_.oracle, config_.tlb, config_.num_cores);
    }

    if (config_.frag_fraction > 0.0) {
        Rng rng(config_.seed ^ 0xf7a6);
        phys_->fragment(config_.frag_fraction, rng);
        // Fragmented memory has no readily-free 2MB blocks: huge
        // frames must be produced by compaction (Sec. 5.1.1).
        phys_->scramble(rng);
    }

    std::vector<os::Process *> procs;
    for (u32 j = 0; j < jobs.size(); ++j) {
        os::Process &proc = os_->adoptProcess(std::move(built[j]));
        if (config_.process_setup)
            config_.process_setup(proc, j);
        procs.push_back(&proc);
    }

    // ---- lanes and core assignment ----
    lanes_.clear();
    // A single lane owns the machine and drains whole buffers of up to
    // batch_capacity ops per turn. With siblings a lane turn is the
    // scalar engine's quantum (in tenant mode, the configured tenant
    // quantum), and a buffer holds one turn, so host-side production
    // interleaves exactly as the scalar engine's does.
    quantum_ = total_lanes == 1 ? std::max<u32>(1, config_.batch_capacity)
               : tenant_mode    ? std::max<u32>(1, config_.tenant.quantum_ops)
                                : kSchedQuantum;
    u32 core_cursor = 0;
    for (u32 j = 0; j < jobs.size(); ++j) {
        for (u32 l = 0; l < jobs[j].lanes; ++l) {
            LaneState lane;
            if (config_.batch_engine) {
                // Allocate the buffer before creating the coroutine:
                // batchLane() captures a reference to it, and the
                // heap allocation keeps that reference stable across
                // lanes_ vector relocations.
                lane.buf =
                    std::make_unique<workloads::AccessBuffer>(quantum_);
                lane.gen = jobs[j].workload->batchLane(
                    l, jobs[j].lanes, *lane.buf);
            } else {
                lane.scalar_gen =
                    jobs[j].workload->lane(l, jobs[j].lanes);
            }
            // Tenant mode: jobs are single-lane, tenants j map onto
            // shared cores round-robin (tenant j -> core j % cores).
            const u32 core =
                tenant_mode ? j % config_.tenant.cores : core_cursor;
            lane.core = core;
            lane.job = j;
            lanes_.push_back(std::move(lane));
            if (!tenant_mode || j < config_.tenant.cores) {
                // First tenant landing on each shared core becomes its
                // boot-time current process; later tenants take over
                // via tenantClaim (a counted, costed switch).
                cores_[core].job = j;
                core_process_[core] = procs[j];
            }
            ++core_cursor;
        }
    }
    const u32 used_cores =
        tenant_mode
            ? std::min<u32>(config_.tenant.cores,
                            static_cast<u32>(jobs.size()))
            : core_cursor;
    for (u32 c = used_cores; c < config_.num_cores; ++c)
        core_process_[c] = procs.empty() ? nullptr : procs[0];

    job_process_ = procs;
    if (tsched_) {
        for (u32 c = 0; c < used_cores; ++c) {
            // Seed the boot-time occupant (claim-free, like the lane
            // assignment above) and, under ASID switching, tag the
            // core's TLB with its pid-derived ASID. Tenant 0 keeps
            // ASID 0, so a 1-tenant ASID run produces exactly the raw
            // (untagged) TLB keys of the single-process path.
            tsched_->seed(c, c);
            if (config_.tenant.switch_mode == tenant::SwitchMode::Asid) {
                cores_[c].tlb.setCurrentAsid(
                    static_cast<Asid>(procs[c]->pid()));
            }
        }
    }

    total_accesses_ = 0;
    interval_stride_ =
        config_.interval_accesses * std::max<u32>(1, total_lanes);
    next_interval_at_ = interval_stride_;
    intervals_ = 0;
    shootdowns_ = 0;
    shock_pins_ = 0;
    invariant_checks_ = 0;
    invariant_failures_ = 0;
    first_invariant_failure_.clear();
    sampler_ = SampleController(config_.sampling.window,
                                config_.sampling.fastforward);
    if (config_.sampling.enabled())
        advanceSampling(); // opens the first window

    job_wall_.assign(jobs.size(), 0);
    job_live_.assign(jobs.size(), 0);
    for (const auto &lane : lanes_)
        ++job_live_[lane.job];
    live_lanes_ = static_cast<u32>(lanes_.size());

    // ---- main scheduling loop ----
    util::HostProfile::global().add(
        "workload_setup", util::HostProfile::nowNanos() - phase_t0);
    if (tapes)
        tape_.open(*tapes, stream_key, config_); // books tape_wait
    phase_t0 = util::HostProfile::nowNanos();
    try {
        if (config_.batch_engine)
            runBatchLoop();
        else
            runScalarLoop();
    } catch (...) {
        tape_.abandon(); // frees a recording claim for a waiting sibling
        throw;
    }

    // ---- collect results ----
    util::HostProfile::global().add(
        "simulate", util::HostProfile::nowNanos() - phase_t0);
    tape_.finish(total_accesses_);
    if (config_.check_invariants)
        runInvariantChecks(); // final sweep over the end state
    if (oracle_) {
        // Counter audit: catches any divergence a sampled compare
        // skipped (the reference state drifts from the real state at
        // the first divergence, so the totals disagree).
        for (u32 c = 0; c < config_.num_cores; ++c)
            oracle_->finish(c, cores_[c].counters());
    }

    RunResult result;
    result.total_accesses = total_accesses_;
    result.os_background_cycles = os_->backgroundCycles();
    result.compactions = phys_->stats().get("compactions");
    result.shootdowns = shootdowns_;
    result.intervals = intervals_;

    auto &res = result.resilience;
    if (injector_) {
        res.injected_alloc_fails = injector_->allocFailsInjected();
        res.injected_compaction_fails =
            injector_->compactionFailsInjected();
        res.shootdown_storms = injector_->stormsInjected();
        res.frag_shocks = injector_->shocksApplied();
        res.shock_blocks_pinned = shock_pins_;
    }
    res.promote_retries = os_->stats().get("promote_retries");
    res.promote_retry_successes =
        os_->stats().get("promote_retry_successes");
    res.reclaim_events = os_->stats().get("reclaim_events");
    res.reclaim_demotions = os_->stats().get("reclaim_demotions");
    res.reclaimed_frames = os_->stats().get("reclaimed_frames");
    res.invariant_checks = invariant_checks_;
    res.invariant_failures = invariant_failures_;
    res.first_invariant_failure = first_invariant_failure_;

    if (config_.sampling.enabled())
        result.sampling = sampler_.stats();

    for (u32 j = 0; j < jobs.size(); ++j) {
        JobResult job_result;
        job_result.workload = jobs[j].workload->name();
        job_result.pid = procs[j]->pid();
        job_result.wall_cycles = job_wall_[j];
        const CoreCounters &counted = job_counters_[j];
        job_result.accesses = counted.accesses;
        job_result.tlb_accesses = counted.tlb_accesses;
        job_result.l1_hits = counted.l1_hits;
        job_result.l2_hits = counted.l2_hits;
        job_result.walks = counted.walks;
        job_result.faults = counted.faults;
        job_result.refs_per_walk = ratio(counted.walker_refs, counted.walks);
        job_result.promotions = procs[j]->promotions();
        job_result.promotions_1g = procs[j]->promotions1G();
        job_result.demotions = procs[j]->demotions();
        job_result.footprint_bytes = procs[j]->footprintBytes();
        job_result.promoted_bytes = procs[j]->promotedBytes();
        job_result.bloat_pages = procs[j]->bloatPages();
        result.jobs.push_back(std::move(job_result));
        result.wall_cycles =
            std::max(result.wall_cycles, job_wall_[j]);
    }

    if (telemetry_)
        result.telemetry = telemetry_->report(intervals_);
    return result;
}

} // namespace pccsim::sim
