//! The streaming-multiprocessor model: resident thread-blocks (CTAs),
//! warps with SIMT stacks, a round-robin warp scheduler, the in-order
//! SIMD issue pipeline, banked shared memory, the per-SM L1 data cache
//! with MSHRs, and the capture of what the RDUs check.
//!
//! Timing model (Table I): one warp instruction issues per
//! `warp_size / simd_width` cycles; shared-memory bank conflicts extend
//! the occupancy; global loads/atomics block the issuing warp until their
//! responses return (simple in-order SPs, §II-A), with latency hidden by
//! switching among the SM's other warps; stores are non-blocking but
//! tracked so `membar` can wait for them; a global load that cannot get
//! L1 MSHRs replays until fills drain.
//!
//! ## Two-phase execution
//!
//! The core cycle is split so that no SM sees another SM's effects from
//! the same cycle (see DESIGN.md, "Two-phase cycle"):
//! [`Sm::cycle_compute`] reads device memory and the detector clocks as
//! they stood before the cycle, mutates only SM-owned state (warps,
//! CTAs, L1, MSHRs, its counters in `Sm::stats`), and buffers every
//! cross-SM side effect into a [`CycleOutput`]. The SM keeps no
//! detector state: a memory instruction's lanes are captured as
//! [`MemAccess`]es, clocks stamped at issue, and every detector
//! operation — checks of both spaces, barrier and retire resets, fences
//! and sync bumps — is an [`SmOp`]. Once every SM has computed, the
//! cycle loop applies each computed SM's ops in SM-id order, making the
//! [`haccrg::Detector`] calls a trace replay makes, while
//! [`crate::detector::LaunchDet`] charges their modeled cost. The
//! results therefore do not depend on the order in which SMs compute.

use haccrg::prelude::*;

use crate::active::ActiveSet;
use crate::config::{GpuConfig, SchedPolicy};
use crate::detector::LaunchDet;
use crate::device::DeviceMemory;
use crate::isa::{Kernel, Op, Space, SpecialReg, Src};
use crate::lanes::{WarpLanes, LANES};
use crate::mem::cache::Cache;
use crate::mem::coalesce::{bank_conflict_degree, coalesce_into, LaneAddr, Transaction};
use crate::mem::{LaneAtomic, MemReq, ReqKind};
use crate::prof::{self, Counter, Phase};
use crate::simt::SimtStack;
use crate::stats::SimStats;
use crate::trace::{SimEvent, StallReason, Tracer};

/// Buffered side effects of one SM core cycle — the compute phase's
/// output, applied by the cycle loop in SM-id order.
pub struct CycleOutput {
    /// Whether tracer events should be buffered (mirrors `Tracer::on`).
    pub tracing: bool,
    /// Cross-SM side effects, in program order.
    pub ops: Vec<SmOp>,
    /// Arena backing [`SmOp::Check`] access runs this cycle; ops store
    /// index ranges into it instead of owning per-op vectors.
    pub batch_arena: Vec<MemAccess>,
    /// Reusable hot-path buffers: capacity survives across cycles, so the
    /// steady-state memory pipeline performs no heap allocations per warp.
    pub scratch: SmScratch,
}

/// Per-SM scratch buffers for the issue/detection hot path. Users clear
/// (or `std::mem::take` and restore) a buffer before use; nothing here
/// carries state across instructions.
#[derive(Default)]
pub struct SmScratch {
    /// Per-lane address collection of the current memory instruction.
    pub lanes: Vec<LaneAddr>,
    /// Coalesced transactions of the current memory instruction.
    pub txs: Vec<Transaction>,
    /// Detector-side scratch (intra-warp dedup, state snapshots, lines).
    pub race: RaceScratch,
}

impl CycleOutput {
    /// An empty output buffer.
    pub fn new(tracing: bool) -> Self {
        Self {
            tracing,
            ops: Vec::new(),
            batch_arena: Vec::new(),
            scratch: SmScratch::default(),
        }
    }

    /// Reset for the next cycle, keeping allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.batch_arena.clear();
    }

    fn emit(&mut self, cycle: u64, ev: SimEvent) {
        if self.tracing {
            self.ops.push(SmOp::Emit { cycle, ev });
        }
    }
}

/// One deferred cross-SM side effect of the compute phase.
pub enum SmOp {
    /// Functional global-memory store (write-through data).
    MemWrite {
        /// Byte address.
        addr: u32,
        /// Value (low `size` bytes significant).
        val: u32,
        /// Access width in bytes.
        size: u8,
    },
    /// `Detector::note_global` — a resident block issued a global access.
    NoteGlobal {
        /// Block ID.
        block: u32,
    },
    /// `Detector::barrier` — a resident block released its barrier: bump
    /// its sync ID, reset its shared range, charge the reset and emit
    /// the release.
    Barrier {
        /// Block ID.
        block: u32,
        /// The block's shared allocation `[lo, hi)`.
        shared: (u32, u32),
    },
    /// `Detector::reset_shared` — a retiring block's shared range.
    Retire {
        /// The block's shared allocation `[lo, hi)`.
        shared: (u32, u32),
    },
    /// `Detector::fence` — a warp's `membar` completed at issue.
    Fence {
        /// Global warp ID.
        gwarp: u32,
    },
    /// A buffered tracer event.
    Emit {
        /// Cycle stamp.
        cycle: u64,
        /// The event.
        ev: SimEvent,
    },
    /// `Detector::check_warp_batch` over captured lanes: a shared memory
    /// instruction's, or one coalesced global transaction's.
    Check {
        /// Capture-ordered per-lane accesses, as a half-open index range
        /// into [`CycleOutput::batch_arena`].
        range: (u32, u32),
        /// Whether to run the intra-warp store-store pre-check.
        is_store: bool,
        /// The RDU that checks them.
        target: CheckTarget,
    },
}

/// The RDU an [`SmOp::Check`] runs against.
pub enum CheckTarget {
    /// The issuing SM's shared RDU. Its entries sit in SRAM beside the
    /// banks, so a check has no traffic to charge — except under Fig. 8
    /// placement, whose shadow lines go through the SM's ghost L1.
    Shared,
    /// The global RDU, whose shadow-line accesses go to the sink.
    Global(ShadowSink),
}

/// Where a global-RDU batch's shadow-line accesses go once known.
pub enum ShadowSink {
    /// Piggyback on the data request at `out_req[req_idx]` (misses and
    /// stores).
    Attach {
        /// Index into the SM's `out_req` of this cycle.
        req_idx: usize,
    },
    /// Detection-only probe (L1 hits and merged misses, §IV-B): the
    /// shadow lines are charged to the slices' modeled ports instead of
    /// travelling the network as a request. `count_stat` preserves the
    /// historical accounting: hit probes count toward `probe_packets`,
    /// merged-miss probes don't. `line_addr` is the probed data line,
    /// recorded into the TLB trace alongside its shadow base.
    Probe {
        /// Probed data line address (TLB trace pairing).
        line_addr: u32,
        /// Bump `SimStats::probe_packets`?
        count_stat: bool,
    },
}

/// Everything shared by all SMs during one kernel launch.
#[allow(missing_docs)] // field names are self-describing
pub struct LaunchContext {
    pub kernel: Kernel,
    pub grid: u32,
    pub block_dim: u32,
    pub warps_per_block: u32,
    pub params: Vec<u32>,
}

impl LaunchContext {
    /// Global warp ID of a warp.
    pub fn gwarp(&self, block_id: u32, warp_in_block: u32) -> u32 {
        block_id * self.warps_per_block + warp_in_block
    }
}

/// Warp scheduling state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum WarpState {
    Ready,
    AtBarrier,
    WaitMem,
    WaitFence,
    Done,
}

/// One resident warp.
#[allow(missing_docs)] // field names are self-describing
pub struct Warp {
    pub cta_slot: usize,
    pub warp_in_block: u32,
    pub gwarp: u32,
    pub simt: SimtStack,
    pub state: WarpState,
    pub pending_loads: u32,
    pub outstanding_stores: u32,
    pub resume_at: u64,
}

/// One resident thread-block.
#[allow(missing_docs)]
pub struct Cta {
    pub block_id: u32,
    pub warp_slots: Vec<usize>,
    pub threads: u32,
    /// Base offset of this block's shared allocation within the SM.
    pub shared_base: u32,
    pub shared_size: u32,
    /// Functional shared-memory contents.
    pub shared_data: Vec<u8>,
    /// SoA register file: register `r` of warp `w`'s 32 lanes is the
    /// contiguous row `regs[r * lane_slots + w * LANES ..][..LANES]`
    /// (see [`crate::lanes`]). Thread `t` of the block lives in lane
    /// `t % warp_size` of warp `t / warp_size`.
    pub regs: Vec<u32>,
    /// Lane slots per register row: `warps_per_block × LANES`.
    pub lane_slots: usize,
    /// Virtual registers per thread (retire-time bookkeeping).
    pub num_regs: u16,
    /// Per-thread atomic-ID (lockset) registers (§III-B).
    pub locks: Vec<AtomicIdRegister>,
    pub barrier_waiting: u32,
    pub live_warps: u32,
}

/// A streaming multiprocessor.
#[allow(missing_docs)]
pub struct Sm {
    pub id: u32,
    cfg: GpuConfig,
    pub warps: Vec<Option<Warp>>,
    pub ctas: Vec<Option<Cta>>,
    /// Slots whose warp is [`WarpState::Ready`], ascending. Updated
    /// wherever a warp enters or leaves `Ready`, so the scheduler and
    /// [`Self::next_wake`] visit only ready warps instead of every slot;
    /// debug builds check it against a full scan on every compute call.
    ready: ActiveSet,
    rr_next: usize,
    issue_free_at: u64,
    pub l1: Cache,
    /// line → `(warp slot, gwarp)` waiters to wake when the fill returns.
    /// Waiters carry the global warp ID so a response arriving after the
    /// CTA retired and another warp reused the slot wakes nobody.
    l1_mshr: Vec<(u32, Vec<(usize, u32)>)>,
    /// L1-hit load responses maturing locally: `(cycle, slot, gwarp)`.
    local_ready: Vec<(u64, usize, u32)>,
    /// Requests produced this cycle, drained by the GPU into the network.
    pub out_req: Vec<MemReq>,
    pub threads_resident: u32,
    pub regs_resident: u32,
    /// Set when a CTA retires — tells the dispatcher capacity freed up.
    pub freed_capacity: bool,
    next_req_id: u64,
    /// Earliest future cycle [`Self::cycle_compute`] can make progress —
    /// a pure function of SM state, recomputed after every compute call
    /// and reset to `0` (never in the future) whenever external input
    /// (a memory response, a placed block) may have created work. While
    /// `now < wake_hint` a compute call is a provable no-op, so the GPU
    /// may gate the SM out of such cycles with bit-identical results.
    pub(crate) wake_hint: u64,
    /// Cycles this SM was not quiescent (`now >= wake_hint`), counted by
    /// the cycle loop in every mode. Every other cycle of the launch —
    /// gated, jumped over or densely polled — is idle, so
    /// [`Self::idle_cycles`] is identical for dense and skipping runs by
    /// construction.
    pub(crate) awake_cycles: u64,
    /// This SM's counters for the launch: the compute phase, the global
    /// RDU batches applied on its behalf and its memory responses all
    /// count here; the GPU folds every SM's counters into the launch
    /// aggregate (with the L1, L2, DRAM and link counters) at each
    /// sample cut and at launch end.
    pub(crate) stats: SimStats,
}

impl Sm {
    /// Build SM `id`.
    pub fn new(id: u32, cfg: GpuConfig) -> Self {
        Self {
            id,
            cfg,
            warps: (0..cfg.max_warps_per_sm()).map(|_| None).collect(),
            ctas: (0..cfg.max_blocks_per_sm).map(|_| None).collect(),
            ready: ActiveSet::new(cfg.max_warps_per_sm() as usize),
            rr_next: 0,
            issue_free_at: 0,
            l1: Cache::new(cfg.l1),
            l1_mshr: Vec::new(),
            local_ready: Vec::new(),
            out_req: Vec::new(),
            threads_resident: 0,
            regs_resident: 0,
            freed_capacity: false,
            next_req_id: u64::from(id) << 40,
            wake_hint: 0,
            awake_cycles: 0,
            stats: SimStats::default(),
        }
    }

    /// Cycles this SM spent quiescent out of the first `elapsed` cycles
    /// of the launch.
    pub(crate) fn idle_cycles(&self, elapsed: u64) -> u64 {
        elapsed - self.awake_cycles
    }

    /// Whether any block is resident or memory activity is pending.
    pub fn busy(&self) -> bool {
        self.ctas.iter().any(Option::is_some)
            || !self.l1_mshr.is_empty()
            || !self.local_ready.is_empty()
            || !self.out_req.is_empty()
    }

    fn aligned_shared(kernel_shared: u32) -> u32 {
        (kernel_shared + 255) & !255
    }

    /// Whether a block of the launch fits right now.
    pub fn can_place(&self, ctx: &LaunchContext) -> bool {
        let free_slot = self.ctas.iter().position(Option::is_none);
        let Some(slot) = free_slot else { return false };
        let shared_need = Self::aligned_shared(ctx.kernel.shared_bytes);
        if (slot as u32 + 1) * shared_need > self.cfg.shared_mem_per_sm && shared_need > 0 {
            return false;
        }
        // NOTE: the kernel DSL is SSA-form — `num_regs` counts virtual
        // registers, not the handful of architectural registers a compiler
        // would allocate, so the Table I register-file capacity is tracked
        // (`regs_resident`) but not used as a placement constraint.
        self.threads_resident + ctx.block_dim <= self.cfg.max_threads_per_sm
            && self
                .warps
                .iter()
                .filter(|w| w.is_none())
                .count()
                >= ctx.warps_per_block as usize
    }

    /// Place block `block_id` on this SM.
    pub fn place(&mut self, block_id: u32, ctx: &LaunchContext) {
        debug_assert!(self.can_place(ctx));
        let slot = self.ctas.iter().position(Option::is_none).expect("free CTA slot");
        let shared_need = Self::aligned_shared(ctx.kernel.shared_bytes);
        let threads = ctx.block_dim;
        let nwarps = ctx.warps_per_block;

        let mut warp_slots = Vec::with_capacity(nwarps as usize);
        for w in 0..nwarps {
            let widx = self.warps.iter().position(Option::is_none).expect("free warp slot");
            let first_lane = w * self.cfg.warp_size;
            let lanes = threads.saturating_sub(first_lane).min(self.cfg.warp_size);
            let mask = if lanes >= 32 { u32::MAX } else { (1u32 << lanes) - 1 };
            self.warps[widx] = Some(Warp {
                cta_slot: slot,
                warp_in_block: w,
                gwarp: ctx.gwarp(block_id, w),
                simt: SimtStack::new(mask),
                state: WarpState::Ready,
                pending_loads: 0,
                outstanding_stores: 0,
                resume_at: 0,
            });
            self.ready.insert(widx);
            warp_slots.push(widx);
        }

        self.ctas[slot] = Some(Cta {
            block_id,
            warp_slots,
            threads,
            shared_base: slot as u32 * shared_need,
            shared_size: ctx.kernel.shared_bytes,
            shared_data: vec![0; ctx.kernel.shared_bytes as usize],
            regs: vec![0; nwarps as usize * LANES * usize::from(ctx.kernel.num_regs)],
            lane_slots: nwarps as usize * LANES,
            num_regs: ctx.kernel.num_regs,
            locks: vec![AtomicIdRegister::default(); threads as usize],
            barrier_waiting: 0,
            live_warps: nwarps,
        });
        self.threads_resident += threads;
        self.regs_resident += threads * u32::from(ctx.kernel.num_regs);
        // New warps can issue immediately: invalidate the quiescence hint.
        self.wake_hint = 0;
    }

    /// One core cycle, compute phase: retire matured L1 hits, then try
    /// to issue. Reads `mem` and the detector clocks as they stood
    /// before the cycle; cross-SM side effects land in `out` for the
    /// apply phase.
    /// Refreshes [`Self::wake_hint`] afterwards so the fast-forward layer
    /// knows the next cycle this SM can act.
    pub fn cycle_compute(
        &mut self,
        now: u64,
        ctx: &LaunchContext,
        mem: &DeviceMemory,
        det: Option<&Detector>,
        out: &mut CycleOutput,
    ) {
        let id = self.id;
        debug_assert!(self.ready_exact(), "ready set diverged on SM {id} before cycle {now}");
        self.cycle_compute_inner(now, ctx, mem, det, out);
        debug_assert!(self.ready_exact(), "ready set diverged on SM {id} at cycle {now}");
        self.wake_hint = self.next_wake();
    }

    /// Whether [`Self::ready`] holds exactly the slots a full scan of the
    /// warp table finds `Ready` (the debug-build reference check).
    fn ready_exact(&self) -> bool {
        self.warps.iter().enumerate().all(|(i, w)| {
            self.ready.contains(i) == matches!(w, Some(w) if w.state == WarpState::Ready)
        })
    }

    /// The warp in `slot`, which must be live.
    fn warp(&self, slot: usize) -> &Warp {
        self.warps[slot].as_ref().expect("warp live")
    }

    /// Earliest cycle this SM can make progress on its own: the soonest
    /// maturing L1-hit load, or — if any warp is ready — the cycle the
    /// issue stage frees up and the soonest-ready warp may issue.
    /// `u64::MAX` when every resident warp waits on external input
    /// (memory responses invalidate the hint on arrival). Absolute
    /// cycle times only, so the hint stays valid while the SM idles.
    fn next_wake(&self) -> u64 {
        let mut t = u64::MAX;
        for &(at, _, _) in &self.local_ready {
            t = t.min(at);
        }
        if let Some(min_resume) = self.ready.iter().map(|i| self.warp(i).resume_at).min() {
            t = t.min(self.issue_free_at.max(min_resume));
        }
        t
    }

    fn cycle_compute_inner(
        &mut self,
        now: u64,
        ctx: &LaunchContext,
        mem: &DeviceMemory,
        det: Option<&Detector>,
        out: &mut CycleOutput,
    ) {
        // Matured L1-hit load responses.
        let mut i = 0;
        while i < self.local_ready.len() {
            if self.local_ready[i].0 <= now {
                let (_, slot, gwarp) = self.local_ready.swap_remove(i);
                self.wake_load(slot, gwarp);
            } else {
                i += 1;
            }
        }

        if now < self.issue_free_at || self.threads_resident == 0 {
            return;
        }
        let n = self.warps.len();
        match self.cfg.sched {
            SchedPolicy::RoundRobin => {
                // Ready slots from `rr_next` up, then from 0 up to
                // `rr_next`: the order of a modulo scan over every slot.
                let rr = self.rr_next;
                let pick = self
                    .ready
                    .iter_from(rr)
                    .chain(self.ready.iter().take_while(|&i| i < rr))
                    .find(|&i| self.warp(i).resume_at <= now);
                if let Some(idx) = pick {
                    self.rr_next = (idx + 1) % n;
                    self.issue(idx, now, ctx, mem, det, out);
                }
            }
            SchedPolicy::GreedyThenOldest => {
                // Greedy: stick with the last-issued warp while it can go.
                let last = self.rr_next % n;
                if self.ready.contains(last) && self.warp(last).resume_at <= now {
                    self.issue(last, now, ctx, mem, det, out);
                    return;
                }
                // Otherwise the oldest issuable ready warp by global warp ID.
                let pick = self
                    .ready
                    .iter()
                    .filter(|&i| self.warp(i).resume_at <= now)
                    .min_by_key(|&i| self.warp(i).gwarp);
                if let Some(idx) = pick {
                    self.rr_next = idx;
                    self.issue(idx, now, ctx, mem, det, out);
                }
            }
        }
    }

    /// Wake one pending load of the warp in `warp_slot` — but only if the
    /// slot still belongs to `gwarp`. A stale wake (slot retired and
    /// reused by a later block) would decrement the *new* warp's
    /// `pending_loads` and release it before its own loads returned.
    fn wake_load(&mut self, warp_slot: usize, gwarp: u32) {
        if let Some(w) = self.warps[warp_slot].as_mut().filter(|w| w.gwarp == gwarp) {
            w.pending_loads = w.pending_loads.saturating_sub(1);
            if w.pending_loads == 0 && w.state == WarpState::WaitMem {
                w.state = WarpState::Ready;
                self.ready.insert(warp_slot);
            }
        }
    }

    /// A response arrived from the memory system. Runs after the apply
    /// phase, so a store ack that completes a fence bumps the warp's
    /// fence ID in `det` directly.
    pub fn handle_response(
        &mut self,
        resp: MemReq,
        now: u64,
        det: Option<&mut Detector>,
        tracer: &mut Tracer,
    ) {
        // External input: the quiescence hint is stale until the next
        // compute call recomputes it.
        self.wake_hint = 0;
        match &resp.kind {
            ReqKind::LoadData => {
                let ev = self.l1.fill(resp.line_addr, false, now);
                let _ = ev; // L1 is write-through: evictions are clean.
                if let Some(pos) = self.l1_mshr.iter().position(|(l, _)| *l == resp.line_addr) {
                    let (_, waiters) = self.l1_mshr.swap_remove(pos);
                    for (slot, gwarp) in waiters {
                        self.wake_load(slot, gwarp);
                    }
                }
            }
            ReqKind::StoreData => {
                let slot = resp.warp_slot;
                let mut fence_done = false;
                let mut gwarp = 0;
                if let Some(w) = self.warps[slot].as_mut().filter(|w| w.gwarp == resp.gwarp) {
                    w.outstanding_stores = w.outstanding_stores.saturating_sub(1);
                    if w.outstanding_stores == 0 && w.state == WarpState::WaitFence {
                        w.state = WarpState::Ready;
                        self.ready.insert(slot);
                        fence_done = true;
                        gwarp = w.gwarp;
                    }
                }
                if fence_done {
                    self.stats.fences += 1;
                    if let Some(d) = det {
                        d.fence(gwarp);
                    }
                    if tracer.on() {
                        tracer.emit(now, SimEvent::FenceComplete { sm: self.id, gwarp });
                    }
                }
            }
            ReqKind::Atomic { dreg, .. } => {
                let dreg = *dreg;
                let slot = resp.warp_slot;
                let (cta_slot, warp_in_block) = match self.warps[slot].as_ref() {
                    Some(w) if w.gwarp == resp.gwarp => (w.cta_slot, w.warp_in_block),
                    _ => return,
                };
                if let Some(cta) = self.ctas[cta_slot].as_mut() {
                    let mut view = WarpLanes::new(&mut cta.regs, cta.lane_slots, warp_in_block);
                    for &(lane, old) in &resp.atomic_old {
                        let t = (warp_in_block * self.cfg.warp_size + u32::from(lane)) as usize;
                        if t < cta.threads as usize {
                            view.set_lane(crate::isa::Reg(dreg), usize::from(lane), old);
                        }
                    }
                }
                self.wake_load(slot, resp.gwarp);
            }
        }
    }

    fn fresh_req(
        &mut self,
        line_addr: u32,
        bytes: u32,
        warp_slot: usize,
        gwarp: u32,
        kind: ReqKind,
    ) -> MemReq {
        let id = self.next_req_id;
        self.next_req_id += 1;
        MemReq {
            id,
            line_addr,
            bytes,
            sm: self.id,
            warp_slot,
            gwarp,
            kind,
            shadow_line: None,
            atomic_old: Vec::new(),
        }
    }

    /// Count the L1 MSHR entries a global load would newly allocate and
    /// report whether the file cannot hold them.
    #[allow(clippy::too_many_arguments)]
    fn mshr_short(
        &self,
        cta_slot: usize,
        warp_in_block: u32,
        mask: u32,
        addr_reg: crate::isa::Reg,
        imm: u32,
        size: u8,
        scratch: &mut SmScratch,
    ) -> bool {
        let cta = self.ctas[cta_slot].as_ref().expect("cta live");
        let SmScratch { lanes, txs, .. } = scratch;
        lanes.clear();
        let addrs = crate::lanes::addr_gen(
            &cta.regs,
            cta.lane_slots,
            warp_in_block as usize * LANES,
            addr_reg,
            imm,
        );
        for l in 0..self.cfg.warp_size {
            if mask & (1 << l) == 0 {
                continue;
            }
            lanes.push(LaneAddr { lane: l as u8, addr: addrs[l as usize], size });
        }
        coalesce_into(lanes, self.cfg.l1.line_bytes, txs);
        let needed = txs
            .iter()
            .filter(|tx| {
                !self.l1.contains(tx.line_addr)
                    && !self.l1_mshr.iter().any(|(l, _)| *l == tx.line_addr)
            })
            .count();
        self.l1_mshr.len() + needed > self.cfg.l1.mshrs as usize
    }

    #[allow(clippy::too_many_lines)]
    fn issue(
        &mut self,
        widx: usize,
        now: u64,
        ctx: &LaunchContext,
        mem: &DeviceMemory,
        det: Option<&Detector>,
        out: &mut CycleOutput,
    ) {
        let _prof = prof::scope(Phase::FetchExecute);
        let warp_size = self.cfg.warp_size;

        let (cta_slot, warp_in_block, gwarp, pc, mask) = {
            let w = self.warps[widx].as_ref().expect("issuing live warp");
            (w.cta_slot, w.warp_in_block, w.gwarp, w.simt.pc(), w.simt.active_mask())
        };
        let instr = ctx.kernel.instrs[pc as usize];
        let block_id = self.ctas[cta_slot].as_ref().expect("cta live").block_id;

        // Structural hazard (S1): a global load whose new misses would
        // overflow the L1 MSHR file cannot issue — the warp replays once
        // fills drain. Checked before any architectural side effect, so
        // a replayed issue is indistinguishable from a first attempt.
        // When the file is empty the load always proceeds, even if its
        // transaction count alone exceeds capacity: the model issues a
        // warp's transactions atomically, so the structural limit is
        // enforced between instructions (and livelock is impossible).
        if let Op::Ld { space: Space::Global, addr, imm, size, .. } = instr.op {
            if !self.l1_mshr.is_empty()
                && self.mshr_short(cta_slot, warp_in_block, mask, addr, imm, size, &mut out.scratch)
            {
                self.stats.l1_mshr_full_stalls += 1;
                self.warps[widx].as_mut().expect("warp live").resume_at = now + 1;
                out.emit(
                    now,
                    SimEvent::WarpStall { sm: self.id, gwarp, reason: StallReason::MshrFull },
                );
                return;
            }
        }

        self.issue_free_at = now + self.cfg.issue_cycles();
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += u64::from(mask.count_ones());
        out.emit(now, SimEvent::WarpIssue { sm: self.id, gwarp, pc: instr.line });

        // Helper: per-lane register access goes through the CTA's flat
        // register file. Two disjoint field borrows (warps / ctas) are
        // re-taken per arm to satisfy the borrow checker.
        macro_rules! cta {
            () => {
                self.ctas[cta_slot].as_mut().expect("cta live")
            };
        }
        macro_rules! warp {
            () => {
                self.warps[widx].as_mut().expect("warp live")
            };
        }

        let lane_thread = |l: u32| (warp_in_block * warp_size + l) as usize;
        // All ALU/control arms below go through the vectorized lane
        // engine: whole-row operand fetch, unconditional 32-lane
        // compute, mask-predicated writeback (see `crate::lanes`).
        macro_rules! view {
            ($cta:expr) => {{
                let c = $cta;
                WarpLanes::new(&mut c.regs, c.lane_slots, warp_in_block)
            }};
        }

        match instr.op {
            Op::Bin { op, d, a, b } => {
                view!(cta!()).bin(op, d, a, b, mask);
                warp!().simt.advance();
            }
            Op::Un { op, d, a } => {
                view!(cta!()).un(op, d, a, mask);
                warp!().simt.advance();
            }
            Op::Mad { d, a, b, c } => {
                view!(cta!()).mad(d, a, b, c, mask);
                warp!().simt.advance();
            }
            Op::FMad { d, a, b, c } => {
                view!(cta!()).fmad(d, a, b, c, mask);
                warp!().simt.advance();
            }
            Op::SetP { cmp, d, a, b } => {
                view!(cta!()).setp(cmp, d, a, b, mask);
                warp!().simt.advance();
            }
            Op::Sel { d, c, a, b } => {
                view!(cta!()).sel(d, c, a, b, mask);
                warp!().simt.advance();
            }
            Op::Sreg { d, r } => {
                let first_t = warp_in_block * warp_size;
                let mut vals = [0u32; LANES];
                for (l, v) in vals.iter_mut().enumerate() {
                    *v = match r {
                        SpecialReg::Tid => first_t + l as u32,
                        SpecialReg::Ctaid => block_id,
                        SpecialReg::Ntid => ctx.block_dim,
                        SpecialReg::Nctaid => ctx.grid,
                        SpecialReg::LaneId => l as u32,
                        SpecialReg::WarpId => warp_in_block,
                    };
                }
                view!(cta!()).write_masked(d, mask, &vals);
                warp!().simt.advance();
            }
            Op::LdParam { d, idx } => {
                let v = ctx.params.get(usize::from(idx)).copied().unwrap_or(0);
                view!(cta!()).write_masked(d, mask, &[v; LANES]);
                warp!().simt.advance();
            }
            Op::Bra { pred, target, reconv } => {
                let taken = match pred {
                    None => mask,
                    Some((r, sense)) => view!(cta!()).vote(r, sense, mask),
                };
                if warp!().simt.branch(taken, target, reconv).is_err() {
                    // Runaway divergence: kill the warp rather than hang.
                    warp!().simt.exit_active();
                }
            }
            Op::Bar => {
                self.stats.barriers += 1;
                {
                    let w = warp!();
                    debug_assert!(w.simt.convergent(), "barrier in divergent control flow");
                    w.simt.advance();
                    w.state = WarpState::AtBarrier;
                    self.ready.assign(widx, false);
                }
                cta!().barrier_waiting += 1;
                out.emit(now, SimEvent::BarrierArrive { sm: self.id, block: block_id, gwarp });
                self.maybe_release_barrier(cta_slot, now, det, out);
            }
            Op::Membar => {
                let w = warp!();
                w.simt.advance();
                if w.outstanding_stores == 0 {
                    self.stats.fences += 1;
                    if det.is_some() {
                        out.ops.push(SmOp::Fence { gwarp });
                    }
                    out.emit(now, SimEvent::FenceComplete { sm: self.id, gwarp });
                } else {
                    w.state = WarpState::WaitFence;
                    self.ready.assign(widx, false);
                    out.emit(
                        now,
                        SimEvent::WarpStall { sm: self.id, gwarp, reason: StallReason::Fence },
                    );
                }
            }
            Op::CsBegin { lock } => {
                let bloom = det.map(|d| d.config().bloom).unwrap_or_default();
                let cta = cta!();
                let addrs = crate::lanes::read_reg(
                    &cta.regs,
                    cta.lane_slots,
                    warp_in_block as usize * LANES,
                    lock,
                );
                for l in 0..warp_size {
                    if mask & (1 << l) != 0 {
                        let t = lane_thread(l);
                        if cta.locks[t].acquire(addrs[l as usize], bloom) {
                            // A distinct new lock set no new signature bit:
                            // this acquisition is invisible to the Bloom
                            // lockset and can suppress a real race later.
                            self.stats.health.bloom_insert_aliased += 1;
                        }
                    }
                }
                warp!().simt.advance();
            }
            Op::CsEnd => {
                let cta = cta!();
                for l in 0..warp_size {
                    if mask & (1 << l) != 0 {
                        cta.locks[lane_thread(l)].release();
                    }
                }
                warp!().simt.advance();
            }
            Op::Exit => {
                warp!().simt.exit_active();
                if warp!().simt.done() {
                    warp!().state = WarpState::Done;
                    self.ready.assign(widx, false);
                    cta!().live_warps -= 1;
                    self.maybe_release_barrier(cta_slot, now, det, out);
                    self.maybe_retire_cta(cta_slot, det, out);
                }
            }
            Op::Ld { space, d, addr, imm, size } => {
                self.mem_access(
                    widx, cta_slot, warp_in_block, gwarp, block_id, mask, now, ctx, mem, det, out,
                    space, MemOpKind::Load { d }, addr, imm, size, Src::Imm(0), Src::Imm(0),
                    instr.line,
                );
            }
            Op::St { space, addr, imm, src, size } => {
                self.mem_access(
                    widx, cta_slot, warp_in_block, gwarp, block_id, mask, now, ctx, mem, det, out,
                    space, MemOpKind::Store, addr, imm, size, src, Src::Imm(0), instr.line,
                );
            }
            Op::Atom { space, op, d, addr, imm, src, src2 } => {
                self.mem_access(
                    widx, cta_slot, warp_in_block, gwarp, block_id, mask, now, ctx, mem, det, out,
                    space, MemOpKind::Atomic { op, d }, addr, imm, 4, src, src2, instr.line,
                );
            }
        }
    }

    fn maybe_release_barrier(
        &mut self,
        cta_slot: usize,
        now: u64,
        det: Option<&Detector>,
        out: &mut CycleOutput,
    ) {
        let (block_id, shared_base, shared_size) = match self.ctas[cta_slot].as_ref() {
            Some(c) if c.live_warps > 0 && c.barrier_waiting >= c.live_warps => {
                (c.block_id, c.shared_base, c.shared_size)
            }
            _ => return,
        };

        // Detector barrier work — the sync-ID bump (§IV-B) and the
        // invalidation of the block's shared shadow entries (§IV-A) —
        // runs in the apply phase, which also emits the release with the
        // invalidation's modeled charge. The warps below resume
        // immediately regardless (passive detection).
        if det.is_some() {
            let shared = (shared_base, shared_base + shared_size);
            out.ops.push(SmOp::Barrier { block: block_id, shared });
        } else {
            out.emit(
                now,
                SimEvent::BarrierRelease { sm: self.id, block: block_id, stall_cycles: 0 },
            );
        }
        let Sm { ctas, warps, ready, .. } = self;
        let cta = ctas[cta_slot].as_mut().expect("cta live");
        cta.barrier_waiting = 0;
        for &slot in &cta.warp_slots {
            let w = warps[slot].as_mut().expect("block's warp live");
            if w.state == WarpState::AtBarrier {
                w.state = WarpState::Ready;
                w.resume_at = now;
                ready.insert(slot);
            }
        }
    }

    fn maybe_retire_cta(&mut self, cta_slot: usize, det: Option<&Detector>, out: &mut CycleOutput) {
        let retire = matches!(&self.ctas[cta_slot], Some(c) if c.live_warps == 0);
        if !retire {
            return;
        }
        let cta = self.ctas[cta_slot].take().expect("cta live");
        self.freed_capacity = true;
        for slot in cta.warp_slots {
            self.warps[slot] = None;
            self.ready.assign(slot, false);
        }
        self.threads_resident -= cta.threads;
        self.regs_resident =
            self.regs_resident.saturating_sub(cta.threads * u32::from(cta.num_regs));
        // Kernel end is an implicit barrier: clear the block's shared
        // shadow entries so the next block on this range starts fresh.
        if det.is_some() {
            let shared = (cta.shared_base, cta.shared_base + cta.shared_size);
            out.ops.push(SmOp::Retire { shared });
        }
    }

    /// Shared/global load, store, or atomic — the memory pipeline front
    /// end plus all RDU hooks.
    ///
    /// Global stores are *not* applied to `mem` here: they are buffered as
    /// [`SmOp::MemWrite`]s and applied by the cycle loop in SM-id order,
    /// so every SM reads the same pre-cycle memory.
    #[allow(clippy::too_many_arguments)]
    fn mem_access(
        &mut self,
        widx: usize,
        cta_slot: usize,
        warp_in_block: u32,
        gwarp: u32,
        block_id: u32,
        mask: u32,
        now: u64,
        ctx: &LaunchContext,
        mem: &DeviceMemory,
        det: Option<&Detector>,
        out: &mut CycleOutput,
        space: Space,
        kind: MemOpKind,
        addr_reg: crate::isa::Reg,
        imm: u32,
        size: u8,
        src: Src,
        src2: Src,
        line_tag: u32,
    ) {
        let warp_size = self.cfg.warp_size;

        // Whole-warp operand prologue: one address-gen row plus the
        // store/atomic source rows, fetched once instead of per lane
        // (lane slots never alias, so prefetching is bit-identical to
        // the old interleaved per-lane reads).
        let mut lanes = std::mem::take(&mut out.scratch.lanes);
        lanes.clear();
        let (addrs, svals, s2vals) = {
            let cta = self.ctas[cta_slot].as_ref().expect("cta live");
            let wb = warp_in_block as usize * LANES;
            (
                crate::lanes::addr_gen(&cta.regs, cta.lane_slots, wb, addr_reg, imm),
                crate::lanes::read_operand(&cta.regs, cta.lane_slots, wb, src),
                crate::lanes::read_operand(&cta.regs, cta.lane_slots, wb, src2),
            )
        };
        {
            let cta = self.ctas[cta_slot].as_mut().expect("cta live");
            let Cta { regs, shared_data, lane_slots, .. } = cta;
            let mut view = WarpLanes::new(regs, *lane_slots, warp_in_block);
            for l in 0..warp_size {
                if mask & (1 << l) == 0 {
                    continue;
                }
                let li = l as usize;
                let a = addrs[li];
                lanes.push(LaneAddr { lane: l as u8, addr: a, size });
                match (space, kind) {
                    (Space::Shared, MemOpKind::Load { d }) => {
                        let v = read_shared(shared_data, a, size, &mut self.stats);
                        view.set_lane(d, li, v);
                    }
                    (Space::Shared, MemOpKind::Store) => {
                        write_shared(shared_data, a, svals[li], size, &mut self.stats);
                    }
                    (Space::Shared, MemOpKind::Atomic { op, d }) => {
                        // Shared-memory atomics are serialized by the SM
                        // itself: functional RMW at issue.
                        let old = read_shared(shared_data, a, size, &mut self.stats);
                        let new = crate::exec::eval_atom(op, old, svals[li], s2vals[li]);
                        write_shared(shared_data, a, new, size, &mut self.stats);
                        view.set_lane(d, li, old);
                    }
                    (Space::Global, MemOpKind::Load { d }) => {
                        let v = mem.read(a, size);
                        view.set_lane(d, li, v);
                    }
                    (Space::Global, MemOpKind::Store) => {
                        out.ops.push(SmOp::MemWrite { addr: a, val: svals[li], size });
                    }
                    (Space::Global, MemOpKind::Atomic { .. }) => {
                        // Functional execution happens at the memory slice
                        // (serialization point); nothing here.
                    }
                }
            }
        }

        match space {
            Space::Shared => {
                self.stats.shared_insts += 1;
                match kind {
                    MemOpKind::Load { .. } => self.stats.shared_loads += lanes.len() as u64,
                    MemOpKind::Store => self.stats.shared_stores += lanes.len() as u64,
                    MemOpKind::Atomic { .. } => self.stats.atomics += lanes.len() as u64,
                }
                let conflicts = bank_conflict_degree(&lanes, self.cfg.shared_banks);
                self.issue_free_at += u64::from(conflicts - 1);
                self.stats.bank_conflict_cycles += u64::from(conflicts - 1);
                if let Some(d) = det.filter(|d| d.config().shared_enabled) {
                    let base = self.ctas[cta_slot].as_ref().expect("cta live").shared_base;
                    let range = self.capture(
                        cta_slot, gwarp, block_id, warp_in_block, kind, line_tag, now, ctx,
                        d.clocks(), lanes.iter().map(|la| (la, base + la.addr)), None,
                        &mut out.batch_arena,
                    );
                    let is_store = matches!(kind, MemOpKind::Store);
                    out.ops.push(SmOp::Check { range, is_store, target: CheckTarget::Shared });
                }
                out.scratch.lanes = lanes;
                self.warps[widx].as_mut().expect("warp live").simt.advance();
            }
            Space::Global => {
                self.stats.global_insts += 1;
                match kind {
                    MemOpKind::Load { .. } => self.stats.global_loads += lanes.len() as u64,
                    MemOpKind::Store => self.stats.global_stores += lanes.len() as u64,
                    MemOpKind::Atomic { .. } => self.stats.atomics += lanes.len() as u64,
                }
                if det.is_some() {
                    out.ops.push(SmOp::NoteGlobal { block: block_id });
                }
                // The global RDU exists exactly when global detection is on.
                let global = det.filter(|d| d.config().global_enabled);
                let mut txs = std::mem::take(&mut out.scratch.txs);
                {
                    let _prof = prof::scope(Phase::Coalesce);
                    coalesce_into(&lanes, self.cfg.l1.line_bytes, &mut txs);
                }
                self.stats.global_transactions += txs.len() as u64;
                if txs.len() > 1 {
                    self.issue_free_at += txs.len() as u64 - 1;
                }
                out.emit(
                    now,
                    SimEvent::MemCoalesce {
                        sm: self.id,
                        gwarp,
                        pc: line_tag,
                        lanes: lanes.len() as u32,
                        transactions: txs.len() as u32,
                    },
                );

                let mut pending = 0u32;
                let prof_l1 = prof::scope(Phase::L1Access);
                for tx in &txs {
                    match kind {
                        MemOpKind::Load { .. } => {
                            // Fill time must be read before the probe
                            // refreshes LRU state.
                            let fill = self.l1.fill_time(tx.line_addr);
                            let hit = self.l1.probe(tx.line_addr, false, now);
                            let l1_fill = if hit { fill } else { None };
                            out.emit(
                                now,
                                SimEvent::L1Access {
                                    sm: self.id,
                                    line: tx.line_addr,
                                    hit,
                                    write: false,
                                },
                            );
                            let batch = global.map(|d| {
                                let tx_lanes = lanes.iter().filter(|la| tx.lanes.contains(la.lane));
                                self.capture(
                                    cta_slot, gwarp, block_id, warp_in_block, kind, line_tag, now,
                                    ctx, d.clocks(), tx_lanes.map(|la| (la, la.addr)), l1_fill,
                                    &mut out.batch_arena,
                                )
                            });
                            if hit {
                                pending += 1;
                                self.local_ready
                                    .push((now + u64::from(self.cfg.l1.hit_latency), widx, gwarp));
                                // §IV-B: L1 read hits still notify the
                                // global RDU via a detection-only probe
                                // (modeled, not a network request).
                                if let Some(range) = batch {
                                    out.ops.push(SmOp::Check {
                                        range,
                                        is_store: false,
                                        target: CheckTarget::Global(ShadowSink::Probe {
                                            line_addr: tx.line_addr,
                                            count_stat: true,
                                        }),
                                    });
                                }
                            } else if let Some(e) = self.l1_mshr.iter_mut().find(|(l, _)| *l == tx.line_addr) {
                                // Merged miss.
                                pending += 1;
                                e.1.push((widx, gwarp));
                                if let Some(range) = batch {
                                    out.ops.push(SmOp::Check {
                                        range,
                                        is_store: false,
                                        target: CheckTarget::Global(ShadowSink::Probe {
                                            line_addr: tx.line_addr,
                                            count_stat: false,
                                        }),
                                    });
                                }
                            } else {
                                pending += 1;
                                self.l1_mshr.push((tx.line_addr, vec![(widx, gwarp)]));
                                let r = self.fresh_req(tx.line_addr, self.cfg.l1.line_bytes, widx, gwarp, ReqKind::LoadData);
                                self.out_req.push(r);
                                if let Some(range) = batch {
                                    out.ops.push(SmOp::Check {
                                        range,
                                        is_store: false,
                                        target: CheckTarget::Global(ShadowSink::Attach { req_idx: self.out_req.len() - 1 }),
                                    });
                                }
                            }
                        }
                        MemOpKind::Store => {
                            // Write-through, no-allocate (§II-A: "global
                            // memory writes to L1 data cache are written
                            // through").
                            let resident = self.l1.contains(tx.line_addr);
                            if resident {
                                self.l1.probe(tx.line_addr, false, now);
                            }
                            out.emit(
                                now,
                                SimEvent::L1Access {
                                    sm: self.id,
                                    line: tx.line_addr,
                                    hit: resident,
                                    write: true,
                                },
                            );
                            let batch = global.map(|d| {
                                let tx_lanes = lanes.iter().filter(|la| tx.lanes.contains(la.lane));
                                self.capture(
                                    cta_slot, gwarp, block_id, warp_in_block, kind, line_tag, now,
                                    ctx, d.clocks(), tx_lanes.map(|la| (la, la.addr)), None,
                                    &mut out.batch_arena,
                                )
                            });
                            let r = self.fresh_req(tx.line_addr, tx.bytes, widx, gwarp, ReqKind::StoreData);
                            self.out_req.push(r);
                            if let Some(range) = batch {
                                out.ops.push(SmOp::Check {
                                    range,
                                    is_store: true,
                                    target: CheckTarget::Global(ShadowSink::Attach { req_idx: self.out_req.len() - 1 }),
                                });
                            }
                            self.warps[widx].as_mut().expect("warp live").outstanding_stores += 1;
                        }
                        MemOpKind::Atomic { op, d } => {
                            let ops: Vec<LaneAtomic> = tx
                                .lanes
                                .iter()
                                .map(|l| {
                                    let li = usize::from(l);
                                    LaneAtomic {
                                        lane: l,
                                        addr: addrs[li],
                                        op,
                                        src: svals[li],
                                        src2: s2vals[li],
                                    }
                                })
                                .collect();
                            pending += 1;
                            let r = self.fresh_req(
                                tx.line_addr,
                                8,
                                widx,
                                gwarp,
                                ReqKind::Atomic { ops, dreg: d.0 },
                            );
                            self.out_req.push(r);
                        }
                    }
                }
                drop(prof_l1);
                out.scratch.lanes = lanes;
                out.scratch.txs = txs;

                let sm_id = self.id;
                let w = self.warps[widx].as_mut().expect("warp live");
                w.simt.advance();
                if matches!(kind, MemOpKind::Load { .. } | MemOpKind::Atomic { .. }) && pending > 0 {
                    w.pending_loads += pending;
                    w.state = WarpState::WaitMem;
                    self.ready.assign(widx, false);
                    out.emit(
                        now,
                        SimEvent::WarpStall { sm: sm_id, gwarp, reason: StallReason::Memory },
                    );
                }
            }
        }
    }

    /// Capture `(lane, address)` pairs of one warp memory instruction
    /// into `arena` for an [`SmOp::Check`] and return the half-open range
    /// they fill. A shared address carries its CTA's base, a global one
    /// is the device address; `l1_fill` is the fill cycle of the L1 line
    /// a global load hit (`None`: no L1 hit). Lockset registers and the
    /// detector clocks are read as this cycle sees them.
    #[allow(clippy::too_many_arguments)]
    fn capture<'l>(
        &self,
        cta_slot: usize,
        gwarp: u32,
        block_id: u32,
        warp_in_block: u32,
        kind: MemOpKind,
        line_tag: u32,
        now: u64,
        ctx: &LaunchContext,
        clocks: &ClockFile,
        lanes: impl Iterator<Item = (&'l LaneAddr, u32)>,
        l1_fill: Option<u64>,
        arena: &mut Vec<MemAccess>,
    ) -> (u32, u32) {
        let cta = self.ctas[cta_slot].as_ref().expect("cta live");
        let kind = kind.access_kind();
        let first_thread = warp_in_block * self.cfg.warp_size;
        let (sync_id, fence_id) = (clocks.sync_id(block_id), clocks.fence_id(gwarp));
        let start = arena.len() as u32;
        arena.extend(lanes.map(|(la, addr)| {
            let t = first_thread + u32::from(la.lane);
            let lk = &cta.locks[t as usize];
            MemAccess {
                addr,
                size: la.size,
                kind,
                who: ThreadCoord::new(block_id * ctx.block_dim + t, gwarp, block_id, self.id),
                pc: line_tag,
                sync_id,
                fence_id,
                atomic_sig: lk.signature(),
                locks: *lk.locks(),
                in_critical_section: lk.in_critical_section(),
                l1_hit: l1_fill.is_some(),
                l1_fill_cycle: l1_fill.unwrap_or(0),
                cycle: now,
            }
        }));
        (start, arena.len() as u32)
    }
}

/// Run one [`SmOp::Check`] through its RDU (apply phase): Fig. 3 edges
/// and the races the log retained go to the tracer, in that order. Then
/// `det` charges the check's modeled cost: a shared check's Fig. 8 lines
/// (none under the hardware placement), or a global check's shadow
/// lines. [`ShadowSink::Attach`] also annotates the data request
/// captured at issue with its first shadow line (inert at the slice —
/// TLB-trace input only); [`ShadowSink::Probe`] records the `(data,
/// shadow)` pair into `tlb_trace` directly, since no request travels.
/// Detection is architecturally passive: nothing here may alter request
/// timing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_check(
    sm: &mut Sm,
    accesses: &[MemAccess],
    is_store: bool,
    target: CheckTarget,
    now: u64,
    det: &mut LaunchDet,
    tracer: &mut Tracer,
    tlb_trace: Option<&mut Vec<(u32, Option<u32>)>>,
    scratch: &mut RaceScratch,
) {
    let (space, phase, counter) = match target {
        CheckTarget::Shared => (MemSpace::Shared, Phase::ShadowShared, Counter::SharedChecks),
        CheckTarget::Global(_) => (MemSpace::Global, Phase::ShadowGlobal, Counter::GlobalChecks),
    };
    let prof = prof::scope(phase);
    prof::count(counter, accesses.len() as u64);
    let races_before = det.detector.races().records().len();

    // Whole-warp batch check: same-page lane runs resolve their shadow
    // page once; shadow-line traffic and Fig. 3 edges stream back through
    // the two sinks in the old scalar loop's per-access order.
    let mut shadow_lines = std::mem::take(&mut scratch.lines);
    shadow_lines.clear();
    {
        let line_mask = !(sm.cfg.l2.line_bytes - 1);
        let sm_id = sm.id;
        let tracing = tracer.on();
        let mut trace_sink = |chunk_addr: u32, from: ShadowState, to: ShadowState| {
            tracer.emit(now, SimEvent::ShadowTransition { space, sm: sm_id, chunk_addr, from, to });
        };
        let on_transition: Option<TransitionSink<'_>> =
            if tracing { Some(&mut trace_sink) } else { None };
        det.detector.check_warp_batch(
            space,
            accesses,
            is_store,
            scratch,
            &mut sm.stats.health,
            on_transition,
            |traffic| {
                for i in 0..traffic.reads {
                    let sa = traffic.shadow_addr
                        + u32::from(i) * haccrg::cost::GLOBAL_SHADOW_STRIDE_BYTES;
                    let line = sa & line_mask;
                    if !shadow_lines.contains(&line) {
                        shadow_lines.push(line);
                    }
                }
            },
        );
    }

    if tracer.on() {
        for r in &det.detector.races().records()[races_before..] {
            tracer.emit(now, SimEvent::RaceDetected { record: *r });
        }
    }

    match target {
        CheckTarget::Shared => {
            // The Fig. 8 charge is modeled cost, not the shared check: the
            // host profile counts it under the apply phase.
            drop(prof);
            sm.stats.shared_shadow_l1_accesses += det.charge_shared(sm.id, accesses, &mut shadow_lines);
        }
        CheckTarget::Global(sink) if !shadow_lines.is_empty() => {
            sm.stats.shadow_l2_accesses += shadow_lines.len() as u64;
            shadow_lines.sort_unstable();
            det.charge_global(&shadow_lines);
            let base = shadow_lines[0];
            match sink {
                ShadowSink::Attach { req_idx } => sm.out_req[req_idx].shadow_line = Some(base),
                ShadowSink::Probe { line_addr, count_stat } => {
                    if count_stat {
                        sm.stats.probe_packets += 1;
                    }
                    if let Some(tr) = tlb_trace {
                        tr.push((line_addr, Some(base)));
                    }
                }
            }
        }
        CheckTarget::Global(_) => {}
    }
    scratch.lines = shadow_lines;
}

/// Internal memory-op classification.
#[derive(Clone, Copy, Debug)]
enum MemOpKind {
    Load { d: crate::isa::Reg },
    Store,
    Atomic { op: crate::isa::AtomOp, d: crate::isa::Reg },
}

impl MemOpKind {
    /// The detector's view of the operation.
    fn access_kind(self) -> AccessKind {
        match self {
            MemOpKind::Load { .. } => AccessKind::Read,
            MemOpKind::Store => AccessKind::Write,
            MemOpKind::Atomic { .. } => AccessKind::Atomic,
        }
    }
}

fn read_shared(data: &[u8], addr: u32, size: u8, stats: &mut SimStats) -> u32 {
    let a = addr as usize;
    if a + usize::from(size) > data.len() {
        stats.mem_faults += 1;
        return 0;
    }
    match size {
        1 => u32::from(data[a]),
        2 => u32::from(u16::from_le_bytes([data[a], data[a + 1]])),
        _ => u32::from_le_bytes([data[a], data[a + 1], data[a + 2], data[a + 3]]),
    }
}

fn write_shared(data: &mut [u8], addr: u32, val: u32, size: u8, stats: &mut SimStats) {
    let a = addr as usize;
    if a + usize::from(size) > data.len() {
        stats.mem_faults += 1;
        return;
    }
    match size {
        1 => data[a] = val as u8,
        2 => data[a..a + 2].copy_from_slice(&(val as u16).to_le_bytes()),
        _ => data[a..a + 4].copy_from_slice(&val.to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiting_warp(gwarp: u32) -> Warp {
        Warp {
            cta_slot: 0,
            warp_in_block: 0,
            gwarp,
            simt: SimtStack::new(u32::MAX),
            state: WarpState::WaitMem,
            pending_loads: 1,
            outstanding_stores: 0,
            resume_at: 0,
        }
    }

    fn load_resp(line_addr: u32, kind: ReqKind) -> MemReq {
        MemReq {
            id: 1,
            line_addr,
            bytes: 0,
            sm: 0,
            warp_slot: 0,
            gwarp: 0,
            kind,
            shadow_line: None,
            atomic_old: Vec::new(),
        }
    }

    fn deliver(sm: &mut Sm, resp: MemReq) {
        sm.handle_response(resp, 10, None, &mut Tracer::default());
    }

    #[test]
    fn stale_load_response_does_not_wake_a_reused_slot() {
        let mut sm = Sm::new(0, GpuConfig::test_small());
        // gwarp 0 registered a waiter on slot 0, then its CTA retired and
        // gwarp 7 took over the slot with a pending load of its own.
        sm.warps[0] = Some(waiting_warp(7));
        sm.l1_mshr.push((0x400, vec![(0, 0)]));
        deliver(&mut sm, load_resp(0x400, ReqKind::LoadData));
        let w = sm.warps[0].as_ref().expect("occupant still resident");
        assert_eq!(w.pending_loads, 1, "stale wake must not touch the new occupant");
        assert_eq!(w.state, WarpState::WaitMem);
        assert!(sm.l1_mshr.is_empty(), "the MSHR entry is still freed");
    }

    #[test]
    fn matching_load_response_wakes_its_waiter() {
        let mut sm = Sm::new(0, GpuConfig::test_small());
        sm.warps[0] = Some(waiting_warp(7));
        sm.l1_mshr.push((0x400, vec![(0, 7)]));
        deliver(&mut sm, load_resp(0x400, ReqKind::LoadData));
        let w = sm.warps[0].as_ref().expect("occupant still resident");
        assert_eq!(w.pending_loads, 0);
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn an_empty_waiter_list_wakes_nobody_and_clears_the_entry() {
        let mut sm = Sm::new(0, GpuConfig::test_small());
        sm.warps[0] = Some(waiting_warp(2));
        sm.l1_mshr.push((0xC00, Vec::new()));
        deliver(&mut sm, load_resp(0xC00, ReqKind::LoadData));
        assert_eq!(sm.warps[0].as_ref().unwrap().pending_loads, 1);
        assert!(sm.l1_mshr.is_empty());
    }
}
