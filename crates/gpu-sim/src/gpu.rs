//! The top-level GPU: device memory, SMs, the interconnect, memory
//! slices, the block dispatcher, and the per-launch cycle loop.
//!
//! A launch is deterministic: given the same kernel, launch geometry,
//! device-memory contents and configuration, the simulator produces the
//! same cycle count, statistics and race log every time (no wall-clock,
//! no unseeded randomness, strictly ordered queues).

use std::sync::Arc;

use haccrg::config::DetectorConfig;
use haccrg::cost;
use haccrg::prelude::*;

use crate::active::ActiveSet;
use crate::config::GpuConfig;
use crate::detector::{DetectorMode, DetectorState, LaunchDet};
use crate::device::{DeviceMemory, HEAP_BASE};
use crate::engine::CyclePool;
use crate::isa::Kernel;
use crate::mem::icnt::{self, Link};
use crate::mem::slice::MemSlice;
use crate::mem::MemReq;
use crate::prof::{self, Counter, Phase};
use crate::sm::{apply_global_batch, CycleOutput, LaunchContext, Sm, SmOp};
use crate::stats::{CacheStats, DramStats, SimStats, SkipStats};
use crate::trace::{heartbeat, LaunchSampler, ReqTag, SimEvent, Tracer};

/// Launch failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Kernel failed validation.
    InvalidKernel(String),
    /// Launch geometry exceeds hardware limits.
    BadLaunch(String),
    /// The watchdog expired (deadlock/livelock).
    Hang {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            SimError::BadLaunch(e) => write!(f, "bad launch: {e}"),
            SimError::Hang { cycles } => write!(f, "kernel hung after {cycles} cycles"),
        }
    }
}

impl std::error::Error for SimError {}

/// Everything a finished launch reports.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub struct LaunchResult {
    pub stats: SimStats,
    /// Races detected by HAccRG (empty log when detection is off).
    pub races: RaceLog,
    /// Largest sync ID any block reached (§VI-A2).
    pub max_sync_id: u8,
    /// Largest fence ID any warp reached (§VI-A2).
    pub max_fence_id: u8,
    /// Reserved global shadow memory (Table IV), bytes (52-bit packed).
    pub shadow_packed_bytes: u64,
    /// Tracked global footprint at launch.
    pub tracked_bytes: u32,
    /// Fast-forward accounting (cycles skipped, jumps, per-SM idle time).
    /// Never part of the bit-identity contract: `stats`, `races` and the
    /// trace streams are equal across dense and skipping runs, while
    /// `skip.cycles_skipped`/`skip_jumps` are zero in dense mode by
    /// definition (`skip.sm_idle_cycles` is mode-independent).
    pub skip: SkipStats,
}

/// How the detector should run for subsequent launches.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct DetectorSetup {
    pub cfg: DetectorConfig,
    pub mode: DetectorMode,
}

/// The GPU device.
#[allow(missing_docs)]
pub struct Gpu {
    pub cfg: GpuConfig,
    pub mem: DeviceMemory,
    detector: Option<DetectorSetup>,
    /// When enabled, global transactions are recorded as
    /// `(data line address, shadow line base if any)` pairs — input for
    /// the §IV-B TLB ablation.
    trace: Option<Vec<(u32, Option<u32>)>>,
    /// Observability front-end: structured events + cycle-sampled
    /// metrics. Disabled (zero-cost) by default; install a sink with
    /// [`Tracer::install`] or enable sampling with
    /// [`Tracer::set_sample_every`].
    pub tracer: Tracer,
}

impl Gpu {
    /// A GPU with detection disabled (the baseline configuration).
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU config");
        Self {
            cfg,
            mem: DeviceMemory::new(cfg.device_mem_bytes),
            detector: None,
            trace: None,
            tracer: Tracer::default(),
        }
    }

    /// A GPU with HAccRG hardware detection enabled.
    pub fn with_detector(cfg: GpuConfig, det: DetectorConfig) -> Self {
        let mut g = Self::new(cfg);
        g.set_detector(Some(DetectorSetup { cfg: det, mode: DetectorMode::Hardware }));
        g
    }

    /// Enable/disable recording of global transactions for TLB studies.
    pub fn record_trace(&mut self, on: bool) {
        self.trace = on.then(Vec::new);
    }

    /// Take the recorded transaction trace (empty if recording was off).
    pub fn take_trace(&mut self) -> Vec<(u32, Option<u32>)> {
        self.trace.take().unwrap_or_default()
    }

    /// Install / remove / switch the detector for future launches.
    pub fn set_detector(&mut self, det: Option<DetectorSetup>) {
        if let Some(d) = &det {
            d.cfg.validate().expect("invalid detector config");
        }
        self.detector = det;
    }

    /// `cudaMalloc`.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        self.mem.alloc(bytes).expect("device OOM")
    }

    /// Launch a kernel and simulate to completion.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        grid: u32,
        block_dim: u32,
        params: &[u32],
    ) -> Result<LaunchResult, SimError> {
        let _prof_launch = prof::scope(Phase::Launch);
        let prof_setup = prof::scope(Phase::Setup);
        kernel.validate().map_err(SimError::InvalidKernel)?;
        if block_dim == 0 || grid == 0 {
            return Err(SimError::BadLaunch("empty launch".into()));
        }
        if block_dim > self.cfg.max_threads_per_sm {
            return Err(SimError::BadLaunch(format!(
                "block of {block_dim} threads exceeds {} per SM",
                self.cfg.max_threads_per_sm
            )));
        }
        if kernel.shared_bytes > self.cfg.shared_mem_per_sm {
            return Err(SimError::BadLaunch(format!(
                "kernel needs {} B shared, SM has {}",
                kernel.shared_bytes, self.cfg.shared_mem_per_sm
            )));
        }
        let warps_per_block = block_dim.div_ceil(self.cfg.warp_size);
        if warps_per_block > self.cfg.max_warps_per_sm() {
            return Err(SimError::BadLaunch("too many warps per block".into()));
        }

        // Global shadow layout: tracked region = everything allocated so
        // far; the shadow table and the Fig. 8 shared-shadow region are
        // addressed past the allocatable heap (their contents are modeled
        // by the detector, only their addresses matter to the caches).
        let tracked_base = HEAP_BASE;
        let tracked_bytes = self.mem.alloc_ptr() - HEAP_BASE;
        let shadow_base = self.cfg.device_mem_bytes;
        let shadow_alloc = cost::global_shadow_footprint(
            u64::from(tracked_bytes),
            self.detector.map_or(Granularity::GLOBAL_DEFAULT, |d| d.cfg.global_granularity),
        )
        .allocated_bytes as u32;
        let shared_shadow_stride =
            ((self.cfg.shared_mem_per_sm / 4) * 2 + self.cfg.l1.line_bytes) & !(self.cfg.l1.line_bytes - 1);
        // The whole shared-shadow region (one stride per SM) must fit in
        // the 32-bit address space; saturating placement would silently
        // alias it onto the global shadow table and corrupt detection.
        let shadow_layout = shadow_base
            .checked_add(shadow_alloc)
            .and_then(|v| v.checked_add(4096))
            .and_then(|base| {
                self.cfg
                    .num_sms
                    .checked_mul(shared_shadow_stride)
                    .and_then(|span| base.checked_add(span))
                    .map(|_end| base)
            });
        let shared_shadow_base = match shadow_layout {
            Some(base) => base,
            None if self.detector.is_some() => {
                return Err(SimError::BadLaunch(
                    "shadow layout overflows the 32-bit address space \
                     (tracked region + shared-shadow region too large)"
                        .into(),
                ));
            }
            // No detector: the region is never addressed, keep a benign
            // saturated placeholder.
            None => shadow_base.saturating_add(shadow_alloc).saturating_add(4096),
        };

        let ctx = LaunchContext {
            kernel: kernel.clone(),
            grid,
            block_dim,
            warps_per_block,
            params: params.to_vec(),
            shared_shadow_base,
            shared_shadow_stride,
        };

        let det_state: Option<DetectorState> = self.detector.map(|s| {
            DetectorState::new(
                s.cfg,
                s.mode,
                self.cfg.num_sms,
                self.cfg.shared_mem_per_sm,
                self.cfg.shared_banks,
                grid,
                grid * warps_per_block,
                (tracked_base, tracked_bytes),
                shadow_base,
                (self.cfg.num_mem_slices, self.cfg.l2.line_bytes),
            )
        });
        // Split the detector for the two-phase engine: each SM owns its
        // shared RDU during the compute phase; global RDU / clocks / log
        // stay with the coordinator.
        let mut sms: Vec<Sm> = (0..self.cfg.num_sms).map(|i| Sm::new(i, self.cfg)).collect();
        let det: Option<LaunchDet> = det_state.map(|d| {
            let (launch_det, rdus) = d.decompose();
            for (sm, rdu) in sms.iter_mut().zip(rdus) {
                sm.install_shared_rdu(rdu);
            }
            launch_det
        });

        let mut slices: Vec<MemSlice> =
            (0..self.cfg.num_mem_slices).map(|i| MemSlice::new(i, self.cfg)).collect();
        let launch_id = self.tracer.next_launch();
        let tracing = self.tracer.on();
        for slice in &mut slices {
            slice.trace_on = tracing;
        }
        if tracing {
            self.tracer.emit(0, SimEvent::KernelLaunch { launch: launch_id, grid, block_dim });
        }
        let sampler = self
            .tracer
            .sampling()
            .then(|| LaunchSampler::new(self.tracer.sample_every(), launch_id, sms.len(), slices.len()));
        let lat = u64::from(self.cfg.icnt.latency);
        let outs: Vec<CycleOutput> =
            (0..self.cfg.num_sms).map(|_| CycleOutput::new(tracing)).collect();
        let mut st = LoopState {
            mem: Arc::new(std::mem::take(&mut self.mem)),
            det,
            sm_awake: ActiveSet::from_fn(sms.len(), |i| sms[i].wake_hint != u64::MAX),
            sm_busy: ActiveSet::from_fn(sms.len(), |i| sms[i].busy()),
            slice_awake: ActiveSet::from_fn(slices.len(), |s| slices[s].wake_hint != u64::MAX),
            slice_busy: ActiveSet::from_fn(slices.len(), |s| !slices[s].idle()),
            computed: Vec::with_capacity(sms.len()),
            sms,
            outs,
            slices,
            sm_egress: LinkArray::new(self.cfg.num_sms, lat),
            sm_ingress: LinkArray::new(self.cfg.num_sms, 0),
            slice_ingress: LinkArray::new(self.cfg.num_mem_slices, 0),
            slice_egress: LinkArray::new(self.cfg.num_mem_slices, lat),
            sampler,
            skip: SkipStats::default(),
        };

        // Level-2 parallelism: run the same cycle loop with the compute
        // phase fanned over a scoped worker pool. The apply phase (and
        // everything downstream of it) is identical, so results are
        // bit-identical to the serial path by construction.
        let workers = match self.cfg.sm_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n as usize,
        }
        .min(self.cfg.num_sms as usize);
        drop(prof_setup);
        let outcome = if self.cfg.parallel_sms && workers > 1 {
            std::thread::scope(|scope| {
                let pool = CyclePool::start(scope, &ctx, workers);
                self.run_cycles(&ctx, &mut st, Some(&pool))
            })
        } else {
            self.run_cycles(&ctx, &mut st, None)
        };

        let LoopState {
            mem,
            det,
            sms,
            slices,
            sm_egress,
            sm_ingress,
            slice_ingress,
            slice_egress,
            mut sampler,
            mut skip,
            ..
        } = st;
        let _prof_finish = prof::scope(Phase::Finish);
        // Restore device memory even on error so the GPU stays usable.
        self.mem = Arc::try_unwrap(mem).ok().expect("memory snapshot outstanding after launch");
        let mut now = outcome?;
        // Idle time stops with the cycle loop: the detection epilogue
        // below is modeled, not simulated.
        let loop_end = now;
        skip.sm_idle_cycles = sms.iter().map(|s| s.idle_cycles(loop_end)).collect();
        let links = [&sm_egress, &sm_ingress, &slice_ingress, &slice_egress];

        // Race-log saturation is a fidelity loss: surface it in the health
        // block before aggregation so the final sampling interval (and the
        // launch aggregate) both carry it. It is the only launch counter
        // no SM owns.
        let mut base = SimStats::default();
        if let Some(d) = det.as_ref() {
            base.health.log_dropped += d.log.dropped();
        }

        // Passive-detection epilogue (see `haccrg::cost`): detection ran
        // architecturally inert, accumulating modeled busy cycles on the
        // side — banked shadow resets and Fig. 8 shared-shadow traffic per
        // SM, shadow L2-port / fill time per memory slice. Fold the
        // busiest SM plus the busiest slice into the cycle count as a
        // modeled window appended after the architectural timeline, so
        // detection-on runs retire the exact same instruction stream as
        // detection-off and differ only in this deterministic epilogue.
        if let Some(d) = det.as_ref().filter(|d| d.hardware()) {
            let det_busy = sms.iter().map(|s| s.det_busy_cycles).max().unwrap_or(0);
            let overhead = det_busy + d.shadow_timing.max_slice_cycles();
            now += overhead;
            // Keep the sampler's window tiling intact across the epilogue:
            // cut every full window the modeled overhead crosses (all
            // deltas zero except elapsed cycles), leaving the mandatory
            // final partial cut below to land exactly on `now`.
            if let Some(sp) = sampler.as_mut() {
                loop {
                    let b = sp.last_cycle().saturating_add(sp.every());
                    if b >= now {
                        break;
                    }
                    let agg = aggregate_stats(&base, b, &sms, &slices, links);
                    let sample = cut_sample(sp, b, &agg, &sms, &slices, links, &skip, loop_end);
                    self.tracer.push_sample(sample);
                }
            }
        }

        // Aggregate statistics (the same function the sampler snapshots
        // through, so per-interval deltas telescope to this aggregate).
        let stats = aggregate_stats(&base, now, &sms, &slices, links);

        // Mandatory final (possibly partial) sampling interval.
        if let Some(sp) = sampler.as_mut() {
            if sp.last_cycle() < now {
                let sample = cut_sample(sp, now, &stats, &sms, &slices, links, &skip, loop_end);
                self.tracer.push_sample(sample);
            }
        }
        if tracing {
            self.tracer.emit(now, SimEvent::KernelEnd { launch: launch_id });
        }

        let (races, max_sync, max_fence) = match det {
            Some(d) => (d.log, d.clocks.max_sync_id(), d.clocks.max_fence_id()),
            None => (RaceLog::default(), 0, 0),
        };
        let shadow = cost::global_shadow_footprint(
            u64::from(tracked_bytes),
            self.detector.map_or(Granularity::GLOBAL_DEFAULT, |d| d.cfg.global_granularity),
        );

        Ok(LaunchResult {
            stats,
            races,
            max_sync_id: max_sync,
            max_fence_id: max_fence,
            shadow_packed_bytes: shadow.packed_bytes,
            tracked_bytes,
            skip,
        })
    }

    /// The per-launch cycle loop, shared by the serial and parallel
    /// engines. Each cycle: dispatch → compute phase (possibly fanned
    /// over `pool`) → serial apply phase in SM-id order → interconnect /
    /// slices / responses → bookkeeping. Returns the final cycle count.
    ///
    /// A cycle visits only the members of the loop's active sets (see
    /// [`LoopState`]), in ascending index order — the order of the full
    /// scans they replace — so its cost follows the components that can
    /// act, not the size of the machine. The dense loop
    /// (`cycle_skip = false`) still computes every SM and cycles every
    /// slice on every cycle.
    #[allow(clippy::too_many_lines)]
    fn run_cycles(
        &mut self,
        ctx: &LaunchContext,
        st: &mut LoopState,
        pool: Option<&CyclePool>,
    ) -> Result<u64, SimError> {
        let grid = ctx.grid;
        let tracing = self.tracer.on();
        let flit = self.cfg.icnt.flit_bytes;
        let cycle_skip = self.cfg.cycle_skip;

        // Sweep-level liveness: when the driving thread attached a
        // heartbeat, publish coarse progress counters every few thousand
        // simulated cycles (one branch per cycle otherwise).
        let hb = heartbeat::current();
        let hb_base = hb.as_ref().map(|h| h.launch_started());
        let mut next_beat = heartbeat::BEAT_INTERVAL;

        let mut next_block = 0u32;
        let mut dispatch_rr = 0usize;
        let mut now = 0u64;
        // The placement scan is O(SMs × warp slots): run it only at launch
        // and after a CTA retires, not every cycle.
        let mut dispatch_needed = true;

        loop {
            // Block dispatcher: round-robin over SMs with capacity.
            if dispatch_needed {
                let _prof = prof::scope(Phase::Dispatch);
                dispatch_needed = false;
                while next_block < grid {
                    let mut placed = false;
                    for k in 0..st.sms.len() {
                        let i = (dispatch_rr + k) % st.sms.len();
                        if st.sms[i].can_place(ctx) {
                            st.sms[i].place(next_block, ctx);
                            st.sm_awake.insert(i);
                            st.sm_busy.insert(i);
                            next_block += 1;
                            dispatch_rr = (i + 1) % st.sms.len();
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        break;
                    }
                }
            }

            // Compute phase: SMs advance one core cycle against the
            // pre-cycle memory / clock snapshot, buffering their effects.
            // An SM is awake this cycle once its wake hint has come
            // (`now >= wake_hint`, in every mode); every other cycle of
            // the launch counts as idle. The dense loop computes every
            // SM; when fast-forwarding only the awake ones are — a
            // quiescent SM's compute call is a provable no-op (see
            // `Sm::wake_hint`), so results are unchanged. `computed`
            // lists, in SM-id order, the SMs whose output the rest of the
            // cycle applies and drains.
            let prof_compute = prof::scope(Phase::SmCompute);
            st.computed.clear();
            for i in st.sm_awake.iter() {
                let sm = &mut st.sms[i];
                if now >= sm.wake_hint {
                    sm.awake_cycles += 1;
                    if cycle_skip {
                        st.computed.push(i);
                    }
                }
            }
            if !cycle_skip {
                st.computed.extend(0..st.sms.len());
            }
            match pool {
                Some(p) => {
                    let det = st.det.as_ref().map(|d| (&d.clocks, d.statics()));
                    p.run_cycle(now, cycle_skip, &st.mem, det, &mut st.sms, &mut st.outs);
                }
                None => {
                    for &i in &st.computed {
                        let out = &mut st.outs[i];
                        out.clear();
                        let view = st.det.as_ref().map(LaunchDet::view);
                        st.sms[i].cycle_compute(now, ctx, &st.mem, view, out);
                    }
                }
            }
            drop(prof_compute);

            // Apply phase: merge buffered effects in SM-id order. This is
            // the only place device memory, the clock file, the global RDU
            // and the race log are mutated during a core cycle, so the
            // parallel compute phase cannot perturb results.
            {
                let _prof = prof::scope(Phase::Apply);
                let mem = Arc::get_mut(&mut st.mem)
                    .expect("memory snapshot outstanding during apply phase");
                for &i in &st.computed {
                    let sm = &mut st.sms[i];
                    apply_cycle_output(
                        sm,
                        &mut st.outs[i],
                        now,
                        mem,
                        &mut st.det,
                        &mut self.tracer,
                        self.trace.as_mut(),
                    );
                    if sm.freed_capacity {
                        sm.freed_capacity = false;
                        dispatch_needed = true;
                    }
                }
            }

            // SM → network. Only a computed SM can hold requests. Besides
            // a placement or a response, which add the SM to its sets,
            // compute and this drain are the only ways a cycle changes
            // an SM's wake hint or busy state.
            let prof_icnt = prof::scope(Phase::Icnt);
            for &i in &st.computed {
                let sm = &mut st.sms[i];
                for req in sm.out_req.drain(..) {
                    if let Some(tr) = self.trace.as_mut() {
                        let shadow = (req.shadow_ops > 0).then_some(req.shadow_base);
                        tr.push((req.line_addr, shadow));
                    }
                    if tracing {
                        self.tracer.emit(
                            now,
                            SimEvent::ReqDepart {
                                sm: req.sm,
                                id: req.id,
                                line: req.line_addr,
                                kind: ReqTag::from(&req.kind),
                            },
                        );
                    }
                    let flits = req.request_flits(flit);
                    st.sm_egress.push(i, now, flits, req);
                }
                st.sm_awake.assign(i, sm.wake_hint != u64::MAX);
                st.sm_busy.assign(i, sm.busy());
            }
            // Network → slices (slice ingress models the port).
            st.sm_egress.drain_ready(now, |_, req| {
                let s = self.cfg.slice_of(req.line_addr) as usize;
                st.slice_ingress.push(s, now, 1, req);
            });
            st.slice_ingress.drain_ready(now, |s, req| {
                st.slices[s].push_input(req);
                st.slice_awake.insert(s);
                st.slice_busy.insert(s);
            });
            drop(prof_icnt);

            // Memory slices: every slice in the dense loop; when
            // fast-forwarding, the awake slices whose hint has come.
            // Gated slice cycles are provable no-ops (no responses, no
            // trace events, no DRAM work — see `MemSlice::wake_hint`).
            {
                let _prof = prof::scope(Phase::SliceCycle);
                let mem = Arc::get_mut(&mut st.mem)
                    .expect("memory snapshot outstanding during slice phase");
                let n = st.slices.len();
                let next = |set: &ActiveSet, from: usize| {
                    if cycle_skip {
                        set.next_from(from)
                    } else {
                        (from < n).then_some(from)
                    }
                };
                let mut at = next(&st.slice_awake, 0);
                while let Some(s) = at {
                    let slice = &mut st.slices[s];
                    if !cycle_skip || now >= slice.wake_hint {
                        for resp in slice.cycle(now, mem) {
                            let flits = resp.response_flits(flit);
                            st.slice_egress.push(s, now, flits, resp);
                        }
                        if tracing {
                            for ev in slice.trace_buf.drain(..) {
                                self.tracer.emit(now, ev);
                            }
                        }
                        st.slice_awake.assign(s, slice.wake_hint != u64::MAX);
                        st.slice_busy.assign(s, !slice.idle());
                    }
                    at = next(&st.slice_awake, s + 1);
                }
            }

            // Network → SMs.
            let prof_resp = prof::scope(Phase::Respond);
            st.slice_egress.drain_ready(now, |_, resp| {
                let i = resp.sm as usize;
                st.sm_ingress.push(i, now, 1, resp);
            });
            st.sm_ingress.drain_ready(now, |i, resp| {
                if tracing {
                    self.tracer.emit(
                        now,
                        SimEvent::RespArrive {
                            sm: resp.sm,
                            id: resp.id,
                            line: resp.line_addr,
                            kind: ReqTag::from(&resp.kind),
                        },
                    );
                }
                let sm = &mut st.sms[i];
                sm.handle_response(resp, now, ctx, &mut st.det, &mut self.tracer);
                st.sm_awake.insert(i);
                st.sm_busy.assign(i, sm.busy());
            });
            drop(prof_resp);

            now += 1;
            prof::count(Counter::DenseCycles, 1);
            if let (Some(h), Some(base)) = (hb.as_ref(), hb_base) {
                if now >= next_beat {
                    let (instructions, checks) = progress(&st.sms);
                    h.beat(base, now, instructions, checks);
                    next_beat = now + heartbeat::BEAT_INTERVAL;
                }
            }

            // Cycle-sampled metrics: cut a delta snapshot every N cycles.
            if let Some(sp) = st.sampler.as_mut() {
                if sp.due(now) {
                    let _prof = prof::scope(Phase::Sampler);
                    let links =
                        [&st.sm_egress, &st.sm_ingress, &st.slice_ingress, &st.slice_egress];
                    let agg =
                        aggregate_stats(&SimStats::default(), now, &st.sms, &st.slices, links);
                    let sample =
                        cut_sample(sp, now, &agg, &st.sms, &st.slices, links, &st.skip, now);
                    self.tracer.push_sample(sample);
                }
            }

            // Completion: all blocks dispatched and retired, all queues dry.
            // Everything from here to the end of the iteration is loop
            // bookkeeping (completion / guards / fast-forward), profiled
            // as skip-logic overhead. The full scans are the reference
            // the incremental sets are checked against in debug builds.
            let _prof_skip = prof::scope(Phase::SkipLogic);
            debug_assert!(active_sets_exact(st), "active sets diverged at cycle {now}");
            debug_assert_eq!(st.quiescent(), quiescent(st), "quiescence diverged at cycle {now}");
            debug_assert_eq!(
                st.next_event(),
                next_event_cycle(st),
                "next event diverged at cycle {now}"
            );
            let quiet = st.quiescent();
            if next_block >= grid && quiet {
                break;
            }
            if now > self.cfg.watchdog_cycles {
                return Err(SimError::Hang { cycles: now });
            }
            // No-progress guard: blocks remain but nothing is resident and
            // nothing is in flight — the launch can never be placed. The
            // interconnect links must be checked too: a response still in
            // flight can wake an SM and free capacity, so in-flight traffic
            // is progress even when every SM and slice is momentarily idle.
            // A CTA that retired this cycle is progress as well: the
            // dispatcher places into its capacity at the top of the next
            // cycle.
            if next_block < grid && !dispatch_needed && quiet {
                return Err(SimError::BadLaunch(format!(
                    "block {next_block} can never be placed (exceeds SM resources)"
                )));
            }

            // Fast-forward: if no component can make progress before some
            // future cycle T, land on T-1 and process it densely — every
            // skipped cycle is a provable no-op for all components, and the
            // landing cycle lets the unmodified tail code above (sampler
            // cut, completion, watchdog, no-progress) fire exactly where
            // the dense loop would. Jumps are capped at the next sampler
            // boundary and the watchdog horizon so neither is overshot.
            // `dispatch_needed` blocks jumping: dispatch runs at the top
            // of the next cycle regardless of component wake hints.
            // Skipped cycles are idle for every SM, which needs no
            // bookkeeping: idle time is elapsed minus awake cycles.
            if cycle_skip && !dispatch_needed {
                let mut target = st.next_event();
                if let Some(sp) = st.sampler.as_ref() {
                    target = target.min(sp.last_cycle().saturating_add(sp.every()));
                }
                target = target.min(self.cfg.watchdog_cycles.saturating_add(1));
                if target != u64::MAX && now + 1 < target {
                    let jump = target - 1 - now;
                    prof::count(Counter::SkippedCycles, jump);
                    st.skip.cycles_skipped += jump;
                    st.skip.skip_jumps += 1;
                    now = target - 1;
                }
            }
        }
        // Final beat so the reporter sees the completed totals even for
        // launches shorter than one beat interval.
        if let (Some(h), Some(base)) = (hb.as_ref(), hb_base) {
            let (instructions, checks) = progress(&st.sms);
            h.beat(base, now, instructions, checks);
        }
        Ok(now)
    }
}

/// The heartbeat's progress totals, folded over the SMs' counters: warp
/// instructions, and shadow-check work — shared-RDU L1 lookups plus
/// global-RDU L2 accesses plus L1-hit detection probes. Heartbeat
/// telemetry only — never part of result comparisons.
fn progress(sms: &[Sm]) -> (u64, u64) {
    sms.iter().fold((0, 0), |(instructions, checks), sm| {
        let s = &sm.stats;
        let shadow = s.shared_shadow_l1_accesses + s.shadow_l2_accesses + s.probe_packets;
        (instructions + s.warp_instructions, checks + shadow)
    })
}

/// True when nothing in the launch holds live work: no SM busy, no packet
/// on any interconnect link, no slice with queued or in-flight memory
/// traffic. The full-scan reference for [`LoopState::quiescent`].
fn quiescent(st: &LoopState) -> bool {
    st.sms.iter().all(|s| !s.busy())
        && st.links().iter().all(|a| a.links.iter().all(Link::is_empty))
        && st.slices.iter().all(MemSlice::idle)
}

/// Earliest future cycle at which any component can make progress: the
/// minimum over every SM's wake hint, every link's head-of-queue arrival
/// time, and every slice's wake hint. `u64::MAX` means fully quiescent
/// (the tail checks have already handled completion / no-progress, so a
/// MAX here can only mean the loop is about to exit). The full-scan
/// reference for [`LoopState::next_event`].
fn next_event_cycle(st: &LoopState) -> u64 {
    let mut t = u64::MAX;
    for sm in &st.sms {
        t = t.min(sm.wake_hint);
    }
    for arr in st.links() {
        for l in &arr.links {
            if let Some(at) = l.next_arrival() {
                t = t.min(at);
            }
        }
    }
    for sl in &st.slices {
        t = t.min(sl.wake_hint);
    }
    t
}

/// Whether every active set holds exactly the components its predicate
/// selects: the invariant that makes the incremental quiescence and
/// next-event values equal their full scans.
fn active_sets_exact(st: &LoopState) -> bool {
    let sms = st.sms.iter().enumerate().all(|(i, sm)| {
        st.sm_awake.contains(i) == (sm.wake_hint != u64::MAX) && st.sm_busy.contains(i) == sm.busy()
    });
    let slices = st.slices.iter().enumerate().all(|(s, sl)| {
        st.slice_awake.contains(s) == (sl.wake_hint != u64::MAX)
            && st.slice_busy.contains(s) != sl.idle()
    });
    let links = st
        .links()
        .iter()
        .all(|a| a.links.iter().enumerate().all(|(i, l)| a.live.contains(i) != l.is_empty()));
    sms && slices && links
}

/// One of the four link arrays of the interconnect, with the set of its
/// non-empty links. A link enters the set in [`Self::push`] and leaves it
/// when [`Self::drain_ready`] empties it.
struct LinkArray {
    links: Vec<Link<MemReq>>,
    live: ActiveSet,
}

impl LinkArray {
    fn new(n: u32, latency: u64) -> Self {
        Self {
            links: (0..n).map(|_| Link::new(latency)).collect(),
            live: ActiveSet::new(n as usize),
        }
    }

    /// Enqueue `req` on link `i` (see [`Link::push`]).
    fn push(&mut self, i: usize, now: u64, flits: u64, req: MemReq) {
        self.links[i].push(now, flits, req);
        self.live.insert(i);
    }

    /// Hand every packet that has arrived by `now` to `deliver`, link by
    /// link in ascending index order.
    fn drain_ready(&mut self, now: u64, mut deliver: impl FnMut(usize, MemReq)) {
        let mut at = self.live.next_from(0);
        while let Some(i) = at {
            let link = &mut self.links[i];
            while let Some(req) = link.pop_ready(now) {
                deliver(i, req);
            }
            self.live.assign(i, !link.is_empty());
            at = self.live.next_from(i + 1);
        }
    }

    /// Earliest head-of-queue arrival over the non-empty links.
    fn next_arrival(&self) -> u64 {
        self.live.iter().filter_map(|i| self.links[i].next_arrival()).min().unwrap_or(u64::MAX)
    }
}

/// Everything the cycle loop owns for one launch, grouped so the loop body
/// can run identically inside or outside a `thread::scope`.
///
/// The active sets are worklists over component indices, kept exact at
/// every cycle boundary: a component enters where work arrives (a placed
/// block, a memory response, slice input, a link push) and leaves when its
/// wake hint becomes `u64::MAX` or its queues drain.
struct LoopState {
    /// Device memory behind an [`Arc`] so compute workers can read the
    /// pre-cycle snapshot; the coordinator regains `&mut` access via
    /// [`Arc::get_mut`] once every worker has dropped its clone.
    mem: Arc<DeviceMemory>,
    det: Option<LaunchDet>,
    sms: Vec<Sm>,
    outs: Vec<CycleOutput>,
    slices: Vec<MemSlice>,
    sm_egress: LinkArray,
    sm_ingress: LinkArray,
    slice_ingress: LinkArray,
    slice_egress: LinkArray,
    /// SMs whose wake hint is not `u64::MAX`.
    sm_awake: ActiveSet,
    /// SMs with a resident block or memory activity pending.
    sm_busy: ActiveSet,
    /// Slices whose wake hint is not `u64::MAX`.
    slice_awake: ActiveSet,
    /// Slices with queued or in-flight memory traffic.
    slice_busy: ActiveSet,
    /// The SMs computed this cycle, in SM-id order.
    computed: Vec<usize>,
    sampler: Option<LaunchSampler>,
    /// Fast-forward accounting, kept out of [`SimStats`] so dense and
    /// skipping runs still compare equal on the simulated counters.
    skip: SkipStats,
}

impl LoopState {
    fn links(&self) -> [&LinkArray; 4] {
        [&self.sm_egress, &self.sm_ingress, &self.slice_ingress, &self.slice_egress]
    }

    /// Whether nothing holds live work: every busy set and every link
    /// array is empty. Shared by the completion check and the
    /// no-progress guard.
    fn quiescent(&self) -> bool {
        self.sm_busy.is_empty()
            && self.slice_busy.is_empty()
            && self.links().iter().all(|a| a.live.is_empty())
    }

    /// Earliest future cycle at which any component can make progress:
    /// the minimum over the awake SMs' and slices' wake hints and the
    /// non-empty links' head arrivals.
    fn next_event(&self) -> u64 {
        let sms = self.sm_awake.iter().map(|i| self.sms[i].wake_hint);
        let slices = self.slice_awake.iter().map(|s| self.slices[s].wake_hint);
        let links = self.links().map(LinkArray::next_arrival);
        sms.chain(slices).chain(links).min().unwrap_or(u64::MAX)
    }
}

/// Serial apply phase for one SM's buffered cycle output: replay its
/// [`SmOp`]s in order. Called in SM-id order, which is what makes the
/// parallel engine's results bit-identical to serial execution.
/// `tlb_trace`, when recording is on, collects the `(data line, shadow
/// line)` pairs of L1-hit probes (§IV-B TLB ablation input) — probes no
/// longer travel through the memory system, so they are recorded here.
fn apply_cycle_output(
    sm: &mut Sm,
    out: &mut CycleOutput,
    now: u64,
    mem: &mut DeviceMemory,
    det: &mut Option<LaunchDet>,
    tracer: &mut Tracer,
    mut tlb_trace: Option<&mut Vec<(u32, Option<u32>)>>,
) {
    // Split borrows: `ops` drains while `batch_arena` is sliced and the
    // detector scratch is lent to `apply_global_batch`.
    let CycleOutput { ops, batch_arena, scratch, .. } = out;
    for op in ops.drain(..) {
        match op {
            SmOp::MemWrite { addr, val, size } => mem.write(addr, val, size),
            SmOp::NoteGlobal { block } => {
                if let Some(d) = det.as_mut() {
                    d.clocks_mut().note_global_access(block);
                }
            }
            SmOp::Barrier { block } => {
                if let Some(d) = det.as_mut() {
                    d.clocks_mut().on_barrier(block);
                }
            }
            SmOp::Fence { gwarp } => {
                if let Some(d) = det.as_mut() {
                    d.clocks_mut().on_fence(gwarp);
                }
            }
            SmOp::SharedRaces { log } => {
                if let Some(d) = det.as_mut() {
                    for (i, r) in log.records().iter().enumerate() {
                        // Witness timelines captured SM-side ride along
                        // into the launch-wide log.
                        let fresh = d.log.push_with_witness(*r, log.witness_of(i));
                        if fresh && tracer.on() {
                            tracer.emit(now, SimEvent::RaceDetected { record: *r });
                        }
                    }
                    // Occurrences the SM-local log had already deduplicated.
                    d.log.add_dynamic(log.total() - log.records().len() as u64);
                }
            }
            SmOp::Emit { cycle, ev } => tracer.emit(cycle, ev),
            SmOp::GlobalBatch { range, is_store, sink } => {
                if let Some(d) = det.as_mut() {
                    let accesses = &batch_arena[range.0 as usize..range.1 as usize];
                    apply_global_batch(
                        sm,
                        accesses,
                        is_store,
                        sink,
                        now,
                        d,
                        tracer,
                        tlb_trace.as_mut().map(|v| &mut **v),
                        &mut scratch.race,
                    );
                }
            }
        }
    }
}

/// Merge the per-unit counters into a launch-level [`SimStats`] snapshot
/// at cycle `now`. `base` carries the counters no unit owns (race-log
/// drops, known only after the loop); each SM's own counters, the caches,
/// DRAM channels and links are folded in from the hardware units. Used
/// both for the final launch aggregate and for every mid-run sampling
/// snapshot, which is what makes the sampled deltas telescope exactly.
fn aggregate_stats(
    base: &SimStats,
    now: u64,
    sms: &[Sm],
    slices: &[MemSlice],
    links: [&LinkArray; 4],
) -> SimStats {
    let mut s = base.clone();
    s.cycles = now;
    for sm in sms {
        s.accumulate(&sm.stats);
        s.l1.merge(&sm.l1.stats);
    }
    for sl in slices {
        s.l2.merge(&sl.l2.stats);
        s.dram.merge(&sl.dram.stats);
    }
    for arr in links {
        for l in &arr.links {
            s.icnt_flits += l.flits;
        }
    }
    s
}

/// Cut one metrics sample: per-unit counter snapshots plus the
/// interconnect-occupancy gauge, handed to the sampler for delta-ing.
/// Per-SM idle time is taken over the first `idle_at` cycles (the cycle
/// loop's end, once the loop has finished).
#[allow(clippy::too_many_arguments)]
fn cut_sample(
    sp: &mut LaunchSampler,
    now: u64,
    agg: &SimStats,
    sms: &[Sm],
    slices: &[MemSlice],
    links: [&LinkArray; 4],
    skip: &SkipStats,
    idle_at: u64,
) -> crate::trace::MetricsSample {
    let sm_l1: Vec<CacheStats> = sms.iter().map(|s| s.l1.stats).collect();
    let l2: Vec<CacheStats> = slices.iter().map(|s| s.l2.stats).collect();
    let dram: Vec<DramStats> = slices.iter().map(|s| s.dram.stats).collect();
    let gauge: u64 = links.iter().map(|arr| icnt::in_flight(&arr.links)).sum();
    let idle: Vec<u64> = sms.iter().map(|s| s.idle_cycles(idle_at)).collect();
    sp.snap(now, agg, &sm_l1, &l2, &dram, gauge, (skip.cycles_skipped, skip.skip_jumps), &idle)
}
