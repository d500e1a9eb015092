//! The top-level GPU: device memory, SMs, the interconnect, memory
//! slices, the block dispatcher, and the per-launch cycle loop.
//!
//! A launch is deterministic: given the same kernel, launch geometry,
//! device-memory contents and configuration, the simulator produces the
//! same cycle count, statistics and race log every time (no wall-clock,
//! no unseeded randomness, strictly ordered queues).

use haccrg::config::DetectorConfig;
use haccrg::cost;
use haccrg::prelude::*;
use haccrg::replay::TraceGeometry;

use crate::active::ActiveSet;
use crate::calendar::Calendar;
use crate::config::GpuConfig;
use crate::detector::LaunchDet;
use crate::device::{DeviceMemory, HEAP_BASE};
use crate::isa::Kernel;
use crate::mem::icnt::{self, Link};
use crate::mem::slice::MemSlice;
use crate::mem::MemReq;
use crate::prof::{self, Counter, Phase};
use crate::sm::{apply_check, CycleOutput, LaunchContext, Sm, SmOp};
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
    /// Shadow-check lanes per dispatch tier — the wide SWAR tier and the
    /// full Fig. 3 check — summed over the shared and global RDUs (all
    /// zero with detection off). Outside `stats` on purpose: both tiers
    /// give the per-access reference's results bit for bit, so these
    /// tallies move when the wide tier widens while every result stays
    /// put.
    pub dispatch: DispatchStats,
}

/// The GPU device.
#[allow(missing_docs)]
pub struct Gpu {
    pub cfg: GpuConfig,
    pub mem: DeviceMemory,
    detector: Option<DetectorConfig>,
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
        g.set_detector(Some(det));
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
    pub fn set_detector(&mut self, det: Option<DetectorConfig>) {
        if let Some(d) = &det {
            d.validate().expect("invalid detector config");
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

        let ctx = LaunchContext {
            kernel: kernel.clone(),
            grid,
            block_dim,
            warps_per_block,
            params: params.to_vec(),
        };

        // The tracked global region is everything allocated so far.
        let tracked_bytes = self.mem.alloc_ptr() - HEAP_BASE;
        let geo = TraceGeometry {
            num_sms: self.cfg.num_sms,
            shared_bytes_per_sm: self.cfg.shared_mem_per_sm,
            shared_banks: self.cfg.shared_banks,
            blocks: grid,
            warps: grid * warps_per_block,
            global_base: HEAP_BASE,
            global_len: tracked_bytes,
        };
        let det = self.detector.map(|cfg| LaunchDet::new(cfg, &self.cfg, &geo)).transpose()?;
        let sms: Vec<Sm> = (0..self.cfg.num_sms).map(|i| Sm::new(i, self.cfg)).collect();

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
        // Every SM and slice starts with a wake hint of 0: due at cycle 0.
        let mut sm_due = Calendar::new(sms.len());
        let mut slice_due = Calendar::new(slices.len());
        for (i, sm) in sms.iter().enumerate() {
            sm_due.file(i, sm.wake_hint);
        }
        for (s, slice) in slices.iter().enumerate() {
            slice_due.file(s, slice.wake_hint);
        }
        let mut st = LoopState {
            mem: std::mem::take(&mut self.mem),
            det,
            sm_due,
            sm_busy: ActiveSet::from_fn(sms.len(), |i| sms[i].busy()),
            slice_due,
            slice_busy: ActiveSet::from_fn(slices.len(), |s| !slices[s].idle()),
            computed: Vec::with_capacity(sms.len()),
            cycled: Vec::with_capacity(slices.len()),
            responses: Vec::new(),
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
        drop(prof_setup);
        let outcome = self.run_cycles(&ctx, &mut st);

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
        self.mem = mem;
        let mut now = outcome?;
        // Idle time stops with the cycle loop: the detection epilogue
        // below is modeled, not simulated.
        let loop_end = now;
        skip.sm_idle_cycles = sms.iter().map(|s| s.idle_cycles(loop_end)).collect();
        let links = [&sm_egress, &sm_ingress, &slice_ingress, &slice_egress];

        // Race-log saturation is a fidelity loss: surface it in the health
        // block before aggregation so the final sampling interval (and the
        // launch aggregate) both carry it. It is the only launch counter
        // no SM owns. Then the passive-detection epilogue: detection ran
        // architecturally inert, so a detecting run retires the exact
        // same instruction stream as an undetected one and differs only
        // in this deterministic window of modeled cycles, appended after
        // the architectural timeline.
        let mut base = SimStats::default();
        if let Some(d) = det.as_ref() {
            base.health.log_dropped += d.detector.races().dropped();
            now += d.modeled_cycles();
        }

        // Aggregate statistics (the same function the sampler snapshots
        // through, so per-interval deltas telescope to this aggregate).
        let stats = aggregate_stats(&base, now, &sms, &slices, links);

        // Close the sampler's tiling: every full window the epilogue
        // crosses (all deltas zero except elapsed cycles), then the final
        // partial window, ending exactly on `now`.
        if let Some(sp) = sampler.as_mut() {
            let mut agg = stats.clone();
            while sp.last_cycle() < now {
                agg.cycles = sp.last_cycle().saturating_add(sp.every()).min(now);
                let sample = cut_sample(sp, agg.cycles, &agg, &sms, &slices, links, &skip, loop_end);
                self.tracer.push_sample(sample);
            }
        }
        if tracing {
            self.tracer.emit(now, SimEvent::KernelEnd { launch: launch_id });
        }

        let (max_sync, max_fence, dispatch, races) = match det {
            Some(LaunchDet { detector: d, .. }) => {
                (d.clocks().max_sync_id(), d.clocks().max_fence_id(), d.dispatch(), d.into_races())
            }
            None => (0, 0, DispatchStats::default(), RaceLog::default()),
        };
        let shadow = cost::global_shadow_footprint(
            u64::from(tracked_bytes),
            self.detector.map_or(Granularity::GLOBAL_DEFAULT, |d| d.global_granularity),
        );

        Ok(LaunchResult {
            stats,
            races,
            max_sync_id: max_sync,
            max_fence_id: max_fence,
            shadow_packed_bytes: shadow.packed_bytes,
            tracked_bytes,
            skip,
            dispatch,
        })
    }

    /// The per-launch cycle loop. Each cycle: dispatch → compute phase →
    /// apply phase in SM-id order → interconnect / slices / responses →
    /// bookkeeping. Returns the final cycle count.
    ///
    /// A cycle visits only the members its calendars file under it (see
    /// [`LoopState`]), in ascending index order — the order of the full
    /// scans they replace — so its cost follows the components that can
    /// act, not the size of the machine. The dense loop
    /// (`cycle_skip = false`) still computes every SM and cycles every
    /// slice on every cycle.
    #[allow(clippy::too_many_lines)]
    fn run_cycles(&mut self, ctx: &LaunchContext, st: &mut LoopState) -> Result<u64, SimError> {
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
            st.advance(now);
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
                            // New warps can issue this cycle.
                            st.sm_due.file(i, now);
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
            // pre-cycle memory and clocks, buffering their effects.
            // An SM is awake this cycle once its wake hint has come
            // (`now >= wake_hint`, in every mode); every other cycle of
            // the launch counts as idle. The dense loop computes every
            // SM; when fast-forwarding only the SMs filed under `now`
            // are, which are exactly the awake ones — a quiescent SM's
            // compute call is a provable no-op (see `Sm::wake_hint`), so
            // results are unchanged. `computed` lists, in SM-id order,
            // the SMs whose output the rest of the cycle applies and
            // drains.
            let prof_compute = prof::scope(Phase::SmCompute);
            st.computed.clear();
            if cycle_skip {
                st.sm_due.take_due(&mut st.computed);
                for &i in &st.computed {
                    st.sms[i].awake_cycles += 1;
                }
            } else {
                for sm in &mut st.sms {
                    sm.awake_cycles += u64::from(now >= sm.wake_hint);
                }
                st.computed.extend(0..st.sms.len());
            }
            for &i in &st.computed {
                let out = &mut st.outs[i];
                out.clear();
                let det = st.det.as_ref().map(|d| &d.detector);
                st.sms[i].cycle_compute(now, ctx, &st.mem, det, out);
            }
            drop(prof_compute);

            // Apply phase: merge buffered effects in SM-id order, after
            // every SM has computed. This is the only place device memory
            // and the detector — clocks, RDUs, race log — are mutated
            // during a core cycle, so no SM sees another SM's writes,
            // clock bumps or RDU effects from the same cycle.
            {
                let _prof = prof::scope(Phase::Apply);
                for &i in &st.computed {
                    let sm = &mut st.sms[i];
                    apply_cycle_output(
                        sm,
                        &mut st.outs[i],
                        now,
                        &mut st.mem,
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
            // a placement or a response, which file the SM and add it to
            // the busy set, compute and this drain are the only ways a
            // cycle changes an SM's wake hint or busy state. A computed
            // SM is re-filed under its new hint, raised to the next
            // cycle: a stale hint (at or before `now`, as after an
            // MSHR-full stall with another warp ready) means "next
            // cycle", never a past slot.
            let prof_icnt = prof::scope(Phase::Icnt);
            for &i in &st.computed {
                let sm = &mut st.sms[i];
                for req in sm.out_req.drain(..) {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push((req.line_addr, req.shadow_line));
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
                st.sm_due.file(i, sm.wake_hint.max(now + 1));
                st.sm_busy.assign(i, sm.busy());
            }
            // Network → slices (slice ingress models the port). A slice
            // with new input is due this cycle.
            st.sm_egress.drain_ready(now, |_, req| {
                let s = self.cfg.slice_of(req.line_addr) as usize;
                st.slice_ingress.push(s, now, 1, req);
            });
            st.slice_ingress.drain_ready(now, |s, req| {
                st.slices[s].push_input(req);
                st.slice_due.file(s, now);
                st.slice_busy.insert(s);
            });
            drop(prof_icnt);

            // Memory slices: every slice in the dense loop; when
            // fast-forwarding, the slices filed under `now`. Gated slice
            // cycles are provable no-ops (no responses, no trace events,
            // no DRAM work — see `MemSlice::wake_hint`). A cycled slice
            // is re-filed under its new hint, raised to the next cycle.
            {
                let _prof = prof::scope(Phase::SliceCycle);
                st.cycled.clear();
                if cycle_skip {
                    st.slice_due.take_due(&mut st.cycled);
                } else {
                    st.cycled.extend(0..st.slices.len());
                }
                for &s in &st.cycled {
                    let slice = &mut st.slices[s];
                    slice.cycle(now, &mut st.mem, &mut st.responses);
                    for resp in st.responses.drain(..) {
                        let flits = resp.response_flits(flit);
                        st.slice_egress.push(s, now, flits, resp);
                    }
                    if tracing {
                        for ev in slice.trace_buf.drain(..) {
                            self.tracer.emit(now, ev);
                        }
                    }
                    st.slice_due.file(s, slice.wake_hint.max(now + 1));
                    st.slice_busy.assign(s, !slice.idle());
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
                let det = st.det.as_mut().map(|d| &mut d.detector);
                sm.handle_response(resp, now, det, &mut self.tracer);
                // The response may have unblocked a warp: due next cycle.
                st.sm_due.file(i, now + 1);
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
            // the calendars and busy sets are checked against in debug
            // builds; a hint at or before `now` is filed under `now`.
            let _prof_skip = prof::scope(Phase::SkipLogic);
            debug_assert!(active_sets_exact(st, now), "active sets diverged at cycle {now}");
            debug_assert_eq!(st.quiescent(), quiescent(st), "quiescence diverged at cycle {now}");
            debug_assert_eq!(
                st.next_event(),
                next_event_cycle(st).max(now),
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
/// reference for [`LoopState::next_event`], which reads the next cycle
/// the loop processes wherever this reads a stale hint before it.
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

/// Whether the calendars and busy sets hold exactly what a full scan
/// finds, with `now` the next cycle the loop processes: each SM and slice
/// filed under its wake hint raised to `now` (unfiled at `u64::MAX`),
/// each link under its head arrival (unfiled when empty), and the busy
/// SMs and non-idle slices in their sets. The invariant that makes the
/// incremental quiescence and next-event values equal their full scans.
fn active_sets_exact(st: &LoopState, now: u64) -> bool {
    let sms = st.sms.iter().enumerate().all(|(i, sm)| {
        st.sm_due.due(i) == sm.wake_hint.max(now) && st.sm_busy.contains(i) == sm.busy()
    });
    let slices = st.slices.iter().enumerate().all(|(s, sl)| {
        st.slice_due.due(s) == sl.wake_hint.max(now) && st.slice_busy.contains(s) != sl.idle()
    });
    let links = st.links().iter().all(|a| {
        let head = |l: &Link<MemReq>| l.next_arrival().unwrap_or(u64::MAX);
        a.links.iter().enumerate().all(|(i, l)| a.due.due(i) == head(l))
    });
    sms && slices && links
}

/// One of the four link arrays of the interconnect, with a calendar of
/// its non-empty links filed under their head-of-queue arrival. A link is
/// filed when [`Self::push`] makes it non-empty and re-filed (or
/// unfiled, once empty) when [`Self::drain_ready`] pops its head.
struct LinkArray {
    links: Vec<Link<MemReq>>,
    due: Calendar,
}

impl LinkArray {
    fn new(n: u32, latency: u64) -> Self {
        Self {
            links: (0..n).map(|_| Link::new(latency)).collect(),
            due: Calendar::new(n as usize),
        }
    }

    /// Enqueue `req` on link `i` (see [`Link::push`]). A push behind a
    /// queued packet leaves the head, and so the filing, unchanged.
    fn push(&mut self, i: usize, now: u64, flits: u64, req: MemReq) {
        let link = &mut self.links[i];
        let was_empty = link.is_empty();
        link.push(now, flits, req);
        if was_empty {
            self.due.file(i, link.next_arrival().expect("just pushed"));
        }
    }

    /// Hand every packet that has arrived by `now` to `deliver`, link by
    /// link in ascending index order: the links filed under `now`.
    fn drain_ready(&mut self, now: u64, mut deliver: impl FnMut(usize, MemReq)) {
        self.due.drain_due(|i| {
            let link = &mut self.links[i];
            while let Some(req) = link.pop_ready(now) {
                deliver(i, req);
            }
            link.next_arrival().unwrap_or(u64::MAX)
        });
    }
}

/// Everything the cycle loop owns for one launch.
///
/// Three calendars (SMs, slices, and one per link array) file each
/// component under the cycle of its next event — an SM's or slice's wake
/// hint raised to the next cycle the loop processes, a link's head
/// arrival — so a cycle visits the components due at it and the next
/// event is the earliest filing. The busy sets hold the components with
/// live work: a component enters where work arrives (a placed block, a
/// memory response, slice input) and leaves when its queues drain. Both
/// are exact at every cycle boundary.
struct LoopState {
    /// Device memory, taken from the [`Gpu`] for the launch and handed
    /// back when the loop ends, on success or error.
    mem: DeviceMemory,
    det: Option<LaunchDet>,
    sms: Vec<Sm>,
    outs: Vec<CycleOutput>,
    slices: Vec<MemSlice>,
    sm_egress: LinkArray,
    sm_ingress: LinkArray,
    slice_ingress: LinkArray,
    slice_egress: LinkArray,
    /// SMs filed under their wake hint (not filed at `u64::MAX`).
    sm_due: Calendar,
    /// SMs with a resident block or memory activity pending.
    sm_busy: ActiveSet,
    /// Slices filed under their wake hint (not filed at `u64::MAX`).
    slice_due: Calendar,
    /// Slices with queued or in-flight memory traffic.
    slice_busy: ActiveSet,
    /// The SMs computed this cycle, in SM-id order.
    computed: Vec<usize>,
    /// The slices cycled this cycle, in slice order.
    cycled: Vec<usize>,
    /// One slice cycle's responses, sorted by request id.
    responses: Vec<MemReq>,
    sampler: Option<LaunchSampler>,
    /// Fast-forward accounting, kept out of [`SimStats`] so dense and
    /// skipping runs still compare equal on the simulated counters.
    skip: SkipStats,
}

impl LoopState {
    fn links(&self) -> [&LinkArray; 4] {
        [&self.sm_egress, &self.sm_ingress, &self.slice_ingress, &self.slice_egress]
    }

    /// Move every calendar's base to `now`, the cycle about to be
    /// processed: the next after the last one, or the landing cycle of a
    /// jump.
    fn advance(&mut self, now: u64) {
        self.sm_due.advance(now);
        self.slice_due.advance(now);
        for arr in [
            &mut self.sm_egress,
            &mut self.sm_ingress,
            &mut self.slice_ingress,
            &mut self.slice_egress,
        ] {
            arr.due.advance(now);
        }
    }

    /// Whether nothing holds live work: every busy set and every link
    /// calendar is empty. Shared by the completion check and the
    /// no-progress guard.
    fn quiescent(&self) -> bool {
        self.sm_busy.is_empty()
            && self.slice_busy.is_empty()
            && self.links().iter().all(|a| a.due.is_empty())
    }

    /// Earliest cycle at which any component can make progress: the
    /// first filing over the calendars (never before the next cycle the
    /// loop processes).
    fn next_event(&self) -> u64 {
        let links = self.links().map(|a| a.due.first());
        links.into_iter().fold(self.sm_due.first().min(self.slice_due.first()), u64::min)
    }
}

/// Apply phase for one SM's buffered cycle output: replay its [`SmOp`]s
/// in order. Called in SM-id order once every SM has computed.
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
    // detector scratch is lent to `apply_check`.
    let CycleOutput { ops, batch_arena, scratch, .. } = out;
    for op in ops.drain(..) {
        match (op, det.as_mut()) {
            (SmOp::MemWrite { addr, val, size }, _) => mem.write(addr, val, size),
            (SmOp::Emit { cycle, ev }, _) => tracer.emit(cycle, ev),
            (SmOp::NoteGlobal { block }, Some(d)) => d.detector.note_global(block),
            (SmOp::Barrier { block, shared }, Some(d)) => {
                // The reset is a modeled charge (folded into the launch
                // epilogue), never a warp stall: stalling would change the
                // retired instruction stream relative to a detection-off
                // run. `stall_cycles` reports the charge.
                let stall = d.barrier(sm.id, block, shared);
                sm.stats.shadow_reset_stall_cycles += stall;
                let ev = SimEvent::BarrierRelease { sm: sm.id, block, stall_cycles: stall };
                tracer.emit(now, ev);
            }
            (SmOp::Retire { shared }, Some(d)) => {
                d.detector.reset_shared(sm.id, shared.0, shared.1);
            }
            (SmOp::Fence { gwarp }, Some(d)) => d.detector.fence(gwarp),
            (SmOp::Check { range, is_store, target }, Some(d)) => {
                let accesses = &batch_arena[range.0 as usize..range.1 as usize];
                apply_check(
                    sm,
                    accesses,
                    is_store,
                    target,
                    now,
                    d,
                    tracer,
                    tlb_trace.as_deref_mut(),
                    &mut scratch.race,
                );
            }
            // Detector ops are pushed only when a detector is on.
            (_, None) => {}
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
