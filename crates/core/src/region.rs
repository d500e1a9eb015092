//! The shadow region both Race Detection Units are built on.
//!
//! HAccRG's shared-memory RDU (§IV-A) and global-memory RDU (§IV-B) run
//! the same Fig. 3 state machine over a table of shadow entries; they
//! differ only in where the entries live and what a check costs. A
//! [`ShadowRegion`] holds everything the two share — the demand-paged
//! table, the shadow policy, the witness ring, the dispatch counters —
//! together with the scalar reference check ([`ShadowRegion::observe_health`])
//! and the one batch kernel ([`ShadowRegion::check_warp_batch`]). The
//! space parameter supplies the rest: [`crate::global_rdu::Global`]
//! (heap base, shadow-region addresses) and [`crate::shared_rdu::Shared`]
//! (SM id, banked barrier resets).
//!
//! The batch kernel retires each lane on one of two tiers (see
//! [`crate::dispatch`]): the wide SWAR screen (with its first-touch
//! step), or the full Fig. 3 check. Both report their own Fig. 3 edges
//! and witness events, so an attached tracer or witness ring observes the
//! same code path an unobserved run executes.

use crate::access::{MemAccess, MemSpace};
use crate::clocks::ClockFile;
use crate::config::DetectorConfig;
use crate::cost;
use crate::dispatch::DispatchStats;
use crate::granularity::Granularity;
use crate::health::{DetectorHealth, WitnessEvent, WitnessRing, WITNESS_RING_DEPTH};
use crate::intra_warp::check_intra_warp_waw_into;
use crate::packed::id_truncation_collision;
use crate::race::RaceLog;
use crate::scratch::RaceScratch;
use crate::shadow::{ShadowEntry, ShadowPolicy, ShadowState};
use crate::shadow_table::{screen_masks, PageEntries, ShadowTable, PAGE_ENTRIES};

/// Callback invoked by the checks for every Fig. 3 state-machine edge, in
/// access order: `(chunk_addr, from, to)`.
pub type TransitionSink<'a> = &'a mut dyn FnMut(u32, ShadowState, ShadowState);

/// Shadow-memory accesses generated by one detection check, for the timing
/// model to replay. Each entry check is a read-modify-write of the packed
/// shadow word at `shadow_addr`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowTraffic {
    /// Device address of the first shadow word touched.
    pub shadow_addr: u32,
    /// Number of shadow words read (one per chunk the access straddles).
    pub reads: u8,
    /// Number of shadow words written back (state changed).
    pub writes: u8,
}

/// Counters the evaluation harness reads off an RDU.
#[derive(Clone, Copy, Debug, Default)]
pub struct RduStats {
    /// Accesses checked against shadow entries.
    pub checks: u64,
    /// Shadow words read (global memory: one per chunk a check covers).
    pub shadow_reads: u64,
    /// Shadow words written back (global memory: the check changed them).
    pub shadow_writes: u64,
    /// Detection-only requests triggered by L1 read hits (§IV-B).
    pub l1_hit_probes: u64,
    /// Intra-warp pre-issue WAW checks performed.
    pub intra_warp_checks: u64,
    /// Barrier-triggered bulk resets (shared memory).
    pub resets: u64,
    /// Shadow entries invalidated by those resets.
    pub reset_entries: u64,
    /// Cycles charged for resets (entries / banks, rounded up).
    pub reset_cycles: u64,
}

/// What a memory space adds to a [`ShadowRegion`].
pub trait Space {
    /// Whether checks account shadow traffic for the timing model: the
    /// shadow words read and written back, and L1-hit probes. Global
    /// shadow words live in device memory; shared entries sit in SRAM
    /// beside the banks, so their checks leave those counters at zero.
    const TRAFFIC: bool;

    /// The tracking granularity and Fig. 3 rules `cfg` sets for this space.
    fn configure(cfg: &DetectorConfig) -> (Granularity, ShadowPolicy);

    /// Whether `a` was routed to this region (a debug check).
    fn owns(&self, _a: &MemAccess) -> bool {
        true
    }
}

/// One RDU's shadow table plus the machinery that checks accesses
/// against it. [`crate::GlobalRdu`] and [`crate::SharedRdu`] name the two
/// instantiations.
#[derive(Clone, Debug)]
pub struct ShadowRegion<S> {
    pub(crate) space: S,
    /// Address of the first tracked byte: the heap base for global
    /// memory, 0 for an SM's shared memory (its accesses carry offsets).
    base: u32,
    /// Device address of the first shadow word (global memory; shared
    /// entries live in SRAM beside the banks and count from 0).
    shadow_base: u32,
    gran: Granularity,
    pub(crate) table: ShadowTable,
    policy: ShadowPolicy,
    /// Opt-in windowed access recorder feeding per-race witness timelines.
    capture_witness: bool,
    ring: WitnessRing,
    /// Check and traffic counters.
    pub stats: RduStats,
    /// Lanes retired per dispatch tier (wide / scalar).
    pub dispatch: DispatchStats,
}

impl<S: Space> ShadowRegion<S> {
    /// The region `cfg` configures for `space`, tracking `tracked_bytes`
    /// from `base`, with shadow words addressed from `shadow_base` — the
    /// one mapping from a [`DetectorConfig`] to an RDU.
    pub fn from_config(
        cfg: &DetectorConfig,
        space: S,
        base: u32,
        tracked_bytes: u32,
        shadow_base: u32,
    ) -> Self {
        let (gran, mut policy) = S::configure(cfg);
        policy.exact_lockset = cfg.exact_lockset;
        Self {
            space,
            base,
            shadow_base,
            gran,
            table: ShadowTable::new(gran.entries_for(tracked_bytes)),
            policy,
            capture_witness: cfg.witness_capture,
            ring: WitnessRing::with_depth(WITNESS_RING_DEPTH),
            stats: RduStats::default(),
            dispatch: DispatchStats::default(),
        }
    }

    /// Check one access against the shadow table. Pushes races into `log`
    /// and returns the shadow traffic the check generated (for the timing
    /// model; none in a space without [`Space::TRAFFIC`]). Addresses off
    /// the table produce no check and no traffic.
    pub fn observe(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        log: &mut RaceLog,
    ) -> ShadowTraffic {
        let mut h = DetectorHealth::default();
        self.observe_health(a, clocks, log, &mut h)
    }

    /// [`Self::observe`] with fidelity accounting into `h` (lockset-check
    /// outcomes, aliasing-suppressed conflicts, §VI-C2 packed-ID
    /// truncation collisions, shadow-page occupancy) and, when witness
    /// capture is on, ring recording + timeline attachment. The scalar
    /// reference: every chunk takes the full Fig. 3 check.
    pub fn observe_health(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
    ) -> ShadowTraffic {
        debug_assert!(self.space.owns(a), "access routed to the wrong RDU");
        let Some((lo, hi)) = self.chunk_range(a.addr, a.size) else {
            return ShadowTraffic::default();
        };
        self.stats.checks += 1;
        let mut traffic = ShadowTraffic { shadow_addr: self.shadow_addr(lo), reads: 0, writes: 0 };
        let mut ck = Checker::<true> {
            clocks,
            policy: &self.policy,
            capture_witness: self.capture_witness,
            ring: &mut self.ring,
            log,
            on_transition: None,
        };
        for idx in lo..=hi {
            let chunk_addr = self.base + ((idx as u32) << self.gran.shift());
            let changed =
                self.table.with_page(idx, h, |pe, h| ck.full_check(pe, idx, a, chunk_addr, h));
            traffic.reads += 1;
            traffic.writes += u8::from(changed);
        }
        if !S::TRAFFIC {
            return ShadowTraffic::default();
        }
        self.stats.l1_hit_probes += u64::from(a.l1_hit);
        self.stats.shadow_reads += u64::from(traffic.reads);
        self.stats.shadow_writes += u64::from(traffic.writes);
        traffic
    }

    /// Batch counterpart of [`Self::observe_health`] over one warp's
    /// accesses — the data-parallel tier's entry point.
    ///
    /// Semantics are bit-identical to running [`Self::check_warp_stores`]
    /// (when `is_store`) followed by `observe_health` per access in order:
    /// identical races in identical order, identical health counters,
    /// identical witness timelines, and `per_traffic` receives exactly
    /// the per-access [`ShadowTraffic`] the scalar calls would return
    /// (never called in a space without [`Space::TRAFFIC`]).
    /// `on_transition` receives every Fig. 3 edge in that same order.
    /// The speedup comes from amortization, not reordering: *maximal
    /// consecutive runs* of single-chunk accesses on one shadow page
    /// resolve the page once ([`ShadowTable::with_page`]), and each lane
    /// of a run climbs one ladder — the wide SWAR screen, then the
    /// first-touch step, then the full Fig. 3 check — whatever observers
    /// are attached. A multi-chunk access ends the run and takes the full
    /// check chunk by chunk. Accesses are never physically sorted.
    #[allow(clippy::too_many_arguments)]
    pub fn check_warp_batch(
        &mut self,
        accesses: &[MemAccess],
        is_store: bool,
        clocks: &ClockFile,
        scratch: &mut RaceScratch,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        on_transition: Option<TransitionSink<'_>>,
        per_traffic: impl FnMut(ShadowTraffic),
    ) {
        if is_store {
            self.check_warp_stores(accesses, scratch, log);
        }
        // One kernel, instantiated twice: both instances run the same
        // rungs, and the unobserved one compiles the reporting out of its
        // lane loop (on an x86-64 host, a never-taken reporting call there
        // slowed a warp of 32 coalesced stores by about 25%).
        if on_transition.is_some() || self.capture_witness {
            self.batch::<true>(accesses, clocks, log, h, on_transition, per_traffic);
        } else {
            self.batch::<false>(accesses, clocks, log, h, None, per_traffic);
        }
    }

    /// [`Self::check_warp_batch`] past the intra-warp check.
    fn batch<const OBSERVED: bool>(
        &mut self,
        accesses: &[MemAccess],
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        on_transition: Option<TransitionSink<'_>>,
        mut per_traffic: impl FnMut(ShadowTraffic),
    ) {
        let ShadowRegion {
            space,
            base,
            shadow_base,
            gran,
            table,
            policy,
            capture_witness,
            ring,
            stats,
            dispatch,
        } = self;
        let policy: &ShadowPolicy = policy;
        let (base, shadow_base, shift, tlen) = (*base, *shadow_base, gran.shift(), table.len());
        let masks = screen_masks(policy);
        let mut ck = Checker::<OBSERVED> {
            clocks,
            policy,
            capture_witness: *capture_witness,
            ring,
            log,
            on_transition,
        };
        let shadow_addr_at =
            |idx: usize| shadow_base + (idx as u32) * cost::GLOBAL_SHADOW_STRIDE_BYTES;
        let chunk_addr = |idx: usize| base + ((idx as u32) << shift);
        let gsize = 1u32 << shift;
        let gmask = gsize - 1;
        let mut i = 0usize;
        while i < accesses.len() {
            let a = &accesses[i];
            debug_assert!(space.owns(a), "access routed to the wrong RDU");
            let Some((lo, hi)) = chunk_span(base, shift, tlen, a.addr, a.size) else {
                i += 1;
                continue;
            };
            if lo != hi {
                // A multi-chunk access, page-straddling or not: the full
                // check per chunk.
                stats.checks += 1;
                let mut traffic =
                    ShadowTraffic { shadow_addr: shadow_addr_at(lo), reads: 0, writes: 0 };
                for idx in lo..=hi {
                    let changed = table
                        .with_page(idx, h, |pe, h| ck.full_check(pe, idx, a, chunk_addr(idx), h));
                    traffic.reads += 1;
                    traffic.writes += u8::from(changed);
                }
                dispatch.scalar_lanes += u64::from(traffic.reads);
                if S::TRAFFIC {
                    stats.l1_hit_probes += u64::from(a.l1_hit);
                    stats.shadow_reads += u64::from(traffic.reads);
                    stats.shadow_writes += u64::from(traffic.writes);
                    per_traffic(traffic);
                }
                i += 1;
                continue;
            }
            // Maximal run of consecutive single-chunk accesses on `lo`'s
            // page: resolve the page once, then consume accesses while
            // they stay on it, counters accumulated in locals and flushed
            // per run.
            //
            // Precomputed address window of the page: a lane joins the run
            // iff `addr - page_addr < page_span` (one wrapping subtract
            // covers "tracked, on this page, within the table") and its
            // chunk-offset plus size fits one granule.
            let page_base_idx = ShadowTable::page_of(lo) * PAGE_ENTRIES;
            let page_addr = chunk_addr(page_base_idx);
            let page_span = ((tlen - page_base_idx).min(PAGE_ENTRIES) as u32) << shift;
            let (next, l1, reads, writes) = table.with_page(lo, h, |pe, h| {
                let (mut l1, mut reads, mut writes) = (0u64, 0u64, 0u64);
                // Dispatch tallies in run-local registers; flushed once
                // per run (the counters are run diagnostics, not per-lane
                // observables).
                let (mut wide_n, mut scalar_n) = (0u64, 0u64);
                let (mut j, mut idx) = (i, lo);
                loop {
                    // Fused per lane: stamp-check + SWAR screen + column
                    // apply in one slot resolution, a screened-out first
                    // touch opened on the same tier, and the full check
                    // for the rest. Each lane screens against the current
                    // columns at its own turn, so full-check mutations
                    // are observed by later lanes exactly as in the scalar
                    // pipeline.
                    let a = &accesses[j];
                    let wide_lane = pe
                        .lane_screen_apply(idx, a, masks, h)
                        .or_else(|| pe.lane_first_touch(idx, a));
                    let changed = match wide_lane {
                        Some((c, before, after)) => {
                            wide_n += 1;
                            ck.note(a, chunk_addr(idx), before, after);
                            c
                        }
                        None => {
                            scalar_n += 1;
                            ck.full_check(pe, idx, a, chunk_addr(idx), h)
                        }
                    };
                    if S::TRAFFIC {
                        l1 += u64::from(a.l1_hit);
                        reads += 1;
                        writes += u64::from(changed);
                        per_traffic(ShadowTraffic {
                            shadow_addr: shadow_addr_at(idx),
                            reads: 1,
                            writes: u8::from(changed),
                        });
                    }
                    j += 1;
                    if j >= accesses.len() {
                        break;
                    }
                    let b = &accesses[j];
                    let d = b.addr.wrapping_sub(page_addr);
                    if d < page_span && (d & gmask) + u32::from(b.size.max(1)) <= gsize {
                        idx = page_base_idx + (d >> shift) as usize;
                    } else {
                        break;
                    }
                }
                dispatch.wide_lanes += wide_n;
                dispatch.scalar_lanes += scalar_n;
                (j, l1, reads, writes)
            });
            stats.checks += (next - i) as u64;
            stats.l1_hit_probes += l1;
            stats.shadow_reads += reads;
            stats.shadow_writes += writes;
            i = next;
        }
    }
}

impl<S> ShadowRegion<S> {
    /// Enable/disable the windowed access recorder. When enabled, every
    /// detected race carries a bounded witness timeline of recent accesses
    /// to the racy chunk.
    pub fn set_witness_capture(&mut self, on: bool) {
        self.capture_witness = on;
        if !on {
            self.ring.clear();
        }
    }

    /// Number of shadow entries.
    pub fn num_entries(&self) -> usize {
        self.table.len()
    }

    /// Tracking granularity.
    pub fn granularity(&self) -> Granularity {
        self.gran
    }

    /// Device address of the shadow word for chunk `idx`.
    pub fn shadow_addr(&self, idx: usize) -> u32 {
        self.shadow_base + (idx as u32) * cost::GLOBAL_SHADOW_STRIDE_BYTES
    }

    /// Pre-issue intra-warp WAW check over one warp instruction's lanes
    /// (exact byte overlap — same-warp chunk conflation never reports).
    /// Races go into `log`; `scratch` supplies the reusable dedup buffer.
    pub fn check_warp_stores(
        &mut self,
        lanes: &[MemAccess],
        scratch: &mut RaceScratch,
        log: &mut RaceLog,
    ) {
        self.stats.intra_warp_checks += 1;
        check_intra_warp_waw_into(lanes, self.base, self.policy.space, scratch, log);
    }

    /// Invalidate the whole region (kernel launch/termination) — a
    /// generation bump per materialized page.
    pub fn reset_all(&mut self) {
        self.table.reset_all();
        self.ring.clear();
    }

    /// Inspect a shadow entry (tests/debugging). Untouched and
    /// epoch-invalidated entries read as fresh.
    pub fn entry(&self, idx: usize) -> ShadowEntry {
        self.table.get(idx)
    }

    /// Inclusive range of shadow-entry indices an access touches, clamped
    /// to the table — the same chunks [`Self::observe`] walks. `None` for
    /// accesses that start off the table (observability hooks use this to
    /// snapshot states around an `observe`).
    pub fn chunk_range(&self, addr: u32, size: u8) -> Option<(usize, usize)> {
        chunk_span(self.base, self.gran.shift(), self.table.len(), addr, size)
    }

    /// Address (device address, or shared-memory offset) of the first
    /// byte of chunk `idx`.
    pub fn chunk_addr(&self, idx: usize) -> u32 {
        self.base + ((idx as u32) << self.gran.shift())
    }
}

/// Entries `[lo, hi]` an access of `size` bytes at `addr` covers in a
/// table of `len` entries of `1 << shift` bytes from `base`, clamped to
/// the table; `None` when the access starts off it.
#[inline(always)]
fn chunk_span(base: u32, shift: u32, len: usize, addr: u32, size: u8) -> Option<(usize, usize)> {
    let off = addr.checked_sub(base)?;
    let lo = (off >> shift) as usize;
    if lo >= len {
        return None;
    }
    let hi = ((off + u32::from(size.max(1)) - 1) >> shift) as usize;
    Some((lo, hi.min(len - 1)))
}

/// One call's view of a region for the per-chunk checks: the rules, the
/// observers and the race log. Both tiers report through
/// [`Checker::note`], which compiles to nothing unless `OBSERVED`.
struct Checker<'a, 's, const OBSERVED: bool> {
    clocks: &'a ClockFile,
    policy: &'a ShadowPolicy,
    capture_witness: bool,
    ring: &'a mut WitnessRing,
    log: &'a mut RaceLog,
    on_transition: Option<TransitionSink<'s>>,
}

impl<const OBSERVED: bool> Checker<'_, '_, OBSERVED> {
    /// Report one chunk check to the observers.
    #[inline(always)]
    fn note(&mut self, a: &MemAccess, chunk_addr: u32, before: ShadowState, after: ShadowState) {
        if OBSERVED {
            self.record(a, chunk_addr, before, after);
        }
    }

    /// [`Self::note`]'s body: the Fig. 3 edge (if the state moved) to the
    /// sink, a tracked access to the witness ring.
    #[inline(never)]
    fn record(&mut self, a: &MemAccess, chunk_addr: u32, before: ShadowState, after: ShadowState) {
        if before != after {
            if let Some(cb) = self.on_transition.as_deref_mut() {
                cb(chunk_addr, before, after);
            }
        }
        if self.capture_witness && a.kind.is_tracked() {
            self.ring.push(WitnessEvent {
                cycle: a.cycle,
                who: a.who,
                pc: a.pc,
                kind: a.kind,
                addr: chunk_addr,
                state_before: before,
                state_after: after,
            });
        }
    }

    /// The full Fig. 3 check of chunk `idx` on page `pe`: load the entry
    /// (stamp-checking its slot), run the rules on the value with their
    /// accounting — §VI-C2 truncated-ID collisions (global entries),
    /// observers, the race push — and store the entry back if it changed.
    /// Returns whether it changed (the `ShadowTraffic::writes` signal).
    /// Kept out of line so the wide tier inlines into the batch loop.
    #[cold]
    #[inline(never)]
    fn full_check(
        &mut self,
        pe: &mut PageEntries<'_>,
        idx: usize,
        a: &MemAccess,
        chunk_addr: u32,
        h: &mut DetectorHealth,
    ) -> bool {
        let mut entry = pe.load(idx, h);
        let mut chunk_access = *a;
        chunk_access.addr = chunk_addr;
        if self.policy.space == MemSpace::Global
            && a.kind.is_tracked()
            && !entry.is_fresh()
            && id_truncation_collision(&entry, &a.who)
        {
            // The simulator's full-width entry still distinguishes the
            // threads; §VI-C2 packed hardware would have conflated them.
            h.id_truncation_collisions += 1;
        }
        let before = entry;
        let race = entry.observe_health(&chunk_access, self.clocks, self.policy, h);
        self.note(a, chunk_addr, before.state(), entry.state());
        if let Some(r) = race {
            if self.capture_witness {
                self.log.push_with_witness(r, &self.ring.collect_for(chunk_addr));
            } else {
                self.log.push(r);
            }
        }
        let changed = entry != before;
        if changed {
            pe.store(idx, &entry);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};
    use crate::bloom::{BloomConfig, BloomSig};
    use crate::global_rdu::GlobalRdu;
    use crate::race::RaceRecord;
    use crate::shared_rdu::SharedRdu;

    const HEAP: u32 = 0x1000;

    /// A global RDU tracking `bytes` of heap from `HEAP`.
    fn global_over(bytes: u32) -> GlobalRdu {
        GlobalRdu::new(
            HEAP,
            bytes,
            0x10_0000,
            Granularity::GLOBAL_DEFAULT,
            true,
            true,
            BloomConfig::PAPER_DEFAULT,
        )
    }

    /// SM 0's shared RDU over `bytes` of shared memory.
    fn shared_over(bytes: u32) -> SharedRdu {
        SharedRdu::new(0, bytes, 16, Granularity::SHARED_DEFAULT, true, BloomConfig::PAPER_DEFAULT)
    }

    fn global() -> GlobalRdu {
        global_over(4096)
    }

    fn shared() -> SharedRdu {
        shared_over(16 * 1024)
    }

    fn acc(addr: u32, kind: AccessKind, who: ThreadCoord) -> MemAccess {
        MemAccess::plain(addr, 4, kind, who)
    }

    /// Everything a run of the detector can be observed through.
    #[derive(Clone, Debug, PartialEq)]
    struct Outcome {
        races: Vec<RaceRecord>,
        total: u64,
        witnesses: Vec<Vec<WitnessEvent>>,
        health: DetectorHealth,
        stats: String,
        entries: Vec<ShadowEntry>,
        events: Vec<(u32, ShadowState, ShadowState)>,
        traffic: Vec<ShadowTraffic>,
    }

    fn outcome<S: Space>(
        r: &ShadowRegion<S>,
        log: &RaceLog,
        health: DetectorHealth,
        events: Vec<(u32, ShadowState, ShadowState)>,
        traffic: Vec<ShadowTraffic>,
    ) -> Outcome {
        Outcome {
            races: log.records().to_vec(),
            total: log.total(),
            witnesses: (0..log.records().len()).map(|k| log.witness_of(k).to_vec()).collect(),
            health,
            stats: format!("{:?}", r.stats),
            entries: (0..r.num_entries()).map(|i| r.entry(i)).collect(),
            events,
            traffic,
        }
    }

    /// One step of a replayed sequence: a warp's accesses (a store
    /// instruction when the flag is set), or a whole-region reset.
    enum Step {
        Warp(Vec<MemAccess>, bool),
        Reset,
    }

    /// Two rounds of `steps` through the scalar reference:
    /// `observe_health` per access, with Fig. 3 edges taken from state
    /// snapshots around each call. The second round hits the ordered-lane
    /// steady state.
    fn run_scalar<S: Space>(mut r: ShadowRegion<S>, steps: &[Step]) -> Outcome {
        let c = ClockFile::new(8, 64);
        let (mut log, mut h, mut scratch) =
            (RaceLog::default(), DetectorHealth::default(), RaceScratch::default());
        let (mut events, mut traffic) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for step in steps {
                let Step::Warp(accesses, is_store) = step else {
                    r.reset_all();
                    continue;
                };
                if *is_store {
                    r.check_warp_stores(accesses, &mut scratch, &mut log);
                }
                for a in accesses {
                    let watch = r.chunk_range(a.addr, a.size);
                    let states: Vec<ShadowState> = watch
                        .map(|(lo, hi)| (lo..=hi).map(|i| r.entry(i).state()).collect())
                        .unwrap_or_default();
                    let t = r.observe_health(a, &c, &mut log, &mut h);
                    if let Some((lo, hi)) = watch {
                        for (k, i) in (lo..=hi).enumerate() {
                            let to = r.entry(i).state();
                            if to != states[k] {
                                events.push((r.chunk_addr(i), states[k], to));
                            }
                        }
                    }
                    if t.reads > 0 {
                        traffic.push(t);
                    }
                }
            }
        }
        outcome(&r, &log, h, events, traffic)
    }

    /// The same two rounds through `check_warp_batch`, with or without a
    /// transition sink.
    fn run_batch<S: Space>(r: &mut ShadowRegion<S>, steps: &[Step], traced: bool) -> Outcome {
        let c = ClockFile::new(8, 64);
        let (mut log, mut h, mut scratch) =
            (RaceLog::default(), DetectorHealth::default(), RaceScratch::default());
        let (mut events, mut traffic) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for step in steps {
                let Step::Warp(accesses, is_store) = step else {
                    r.reset_all();
                    continue;
                };
                let mut sink =
                    |addr: u32, from: ShadowState, to: ShadowState| events.push((addr, from, to));
                let on_transition: Option<TransitionSink<'_>> =
                    if traced { Some(&mut sink) } else { None };
                r.check_warp_batch(
                    accesses,
                    *is_store,
                    &c,
                    &mut scratch,
                    &mut log,
                    &mut h,
                    on_transition,
                    |t| traffic.push(t),
                );
            }
        }
        outcome(r, &log, h, events, traffic)
    }

    /// Batch kernel vs scalar reference on one space: every observable
    /// bitwise equal with the transition sink, witness capture, or both
    /// attached, and each observed run retiring every lane on the same
    /// dispatch tier as an unobserved one. Returns the unobserved
    /// dispatch counts.
    fn assert_batch_matches_scalar<S: Space>(
        mk: impl Fn() -> ShadowRegion<S>,
        steps: &[Step],
    ) -> DispatchStats {
        let mut plain = mk();
        let untraced = run_batch(&mut plain, steps, false);
        let reference = run_scalar(mk(), steps);
        assert_eq!(untraced, Outcome { events: Vec::new(), ..reference }, "untraced batch");
        for (witness, traced) in [(false, true), (true, false), (true, true)] {
            let mut observed = mk();
            observed.set_witness_capture(witness);
            let mut scalar = mk();
            scalar.set_witness_capture(witness);
            let mut reference = run_scalar(scalar, steps);
            if !traced {
                reference.events.clear();
            }
            assert_eq!(
                run_batch(&mut observed, steps, traced),
                reference,
                "observed batch, witness={witness}, traced={traced}"
            );
            assert_eq!(
                observed.dispatch, plain.dispatch,
                "observers moved the dispatch tier, witness={witness}, traced={traced}"
            );
        }
        plain.dispatch
    }

    /// [`assert_batch_matches_scalar`] in both spaces over the steps
    /// `steps(base, granule bytes, SM of the second block)` builds; the
    /// shared RDU belongs to SM 0.
    fn assert_steps_in_both_spaces(
        steps: impl Fn(u32, u32, u32) -> Vec<Step>,
    ) -> [DispatchStats; 2] {
        [
            assert_batch_matches_scalar(global, &steps(HEAP, 4, 1)),
            assert_batch_matches_scalar(shared, &steps(0, 16, 0)),
        ]
    }

    /// One warp instruction's lanes in both spaces.
    fn assert_both_spaces(
        lanes: impl Fn(u32, u32, u32) -> Vec<MemAccess>,
        is_store: bool,
    ) -> [DispatchStats; 2] {
        assert_steps_in_both_spaces(|base, g, sm| vec![Step::Warp(lanes(base, g, sm), is_store)])
    }

    #[test]
    fn warp_batch_matches_scalar_coalesced_stores() {
        let d = assert_both_spaces(
            |base, g, _| {
                (0..32)
                    .map(|l| {
                        acc(base + l * g, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0))
                            .at_pc(0x40)
                    })
                    .collect()
            },
            true,
        );
        for d in d {
            // Round one opens every entry as a first touch, round two
            // passes the owner screen: all wide.
            assert_eq!((d.scalar_lanes, d.wide_lanes), (0, 2 * 32), "{d:?}");
        }
    }

    /// 32 stores one shadow page apart, on tables 32 pages long: every
    /// lane is a run of its own, resolving its page alone, and still
    /// retires on the wide tier.
    #[test]
    fn warp_batch_matches_scalar_page_apart_stores() {
        let page = PAGE_ENTRIES as u32;
        let stores = |base: u32, g: u32| {
            let lanes = (0..32)
                .map(|l| {
                    acc(base + l * page * g, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0))
                        .at_pc(0x80)
                })
                .collect();
            [Step::Warp(lanes, true)]
        };
        let d = [
            assert_batch_matches_scalar(|| global_over(32 * page * 4), &stores(HEAP, 4)),
            assert_batch_matches_scalar(|| shared_over(32 * page * 16), &stores(0, 16)),
        ];
        for d in d {
            assert_eq!((d.scalar_lanes, d.wide_lanes), (0, 2 * 32), "{d:?}");
        }
    }

    /// Two warps alternately storing the same 32 words inside critical
    /// sections of one lock: the SWAR screen never passes a locked
    /// access, so every lane, first touches included, takes the full
    /// check's lockset intersection (§III-B).
    #[test]
    fn warp_batch_matches_scalar_lockset_heavy() {
        let sig = BloomSig::of_lock(0x8000, BloomConfig::PAPER_DEFAULT);
        let d = assert_steps_in_both_spaces(|base, g, _| {
            let warp = |w: u32| {
                (0..32)
                    .map(|l| {
                        let who = ThreadCoord::new(w * 32 + l, w, 0, 0);
                        acc(base + l * g, AccessKind::Write, who).at_pc(0x90 + 4 * w).locked(sig)
                    })
                    .collect()
            };
            vec![Step::Warp(warp(0), true), Step::Warp(warp(1), true)]
        });
        for d in d {
            assert_eq!((d.scalar_lanes, d.wide_lanes), (2 * 64, 0), "{d:?}");
        }
    }

    #[test]
    fn warp_batch_matches_scalar_scattered_and_racing() {
        // Scattered across pages, two warps racing on overlapping words,
        // a lane off the table, an atomic, and a page-straddling access.
        assert_both_spaces(
            |base, g, sm| {
                let page = PAGE_ENTRIES as u32 * g;
                let mut lanes: Vec<_> = (0..16)
                    .map(|l| {
                        acc(base + l * page / 4, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0))
                            .at_pc(0x10)
                    })
                    .collect();
                lanes.extend((0..8).map(|l| {
                    acc(base + l * page / 4, AccessKind::Write, ThreadCoord::new(64 + l, 2, 1, sm))
                        .at_pc(0x14)
                }));
                lanes.extend((0..4).map(|l| {
                    acc(base + l * page / 4, AccessKind::Read, ThreadCoord::new(32 + l, 1, 0, 0))
                        .at_pc(0x18)
                }));
                lanes.push(acc(base + 64 * page, AccessKind::Write, ThreadCoord::new(7, 0, 0, 0)));
                lanes.push(acc(base + 12, AccessKind::Atomic, ThreadCoord::new(3, 0, 0, 0)));
                let mut straddle =
                    acc(base + page - 2, AccessKind::Write, ThreadCoord::new(9, 0, 0, 0));
                straddle.size = 8;
                lanes.push(straddle);
                lanes
            },
            true,
        );
    }

    /// The owner reads, then writes (a promotion on the wide tier), then
    /// another warp writes: the wide tier's ReadSingle -> Written edge and
    /// witness event must reach the observers, and the race's timeline
    /// must include the wide lane.
    #[test]
    fn warp_batch_matches_scalar_owner_promotion_then_race() {
        let lanes = |base: u32, g: u32, sm: u32| -> Vec<MemAccess> {
            (0..4)
                .flat_map(|l| {
                    let (x, owner) = (base + l * g, ThreadCoord::new(l, 0, 0, 0));
                    [
                        acc(x, AccessKind::Read, owner).at_pc(0x20),
                        acc(x, AccessKind::Write, owner).at_pc(0x24),
                        acc(x, AccessKind::Write, ThreadCoord::new(64 + l, 2, 1, sm)).at_pc(0x28),
                    ]
                })
                .collect()
        };
        for d in assert_both_spaces(lanes, false) {
            assert!(d.wide_lanes > 0, "the promotions must take the wide tier: {d:?}");
        }
        let mut r = global();
        r.set_witness_capture(true);
        let out = run_batch(&mut r, &[Step::Warp(lanes(HEAP, 4, 1), false)], true);
        assert!(out.events.contains(&(HEAP, ShadowState::ReadSingle, ShadowState::Written)));
        let pcs: Vec<u32> = out.witnesses[0].iter().map(|w| w.pc).collect();
        assert_eq!(pcs, [0x20, 0x24, 0x28], "the wide lane belongs to the race's timeline");
    }

    #[test]
    fn warp_batch_matches_scalar_locked_reads() {
        let sig = BloomSig::of_lock(0x100, BloomConfig::PAPER_DEFAULT);
        let sig2 = BloomSig::of_lock(0x104, BloomConfig::PAPER_DEFAULT);
        assert_both_spaces(
            |base, g, sm| {
                vec![
                    acc(base, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0)).locked(sig),
                    acc(base, AccessKind::Read, ThreadCoord::new(64, 2, 1, sm)).locked(sig2),
                    acc(base + 16 * g, AccessKind::Read, ThreadCoord::new(0, 0, 0, 0)),
                    acc(base + 16 * g, AccessKind::Read, ThreadCoord::new(64, 2, 1, sm)),
                    acc(base + 16 * g, AccessKind::Write, ThreadCoord::new(64, 2, 1, sm)),
                ]
            },
            false,
        );
    }

    /// A benign locked read from another warp sets `shared` on a Written
    /// entry, which then encodes Fresh (a known defect kept bit-for-bit;
    /// see ROADMAP). The batch kernel's full-check lanes must report the
    /// same Written -> Fresh edge the reference does, and the unlocked
    /// write that follows meets an entry that reads fresh, so the wide
    /// tier opens it as a first touch.
    #[test]
    fn warp_batch_matches_scalar_lockset_read_of_written_entry() {
        let sig = BloomSig::of_lock(0x100, BloomConfig::PAPER_DEFAULT);
        let lanes = |base: u32, _: u32, _: u32| {
            vec![
                // Fence field differs from the clock: the writer fenced.
                acc(base, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0))
                    .locked(sig)
                    .with_clocks(0, 1),
                acc(base, AccessKind::Read, ThreadCoord::new(64, 2, 1, 0)).locked(sig),
                acc(base, AccessKind::Write, ThreadCoord::new(128, 4, 2, 0)),
            ]
        };
        for (events, base) in [
            (run_batch(&mut global(), &[Step::Warp(lanes(HEAP, 4, 0), false)], true).events, HEAP),
            (run_batch(&mut shared(), &[Step::Warp(lanes(0, 16, 0), false)], true).events, 0),
        ] {
            let edge = (base, ShadowState::Written, ShadowState::Fresh);
            assert!(events.contains(&edge), "{events:?}");
        }
        for d in assert_both_spaces(lanes, false) {
            // Per round: both critical-section lanes take the full check.
            assert_eq!((d.scalar_lanes, d.wide_lanes), (2 * 2, 2), "{d:?}");
        }
    }

    /// HIST's accumulation: one warp's 32 one-byte counters, lane `l` at
    /// byte `l` — sixteen lanes per 16-byte shared granule, four per
    /// 4-byte global one — loaded, then stored. Every lane after a
    /// granule's first is another lane of the recording warp, so the
    /// whole sequence, first touches included, retires on the wide tier.
    #[test]
    fn warp_batch_matches_scalar_same_warp_bytes() {
        let d = assert_steps_in_both_spaces(|base, _, _| {
            let lane = |l: u32, kind| {
                let mut a = acc(base + l, kind, ThreadCoord::new(l, 0, 0, 0));
                a.size = 1;
                a.at_pc(0x30 + u32::from(kind.is_write()) * 4)
            };
            vec![
                Step::Warp((0..32).map(|l| lane(l, AccessKind::Read)).collect(), false),
                Step::Warp((0..32).map(|l| lane(l, AccessKind::Write)).collect(), true),
            ]
        });
        for d in d {
            assert_eq!((d.scalar_lanes, d.wide_lanes), (0, 4 * 32), "{d:?}");
        }
    }

    /// A partner exchange: every lane stores its word, then lane `l`
    /// loads the word lane `l ^ 1` stored — an ordered same-warp RAW —
    /// and a second warp's load of one of the words still races. Only
    /// the cross-warp lanes go scalar: the racing load in each round, and
    /// the second round's first store to the chunk the race re-opened.
    #[test]
    fn warp_batch_matches_scalar_partner_exchange() {
        let d = assert_steps_in_both_spaces(|base, _, sm| {
            let warp0 = |l: u32| ThreadCoord::new(l, 0, 0, 0);
            let stores = (0..32).map(|l| acc(base + l * 4, AccessKind::Write, warp0(l)));
            let loads = (0..32).map(|l| acc(base + (l ^ 1) * 4, AccessKind::Read, warp0(l)));
            let other = ThreadCoord::new(64, 2, 1, sm);
            vec![
                Step::Warp(stores.map(|a| a.at_pc(0x50)).collect(), true),
                Step::Warp(loads.map(|a| a.at_pc(0x54)).collect(), false),
                Step::Warp(vec![acc(base + 8, AccessKind::Read, other).at_pc(0x58)], false),
            ]
        });
        for d in d {
            assert_eq!((d.scalar_lanes, d.wide_lanes), (3, 2 * 64 - 1), "{d:?}");
        }
    }

    /// First touches after a reset: stale-stamped slots (a generation
    /// bump) open on the wide tier with the scalar check's health
    /// counts; a first touch inside a critical section stays scalar.
    #[test]
    fn warp_batch_matches_scalar_first_touch_after_reset() {
        let sig = BloomSig::of_lock(0x100, BloomConfig::PAPER_DEFAULT);
        let d = assert_steps_in_both_spaces(|base, g, _| {
            let who = |l: u32| ThreadCoord::new(l, 0, 0, 0);
            let mut loads: Vec<_> =
                (0..8).map(|l| acc(base + l * g, AccessKind::Read, who(l)).at_pc(0x60)).collect();
            loads.push(acc(base + 64 * g, AccessKind::Read, who(8)).at_pc(0x64).locked(sig));
            let stores =
                (0..8).map(|l| acc(base + l * g, AccessKind::Write, who(l)).at_pc(0x68)).collect();
            vec![Step::Warp(stores, true), Step::Reset, Step::Warp(loads, false)]
        });
        for d in d {
            assert_eq!((d.scalar_lanes, d.wide_lanes), (2, 2 * 16), "{d:?}");
        }
    }

    /// A multi-chunk access between single-chunk lanes on one page: it
    /// ends the run and takes the full check per chunk, racing with and
    /// re-opening two entries the wide tier opened. The run after it must
    /// screen against the entries that full check stored — had it seen
    /// the old ones, warp 0's next writes to those entries would pass the
    /// screen as their owner and their races would go unreported.
    #[test]
    fn warp_batch_matches_scalar_multi_chunk_lane_mid_run() {
        let d = assert_steps_in_both_spaces(|base, g, sm| {
            let write = |l: u32, pc: u32| {
                acc(base + l * g, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0)).at_pc(pc)
            };
            let other = ThreadCoord::new(64, 2, 1, sm);
            let mut straddle = acc(base + 2 * g - 4, AccessKind::Write, other).at_pc(0x74);
            straddle.size = 8;
            let mut lanes: Vec<_> = (0..3).map(|l| write(l, 0x70)).collect();
            lanes.push(straddle);
            lanes.extend((1..4).map(|l| write(l, 0x78)));
            vec![Step::Warp(lanes, false)]
        });
        for d in d {
            // Per round: the two chunks of the multi-chunk lane and the
            // two racing writes after it take the full check.
            assert_eq!((d.scalar_lanes, d.wide_lanes), (2 * 4, 2 * 4), "{d:?}");
        }
    }
}
