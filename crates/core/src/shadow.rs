//! The per-location shadow-entry state machine — Fig. 3 of the paper,
//! extended with the lockset rules of §III-B, the fence-epoch rule of
//! §III-C, the sync-ID epoch filter of §IV-B and the stale-L1 rule of
//! §IV-B.
//!
//! One [`ShadowEntry`] tracks one chunk of application memory (chunk size
//! = tracking granularity). The encoding follows the hardware exactly:
//! `modified = true, shared = true` is the *reset* state meaning "no access
//! in the current epoch"; real access histories can never re-enter it
//! except through an explicit reset (barrier for shared memory, sync-ID
//! mismatch for global memory, kernel launch for both).

use serde::{Deserialize, Serialize};

use crate::access::{MemAccess, MemSpace};
use crate::bloom::{BloomConfig, BloomSig};
use crate::clocks::ClockFile;
use crate::health::DetectorHealth;
use crate::locktable::LockTable;
use crate::race::{RaceCategory, RaceKind, RaceRecord};

/// Detection rules that differ between the shared- and global-memory RDUs.
#[derive(Clone, Copy, Debug)]
pub struct ShadowPolicy {
    /// Which space this entry belongs to (fills race reports; enables the
    /// global-only rules below when `Global`).
    pub space: MemSpace,
    /// Suppress cross-thread reports within one warp (§III-A). Disabled
    /// when dynamic warp re-grouping is active.
    pub warp_filter: bool,
    /// Compare sync IDs for same-block accesses and treat a mismatch as a
    /// new epoch (§IV-B). Global memory only — shared entries are bulk
    /// reset at the barrier instead.
    pub sync_id_epochs: bool,
    /// Consult fence IDs on cross-warp read-after-write (§III-C). The
    /// paper evaluates fences (and atomics) only for global memory.
    pub fence_check: bool,
    /// Report cross-SM RAW when the read hit a (potentially stale)
    /// non-coherent L1 line, regardless of fences (§IV-B).
    pub l1_stale_check: bool,
    /// Atomic-ID signature shape for lockset intersection.
    pub bloom: BloomConfig,
    /// Decide both-protected conflicts with the exact lookup-table
    /// lockset (§III-B's alternative) whenever both sides carry exact
    /// information; accesses without it fall back to the Bloom check.
    pub exact_lockset: bool,
}

impl ShadowPolicy {
    /// Policy for per-SM shared-memory RDUs.
    pub fn shared(warp_filter: bool, bloom: BloomConfig) -> Self {
        Self {
            space: MemSpace::Shared,
            warp_filter,
            sync_id_epochs: false,
            fence_check: false,
            l1_stale_check: false,
            bloom,
            exact_lockset: false,
        }
    }

    /// Policy for per-memory-slice global RDUs.
    pub fn global(warp_filter: bool, l1_stale_check: bool, bloom: BloomConfig) -> Self {
        Self {
            space: MemSpace::Global,
            warp_filter,
            sync_id_epochs: true,
            fence_check: true,
            l1_stale_check,
            bloom,
            exact_lockset: false,
        }
    }
}

/// Shadow-entry metadata for one tracked chunk.
///
/// Field widths in hardware (§VI-C2): 1-bit `modified`, 1-bit `shared`,
/// 10-bit `tid`, 3-bit `bid`, 5-bit `sid`, 8-bit `sync_id`, 8-bit
/// `fence_id`, 16-bit `atomic_sig`. We store them unpacked; the cost model
/// (`cost.rs`) accounts for the packed widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowEntry {
    /// Written in the current epoch. `modified && shared` encodes "fresh".
    pub modified: bool,
    /// Read by more than one warp (shared) / warp-or-block (global).
    pub shared: bool,
    /// First accessor's global thread ID.
    pub tid: u32,
    /// First accessor's global warp ID.
    pub warp: u32,
    /// First accessor's block ID (`bid` field, global entries).
    pub block: u32,
    /// First accessor's SM (`sid` field, global entries).
    pub sm: u32,
    /// Block sync ID at first access (global entries).
    pub sync_id: u8,
    /// Warp fence ID at the most recent write.
    pub fence_id: u8,
    /// Intersection of lock signatures protecting this chunk so far;
    /// all-zero means "unprotected so far".
    pub atomic_sig: BloomSig,
    /// Exact counterpart of `atomic_sig` (lookup-table lockset).
    #[serde(default)]
    pub locks: LockTable<4>,
    /// Whether `locks` is authoritative. `false` means the epoch opener
    /// carried no exact lockset (Bloom only); `true` with an *empty*
    /// table means successive protected accesses refined the exact
    /// lockset to nothing — known-disjoint, unlike merely unknown.
    #[serde(default)]
    pub locks_known: bool,
    /// Whether the epoch-opening access was inside a critical section.
    pub protected: bool,
    /// Issue cycle of the most recent write (simulator-provided; lets the
    /// stale-L1 rule distinguish cached copies that predate the write).
    pub write_cycle: u64,
    /// Static instruction of the recorded access (race provenance: the
    /// "first access" PC in reports).
    pub pc: u32,
}

/// The four states of the Fig. 3 shadow state machine, decoded from the
/// `(modified, shared)` bit pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShadowState {
    /// `M=1, S=1`: the reset state — no access in the current epoch.
    Fresh,
    /// `M=0, S=0`: read by a single thread/warp.
    ReadSingle,
    /// `M=1, S=0`: written in this epoch.
    Written,
    /// `M=0, S=1`: read-shared by multiple warps.
    ReadShared,
}

impl ShadowState {
    /// The state a `(modified, shared)` bit pair encodes.
    #[inline]
    pub fn of(modified: bool, shared: bool) -> Self {
        match (modified, shared) {
            (true, true) => ShadowState::Fresh,
            (false, false) => ShadowState::ReadSingle,
            (true, false) => ShadowState::Written,
            (false, true) => ShadowState::ReadShared,
        }
    }
}

impl std::fmt::Display for ShadowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShadowState::Fresh => "fresh",
            ShadowState::ReadSingle => "read-single",
            ShadowState::Written => "written",
            ShadowState::ReadShared => "read-shared",
        })
    }
}

/// The reset state: `M = true, S = true` (§III-A State 1 precondition).
pub const FRESH: ShadowEntry = ShadowEntry {
    modified: true,
    shared: true,
    tid: 0,
    warp: 0,
    block: 0,
    sm: 0,
    sync_id: 0,
    fence_id: 0,
    atomic_sig: BloomSig::EMPTY,
    locks: LockTable::EMPTY,
    locks_known: false,
    protected: false,
    write_cycle: 0,
    pc: 0,
};

impl Default for ShadowEntry {
    fn default() -> Self {
        FRESH
    }
}

impl ShadowEntry {
    /// Whether the entry is in the reset ("no access yet") state.
    pub fn is_fresh(&self) -> bool {
        self.modified && self.shared
    }

    /// The Fig. 3 state encoded by the `(modified, shared)` bit pair.
    pub fn state(&self) -> ShadowState {
        ShadowState::of(self.modified, self.shared)
    }

    /// Reset to the fresh state (barrier / kernel-launch invalidation).
    pub fn reset(&mut self) {
        *self = FRESH;
    }

    fn init_from(&mut self, a: &MemAccess) {
        self.shared = false;
        self.modified = a.kind.is_write();
        self.tid = a.who.tid;
        self.warp = a.who.warp;
        self.block = a.who.block;
        self.sm = a.who.sm;
        self.sync_id = a.sync_id;
        self.fence_id = a.fence_id;
        self.atomic_sig = if a.in_critical_section { a.atomic_sig } else { BloomSig::EMPTY };
        self.locks = if a.in_critical_section { a.locks } else { LockTable::EMPTY };
        self.locks_known = a.in_critical_section && !a.locks.is_empty();
        self.protected = a.in_critical_section;
        self.write_cycle = if a.kind.is_write() { a.cycle } else { 0 };
        self.pc = a.pc;
    }

    fn race(&self, a: &MemAccess, kind: RaceKind, category: RaceCategory, p: &ShadowPolicy) -> RaceRecord {
        RaceRecord {
            kind,
            category,
            space: p.space,
            addr: a.addr,
            pc: a.pc,
            prev_pc: self.pc,
            cycle: a.cycle,
            prev: crate::access::ThreadCoord::new(self.tid, self.warp, self.block, self.sm),
            cur: a.who,
        }
    }

    /// Observe one access and run the state machine.
    ///
    /// `clocks` is the race register file (fence IDs) consulted for the
    /// §III-C check. Returns a race record if this access races with the
    /// recorded history. Atomic accesses are ignored (they are the
    /// synchronization substrate, not subjects of detection).
    pub fn observe(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        p: &ShadowPolicy,
    ) -> Option<RaceRecord> {
        let mut h = DetectorHealth::default();
        self.observe_health(a, clocks, p, &mut h)
    }

    /// [`Self::observe`] with fidelity accounting: lockset-check outcomes
    /// and Bloom-aliasing-suppressed conflicts are counted into `h`.
    pub fn observe_health(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        p: &ShadowPolicy,
        h: &mut DetectorHealth,
    ) -> Option<RaceRecord> {
        if !a.kind.is_tracked() {
            return None;
        }

        // State 1: first access of the epoch.
        if self.is_fresh() {
            self.init_from(a);
            return None;
        }

        // §IV-B sync-ID epoch filter (global memory, same block): a
        // barrier separated the recorded access from this one, so the
        // recorded history is stale — open a new epoch, no race possible.
        if p.sync_id_epochs && a.who.block == self.block && a.sync_id != self.sync_id {
            self.init_from(a);
            return None;
        }

        // §III-B: lockset detection has priority for accesses "related to
        // critical sections" — the current access is protected or the
        // recorded epoch was opened under a lock.
        let race = if a.in_critical_section || self.protected {
            self.observe_lockset(a, clocks, p, h)
        } else {
            self.observe_happens_before(a, clocks, p)
        };
        // After reporting, track the *racing* access as the new epoch
        // opener: detection continues from the most recent conflict (and
        // a subsequent stale-L1 read of a racy write is still caught).
        if race.is_some() {
            self.init_from(a);
        }
        race
    }

    /// Same-thread steady-state fast path for the batch check pipeline.
    ///
    /// Handles the overwhelmingly common case — the recorded thread
    /// re-accessing its own location outside any critical section, in the
    /// same epoch — without copying the entry or running the full
    /// dispatch. Returns `Some(entry_changed)` when the access is fully
    /// handled (never a race, never a witness-state ambiguity), `None`
    /// when the caller must fall back to [`Self::observe_health`]. The
    /// handled cases are an exact transliteration of
    /// `observe_happens_before` with `same_thread = true`:
    /// `entry_changed` is true iff the full path would have left the
    /// entry bitwise different (the signal `ShadowTraffic::writes`
    /// counts).
    #[inline(always)]
    pub fn observe_same_thread_fast(
        &mut self,
        a: &MemAccess,
        p: &ShadowPolicy,
    ) -> Option<(bool, ShadowState, ShadowState)> {
        if !a.kind.is_tracked() {
            let st = self.state();
            return Some((false, st, st));
        }
        // Identity must match on every recorded coordinate — not just
        // `tid` — so the truncated-ID collision counter, the lockset
        // dispatch, and the sync-ID epoch filter all provably see
        // nothing to do. Non-short-circuit `|` on purpose: every operand
        // is a cheap flag/field compare, and folding them into one branch
        // beats seven predicted-not-taken jumps in the batch loop.
        if self.is_fresh()
            | (a.who.tid != self.tid)
            | (a.who.warp != self.warp)
            | (a.who.block != self.block)
            | (a.who.sm != self.sm)
            | a.in_critical_section
            | self.protected
            // Same block (just checked), different barrier epoch: the
            // full path re-opens the entry.
            | (p.sync_id_epochs & (a.sync_id != self.sync_id))
        {
            return None;
        }
        let is_write = a.kind.is_write();
        match (self.modified, self.shared) {
            // State 2: own read recorded. A write promotes to Written
            // (the identity fields are already ours); a read is a no-op.
            (false, false) => {
                if is_write {
                    self.modified = true;
                    self.fence_id = a.fence_id;
                    self.write_cycle = a.cycle;
                    self.pc = a.pc;
                    Some((true, ShadowState::ReadSingle, ShadowState::Written))
                } else {
                    Some((false, ShadowState::ReadSingle, ShadowState::ReadSingle))
                }
            }
            // State 3: own write recorded. A write refreshes the
            // provenance fields; an ordered read changes nothing. The
            // stores are skipped when the fields already match — the
            // steady state is then read-only on the entry.
            (true, false) => {
                if is_write {
                    let changed = self.fence_id != a.fence_id
                        || self.write_cycle != a.cycle
                        || self.pc != a.pc;
                    if changed {
                        self.fence_id = a.fence_id;
                        self.write_cycle = a.cycle;
                        self.pc = a.pc;
                    }
                    Some((changed, ShadowState::Written, ShadowState::Written))
                } else {
                    Some((false, ShadowState::Written, ShadowState::Written))
                }
            }
            // State 4: read-shared. A write races even from the recorded
            // thread — full path. Reads stay silent.
            (false, true) => {
                if is_write {
                    None
                } else {
                    Some((false, ShadowState::ReadShared, ShadowState::ReadShared))
                }
            }
            (true, true) => unreachable!("fresh entries bail above"),
        }
    }

    /// Lockset rules (§III-B), plus the Fig. 2(b) check: even with a
    /// common lock, a consumer inside a critical section can read stale
    /// data on this non-coherent machine if the producer released the
    /// lock without fencing its update (§III-C: "HAccRG can also detect
    /// data races occurring in critical sections due to missing fences").
    fn observe_lockset(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        p: &ShadowPolicy,
        h: &mut DetectorHealth,
    ) -> Option<RaceRecord> {
        let is_write = a.kind.is_write();
        let same_thread = a.who.tid == self.tid;

        if same_thread {
            // A thread never races with itself; keep refining the lockset
            // ("For later protected accesses, the intersection ... is
            // stored in the shadow entry").
            if self.protected && a.in_critical_section {
                self.atomic_sig = self.atomic_sig.intersect(a.atomic_sig);
                if self.locks_known && !a.locks.is_empty() {
                    // Refining to an empty table is meaningful: the thread
                    // itself proved no single lock covers every access.
                    self.locks = self.locks.intersect(&a.locks);
                }
            }
            if is_write {
                self.modified = true;
                self.shared = false; // avoid aliasing the fresh encoding
                self.fence_id = a.fence_id;
                self.write_cycle = a.cycle;
                self.pc = a.pc;
            }
            return None;
        }

        let conflicting = self.modified || is_write;
        let kind = self.hazard_kind(is_write);
        // §III-A / §VI-A1: threads of one warp execute in lockstep, so
        // their accesses are ordered even when only one side holds a lock
        // (a divergent critical section serializes the warp's lanes, it
        // does not un-order them). Same-warp pairs are never races.
        let ordered_warp = p.warp_filter && a.who.warp == self.warp;

        let race = if self.protected && a.in_critical_section {
            // Both protected: race iff no common lock can exist.
            let bloom_null = self.atomic_sig.is_null_intersection(a.atomic_sig, p.bloom);
            if bloom_null {
                h.bloom_null_intersections += 1;
            } else {
                h.bloom_nonnull_intersections += 1;
            }
            // Cross-check against the exact locksets when both sides carry
            // them (an unknown table next to a non-empty signature means
            // the producer supplied no exact info — Bloom only).
            let exact_known = self.locks_known && !a.locks.is_empty();
            let exact_disjoint = exact_known && !self.locks.intersects(&a.locks);
            if conflicting && !bloom_null && exact_disjoint {
                // Ground truth says disjoint locksets, the signature says
                // "maybe common": §VI-A2 aliasing just ate a race.
                h.bloom_suppressed_conflicts += 1;
            }
            let null = if p.exact_lockset && exact_known { exact_disjoint } else { bloom_null };
            if null && conflicting && !ordered_warp {
                kind.map(|k| self.race(a, k, RaceCategory::CriticalSection, p))
            } else if !null
                && self.modified
                && !is_write
                && p.fence_check
                && a.who.warp != self.warp
                && clocks.fence_id(self.warp) == self.fence_id
            {
                // Fig. 2(b): common lock serialized the section, but the
                // previous owner has not fenced its write — the read can
                // observe stale memory.
                Some(self.race(a, RaceKind::Raw, RaceCategory::Fence, p))
            } else {
                self.atomic_sig = self.atomic_sig.intersect(a.atomic_sig);
                if exact_known {
                    self.locks = self.locks.intersect(&a.locks);
                }
                None
            }
        } else {
            // Protected/unprotected mix (§III-B "Unprotected accesses").
            if conflicting && !ordered_warp {
                kind.map(|k| self.race(a, k, RaceCategory::CriticalSection, p))
            } else {
                None
            }
        };

        if race.is_none() {
            // Benign overlap: track writes, and read-sharing across warps.
            if is_write {
                self.modified = true;
                // A lock-serialized write supersedes prior read-sharing;
                // clearing S also keeps the entry from aliasing the fresh
                // `M && S` encoding.
                self.shared = false;
                self.fence_id = a.fence_id;
                self.write_cycle = a.cycle;
                self.pc = a.pc;
            } else if a.who.warp != self.warp || !p.warp_filter {
                self.shared = true;
            }
        }
        race
    }

    /// Batched-lockset fast path for critical-section lanes in the batch
    /// pipeline (§III-B verdicts without the `#[cold]` scalar fallback).
    ///
    /// The caller has already established the cold-dispatch preamble of
    /// `observe_health`: the access is tracked, the entry is not fresh,
    /// the lane is CS-related (`a.in_critical_section || self.protected`)
    /// and no sync-ID epoch reopen applies. This method is
    /// **all-or-nothing**: every check that can still route the lane to
    /// the scalar path runs *before* any counter or mutation, so a `None`
    /// return leaves the entry and health bit-identical for the fallback
    /// to replay from scratch. It returns `None` for every outcome the
    /// scalar path handles specially — a race verdict, the Fig. 2(b)
    /// fence race, or any exact-lockset involvement (miss attribution and
    /// table refinement live in [`Self::observe_lockset`]) — and
    /// `Some(entry_changed)` for the benign cases, with `entry_changed`
    /// exactly the `*entry != before` the scalar path would compute.
    ///
    /// `bloom_memo` caches the §III-B null-intersection verdict keyed on
    /// both signatures: when a run's lanes share one lockset (the
    /// whole-warp-in-CS case this path exists for), the intersection is
    /// computed once per run and replayed lane-wise. The health counters
    /// still tick per lane, as the scalar path counts per check, and
    /// global entries count truncated-ID collisions as the full check
    /// does.
    pub fn observe_lockset_fast(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        p: &ShadowPolicy,
        h: &mut DetectorHealth,
        bloom_memo: &mut Option<(u32, u32, bool)>,
    ) -> Option<bool> {
        debug_assert!(a.kind.is_tracked() && !self.is_fresh());
        debug_assert!(a.in_critical_section || self.protected);
        let is_write = a.kind.is_write();
        let truncated = p.space == MemSpace::Global
            && crate::packed::id_truncation_collision(self, &a.who);

        if a.who.tid == self.tid {
            // Same thread: never a race; refine and track.
            if truncated {
                h.id_truncation_collisions += 1;
            }
            let mut changed = false;
            if self.protected && a.in_critical_section {
                let sig = self.atomic_sig.intersect(a.atomic_sig);
                changed |= sig != self.atomic_sig;
                self.atomic_sig = sig;
                if self.locks_known && !a.locks.is_empty() {
                    let t = self.locks.intersect(&a.locks);
                    changed |= t != self.locks;
                    self.locks = t;
                }
            }
            if is_write {
                changed |= !self.modified
                    | self.shared
                    | (self.fence_id != a.fence_id)
                    | (self.write_cycle != a.cycle)
                    | (self.pc != a.pc);
                self.modified = true;
                self.shared = false;
                self.fence_id = a.fence_id;
                self.write_cycle = a.cycle;
                self.pc = a.pc;
            }
            return Some(changed);
        }

        let conflicting = self.modified || is_write;
        let ordered_warp = p.warp_filter && a.who.warp == self.warp;

        if self.protected && a.in_critical_section {
            // Exact locksets bring miss attribution, the exact-mode
            // verdict, and table refinement — scalar path's business.
            if p.exact_lockset || (self.locks_known && !a.locks.is_empty()) {
                return None;
            }
            let bloom_null = match *bloom_memo {
                Some((s, k, v)) if s == self.atomic_sig.0 && k == a.atomic_sig.0 => v,
                _ => {
                    let v = self.atomic_sig.is_null_intersection(a.atomic_sig, p.bloom);
                    *bloom_memo = Some((self.atomic_sig.0, a.atomic_sig.0, v));
                    v
                }
            };
            if bloom_null && conflicting && !ordered_warp {
                return None; // race verdict
            }
            if !bloom_null
                && self.modified
                && !is_write
                && p.fence_check
                && a.who.warp != self.warp
                && clocks.fence_id(self.warp) == self.fence_id
            {
                return None; // Fig. 2(b) fence race
            }
            // Benign: commit counters and refinement.
            if truncated {
                h.id_truncation_collisions += 1;
            }
            if bloom_null {
                h.bloom_null_intersections += 1;
            } else {
                h.bloom_nonnull_intersections += 1;
            }
            let sig = self.atomic_sig.intersect(a.atomic_sig);
            let mut changed = sig != self.atomic_sig;
            self.atomic_sig = sig;
            changed |= self.benign_lockset_epilogue(a, is_write, p);
            return Some(changed);
        }

        // Protected/unprotected mix.
        if conflicting && !ordered_warp {
            return None; // race verdict
        }
        if truncated {
            h.id_truncation_collisions += 1;
        }
        Some(self.benign_lockset_epilogue(a, is_write, p))
    }

    /// The benign-overlap epilogue of [`Self::observe_lockset`], with
    /// exact change tracking. Returns whether the entry changed.
    #[inline]
    fn benign_lockset_epilogue(&mut self, a: &MemAccess, is_write: bool, p: &ShadowPolicy) -> bool {
        let mut changed = false;
        if is_write {
            changed |= !self.modified
                | self.shared
                | (self.fence_id != a.fence_id)
                | (self.write_cycle != a.cycle)
                | (self.pc != a.pc);
            self.modified = true;
            self.shared = false;
            self.fence_id = a.fence_id;
            self.write_cycle = a.cycle;
            self.pc = a.pc;
        } else if a.who.warp != self.warp || !p.warp_filter {
            changed |= !self.shared;
            self.shared = true;
        }
        changed
    }

    /// Happens-before rules between barriers (§III-A States 2–4) with the
    /// fence exception (§III-C) and the stale-L1 rule (§IV-B).
    fn observe_happens_before(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        p: &ShadowPolicy,
    ) -> Option<RaceRecord> {
        let is_write = a.kind.is_write();
        let same_thread = a.who.tid == self.tid;
        let same_warp = a.who.warp == self.warp;
        // Threads in one warp execute in lockstep, so their accesses are
        // ordered — unless warp re-grouping dissolved that guarantee.
        let ordered_with_prev = same_thread || (same_warp && p.warp_filter);

        match (self.modified, self.shared) {
            // State 2: reads from a single thread recorded.
            (false, false) => {
                if is_write {
                    if ordered_with_prev {
                        self.modified = true;
                        self.tid = a.who.tid;
                        self.warp = a.who.warp;
                        self.block = a.who.block;
                        self.sm = a.who.sm;
                        self.fence_id = a.fence_id;
                        self.write_cycle = a.cycle;
                        self.pc = a.pc;
                        None
                    } else {
                        Some(self.race(a, RaceKind::War, RaceCategory::Barrier, p))
                    }
                } else {
                    if !ordered_with_prev {
                        // Read from another warp: the location is shared.
                        self.shared = true;
                    }
                    None
                }
            }
            // State 3: written by the recorded thread.
            (true, false) => {
                if is_write {
                    if ordered_with_prev {
                        self.fence_id = a.fence_id;
                        self.write_cycle = a.cycle;
                        self.pc = a.pc;
                        if same_warp && !same_thread {
                            self.tid = a.who.tid;
                        }
                        None
                    } else {
                        Some(self.race(a, RaceKind::Waw, RaceCategory::Barrier, p))
                    }
                } else if ordered_with_prev {
                    None
                } else {
                    self.raw_check(a, clocks, p)
                }
            }
            // State 4: read-shared by multiple warps.
            (false, true) => {
                if is_write {
                    Some(self.race(a, RaceKind::War, RaceCategory::Barrier, p))
                } else {
                    None
                }
            }
            // State 1 is handled by the caller.
            (true, true) => unreachable!("fresh entries are initialized before dispatch"),
        }
    }

    /// Cross-warp read of a written location: the §III-C fence check and
    /// the §IV-B stale-L1 check.
    fn raw_check(&mut self, a: &MemAccess, clocks: &ClockFile, p: &ShadowPolicy) -> Option<RaceRecord> {
        // §IV-B: a cross-SM RAW satisfied from the reader's own L1 can
        // return stale data even if the producer fenced — but only if the
        // cached copy predates the write. (Hardware flags every cross-SM
        // L1-hit RAW conservatively; the simulator knows line fill times,
        // so it reports the ground truth — otherwise any two partials
        // sharing a cache line would false-positive, which the paper's
        // race-free benchmarks rule out.)
        if p.l1_stale_check
            && a.l1_hit
            && a.who.sm != self.sm
            && a.l1_fill_cycle < self.write_cycle
        {
            return Some(self.race(a, RaceKind::Raw, RaceCategory::StaleL1, p));
        }
        if p.fence_check {
            let writer_fence_now = clocks.fence_id(self.warp);
            if writer_fence_now != self.fence_id {
                // The producer executed a fence after the recorded write:
                // its update is safely visible; the consumer opens a new
                // read epoch over the published value.
                self.init_from(a);
                return None;
            }
            return Some(self.race(a, RaceKind::Raw, RaceCategory::Fence, p));
        }
        Some(self.race(a, RaceKind::Raw, RaceCategory::Barrier, p))
    }

    fn hazard_kind(&self, cur_is_write: bool) -> Option<RaceKind> {
        match (self.modified, cur_is_write) {
            (true, true) => Some(RaceKind::Waw),
            (true, false) => Some(RaceKind::Raw),
            (false, true) => Some(RaceKind::War),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};

    fn clocks() -> ClockFile {
        ClockFile::new(8, 64)
    }

    fn shared_policy() -> ShadowPolicy {
        ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT)
    }

    fn global_policy() -> ShadowPolicy {
        ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT)
    }

    fn t(tid: u32, warp: u32) -> ThreadCoord {
        ThreadCoord::new(tid, warp, warp / 2, (warp / 2) % 4)
    }

    fn rd(who: ThreadCoord) -> MemAccess {
        MemAccess::plain(0, 4, AccessKind::Read, who)
    }

    fn wr(who: ThreadCoord) -> MemAccess {
        MemAccess::plain(0, 4, AccessKind::Write, who)
    }

    #[test]
    fn fresh_read_enters_state2() {
        let mut e = FRESH;
        assert!(e.observe(&rd(t(0, 0)), &clocks(), &shared_policy()).is_none());
        assert!(!e.modified && !e.shared);
        assert_eq!(e.tid, 0);
    }

    #[test]
    fn fresh_write_enters_state3() {
        let mut e = FRESH;
        assert!(e.observe(&wr(t(3, 1)), &clocks(), &shared_policy()).is_none());
        assert!(e.modified && !e.shared);
        assert_eq!(e.tid, 3);
    }

    #[test]
    fn single_thread_stream_never_races() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        for k in [AccessKind::Read, AccessKind::Write, AccessKind::Read, AccessKind::Write] {
            let a = MemAccess::plain(0, 4, k, t(5, 2));
            assert!(e.observe(&a, &c, &p).is_none());
        }
    }

    #[test]
    fn cross_warp_war_detected() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&rd(t(0, 0)), &c, &p);
        let r = e.observe(&wr(t(40, 1)), &c, &p).expect("WAR");
        assert_eq!(r.kind, RaceKind::War);
        assert_eq!(r.category, RaceCategory::Barrier);
        assert_eq!(r.prev.tid, 0);
        assert_eq!(r.cur.tid, 40);
    }

    #[test]
    fn cross_warp_waw_detected() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        let r = e.observe(&wr(t(40, 1)), &c, &p).expect("WAW");
        assert_eq!(r.kind, RaceKind::Waw);
    }

    #[test]
    fn cross_warp_raw_detected_in_shared() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        let r = e.observe(&rd(t(40, 1)), &c, &p).expect("RAW");
        assert_eq!(r.kind, RaceKind::Raw);
        // Shared memory has no fence mechanism; reported as barrier race.
        assert_eq!(r.category, RaceCategory::Barrier);
    }

    #[test]
    fn same_warp_cross_thread_is_ordered() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        // Lane 1 of the same warp reads and writes: lockstep-ordered.
        assert!(e.observe(&rd(t(1, 0)), &c, &p).is_none());
        assert!(e.observe(&wr(t(1, 0)), &c, &p).is_none());
    }

    #[test]
    fn warp_regrouping_disables_the_filter() {
        let mut e = FRESH;
        let c = clocks();
        let p = ShadowPolicy::shared(false, BloomConfig::PAPER_DEFAULT);
        e.observe(&wr(t(0, 0)), &c, &p);
        assert!(e.observe(&rd(t(1, 0)), &c, &p).is_some());
    }

    #[test]
    fn multi_warp_readers_then_any_writer_is_war() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&rd(t(0, 0)), &c, &p);
        e.observe(&rd(t(40, 1)), &c, &p);
        assert!(!e.modified && e.shared, "state 4");
        // Even the original reader's write races now (state 4 rule).
        let r = e.observe(&wr(t(0, 0)), &c, &p).expect("WAR in state 4");
        assert_eq!(r.kind, RaceKind::War);
    }

    #[test]
    fn state4_reads_from_anyone_are_safe() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&rd(t(0, 0)), &c, &p);
        e.observe(&rd(t(40, 1)), &c, &p);
        assert!(e.observe(&rd(t(80, 2)), &c, &p).is_none());
        assert!(e.observe(&rd(t(0, 0)), &c, &p).is_none());
    }

    #[test]
    fn same_warp_reads_do_not_set_shared() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&rd(t(0, 0)), &c, &p);
        e.observe(&rd(t(1, 0)), &c, &p);
        assert!(!e.shared, "same-warp read must not set S (§III-A)");
    }

    #[test]
    fn reset_returns_to_fresh() {
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        e.reset();
        assert!(e.is_fresh());
        // After reset, a cross-warp read of the old writer's data is safe.
        assert!(e.observe(&rd(t(40, 1)), &c, &p).is_none());
    }

    #[test]
    fn atomics_do_not_perturb_state() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        let a = MemAccess::plain(0, 4, AccessKind::Atomic, t(0, 0));
        assert!(e.observe(&a, &c, &p).is_none());
        assert!(e.is_fresh());
    }

    // ---- sync-ID epochs (global §IV-B) ----

    #[test]
    fn sync_id_mismatch_opens_new_epoch_same_block() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        // warp 0 and warp 1 in the same block (t() maps warp/2 -> block).
        let w = wr(t(0, 0)).with_clocks(0, 0);
        e.observe(&w, &c, &p);
        // Same block, later barrier epoch: no race, entry re-opened.
        let r = rd(t(40, 1)).with_clocks(1, 0);
        assert!(e.observe(&r, &c, &p).is_none());
        assert!(!e.modified);
        assert_eq!(e.tid, 40);
    }

    #[test]
    fn sync_id_matching_epoch_still_races() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)).with_clocks(2, 0), &c, &p);
        let r = e.observe(&rd(t(40, 1)).with_clocks(2, 0), &c, &p);
        assert!(r.is_some(), "same epoch, different warp: RAW");
    }

    #[test]
    fn sync_id_not_checked_across_blocks() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)).with_clocks(0, 0), &c, &p);
        // Different block with a different sync id: barriers are
        // block-scoped, so this still races.
        let other = rd(t(100, 3)).with_clocks(7, 0);
        assert!(e.observe(&other, &c, &p).is_some());
    }

    // ---- fence checks (global §III-C) ----

    #[test]
    fn unfenced_producer_consumer_is_fence_race() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)).with_clocks(0, 0), &c, &p);
        let r = e.observe(&rd(t(100, 3)), &c, &p).expect("fence race");
        assert_eq!(r.kind, RaceKind::Raw);
        assert_eq!(r.category, RaceCategory::Fence);
    }

    #[test]
    fn fenced_producer_consumer_is_safe() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)).with_clocks(0, 0), &c, &p);
        // Producer's warp executes a fence after the write.
        c.on_fence(0);
        assert!(e.observe(&rd(t(100, 3)), &c, &p).is_none());
        // The entry was re-opened as a read epoch by the consumer.
        assert!(!e.modified);
        assert_eq!(e.tid, 100);
    }

    #[test]
    fn fence_before_write_does_not_help() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        c.on_fence(0); // fence happened *before* the write
        let w = wr(t(0, 0)).with_clocks(0, c.fence_id(0));
        e.observe(&w, &c, &p);
        assert!(e.observe(&rd(t(100, 3)), &c, &p).is_some());
    }

    #[test]
    fn waw_across_warps_ignores_fences() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        c.on_fence(0);
        // Fence IDs are only consulted for reads (§IV-B).
        let r = e.observe(&wr(t(100, 3)), &c, &p).expect("WAW");
        assert_eq!(r.kind, RaceKind::Waw);
        assert_eq!(r.category, RaceCategory::Barrier);
    }

    // ---- stale-L1 (§IV-B) ----

    #[test]
    fn stale_l1_hit_races_even_when_fenced() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        // Writer on SM0 writes at cycle 10 and fences.
        e.observe(&wr(t(0, 0)).at_cycle(10), &c, &p);
        c.on_fence(0);
        // Reader on a different SM hits an L1 line filled at cycle 3 —
        // before the write: genuinely stale.
        let reader = rd(t(100, 3)).l1_filled_at(3).at_cycle(20);
        let r = e.observe(&reader, &c, &p).expect("stale L1 race");
        assert_eq!(r.category, RaceCategory::StaleL1);
    }

    #[test]
    fn l1_line_filled_after_the_write_is_not_stale() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)).at_cycle(10), &c, &p);
        c.on_fence(0);
        // The reader's line was fetched at cycle 50 — after the fenced
        // write — so it holds fresh data.
        let reader = rd(t(100, 3)).l1_filled_at(50).at_cycle(60);
        assert!(e.observe(&reader, &c, &p).is_none());
    }

    #[test]
    fn l1_hit_same_sm_is_not_stale() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        // Writer warp 0 -> block 0 -> sm 0; reader warp 8 -> block 4 -> sm 0.
        e.observe(&wr(t(0, 0)).at_cycle(10), &c, &p);
        c.on_fence(0);
        let reader = rd(t(8 * 32, 8)).l1_filled_at(3).at_cycle(20);
        assert_eq!(t(8 * 32, 8).sm, t(0, 0).sm);
        assert!(e.observe(&reader, &c, &p).is_none(), "fenced same-SM read is safe");
    }

    // ---- lockset (§III-B) ----

    fn locked_access(addr_of_lock: u32, who: ThreadCoord, kind: AccessKind) -> MemAccess {
        let sig = BloomSig::of_lock(addr_of_lock, BloomConfig::PAPER_DEFAULT);
        MemAccess::plain(0, 4, kind, who).locked(sig)
    }

    #[test]
    fn common_lock_serializes_writes() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        let r = e.observe(&locked_access(0x100, t(100, 3), AccessKind::Write), &c, &p);
        assert!(r.is_none(), "same lock: serialized, no race");
    }

    #[test]
    fn different_locks_on_write_race() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        let r = e
            .observe(&locked_access(0x104, t(100, 3), AccessKind::Read), &c, &p)
            .expect("different locks");
        assert_eq!(r.category, RaceCategory::CriticalSection);
        assert_eq!(r.kind, RaceKind::Raw);
    }

    #[test]
    fn different_locks_read_read_is_safe() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Read), &c, &p);
        assert!(e
            .observe(&locked_access(0x104, t(100, 3), AccessKind::Read), &c, &p)
            .is_none());
    }

    #[test]
    fn protected_then_unprotected_write_races() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Read), &c, &p);
        let r = e.observe(&wr(t(100, 3)), &c, &p).expect("mixed access");
        assert_eq!(r.category, RaceCategory::CriticalSection);
        assert_eq!(r.kind, RaceKind::War);
    }

    #[test]
    fn unprotected_then_protected_read_of_written_races() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&wr(t(0, 0)), &c, &p);
        let r = e
            .observe(&locked_access(0x100, t(100, 3), AccessKind::Read), &c, &p)
            .expect("mixed access");
        assert_eq!(r.category, RaceCategory::CriticalSection);
    }

    #[test]
    fn lockset_shrinks_to_common_subset() {
        let cfg = BloomConfig::PAPER_DEFAULT;
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        // Thread 0 holds {L1, L2}; thread 100 holds {L2}.
        let mut both = BloomSig::of_lock(0x100, cfg);
        both.insert(0x204, cfg);
        let a0 = MemAccess::plain(0, 4, AccessKind::Write, t(0, 0)).locked(both);
        e.observe(&a0, &c, &p);
        let only_l2 = BloomSig::of_lock(0x204, cfg);
        let a1 = MemAccess::plain(0, 4, AccessKind::Write, t(100, 3)).locked(only_l2);
        assert!(e.observe(&a1, &c, &p).is_none(), "common lock L2");
        // Now a thread holding only L1 must race: the stored set is {L2}.
        let only_l1 = BloomSig::of_lock(0x100, cfg);
        let a2 = MemAccess::plain(0, 4, AccessKind::Write, t(200, 6)).locked(only_l1);
        assert!(e.observe(&a2, &c, &p).is_some(), "L1 no longer common");
    }

    #[test]
    fn locked_read_of_unfenced_write_is_a_fence_race() {
        // Fig. 2(b): T3 writes under L3 and releases without a fence; T4
        // acquires L3 and reads — stale data possible on the GPU.
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        let r = e
            .observe(&locked_access(0x100, t(100, 3), AccessKind::Read), &c, &p)
            .expect("missing-fence race in critical section");
        assert_eq!(r.kind, RaceKind::Raw);
        assert_eq!(r.category, RaceCategory::Fence);
    }

    #[test]
    fn locked_read_of_fenced_write_is_safe() {
        let mut e = FRESH;
        let mut c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        c.on_fence(0); // the writer fenced before releasing the lock
        assert!(e
            .observe(&locked_access(0x100, t(100, 3), AccessKind::Read), &c, &p)
            .is_none());
    }

    #[test]
    fn shared_memory_lockset_has_no_fence_rule() {
        // Fences are evaluated for global memory only.
        let mut e = FRESH;
        let c = clocks();
        let p = shared_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        assert!(e
            .observe(&locked_access(0x100, t(40, 1), AccessKind::Read), &c, &p)
            .is_none());
    }

    // ---- fidelity: exact locksets + aliasing attribution ----

    fn exact_locked(lock: u32, who: ThreadCoord, kind: AccessKind, cfg: BloomConfig) -> MemAccess {
        let mut t: LockTable<4> = LockTable::new();
        t.insert(lock);
        MemAccess::plain(0, 4, kind, who)
            .locked(BloomSig::of_lock(lock, cfg))
            .with_locks(t)
    }

    #[test]
    fn bloom_aliasing_miss_is_counted_and_exact_mode_catches_it() {
        // 8-bit / 2-bin: lock words 16 bytes apart alias (§VI-A2).
        let small = BloomConfig { bits: 8, bins: 2 };
        let mut p = ShadowPolicy::global(true, true, small);
        let c = clocks();

        let mut e = FRESH;
        let mut h = DetectorHealth::default();
        e.observe_health(&exact_locked(0x100, t(0, 0), AccessKind::Write, small), &c, &p, &mut h);
        let r = e.observe_health(&exact_locked(0x110, t(100, 3), AccessKind::Write, small), &c, &p, &mut h);
        assert!(r.is_none(), "aliased signatures suppress the WAW");
        assert_eq!(h.bloom_nonnull_intersections, 1);
        assert_eq!(h.bloom_suppressed_conflicts, 1, "the miss is attributed, not silent");

        // Same stream under exact lockset semantics: the race surfaces.
        p.exact_lockset = true;
        let mut e = FRESH;
        let mut h = DetectorHealth::default();
        e.observe_health(&exact_locked(0x100, t(0, 0), AccessKind::Write, small), &c, &p, &mut h);
        let r = e.observe_health(&exact_locked(0x110, t(100, 3), AccessKind::Write, small), &c, &p, &mut h);
        let r = r.expect("exact lockset sees disjoint sets");
        assert_eq!(r.kind, RaceKind::Waw);
        assert_eq!(r.category, RaceCategory::CriticalSection);
        assert_eq!(h.bloom_suppressed_conflicts, 1, "attribution fires in both modes");
    }

    #[test]
    fn exact_mode_without_exact_info_falls_back_to_bloom() {
        let small = BloomConfig { bits: 8, bins: 2 };
        let mut p = ShadowPolicy::global(true, true, small);
        p.exact_lockset = true;
        let c = clocks();
        let mut e = FRESH;
        let mut h = DetectorHealth::default();
        // Bloom-only accesses (trace replay without lock provenance).
        let mk = |lock: u32, who, kind| {
            MemAccess::plain(0, 4, kind, who).locked(BloomSig::of_lock(lock, small))
        };
        e.observe_health(&mk(0x100, t(0, 0), AccessKind::Write), &c, &p, &mut h);
        let r = e.observe_health(&mk(0x110, t(100, 3), AccessKind::Write), &c, &p, &mut h);
        assert!(r.is_none(), "no exact info: the Bloom decision stands");
        assert_eq!(h.bloom_suppressed_conflicts, 0, "cannot attribute without ground truth");
    }

    #[test]
    fn lockset_outcome_counters_tally_every_both_protected_check() {
        let cfg = BloomConfig::PAPER_DEFAULT;
        let p = global_policy();
        let c = clocks();
        let mut e = FRESH;
        let mut h = DetectorHealth::default();
        e.observe_health(&exact_locked(0x100, t(0, 0), AccessKind::Read, cfg), &c, &p, &mut h);
        // Same lock: non-null intersection.
        e.observe_health(&exact_locked(0x100, t(100, 3), AccessKind::Read, cfg), &c, &p, &mut h);
        // Different, non-aliasing lock: null intersection.
        e.observe_health(&exact_locked(0x104, t(200, 6), AccessKind::Read, cfg), &c, &p, &mut h);
        assert_eq!((h.bloom_nonnull_intersections, h.bloom_null_intersections), (1, 1));
        assert_eq!(h.bloom_suppressed_conflicts, 0, "read/read never conflicts");
    }

    #[test]
    fn exact_lockset_refines_to_the_common_subset() {
        let cfg = BloomConfig::PAPER_DEFAULT;
        let mut p = global_policy();
        p.exact_lockset = true;
        let c = clocks();
        let mut e = FRESH;
        let mut h = DetectorHealth::default();
        // Opener holds {A, B}; second thread holds {B}: benign, refines to {B}.
        let mut both: LockTable<4> = LockTable::new();
        both.insert(0x100);
        both.insert(0x204);
        let mut sig = BloomSig::of_lock(0x100, cfg);
        sig.insert(0x204, cfg);
        let a0 = MemAccess::plain(0, 4, AccessKind::Write, t(0, 0)).locked(sig).with_locks(both);
        e.observe_health(&a0, &c, &p, &mut h);
        assert!(e
            .observe_health(&exact_locked(0x204, t(100, 3), AccessKind::Write, cfg), &c, &p, &mut h)
            .is_none());
        assert!(e.locks.contains(0x204) && !e.locks.contains(0x100));
        // A thread holding only {A} now conflicts exactly.
        assert!(e
            .observe_health(&exact_locked(0x100, t(200, 6), AccessKind::Write, cfg), &c, &p, &mut h)
            .is_some());
    }

    #[test]
    fn same_thread_fast_path_matches_full_dispatch() {
        // Everywhere the fast path claims to handle an access, the full
        // dispatch must produce the identical entry, no race, and a
        // bitwise-change flag equal to the fast path's return.
        let c = clocks();
        for p in [shared_policy(), global_policy()] {
            let opener_read = rd(t(5, 2)).with_clocks(3, 0).at_pc(10);
            let opener_write = wr(t(5, 2)).with_clocks(3, 0).at_pc(11).at_cycle(7);
            let mut setups: Vec<ShadowEntry> = Vec::new();
            for opener in [&opener_read, &opener_write] {
                let mut e = FRESH;
                e.observe(opener, &c, &p);
                setups.push(e);
            }
            // Read-shared state: reader from another warp after a read.
            let mut shared_state = FRESH;
            shared_state.observe(&opener_read, &c, &p);
            shared_state.observe(&rd(t(90, 4)).with_clocks(3, 0), &c, &p);
            setups.push(shared_state);

            let followups = [
                rd(t(5, 2)).with_clocks(3, 0).at_pc(20),
                wr(t(5, 2)).with_clocks(3, 0).at_pc(21).at_cycle(9),
                wr(t(5, 2)).with_clocks(3, 1).at_pc(11).at_cycle(7),
                MemAccess::plain(0, 4, AccessKind::Atomic, t(5, 2)).with_clocks(3, 0),
                // Cases the fast path must refuse: other thread, new
                // epoch, critical section.
                wr(t(90, 4)).with_clocks(3, 0),
                wr(t(5, 2)).with_clocks(4, 0),
                locked_access(0x100, t(5, 2), AccessKind::Write),
            ];
            for setup in &setups {
                for a in &followups {
                    let mut fast = *setup;
                    let verdict = fast.observe_same_thread_fast(a, &p);
                    let mut full = *setup;
                    let mut h = DetectorHealth::default();
                    let race = full.observe_health(a, &c, &p, &mut h);
                    if let Some((changed, before, after)) = verdict {
                        assert_eq!(fast, full, "entry mismatch for {a:?} from {setup:?}");
                        assert!(race.is_none(), "fast path claimed a non-race");
                        assert_eq!(changed, full != *setup, "changed flag for {a:?}");
                        assert_eq!(before, setup.state(), "before state for {a:?}");
                        assert_eq!(after, full.state(), "after state for {a:?}");
                        assert_eq!(h, DetectorHealth::default(), "fast path hid health");
                    } else {
                        assert_eq!(fast, *setup, "refusal must not mutate");
                    }
                }
            }
        }
    }

    #[test]
    fn same_thread_in_cs_never_races() {
        let mut e = FRESH;
        let c = clocks();
        let p = global_policy();
        e.observe(&locked_access(0x100, t(0, 0), AccessKind::Write), &c, &p);
        assert!(e.observe(&locked_access(0x104, t(0, 0), AccessKind::Write), &c, &p).is_none());
        assert!(e.observe(&wr(t(0, 0)), &c, &p).is_none());
    }
}
