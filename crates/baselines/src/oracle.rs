//! Happens-before ground-truth oracle for `gpu_sim::fuzzgen` kernels.
//!
//! The oracle never runs the simulator: a [`KernelSpec`]'s semantics are
//! closed-form (every address is a pure function of thread coordinates,
//! trip counts are static, branch conditions depend only on `tid`), so
//! the full access set of every thread can be enumerated directly from
//! the statement tree. That independence is the point — when the oracle
//! and the detector under test disagree, the detector (or its simulator
//! plumbing) is wrong, not a shared assumption.
//!
//! ## Race model
//!
//! The oracle answers "which granules carry a data race under HAccRG's
//! race definition?", mirroring the paper's semantics (and the knobs of
//! [`DetectorConfig::paper_default`]) exactly:
//!
//! * **Happens-before**: program order within a thread; a top-level
//!   `__syncthreads()` orders everything before it against everything
//!   after it *within one block* (the sync-ID epoch filter, §IV-B).
//!   Threads in different blocks are never ordered.
//! * **Warp filter**: two accesses from the same warp never race
//!   (lockstep execution; `warp_regrouping` is off in the paper
//!   configuration, and `ThreadCoord::warp` is globally unique so
//!   different blocks are automatically different warps).
//! * **Atomics are synchronization, not subjects of detection** (§II-A,
//!   §III-B): hardware atomics — including the fuzzer's lock words and
//!   order-independent `GlobalAtomic`s — neither race nor perturb state.
//! * **Locksets**: accesses inside an `atomicCAS` critical section hold
//!   the section's lock; two conflicting accesses whose locksets
//!   intersect are protected, disjoint (or empty) locksets race.
//! * **Granularity**: races are reported per tracked chunk — 16 bytes
//!   for shared memory, 4 bytes for global, the detector's defaults —
//!   so intentional false sharing (Table III) counts as agreement, not
//!   noise, when comparing against the hardware detector.
//! * **Fragility**: the hardware detector keeps *one* shadow entry per
//!   granule. Some genuine races can legally escape it when a third
//!   access displaces the witness first — the §IV-B sync-ID wipe for
//!   cross-block pairs, or a same-warp lock-holder re-opening the entry
//!   as protected. Granules where **every** racing pair is exposed this
//!   way are reported separately ([`OracleReport::global_fragile`]): the
//!   detector may flag them, but missing them is not a bug.
//! * **Schedule hazards**: a plain access and a hardware atomic on one
//!   word from unordered threads is not a race (atomics are exempt), but
//!   it does make the plain load's value timing-dependent — such kernels
//!   are excluded from cross-execution *output* comparisons
//!   ([`OracleReport::schedule_invariant`]).
//!
//! [`DetectorConfig::paper_default`]: haccrg::config::DetectorConfig::paper_default

use std::collections::{BTreeMap, BTreeSet};

use gpu_sim::fuzzgen::{
    self, FuzzStmt, KernelSpec, GLOBAL_WORDS, LOCK_WORDS, SHARED_BYTES,
};
use haccrg::granularity::Granularity;

/// Warp width of the paper configuration.
const WARP_SIZE: u32 = 32;

/// Read or write, after atomics have been dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Read,
    Write,
}

/// One deduplicated access to a granule: who, when (epoch), what, and
/// under which lock (the fuzzer's critical sections hold exactly one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Access {
    block: u32,
    warp: u32,
    tid: u32,
    epoch: u32,
    kind: Kind,
    lock: Option<u32>,
}

/// Ground truth for one kernel: the set of racy granules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Robustly racy global granules — every schedule forces the
    /// detector's single shadow entry to witness a conflicting pair, so a
    /// correct detector must flag these. Byte offsets of the chunk base
    /// relative to the data buffer (`param(0)`).
    pub global: BTreeSet<u32>,
    /// Racy global granules whose every racing pair is *fragile*: some
    /// interleaving lets a third access legitimately displace the shadow
    /// entry first (the §IV-B sync-ID wipe for cross-block pairs, or a
    /// lock-holder from the unprotected side's own warp re-opening the
    /// entry as protected). The detector may or may not catch these —
    /// an inherent limit of single-entry shadow state, not a bug.
    pub global_fragile: BTreeSet<u32>,
    /// Racy shared granules, keyed by `(block, chunk base address)` —
    /// each block has its own shared-memory instance. Shared granules are
    /// never fragile: both wipe mechanisms need either a cross-block pair
    /// or a lock, and shared memory has neither (barriers totally order
    /// distinct epochs within the owning block).
    pub shared: BTreeSet<(u32, u32)>,
    /// Global words touched by both a plain access and a hardware atomic
    /// from unordered threads. Not races by the paper's definition
    /// (atomics are the synchronization substrate, §II-A) — but the plain
    /// load's value depends on whether the atomic landed first, so kernel
    /// *outputs* are schedule-sensitive even when race-free.
    pub atomic_hazards: BTreeSet<u32>,
}

impl OracleReport {
    /// Does the kernel race at all (robustly or fragilely)?
    pub fn any(&self) -> bool {
        !self.global.is_empty() || !self.global_fragile.is_empty() || !self.shared.is_empty()
    }

    /// No data races under HAccRG's race definition.
    pub fn race_free(&self) -> bool {
        !self.any()
    }

    /// Schedule-invariance guarantee: a race-free kernel with no
    /// plain-vs-atomic overlap produces bit-identical memory contents
    /// under every interleaving — the precondition for comparing outputs
    /// across differently-timed executions (e.g. SW-instrumented vs
    /// native).
    pub fn schedule_invariant(&self) -> bool {
        self.race_free() && self.atomic_hazards.is_empty()
    }
}

/// Analyze `spec` at the detector's default granularities.
pub fn analyze(spec: &KernelSpec) -> OracleReport {
    analyze_with(
        spec,
        Granularity::SHARED_DEFAULT.bytes(),
        Granularity::GLOBAL_DEFAULT.bytes(),
    )
}

/// Analyze `spec` with explicit shared/global chunk sizes (bytes,
/// powers of two).
pub fn analyze_with(spec: &KernelSpec, shared_gran: u32, global_gran: u32) -> OracleReport {
    let mut global: BTreeMap<u32, BTreeSet<Access>> = BTreeMap::new();
    let mut shared: BTreeMap<(u32, u32), BTreeSet<Access>> = BTreeMap::new();
    // Plain and atomic accesses per exact word, for the schedule-hazard
    // scan (always word-granular: an atomic perturbs exactly its word).
    let mut plain_words: BTreeMap<u32, BTreeSet<Access>> = BTreeMap::new();
    let mut atomic_words: BTreeMap<u32, BTreeSet<Access>> = BTreeMap::new();

    let warps_per_block = spec.block_dim.div_ceil(WARP_SIZE);
    for block in 0..spec.grid {
        for tid in 0..spec.block_dim {
            let gtid = block * spec.block_dim + tid;
            let warp = block * warps_per_block + tid / WARP_SIZE;
            let mut epoch = 0u32;
            collect(
                &spec.stmts,
                true,
                tid,
                gtid,
                &mut epoch,
                &mut |addr, kind, lock, epoch| {
                    let a = Access { block, warp, tid, epoch, kind, lock };
                    global.entry(addr & !(global_gran - 1)).or_default().insert(a);
                    plain_words.entry(addr & !3).or_default().insert(a);
                },
                &mut |addr, kind, epoch| {
                    let a = Access { block, warp, tid, epoch, kind, lock: None };
                    shared
                        .entry((block, addr & !(shared_gran - 1)))
                        .or_default()
                        .insert(a);
                },
                &mut |addr, epoch| {
                    let a = Access { block, warp, tid, epoch, kind: Kind::Write, lock: None };
                    atomic_words.entry(addr & !3).or_default().insert(a);
                },
            );
        }
    }

    let mut report = OracleReport::default();
    for (granule, accesses) in &global {
        match classify_granule(accesses) {
            Verdict::Robust => {
                report.global.insert(*granule);
            }
            Verdict::Fragile => {
                report.global_fragile.insert(*granule);
            }
            Verdict::RaceFree => {}
        }
    }
    for (key, accesses) in &shared {
        if classify_granule(accesses) != Verdict::RaceFree {
            report.shared.insert(*key);
        }
    }
    for (word, atomics) in &atomic_words {
        let Some(plains) = plain_words.get(word) else { continue };
        let hazard = plains
            .iter()
            .any(|p| atomics.iter().any(|q| pair_races(p, q)));
        if hazard {
            report.atomic_hazards.insert(*word);
        }
    }
    report
}

/// Walk one thread's execution of `stmts`, reporting every tracked
/// access. `on_global` gets `(byte offset into data buffer, kind, lock,
/// epoch)`; `on_shared` gets `(shared byte address, kind, epoch)`;
/// `on_atomic` gets `(byte offset into data buffer, epoch)` for hardware
/// atomics on the data buffer — untracked by the detector, but needed
/// for the schedule-hazard scan. Lock-word CAS traffic (a separate
/// buffer) is dropped entirely.
#[allow(clippy::too_many_arguments)]
fn collect(
    stmts: &[FuzzStmt],
    top: bool,
    tid: u32,
    gtid: u32,
    epoch: &mut u32,
    on_global: &mut impl FnMut(u32, Kind, Option<u32>, u32),
    on_shared: &mut impl FnMut(u32, Kind, u32),
    on_atomic: &mut impl FnMut(u32, u32),
) {
    for s in stmts {
        match s {
            FuzzStmt::Alu(..) => {}
            FuzzStmt::GlobalAtomic(_, k) => {
                let a = fuzzgen::atomic_addr(gtid, *k);
                debug_assert!(a < GLOBAL_WORDS * 4);
                on_atomic(a, *epoch);
            }
            FuzzStmt::SharedRw(k) => {
                let a = fuzzgen::shared_addr(tid, *k);
                debug_assert!(a < SHARED_BYTES);
                on_shared(a, Kind::Write, *epoch);
                on_shared(a, Kind::Read, *epoch);
            }
            FuzzStmt::GlobalRw(k) => {
                let a = fuzzgen::global_addr(gtid, *k);
                debug_assert!(a < GLOBAL_WORDS * 4);
                on_global(a, Kind::Write, None, *epoch);
                on_global(a, Kind::Read, None, *epoch);
            }
            FuzzStmt::LockedRmw(k) => {
                let bucket = fuzzgen::lock_bucket(gtid, *k);
                debug_assert!(bucket < LOCK_WORDS);
                // The payload `data[bucket] += 1` runs under `locks[bucket]`;
                // the spin-lock atomics themselves are untracked.
                on_global(bucket * 4, Kind::Read, Some(bucket), *epoch);
                on_global(bucket * 4, Kind::Write, Some(bucket), *epoch);
            }
            FuzzStmt::If(m, t, e) => {
                // Must match the lowering: `if (tid & ((m % 31) + 1)) != 0`.
                if tid & ((*m % 31) + 1) != 0 {
                    collect(t, false, tid, gtid, epoch, on_global, on_shared, on_atomic);
                } else {
                    collect(e, false, tid, gtid, epoch, on_global, on_shared, on_atomic);
                }
            }
            FuzzStmt::For(n, body) => {
                for _ in 0..(u32::from(*n) % 3 + 1) {
                    collect(body, false, tid, gtid, epoch, on_global, on_shared, on_atomic);
                }
            }
            FuzzStmt::Bar => {
                // The lowering emits barriers at top level only; nested
                // `bar` statements are dropped and order nothing.
                if top {
                    *epoch += 1;
                }
            }
        }
    }
}

/// Per-granule race verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// No racing pair at all.
    RaceFree,
    /// Racing pairs exist, but every one is fragile — some interleaving
    /// lets the single shadow entry lose the witness before the second
    /// half of the pair arrives.
    Fragile,
    /// At least one racing pair survives every interleaving: the
    /// detector must flag this granule.
    Robust,
}

/// Classify one granule's access set.
fn classify_granule(accesses: &BTreeSet<Access>) -> Verdict {
    let v: Vec<&Access> = accesses.iter().collect();
    let mut fragile = false;
    for (i, a) in v.iter().enumerate() {
        for b in &v[i + 1..] {
            if pair_races(a, b) {
                if pair_fragile(a, b, &v) {
                    fragile = true;
                } else {
                    return Verdict::Robust;
                }
            }
        }
    }
    if fragile {
        Verdict::Fragile
    } else {
        Verdict::RaceFree
    }
}

/// Can the single shadow entry lose pair `(a, b)` under some legal
/// interleaving? Two displacement mechanisms exist; both are one-sided,
/// so check each direction.
fn pair_fragile(a: &Access, b: &Access, all: &[&Access]) -> bool {
    side_fragile(a, b, all) || side_fragile(b, a, all)
}

fn side_fragile(a: &Access, b: &Access, all: &[&Access]) -> bool {
    // §IV-B sync-ID wipe: an access from `a`'s block in a *different*
    // barrier epoch re-opens the entry, erasing `a`'s record. Only
    // cross-block pairs are exposed: within one block the barrier itself
    // totally orders distinct epochs, so the wiping access cannot land
    // between two same-epoch conflictors — but another block's accesses
    // interleave arbitrarily.
    if a.block != b.block
        && all.iter().any(|c| c.block == a.block && c.epoch != a.epoch)
    {
        return true;
    }
    // Protected conflation: `a` is unprotected, and a lock-holder from
    // `a`'s own warp also touches the granule under `b`'s lock. If that
    // access lands after `a` (benign — same warp is ordered), the entry
    // becomes protected with `b`'s lock in its lockset, and `b` then
    // passes the common-lock test. The a–b race is silently absorbed.
    if a.lock.is_none() {
        if let Some(lb) = b.lock {
            if all.iter().any(|c| c.lock == Some(lb) && c.warp == a.warp) {
                return true;
            }
        }
    }
    false
}

fn pair_races(a: &Access, b: &Access) -> bool {
    // Conflicting kinds: at least one write.
    if a.kind == Kind::Read && b.kind == Kind::Read {
        return false;
    }
    // Warp filter (covers the same-thread case; warps are globally
    // unique, so same warp implies same block).
    if a.warp == b.warp {
        return false;
    }
    // Barrier epochs order accesses within one block.
    if a.block == b.block && a.epoch != b.epoch {
        return false;
    }
    // A common lock protects the pair.
    if let (Some(la), Some(lb)) = (a.lock, b.lock) {
        if la == lb {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::fuzzgen::GenConfig;

    fn spec(grid: u32, block_dim: u32, stmts: Vec<FuzzStmt>) -> KernelSpec {
        KernelSpec { seed: 0, grid, block_dim, stmts }
    }

    #[test]
    fn single_strided_global_rw_is_race_free() {
        // Every thread touches its own word: no conflicting pairs.
        let r = analyze(&spec(2, 64, vec![FuzzStmt::GlobalRw(0)]));
        assert!(r.race_free(), "{r:?}");
    }

    #[test]
    fn offset_global_rws_race_across_blocks() {
        // Stmt 1 writes word g, stmt 2 writes word g+1: at the block
        // boundary thread g=63 (block 0) and g=64 (block 1) collide.
        let r = analyze(&spec(2, 64, vec![FuzzStmt::GlobalRw(0), FuzzStmt::GlobalRw(4)]));
        assert!(r.any(), "expected a cross-block collision");
    }

    #[test]
    fn barrier_orders_shared_phases() {
        // Two shifted shared access patterns race without a barrier and
        // are ordered (same block, different epochs) with one.
        let racy = analyze(&spec(1, 64, vec![
            FuzzStmt::SharedRw(0),
            FuzzStmt::SharedRw(64),
        ]));
        assert!(racy.any(), "shifted shared patterns must collide across warps");
        let fenced = analyze(&spec(1, 64, vec![
            FuzzStmt::SharedRw(0),
            FuzzStmt::Bar,
            FuzzStmt::SharedRw(64),
        ]));
        assert!(fenced.race_free(), "{fenced:?}");
    }

    #[test]
    fn barriers_do_not_order_across_blocks() {
        // Same shifted pattern in global memory: the barrier is per-block
        // and must NOT suppress the cross-block collision.
        let r = analyze(&spec(2, 64, vec![
            FuzzStmt::GlobalRw(0),
            FuzzStmt::Bar,
            FuzzStmt::GlobalRw(4),
        ]));
        assert!(r.any(), "barrier must not order different blocks");
    }

    #[test]
    fn critical_sections_protect_contended_buckets() {
        // Plenty of bucket contention, but every payload access holds the
        // bucket's lock: protected.
        let r = analyze(&spec(2, 32, vec![FuzzStmt::LockedRmw(0)]));
        assert!(r.race_free(), "{r:?}");
    }

    #[test]
    fn unlocked_access_races_with_critical_section() {
        // GlobalRw(0) touches words 0..n by thread; LockedRmw payloads
        // live in words 0..LOCK_WORDS — some thread outside warp 0 hashes
        // into a low bucket and races with the plain access.
        let r = analyze(&spec(1, 64, vec![FuzzStmt::LockedRmw(0), FuzzStmt::GlobalRw(0)]));
        assert!(r.any(), "lock-protected vs unlocked access must race");
    }

    #[test]
    fn same_warp_conflicts_are_filtered() {
        // All threads of one warp hammer one shared granule: lockstep
        // execution, never reported.
        let r = analyze(&spec(1, 32, vec![FuzzStmt::SharedRw(0), FuzzStmt::SharedRw(4)]));
        // Threads t and t+1 collide at 16-byte granularity but share a
        // warp; with a single warp nothing can race.
        assert!(r.shared.is_empty(), "{r:?}");
    }

    #[test]
    fn atomics_never_race() {
        let r = analyze(&spec(4, 64, vec![
            FuzzStmt::GlobalAtomic(0, 3),
            FuzzStmt::GlobalAtomic(1, 3),
            FuzzStmt::GlobalAtomic(2, 7),
        ]));
        assert!(r.race_free(), "{r:?}");
    }

    #[test]
    fn cross_block_barrier_wipe_is_fragile() {
        // The seed-332 shape: plain per-thread writes, a barrier, then
        // lock-protected RMWs into the low words. Block 0's own
        // post-barrier CS access can wipe its pre-barrier plain write
        // from the single shadow entry (§IV-B sync-ID filter) before
        // block 1's conflicting CS access arrives — so those races are
        // fragile, not mandatory.
        let r = analyze(&spec(2, 32, vec![
            FuzzStmt::GlobalRw(0),
            FuzzStmt::Bar,
            FuzzStmt::LockedRmw(0),
        ]));
        assert!(r.any(), "cross-block plain-vs-CS pairs are races");
        assert!(
            !r.global_fragile.is_empty(),
            "barrier-wipe exposure must be classified fragile: {r:?}"
        );
    }

    #[test]
    fn plain_vs_atomic_overlap_is_a_hazard_not_a_race() {
        // Plain RWs cover words 0..256, the atomic hash sprays over all
        // 1024 — overlapping words from different warps exist. No race
        // (atomics are synchronization substrate), but outputs are
        // schedule-sensitive.
        let r = analyze(&spec(4, 64, vec![
            FuzzStmt::GlobalRw(0),
            FuzzStmt::GlobalAtomic(0, 3),
        ]));
        assert!(r.race_free(), "atomics never race: {r:?}");
        assert!(
            !r.schedule_invariant(),
            "plain-vs-atomic word overlap must be a schedule hazard"
        );
    }

    #[test]
    fn oracle_is_deterministic_across_generated_specs() {
        let cfg = GenConfig::default();
        for seed in 0..32u64 {
            let s = KernelSpec::generate(seed, &cfg);
            assert_eq!(analyze(&s), analyze(&s), "seed {seed}");
        }
    }
}
