//! Race reports: what kind of hazard, which detection mechanism fired, who
//! was involved — plus a deduplicating [`RaceLog`] mirroring how the paper
//! counts races (one per static program location/address pair, §VI-A).

use std::collections::HashSet;
use std::fmt;

use crate::access::{MemSpace, ThreadCoord};
use crate::health::WitnessEvent;
use crate::json::Value;

/// Hazard kind, named as in Fig. 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Read-after-write.
    Raw,
    /// Write-after-read.
    War,
    /// Write-after-write.
    Waw,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceKind::Raw => "RAW",
            RaceKind::War => "WAR",
            RaceKind::Waw => "WAW",
        })
    }
}

/// Which of HAccRG's detection mechanisms flagged the race. These map to
/// the four categories of §VI-A's effectiveness evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceCategory {
    /// Happens-before violation between two barrier synchronizations
    /// (§III-A): concurrent epochs touched the same location.
    Barrier,
    /// Lockset violation inside/around critical sections (§III-B): no
    /// common lock, or a protected/unprotected mix.
    CriticalSection,
    /// Missing memory fence (§III-C): a consumer read data whose producer
    /// has not executed a fence since writing it.
    Fence,
    /// Write-after-write between lanes of a *single warp instruction*,
    /// detected before the request is issued (§III-A "Impact of Warps").
    IntraWarp,
    /// Cross-SM read-after-write satisfied from a stale non-coherent L1
    /// line (§IV-B "Effect of L1 Caches").
    StaleL1,
}

impl fmt::Display for RaceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceCategory::Barrier => "barrier",
            RaceCategory::CriticalSection => "critical-section",
            RaceCategory::Fence => "fence",
            RaceCategory::IntraWarp => "intra-warp",
            RaceCategory::StaleL1 => "stale-L1",
        })
    }
}

/// One detected data race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct RaceRecord {
    pub kind: RaceKind,
    pub category: RaceCategory,
    pub space: MemSpace,
    /// Byte address of the conflicting location (chunk base at the
    /// detector's tracking granularity).
    pub addr: u32,
    /// Static instruction of the *current* (second) access.
    pub pc: u32,
    /// Static instruction of the *previous* (first) access, as recorded
    /// in the shadow entry when its epoch was opened.
    pub prev_pc: u32,
    /// Simulator cycle at which the conflict was detected (0 when the
    /// access stream carries no timing, e.g. offline trace replay).
    pub cycle: u64,
    /// The thread recorded in the shadow entry (first access of the pair).
    pub prev: ThreadCoord,
    /// The thread whose access triggered the report.
    pub cur: ThreadCoord,
}

impl RaceRecord {
    /// JSON object of every field: the enums as their variant names, the
    /// two threads as `{"tid","warp","block","sm"}` objects.
    pub fn to_json(&self) -> Value {
        crate::json_object!(RaceRecord {
            kind: format!("{kind:?}"), category: format!("{category:?}"),
            space: format!("{space:?}"), addr, pc, prev_pc, cycle, prev: prev.to_json(),
            cur: cur.to_json(),
        } = *self)
    }

    /// Multi-line human-readable provenance report: what raced, where,
    /// when (cycle), and the SM / warp / PC of both conflicting accesses.
    pub fn provenance(&self) -> String {
        format!(
            "{} {} race on {:?} address {:#x}\n\
             \x20 detected at cycle {}\n\
             \x20 first  access: pc {:#x}  sm {:2}  warp {:3}  block {:3}  thread {}\n\
             \x20 second access: pc {:#x}  sm {:2}  warp {:3}  block {:3}  thread {}",
            self.category,
            self.kind,
            self.space,
            self.addr,
            self.cycle,
            self.prev_pc,
            self.prev.sm,
            self.prev.warp,
            self.prev.block,
            self.prev.tid,
            self.pc,
            self.cur.sm,
            self.cur.warp,
            self.cur.block,
            self.cur.tid,
        )
    }
}

impl fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} race @ {:?}:{:#x} (cycle {}): thread {} (pc {:#x}, warp {}, block {}, sm {}) vs thread {} (pc {:#x}, warp {}, block {}, sm {})",
            self.category,
            self.kind,
            self.space,
            self.addr,
            self.cycle,
            self.prev.tid,
            self.prev_pc,
            self.prev.warp,
            self.prev.block,
            self.prev.sm,
            self.cur.tid,
            self.pc,
            self.cur.warp,
            self.cur.block,
            self.cur.sm,
        )
    }
}

/// Deduplicating race sink.
///
/// Hardware would raise an interrupt / write a record to a debug buffer per
/// dynamic occurrence; for reporting, the paper counts *distinct* races.
/// The log stores every record (bounded by `capacity`) and tracks distinct
/// races keyed by `(space, addr, kind, category, pc)`.
#[derive(Clone, Debug)]
pub struct RaceLog {
    records: Vec<RaceRecord>,
    /// Witness timeline per retained record (empty unless witness
    /// capture was enabled at detection time); kept index-aligned with
    /// `records`.
    witnesses: Vec<Vec<WitnessEvent>>,
    seen: HashSet<(MemSpace, u32, RaceKind, RaceCategory, u32)>,
    distinct: usize,
    total: u64,
    /// New distinct races whose records could not be retained because
    /// the log was at capacity. Silent before; now counted and surfaced.
    dropped: u64,
    capacity: usize,
}

impl Default for RaceLog {
    fn default() -> Self {
        Self::new(1 << 16)
    }
}

impl RaceLog {
    /// A log retaining at most `capacity` full records (counters keep
    /// counting past the cap).
    pub fn new(capacity: usize) -> Self {
        Self {
            records: Vec::new(),
            witnesses: Vec::new(),
            seen: HashSet::new(),
            distinct: 0,
            total: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Record a race. Returns `true` if it was a *new distinct* race.
    pub fn push(&mut self, r: RaceRecord) -> bool {
        self.push_with_witness(r, &[])
    }

    /// Record a race together with its witness timeline (the recent
    /// accesses to the racy chunk the RDU's witness ring captured).
    /// Returns `true` if it was a *new distinct* race.
    pub fn push_with_witness(&mut self, r: RaceRecord, witness: &[WitnessEvent]) -> bool {
        self.total += 1;
        let key = (r.space, r.addr, r.kind, r.category, r.pc);
        let fresh = self.seen.insert(key);
        if fresh {
            self.distinct += 1;
            if self.records.len() < self.capacity {
                self.records.push(r);
                self.witnesses.push(witness.to_vec());
            } else {
                self.dropped += 1;
            }
        }
        fresh
    }

    /// All retained distinct records.
    pub fn records(&self) -> &[RaceRecord] {
        &self.records
    }

    /// Witness timelines, index-aligned with [`Self::records`]. Empty
    /// slices for records detected without witness capture.
    pub fn witnesses(&self) -> &[Vec<WitnessEvent>] {
        &self.witnesses
    }

    /// Witness timeline of retained record `idx` (empty when capture
    /// was off or the index is out of range).
    pub fn witness_of(&self, idx: usize) -> &[WitnessEvent] {
        self.witnesses.get(idx).map_or(&[], |w| w.as_slice())
    }

    /// New distinct races whose records were dropped at capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of distinct races (the paper's reporting unit).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Total dynamic race occurrences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether any race has been observed.
    pub fn any(&self) -> bool {
        self.total > 0
    }

    /// Distinct races matching a category.
    pub fn count_category(&self, cat: RaceCategory) -> usize {
        self.records.iter().filter(|r| r.category == cat).count()
    }

    /// Distinct races matching a memory space.
    pub fn count_space(&self, space: MemSpace) -> usize {
        self.records.iter().filter(|r| r.space == space).count()
    }

    /// Clear everything (kernel relaunch).
    pub fn clear(&mut self) {
        self.records.clear();
        self.witnesses.clear();
        self.seen.clear();
        self.distinct = 0;
        self.total = 0;
        self.dropped = 0;
    }

    /// Merge another log into this one, preserving distinctness and
    /// carrying witness timelines and drop counts along.
    pub fn absorb(&mut self, other: &RaceLog) {
        for (i, r) in other.records().iter().enumerate() {
            self.push_with_witness(*r, other.witness_of(i));
        }
        // Dynamic occurrences beyond the other's retained records.
        self.total += other.total - other.records.len() as u64;
        self.dropped += other.dropped;
    }

    /// Aggregate the retained records into deduplicated [`RaceGroup`]s
    /// (see [`group_races`]).
    pub fn groups(&self) -> Vec<RaceGroup> {
        group_races(&self.records)
    }
}

/// A deduplicated family of races: every distinct record sharing the same
/// static signature — (PC pair, race kind, detection category, memory
/// space) — folded into one row with its address range and first/last
/// provenance. This is the unit a developer debugs: one buggy instruction
/// pair produces one group, no matter how many addresses it raced on.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceGroup {
    /// Hazard kind shared by the group.
    pub kind: RaceKind,
    /// Detection mechanism shared by the group.
    pub category: RaceCategory,
    /// Memory space shared by the group.
    pub space: MemSpace,
    /// Static instruction of the first (previous) access.
    pub prev_pc: u32,
    /// Static instruction of the second (current) access.
    pub pc: u32,
    /// Lowest conflicting address in the group.
    pub addr_lo: u32,
    /// Highest conflicting address in the group.
    pub addr_hi: u32,
    /// Number of distinct conflicting addresses.
    pub distinct_addrs: usize,
    /// Distinct records folded into this group.
    pub records: usize,
    /// Earliest-cycle record (first occurrence; input order breaks ties).
    pub first: RaceRecord,
    /// Latest-cycle record (last occurrence; later input wins ties).
    pub last: RaceRecord,
}

impl fmt::Display for RaceGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} race group @ {:?}: pc {:#x} -> {:#x}, {} record{} over {} address{} [{:#x}..{:#x}], cycles {}..{}",
            self.category,
            self.kind,
            self.space,
            self.prev_pc,
            self.pc,
            self.records,
            if self.records == 1 { "" } else { "s" },
            self.distinct_addrs,
            if self.distinct_addrs == 1 { "" } else { "es" },
            self.addr_lo,
            self.addr_hi,
            self.first.cycle,
            self.last.cycle,
        )
    }
}

// The race enums deliberately carry no `Ord` (their declaration order is
// not architecturally meaningful), so the deterministic group sort uses
// explicit local ranks.
fn kind_rank(k: RaceKind) -> u8 {
    match k {
        RaceKind::Raw => 0,
        RaceKind::War => 1,
        RaceKind::Waw => 2,
    }
}

fn category_rank(c: RaceCategory) -> u8 {
    match c {
        RaceCategory::Barrier => 0,
        RaceCategory::CriticalSection => 1,
        RaceCategory::Fence => 2,
        RaceCategory::IntraWarp => 3,
        RaceCategory::StaleL1 => 4,
    }
}

fn space_rank(s: MemSpace) -> u8 {
    match s {
        MemSpace::Shared => 0,
        MemSpace::Global => 1,
        MemSpace::Local => 2,
    }
}

/// Group race records by static signature — (kind, category, space,
/// prev_pc, pc) — accumulating the address range, distinct-address count
/// and first/last provenance of each group.
///
/// The output is a deterministic function of the record sequence, and its
/// order is normalized (sorted by space / category / kind / PC pair)
/// rather than inherited from detection order — so the serial, parallel
/// and cycle-skipping engines, whose logs are bit-identical by the
/// determinism contract, produce bit-identical groups too (asserted by
/// the cross-engine equivalence suite).
pub fn group_races(records: &[RaceRecord]) -> Vec<RaceGroup> {
    let mut groups: Vec<RaceGroup> = Vec::new();
    let mut addrs: Vec<HashSet<u32>> = Vec::new();
    for r in records {
        let pos = groups.iter().position(|g| {
            g.kind == r.kind
                && g.category == r.category
                && g.space == r.space
                && g.prev_pc == r.prev_pc
                && g.pc == r.pc
        });
        match pos {
            Some(i) => {
                let g = &mut groups[i];
                g.addr_lo = g.addr_lo.min(r.addr);
                g.addr_hi = g.addr_hi.max(r.addr);
                g.records += 1;
                if r.cycle < g.first.cycle {
                    g.first = *r;
                }
                if r.cycle >= g.last.cycle {
                    g.last = *r;
                }
                addrs[i].insert(r.addr);
            }
            None => {
                groups.push(RaceGroup {
                    kind: r.kind,
                    category: r.category,
                    space: r.space,
                    prev_pc: r.prev_pc,
                    pc: r.pc,
                    addr_lo: r.addr,
                    addr_hi: r.addr,
                    distinct_addrs: 1,
                    records: 1,
                    first: *r,
                    last: *r,
                });
                addrs.push(HashSet::from([r.addr]));
            }
        }
    }
    for (g, a) in groups.iter_mut().zip(&addrs) {
        g.distinct_addrs = a.len();
    }
    groups.sort_by_key(|g| {
        (space_rank(g.space), category_rank(g.category), kind_rank(g.kind), g.prev_pc, g.pc)
    });
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemSpace;

    fn rec(addr: u32, pc: u32, kind: RaceKind) -> RaceRecord {
        RaceRecord {
            kind,
            category: RaceCategory::Barrier,
            space: MemSpace::Shared,
            addr,
            pc,
            prev_pc: 0,
            cycle: 0,
            prev: ThreadCoord::new(0, 0, 0, 0),
            cur: ThreadCoord::new(1, 1, 0, 0),
        }
    }

    #[test]
    fn duplicates_counted_once_distinct() {
        let mut log = RaceLog::default();
        assert!(log.push(rec(4, 1, RaceKind::Raw)));
        assert!(!log.push(rec(4, 1, RaceKind::Raw)));
        assert!(log.push(rec(4, 1, RaceKind::War)));
        assert!(log.push(rec(8, 1, RaceKind::Raw)));
        assert_eq!(log.distinct(), 3);
        assert_eq!(log.total(), 4);
        assert!(log.any());
    }

    #[test]
    fn capacity_bounds_records_not_counts() {
        let mut log = RaceLog::new(2);
        for a in 0..10 {
            log.push(rec(a * 4, 0, RaceKind::Waw));
        }
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.distinct(), 10);
        assert_eq!(log.total(), 10);
        assert_eq!(log.dropped(), 8, "saturation is counted, not silent");
    }

    #[test]
    fn duplicates_do_not_count_as_drops() {
        let mut log = RaceLog::new(1);
        log.push(rec(0, 0, RaceKind::Raw));
        log.push(rec(0, 0, RaceKind::Raw)); // duplicate: dedup, not a drop
        assert_eq!(log.dropped(), 0);
        log.push(rec(4, 0, RaceKind::Raw)); // fresh but at capacity
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert_eq!(log.dropped(), 0, "clear resets the drop count");
    }

    fn witness(cycle: u64, addr: u32) -> crate::health::WitnessEvent {
        crate::health::WitnessEvent {
            cycle,
            who: ThreadCoord::new(0, 0, 0, 0),
            pc: 1,
            kind: crate::access::AccessKind::Write,
            addr,
            state_before: crate::shadow::ShadowState::Fresh,
            state_after: crate::shadow::ShadowState::Written,
        }
    }

    #[test]
    fn witness_timelines_ride_with_their_records() {
        let mut log = RaceLog::default();
        assert!(log.push_with_witness(rec(4, 1, RaceKind::Raw), &[witness(10, 4)]));
        assert!(log.push(rec(8, 1, RaceKind::Raw)));
        assert_eq!(log.witnesses().len(), 2);
        assert_eq!(log.witness_of(0).len(), 1);
        assert_eq!(log.witness_of(0)[0].cycle, 10);
        assert!(log.witness_of(1).is_empty());
        assert!(log.witness_of(99).is_empty(), "out of range reads empty");
        // Duplicates keep the original witness.
        assert!(!log.push_with_witness(rec(4, 1, RaceKind::Raw), &[witness(20, 4)]));
        assert_eq!(log.witness_of(0)[0].cycle, 10);
    }

    #[test]
    fn absorb_transfers_witnesses_and_drops() {
        let mut a = RaceLog::default();
        let mut b = RaceLog::new(1);
        b.push_with_witness(rec(0, 0, RaceKind::Raw), &[witness(5, 0)]);
        b.push(rec(4, 0, RaceKind::Raw)); // dropped in b
        a.absorb(&b);
        assert_eq!(a.distinct(), 1, "only b's retained record transfers");
        assert_eq!(a.witness_of(0).len(), 1);
        assert_eq!(a.dropped(), 1, "b's drop count carries over");
    }

    #[test]
    fn category_and_space_counters() {
        let mut log = RaceLog::default();
        log.push(rec(0, 0, RaceKind::Raw));
        let mut g = rec(4, 0, RaceKind::Raw);
        g.space = MemSpace::Global;
        g.category = RaceCategory::Fence;
        log.push(g);
        assert_eq!(log.count_category(RaceCategory::Barrier), 1);
        assert_eq!(log.count_category(RaceCategory::Fence), 1);
        assert_eq!(log.count_space(MemSpace::Global), 1);
        assert_eq!(log.count_space(MemSpace::Shared), 1);
    }

    #[test]
    fn clear_resets() {
        let mut log = RaceLog::default();
        log.push(rec(0, 0, RaceKind::Raw));
        log.clear();
        assert_eq!(log.distinct(), 0);
        assert_eq!(log.total(), 0);
        assert!(!log.any());
        // Re-pushing after clear is fresh again.
        assert!(log.push(rec(0, 0, RaceKind::Raw)));
    }

    #[test]
    fn absorb_merges_distinctness() {
        let mut a = RaceLog::default();
        let mut b = RaceLog::default();
        a.push(rec(0, 0, RaceKind::Raw));
        b.push(rec(0, 0, RaceKind::Raw));
        b.push(rec(4, 0, RaceKind::Raw));
        a.absorb(&b);
        assert_eq!(a.distinct(), 2);
    }

    #[test]
    fn display_is_human_readable() {
        let s = rec(64, 3, RaceKind::War).to_string();
        assert!(s.contains("WAR"));
        assert!(s.contains("barrier"));
        assert!(s.contains("warp"));
    }

    #[test]
    fn dedup_key_ignores_provenance_fields() {
        let mut log = RaceLog::default();
        let mut a = rec(4, 1, RaceKind::Raw);
        a.cycle = 100;
        a.prev_pc = 7;
        let mut b = a;
        b.cycle = 200; // same static race, later dynamic occurrence
        assert!(log.push(a));
        assert!(!log.push(b), "cycle must not participate in the dedup key");
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn groups_fold_records_by_static_signature() {
        let mut log = RaceLog::default();
        // Same PC pair, three addresses, rising cycles.
        for (i, addr) in [(0u64, 16u32), (5, 8), (9, 24)] {
            let mut r = rec(addr, 3, RaceKind::Raw);
            r.prev_pc = 1;
            r.cycle = 10 + i;
            log.push(r);
        }
        // A different kind at the same location: its own group.
        let mut w = rec(16, 3, RaceKind::War);
        w.prev_pc = 1;
        log.push(w);
        let groups = log.groups();
        assert_eq!(groups.len(), 2);
        let raw = &groups[0];
        assert_eq!(raw.kind, RaceKind::Raw, "RAW ranks before WAR");
        assert_eq!((raw.prev_pc, raw.pc), (1, 3));
        assert_eq!((raw.addr_lo, raw.addr_hi), (8, 24));
        assert_eq!(raw.distinct_addrs, 3);
        assert_eq!(raw.records, 3);
        assert_eq!(raw.first.cycle, 10);
        assert_eq!(raw.last.cycle, 19);
        assert_eq!(groups[1].kind, RaceKind::War);
        assert_eq!(groups[1].records, 1);
    }

    #[test]
    fn group_order_is_independent_of_detection_order() {
        let mk = |addr, pc, kind, cat, cycle| {
            let mut r = rec(addr, pc, kind);
            r.category = cat;
            r.cycle = cycle;
            r
        };
        let records = vec![
            mk(4, 7, RaceKind::Waw, RaceCategory::Fence, 50),
            mk(8, 2, RaceKind::Raw, RaceCategory::Barrier, 10),
            mk(4, 2, RaceKind::Raw, RaceCategory::Barrier, 30),
            mk(12, 7, RaceKind::Waw, RaceCategory::Fence, 40),
        ];
        let mut reversed = records.clone();
        reversed.reverse();
        let a = group_races(&records);
        let b = group_races(&reversed);
        // Same groups in the same normalized order; only first/last
        // provenance may legitimately differ under cycle ties (none here).
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].category, RaceCategory::Barrier);
        assert_eq!(a[1].category, RaceCategory::Fence);
    }

    #[test]
    fn group_display_summarizes_the_family() {
        let mut log = RaceLog::default();
        for addr in [0u32, 4, 8] {
            let mut r = rec(addr, 9, RaceKind::Raw);
            r.prev_pc = 6;
            log.push(r);
        }
        let g = &log.groups()[0];
        let s = g.to_string();
        assert!(s.contains("RAW"), "{s}");
        assert!(s.contains("3 records"), "{s}");
        assert!(s.contains("3 addresses"), "{s}");
        assert!(s.contains("0x6 -> 0x9"), "{s}");
    }

    #[test]
    fn provenance_renders_both_accesses() {
        let mut r = rec(64, 9, RaceKind::Raw);
        r.cycle = 1234;
        r.prev_pc = 6;
        let p = r.provenance();
        assert!(p.contains("cycle 1234"), "{p}");
        assert!(p.contains("first  access: pc 0x6"), "{p}");
        assert!(p.contains("second access: pc 0x9"), "{p}");
    }
}
