//! Property test: the batch kernel, wide SWAR tier and all, is
//! observationally identical to the per-access reference.
//!
//! Random same-page runs mix thread identities, critical-section
//! membership (Bloom-only and exact-table locksets), sync-ID epochs,
//! full-width values (cycles past 2^24, SM ids past 2^16), atomics and
//! chunk-straddling accesses, as
//! generated, behind an owner's read, or behind another lane of the
//! warp (see `variants`). Each batch is replayed for three rounds — the
//! later rounds sit in the ordered-lane steady state the wide tier is
//! built for — through `check_warp_batch` and through the reference
//! (`check_warp_stores`, then `observe_health` per access, Fig. 3 edges
//! taken from state snapshots around each call), with the §III-A warp
//! filter on and off, with witness capture off and on, and with a
//! transition sink absent and attached to the batch run (the wide tier
//! stays engaged under either observer). Every observable must match
//! bit-for-bit: shadow entries, race records, witness timelines, health
//! counters, the stats block and the Fig. 3 event stream, which the
//! untraced batch run leaves empty.

use haccrg::prelude::*;
use proptest::prelude::*;

const HEAP: u32 = 0x1000;
const SHADOW: u32 = 0x10_0000;
const ROUNDS: usize = 3;

/// One lane of a generated warp batch, in slot/flag form.
#[derive(Clone, Debug)]
struct Lane {
    slot: u32,
    kind: AccessKind,
    tid: u32,
    /// 0 = no lockset, 1 = Bloom lock A, 2 = Bloom lock B,
    /// 3 = lock A with an exact table alongside the Bloom signature.
    cs: u8,
    sync_id: u8,
    /// A full-width cycle, past 2^24.
    big_cycle: bool,
    /// Size-8 access spanning two 4 B global chunks (splits the run).
    straddle: bool,
    l1_hit: bool,
    /// A full-width SM id, past 2^16 (global RDU only; the shared RDU
    /// pins sm = 0).
    huge_sm: bool,
}

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Atomic),
    ]
}

fn arb_lane() -> impl Strategy<Value = Lane> {
    // Two nested tuples: the flag draws are u8 lottery tickets so the
    // rare shapes (full-width values, straddles) stay rare but present.
    (
        (0u32..192, arb_kind(), 0u32..96, 0u8..4, 0u8..3),
        (0u8..10, 0u8..10, any::<bool>(), 0u8..10),
    )
        .prop_map(|((slot, kind, tid, cs, sync_id), (big, strad, l1_hit, huge))| Lane {
            slot,
            kind,
            tid,
            cs,
            sync_id,
            big_cycle: big == 0,
            straddle: strad < 2,
            l1_hit,
            huge_sm: huge == 0,
        })
}

fn with_lockset(a: MemAccess, cs: u8) -> MemAccess {
    let cfg = BloomConfig::PAPER_DEFAULT;
    match cs {
        1 => a.locked(BloomSig::of_lock(0x100, cfg)),
        2 => a.locked(BloomSig::of_lock(0x1F4, cfg)),
        3 => {
            let mut t = LockTable::<4>::new();
            t.insert(0x100);
            a.locked(BloomSig::of_lock(0x100, cfg)).with_locks(t)
        }
        _ => a,
    }
}

fn global_access(l: &Lane, lane: usize) -> MemAccess {
    let mut who = ThreadCoord::from_flat(l.tid, 64, 32, 4);
    if l.huge_sm {
        who.sm = 1 << 17;
    }
    let size = if l.straddle { 8 } else { 4 };
    let cycle = if l.big_cycle {
        (1u64 << 24) + lane as u64
    } else {
        64 + lane as u64
    };
    let a = MemAccess::plain(HEAP + l.slot * 4, size, l.kind, who)
        .at_pc(0x40 + lane as u32 * 4)
        .with_clocks(l.sync_id, 0)
        .l1(l.l1_hit)
        .at_cycle(cycle);
    with_lockset(a, l.cs)
}

fn shared_access(l: &Lane, lane: usize) -> MemAccess {
    let mut who = ThreadCoord::from_flat(l.tid, 64, 32, 4);
    who.sm = 0;
    let (off, size) = if l.straddle { (12, 8) } else { (0, 4) };
    let cycle = if l.big_cycle {
        (1u64 << 24) + lane as u64
    } else {
        64 + lane as u64
    };
    let a = MemAccess::plain(l.slot * 16 + off, size, l.kind, who)
        .at_pc(0x40 + lane as u32 * 4)
        .with_clocks(l.sync_id, 0)
        .at_cycle(cycle);
    with_lockset(a, l.cs)
}

/// Everything one run can be observed through.
#[derive(Clone, Debug, PartialEq)]
struct Observables {
    entries: Vec<ShadowEntry>,
    races: Vec<RaceRecord>,
    witnesses: Vec<Vec<WitnessEvent>>,
    total: u64,
    health: DetectorHealth,
    stats: String,
    events: Vec<(u32, ShadowState, ShadowState)>,
    traffic: Vec<ShadowTraffic>,
}

fn observables<S: Space>(
    r: &ShadowRegion<S>,
    log: &RaceLog,
    health: DetectorHealth,
    events: Vec<(u32, ShadowState, ShadowState)>,
    traffic: Vec<ShadowTraffic>,
) -> Observables {
    Observables {
        entries: (0..r.num_entries()).map(|i| r.entry(i)).collect(),
        races: log.records().to_vec(),
        witnesses: (0..log.records().len()).map(|k| log.witness_of(k).to_vec()).collect(),
        total: log.total(),
        health,
        stats: format!("{:?}", r.stats),
        events,
        traffic,
    }
}

/// `ROUNDS` batches through `r`, with a transition sink attached when
/// `traced`.
fn drive<S: Space>(
    mut r: ShadowRegion<S>,
    accesses: &[MemAccess],
    witness: bool,
    traced: bool,
) -> Observables {
    let clocks = ClockFile::new(8, 64);
    r.set_witness_capture(witness);
    let mut log = RaceLog::default();
    let mut h = DetectorHealth::default();
    let mut scratch = RaceScratch::default();
    let (mut events, mut traffic) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut sink =
            |addr: u32, from: ShadowState, to: ShadowState| events.push((addr, from, to));
        let on_transition: Option<TransitionSink<'_>> = if traced { Some(&mut sink) } else { None };
        r.check_warp_batch(
            accesses,
            true,
            &clocks,
            &mut scratch,
            &mut log,
            &mut h,
            on_transition,
            |t| traffic.push(t),
        );
    }
    observables(&r, &log, h, events, traffic)
}

/// The same `ROUNDS` through the per-access reference: the intra-warp
/// store check, then `observe_health` per access, with Fig. 3 edges
/// taken from state snapshots around each call.
fn reference<S: Space>(
    mut r: ShadowRegion<S>,
    accesses: &[MemAccess],
    witness: bool,
) -> Observables {
    let clocks = ClockFile::new(8, 64);
    r.set_witness_capture(witness);
    let mut log = RaceLog::default();
    let mut h = DetectorHealth::default();
    let mut scratch = RaceScratch::default();
    let (mut events, mut traffic) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        r.check_warp_stores(accesses, &mut scratch, &mut log);
        for a in accesses {
            let watch = r.chunk_range(a.addr, a.size);
            let states: Vec<ShadowState> = watch
                .map(|(lo, hi)| (lo..=hi).map(|i| r.entry(i).state()).collect())
                .unwrap_or_default();
            let t = r.observe_health(a, &clocks, &mut log, &mut h);
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
    observables(&r, &log, h, events, traffic)
}

/// The batch run, untraced and traced, against the reference; the
/// untraced run must match it with the event stream removed.
fn assert_matches_reference<S: Space>(
    mk: impl Fn() -> ShadowRegion<S>,
    accesses: &[MemAccess],
    witness: bool,
) {
    let reference = reference(mk(), accesses, witness);
    assert_eq!(drive(mk(), accesses, witness, true), reference, "witness={witness}, traced");
    assert_eq!(
        drive(mk(), accesses, witness, false),
        Observables { events: Vec::new(), ..reference },
        "witness={witness}, untraced"
    );
}

fn global_rdu(warp_filter: bool) -> GlobalRdu {
    let gran = Granularity::GLOBAL_DEFAULT;
    GlobalRdu::new(HEAP, 4096, SHADOW, gran, warp_filter, true, BloomConfig::PAPER_DEFAULT)
}

fn shared_rdu(warp_filter: bool) -> SharedRdu {
    let gran = Granularity::SHARED_DEFAULT;
    SharedRdu::new(0, 16 * 1024, 16, gran, warp_filter, BloomConfig::PAPER_DEFAULT)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn global_batch_matches_the_per_access_reference(
        lanes in prop::collection::vec(arb_lane(), 1..25)
    ) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| global_access(l, i)).collect();
        for (accesses, witness) in variants(&accesses) {
            for warp_filter in [true, false] {
                assert_matches_reference(|| global_rdu(warp_filter), &accesses, witness);
            }
        }
    }

    #[test]
    fn shared_batch_matches_the_per_access_reference(
        lanes in prop::collection::vec(arb_lane(), 1..25)
    ) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| shared_access(l, i)).collect();
        for (accesses, witness) in variants(&accesses) {
            for warp_filter in [true, false] {
                assert_matches_reference(|| shared_rdu(warp_filter), &accesses, witness);
            }
        }
    }
}

/// Each batch with witness capture off and on, in three shapes: as
/// generated; `owned`, with every lane preceded by a read from the same
/// thread, so writes by a location's owner promote `ReadSingle` to
/// `Written` on the wide tier; and `sibling`, with every lane preceded
/// by a read (even lanes) or write (odd lanes) from another lane of its
/// warp, so the lane meets an entry its warp recorded — ordered under
/// the warp filter, a race without it.
fn variants(accesses: &[MemAccess]) -> Vec<(Vec<MemAccess>, bool)> {
    let owned: Vec<MemAccess> = accesses
        .iter()
        .flat_map(|a| [MemAccess { kind: AccessKind::Read, ..*a }, *a])
        .collect();
    let sibling: Vec<MemAccess> = accesses
        .iter()
        .enumerate()
        .flat_map(|(i, a)| {
            let kind = if i % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
            let who = ThreadCoord { tid: a.who.tid ^ 1, ..a.who };
            [MemAccess { kind, who, ..*a }, *a]
        })
        .collect();
    [false, true]
        .into_iter()
        .flat_map(|w| [(accesses.to_vec(), w), (owned.clone(), w), (sibling.clone(), w)])
        .collect()
}
