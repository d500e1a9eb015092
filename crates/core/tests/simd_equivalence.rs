//! Property test: the wide SWAR dispatch tier is observationally
//! identical to the forced-scalar reference path.
//!
//! Random same-page runs mix thread identities, critical-section
//! membership (Bloom-only and exact-table locksets), sync-ID epochs,
//! cycles past the packable range (h2 poison), SM ids past the packable
//! range (h1 poison), atomics and chunk-straddling accesses. Each batch
//! is replayed for three rounds — the later rounds sit in the
//! same-thread steady state the wide tier is built for — through a
//! default RDU and a `set_force_scalar(true)` twin, with witness
//! capture off and on, and with a transition sink absent and attached to
//! both twins (the wide tier stays engaged under either observer). Every
//! observable must match bit-for-bit: shadow entries, race records,
//! witness timelines, health counters, the stats block and the Fig. 3
//! event stream. Attaching the sink must add the event stream and change
//! nothing else.

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
    /// Cycle beyond the packed h2 width, poisoning the elision word.
    big_cycle: bool,
    /// Size-8 access spanning two 4 B global chunks (splits the run).
    straddle: bool,
    l1_hit: bool,
    /// SM id beyond the packed h1 width, poisoning the key word
    /// (global RDU only; the shared RDU pins sm = 0).
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
    // rare shapes (poisoned words, straddles) stay rare but present.
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

/// Everything one twin's run can be observed through.
#[derive(Debug, PartialEq)]
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

/// `ROUNDS` batches through `r`, with a transition sink attached when
/// `traced`.
fn drive<S: Space>(
    mut r: ShadowRegion<S>,
    accesses: &[MemAccess],
    witness: bool,
    force: bool,
    traced: bool,
) -> Observables {
    let clocks = ClockFile::new(8, 64);
    r.set_witness_capture(witness);
    r.set_force_scalar(force);
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
    Observables {
        entries: (0..r.num_entries()).map(|i| r.entry(i)).collect(),
        races: log.records().to_vec(),
        witnesses: (0..log.records().len()).map(|k| log.witness_of(k).to_vec()).collect(),
        total: log.total(),
        health: h,
        stats: format!("{:?}", r.stats),
        events,
        traffic,
    }
}

/// The default twin against its forced-scalar twin, with the sink absent
/// and present; then the untraced run against the traced one with its
/// event stream removed.
fn assert_twins_match<S: Space>(
    mk: impl Fn() -> ShadowRegion<S>,
    accesses: &[MemAccess],
    witness: bool,
) {
    let [untraced, traced] = [false, true].map(|traced| {
        let wide = drive(mk(), accesses, witness, false, traced);
        let scalar = drive(mk(), accesses, witness, true, traced);
        assert_eq!(wide, scalar, "witness={witness}, traced={traced}");
        wide
    });
    assert_eq!(
        untraced,
        Observables { events: Vec::new(), ..traced },
        "the sink changed more than the event stream, witness={witness}"
    );
}

fn global_rdu() -> GlobalRdu {
    GlobalRdu::new(HEAP, 4096, SHADOW, Granularity::GLOBAL_DEFAULT, true, true, BloomConfig::PAPER_DEFAULT)
}

fn shared_rdu() -> SharedRdu {
    SharedRdu::new(0, 16 * 1024, 16, Granularity::SHARED_DEFAULT, true, BloomConfig::PAPER_DEFAULT)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn global_wide_tier_matches_forced_scalar(lanes in prop::collection::vec(arb_lane(), 1..25)) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| global_access(l, i)).collect();
        for (accesses, witness) in variants(&accesses) {
            assert_twins_match(global_rdu, &accesses, witness);
        }
    }

    #[test]
    fn shared_wide_tier_matches_forced_scalar(lanes in prop::collection::vec(arb_lane(), 1..25)) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| shared_access(l, i)).collect();
        for (accesses, witness) in variants(&accesses) {
            assert_twins_match(shared_rdu, &accesses, witness);
        }
    }
}

/// Each batch with witness capture off and on, both as generated and
/// with every lane preceded by a read from the same thread — so writes
/// by a location's owner promote `ReadSingle` to `Written` on the wide
/// tier, the one Fig. 3 edge it can take.
fn variants(accesses: &[MemAccess]) -> Vec<(Vec<MemAccess>, bool)> {
    let owned: Vec<MemAccess> = accesses
        .iter()
        .flat_map(|a| [MemAccess { kind: AccessKind::Read, ..*a }, *a])
        .collect();
    [false, true]
        .into_iter()
        .flat_map(|w| [(accesses.to_vec(), w), (owned.clone(), w)])
        .collect()
}
