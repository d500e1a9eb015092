//! The determinism contract of the cycle loop, plus regression tests
//! for cycle-loop bugfixes.
//!
//! `GpuConfig::cycle_skip` fast-forwards over quiescent cycles; the
//! contract is that it is *unobservable*: stats, cycle counts, race
//! logs, traced event streams, per-SM idle time and functional memory
//! are bit-identical to the dense loop.

use gpu_sim::prelude::*;
use haccrg::config::{DetectorConfig, SharedShadowPlacement};

/// Outcome of one launch: the result plus a functional-memory readback.
struct Outcome {
    res: LaunchResult,
    mem: Vec<u32>,
}

/// How the cycle loop runs: fast-forwarding or dense.
#[derive(Clone, Copy, Debug)]
struct Engine {
    cycle_skip: bool,
}

const DENSE: Engine = Engine { cycle_skip: false };
const SKIP: Engine = Engine { cycle_skip: true };

fn assert_identical(name: &str, dense: &Outcome, other: &Outcome) {
    assert_eq!(dense.res.stats, other.res.stats, "{name}: stats differ");
    assert_eq!(dense.res.stats.cycles, other.res.stats.cycles, "{name}: cycles differ");
    assert_eq!(dense.res.races.total(), other.res.races.total(), "{name}: dynamic races");
    assert_eq!(dense.res.races.distinct(), other.res.races.distinct(), "{name}: distinct");
    assert_eq!(dense.res.races.records(), other.res.races.records(), "{name}: race records");
    assert_eq!(dense.res.max_sync_id, other.res.max_sync_id, "{name}: sync IDs");
    assert_eq!(dense.res.max_fence_id, other.res.max_fence_id, "{name}: fence IDs");
    assert_eq!(
        dense.res.skip.sm_idle_cycles, other.res.skip.sm_idle_cycles,
        "{name}: per-SM idle cycles differ"
    );
    assert_eq!(dense.mem, other.mem, "{name}: functional memory differs");
}

/// Run `scenario` on the dense loop and the skipping loop, and demand
/// identical observable behavior.
fn check<F: Fn(Engine) -> Outcome>(name: &str, scenario: F) {
    let dense = scenario(DENSE);
    assert_identical(&format!("{name} {SKIP:?}"), &dense, &scenario(SKIP));
}

fn gpu(engine: Engine, det: Option<DetectorConfig>) -> Gpu {
    gpu_on(GpuConfig::test_small(), engine, det)
}

fn gpu_on(mut cfg: GpuConfig, engine: Engine, det: Option<DetectorConfig>) -> Gpu {
    cfg.cycle_skip = engine.cycle_skip;
    match det {
        Some(d) => Gpu::with_detector(cfg, d),
        None => Gpu::new(cfg),
    }
}

/// out[i] = in[i] * 3 + 1, pure global traffic.
fn saxpyish_kernel() -> Kernel {
    let mut b = KernelBuilder::new("saxpyish");
    let inp = b.param(0);
    let outp = b.param(1);
    let t = b.global_tid();
    let off = b.shl(t, 2u32);
    let src = b.add(inp, off);
    let v = b.ld(Space::Global, src, 0, 4);
    let v3 = b.mul(v, 3u32);
    let v31 = b.add(v3, 1u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, v31, 4);
    b.build()
}

/// Shared-memory tree reduction; `with_barriers = false` plants the
/// classic missing-`__syncthreads` race.
fn reduction_kernel(block: u32, with_barriers: bool) -> Kernel {
    let mut b = KernelBuilder::new("reduce_shared");
    let sh = b.shared_alloc(block * 4);
    let inp = b.param(0);
    let outp = b.param(1);
    let tid = b.tid();
    let gt = b.global_tid();
    let goff = b.shl(gt, 2u32);
    let src = b.add(inp, goff);
    let v = b.ld(Space::Global, src, 0, 4);
    let soff0 = b.shl(tid, 2u32);
    let soff = b.add(soff0, sh);
    b.st(Space::Shared, soff, 0, v, 4);
    if with_barriers {
        b.bar();
    }
    let s = b.mov(block / 2);
    b.while_loop(
        |b| b.setp(CmpOp::GtU, s, 0u32),
        |b| {
            let p = b.setp(CmpOp::LtU, tid, s);
            b.if_then(p, |b| {
                let mine = b.ld(Space::Shared, soff, 0, 4);
                let o0 = b.shl(s, 2u32);
                let oaddr = b.add(soff, o0);
                let theirs = b.ld(Space::Shared, oaddr, 0, 4);
                let sum = b.add(mine, theirs);
                b.st(Space::Shared, soff, 0, sum, 4);
            });
            if with_barriers {
                b.bar();
            }
            b.bin_into(BinOp::Shr, s, s, 1u32);
        },
    );
    let p0 = b.setp(CmpOp::Eq, tid, 0u32);
    b.if_then(p0, |b| {
        let shreg = b.mov(sh);
        let first = b.ld(Space::Shared, shreg, 0, 4);
        let ctaid = b.ctaid();
        let boff = b.shl(ctaid, 2u32);
        let dst = b.add(outp, boff);
        b.st(Space::Global, dst, 0, first, 4);
    });
    b.build()
}

/// Every thread increments `data[0]` under a global spin lock (atomics,
/// critical-section markers, fences).
fn lock_increment_kernel() -> Kernel {
    let mut b = KernelBuilder::new("lock_inc");
    let lockp = b.param(0);
    let datap = b.param(1);
    let done = b.mov(0u32);
    b.while_loop(
        |b| b.setp(CmpOp::Eq, done, 0u32),
        |b| {
            let old = b.atom(Space::Global, AtomOp::Cas, lockp, 0, 0u32, 1u32);
            let won = b.setp(CmpOp::Eq, old, 0u32);
            b.if_then(won, |b| {
                b.cs_begin(lockp);
                let v = b.ld(Space::Global, datap, 0, 4);
                let v1 = b.add(v, 1u32);
                b.st(Space::Global, datap, 0, v1, 4);
                b.cs_end();
                b.membar();
                b.atom(Space::Global, AtomOp::Exch, lockp, 0, 0u32, 0u32);
                b.assign(done, 1u32);
            });
        },
    );
    b.build()
}

#[test]
fn skipping_matches_dense_without_detection() {
    check("saxpyish/no-detector", |engine| {
        let mut g = gpu(engine, None);
        let n = 2048u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc(n * 4);
        g.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
        let res = g.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();
        Outcome { res, mem: g.mem.copy_to_host_u32(outp, n as usize) }
    });
}

#[test]
fn skipping_matches_dense_with_barriers_and_detection() {
    check("reduction/barriers", |engine| {
        let mut g = gpu(engine, Some(DetectorConfig::paper_default()));
        let n = 512u32;
        let block = 128u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc((n / block) * 4);
        g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
        let res = g.launch(&reduction_kernel(block, true), n / block, block, &[inp, outp]).unwrap();
        Outcome { res, mem: g.mem.copy_to_host_u32(outp, (n / block) as usize) }
    });
}

#[test]
fn skipping_matches_dense_on_a_racy_kernel() {
    check("reduction/racy", |engine| {
        let mut g = gpu(engine, Some(DetectorConfig::paper_default()));
        let n = 512u32;
        let block = 128u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc((n / block) * 4);
        g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
        let res =
            g.launch(&reduction_kernel(block, false), n / block, block, &[inp, outp]).unwrap();
        assert!(res.races.any(), "the planted race must be detected");
        Outcome { res, mem: g.mem.copy_to_host_u32(outp, (n / block) as usize) }
    });
}

#[test]
fn skipping_matches_dense_with_atomics_and_critical_sections() {
    check("spinlock", |engine| {
        let mut g = gpu(engine, Some(DetectorConfig::paper_default()));
        let lockp = g.alloc(4);
        let datap = g.alloc(4);
        let res = g.launch(&lock_increment_kernel(), 2, 32, &[lockp, datap]).unwrap();
        let mem = g.mem.copy_to_host_u32(datap, 1);
        assert_eq!(mem[0], 64, "all increments applied");
        Outcome { res, mem }
    });
}

#[test]
fn skipping_matches_dense_with_shared_shadow_in_global_memory() {
    check("reduction/sw-shared-shadow", |engine| {
        let mut det = DetectorConfig::paper_default();
        det.shared_shadow = SharedShadowPlacement::GlobalMemory;
        let mut g = gpu(engine, Some(det));
        let n = 512u32;
        let block = 128u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc((n / block) * 4);
        g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
        let res =
            g.launch(&reduction_kernel(block, false), n / block, block, &[inp, outp]).unwrap();
        Outcome { res, mem: g.mem.copy_to_host_u32(outp, (n / block) as usize) }
    });
}

/// A machine wider than one 64-bit word of the cycle loop's active sets:
/// 72 SMs and 128 memory slices. The grid puts two blocks on every SM,
/// so SMs past index 64 compute, and its 576 input lines span every
/// slice.
#[test]
fn engines_agree_on_a_machine_wider_than_one_active_set_word() {
    check("reduction/wide", |engine| {
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 72;
        cfg.num_mem_slices = 128;
        let mut g = gpu_on(cfg, engine, Some(DetectorConfig::paper_default()));
        let block = 128u32;
        let grid = 2 * cfg.num_sms;
        let n = grid * block;
        let inp = g.alloc(n * 4);
        let outp = g.alloc(grid * 4);
        g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
        let res = g.launch(&reduction_kernel(block, false), grid, block, &[inp, outp]).unwrap();
        assert!(res.races.any(), "the planted race must be detected");
        assert!(res.skip.sm_idle_cycles[71] < res.stats.cycles, "SM 71 never woke");
        Outcome { res, mem: g.mem.copy_to_host_u32(outp, grid as usize) }
    });
}

/// Greedy-then-oldest: the greedy stick and the oldest-ready fallback
/// must pick the same warps in every engine, through barrier arrive and
/// release (the synchronized reduction), load stalls (both reductions)
/// and fence waits and atomics (the spin lock).
#[test]
fn engines_agree_under_greedy_then_oldest() {
    let mut cfg = GpuConfig::test_small();
    cfg.sched = gpu_sim::config::SchedPolicy::GreedyThenOldest;
    for (name, with_barriers) in [("reduction/barriers/gto", true), ("reduction/racy/gto", false)] {
        check(name, |engine| {
            let mut g = gpu_on(cfg, engine, Some(DetectorConfig::paper_default()));
            let n = 512u32;
            let block = 128u32;
            let inp = g.alloc(n * 4);
            let outp = g.alloc((n / block) * 4);
            g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
            let kernel = reduction_kernel(block, with_barriers);
            let res = g.launch(&kernel, n / block, block, &[inp, outp]).unwrap();
            assert_eq!(res.races.any(), !with_barriers, "{name}: race verdict");
            let mem = g.mem.copy_to_host_u32(outp, (n / block) as usize);
            if with_barriers {
                assert_eq!(mem, vec![block; (n / block) as usize], "{name}: block sums");
            }
            Outcome { res, mem }
        });
    }
    check("spinlock/gto", |engine| {
        let mut g = gpu_on(cfg, engine, Some(DetectorConfig::paper_default()));
        let lockp = g.alloc(4);
        let datap = g.alloc(4);
        let res = g.launch(&lock_increment_kernel(), 2, 32, &[lockp, datap]).unwrap();
        let mem = g.mem.copy_to_host_u32(datap, 1);
        assert_eq!(mem[0], 64, "all increments applied");
        Outcome { res, mem }
    });
}

#[test]
fn skipping_produces_an_identical_event_stream() {
    let run = |engine| {
        let mut g = gpu(engine, Some(DetectorConfig::paper_default()));
        let rec = RingRecorder::shared(1 << 20);
        g.tracer.install(Box::new(rec.clone()));
        let n = 512u32;
        let block = 128u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc((n / block) * 4);
        g.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
        g.launch(&reduction_kernel(block, false), n / block, block, &[inp, outp]).unwrap();
        let rec = rec.borrow();
        assert_eq!(rec.dropped(), 0, "ring must not overflow for this comparison");
        rec.events()
    };
    let dense = run(DENSE);
    let skip = run(SKIP);
    assert_eq!(dense.len(), skip.len(), "event counts differ");
    for (i, (d, s)) in dense.iter().zip(&skip).enumerate() {
        assert_eq!(d, s, "event {i} differs");
    }
}

// ---------------------------------------------------------------------
// Cycle-loop bugfix regressions.
// ---------------------------------------------------------------------

/// L1 MSHR capacity: with a single MSHR, concurrent misses from many
/// warps must stall (and be counted) rather than grow the miss file
/// without bound — and the kernel still completes correctly.
#[test]
fn mshr_exhaustion_stalls_warps_and_still_completes() {
    let run = |mshrs: u32| {
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 1; // all warps contend for one miss file
        cfg.l1.mshrs = mshrs;
        let mut g = Gpu::new(cfg);
        let n = 1024u32;
        let inp = g.alloc(n * 4);
        let outp = g.alloc(n * 4);
        g.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
        let res = g.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();
        let out = g.mem.copy_to_host_u32(outp, n as usize);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u32) * 3 + 1, "element {i} with {mshrs} MSHRs");
        }
        res.stats
    };
    let tight = run(1);
    let roomy = run(64);
    assert!(tight.l1_mshr_full_stalls > 0, "a 1-entry miss file must stall someone");
    assert_eq!(roomy.l1_mshr_full_stalls, 0, "64 MSHRs fit this kernel's misses");
    assert!(
        tight.cycles > roomy.cycles,
        "structural stalls must cost cycles: {} vs {}",
        tight.cycles,
        roomy.cycles
    );
}

/// Completion guard: a launch whose last CTA retires while its store
/// acks are still crossing the interconnect must complete normally, and
/// blocks queued behind a busy SM must never be declared unplaceable
/// while traffic is in flight.
#[test]
fn stores_in_flight_at_retirement_do_not_trip_the_no_progress_guard() {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 1;
    cfg.max_blocks_per_sm = 1; // dispatch serializes: block n+1 waits for n
    let mut g = Gpu::new(cfg);
    // Store-then-exit: the CTA retires the cycle its store issues, with
    // the ack still in the SM→slice→SM links.
    let mut b = KernelBuilder::new("fire_and_forget");
    let outp = b.param(0);
    let t = b.global_tid();
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, t, 4);
    let k = b.build();
    let n = 512u32;
    let outp = g.alloc(n * 4);
    let res = g.launch(&k, n / 32, 32, &[outp]).expect("in-flight acks are progress");
    assert_eq!(g.mem.copy_to_host_u32(outp, n as usize), (0..n).collect::<Vec<_>>());
    assert_eq!(res.stats.global_stores, u64::from(n));
}

/// Shadow-layout overflow: a configuration whose shared-shadow region
/// would run past `u32::MAX` must be rejected up front when detection is
/// on (saturating placement would alias it onto the global shadow
/// table), and must stay launchable when detection is off.
#[test]
fn shadow_layout_overflow_is_rejected_not_saturated() {
    let mut cfg = GpuConfig::test_small();
    // Per-SM shadow stride ≈ shared/2; 4 SMs × ~1 GiB strides overflow.
    cfg.shared_mem_per_sm = u32::MAX / 2;
    cfg.validate().expect("geometry itself is structurally valid");

    let k = saxpyish_kernel();
    let mut det_gpu = Gpu::with_detector(cfg, DetectorConfig::paper_default());
    let inp = det_gpu.alloc(256);
    let outp = det_gpu.alloc(256);
    match det_gpu.launch(&k, 1, 32, &[inp, outp]) {
        Err(SimError::BadLaunch(msg)) => {
            assert!(msg.contains("overflow"), "wrong rejection: {msg}")
        }
        other => panic!("expected BadLaunch on shadow overflow, got {other:?}"),
    }

    // Without a detector the region is never addressed; keep launching.
    let mut plain = Gpu::new(cfg);
    let inp = plain.alloc(256);
    let outp = plain.alloc(256);
    plain.launch(&k, 1, 32, &[inp, outp]).expect("no detector, no shadow layout to overflow");
}
