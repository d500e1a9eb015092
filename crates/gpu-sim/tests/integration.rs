//! End-to-end tests: whole kernels through SMs, caches, interconnect,
//! DRAM and the HAccRG detector.

use gpu_sim::device::HEAP_BASE;
use gpu_sim::prelude::*;
use haccrg::config::DetectorConfig;
use haccrg::prelude::{RaceCategory, RaceKind};

fn small_gpu() -> Gpu {
    Gpu::new(GpuConfig::test_small())
}

fn detecting_gpu() -> Gpu {
    Gpu::with_detector(GpuConfig::test_small(), DetectorConfig::paper_default())
}

/// out[i] = in[i] * 3 + 1
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

#[test]
fn vector_kernel_computes_correctly_across_blocks() {
    let mut gpu = small_gpu();
    let n = 1024u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    let res = gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, n as usize);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as u32) * 3 + 1, "element {i}");
    }
    assert!(res.stats.cycles > 100);
    assert_eq!(res.stats.global_loads, u64::from(n));
    assert_eq!(res.stats.global_stores, u64::from(n));
    assert!(res.stats.l2.accesses > 0);
    assert!(res.stats.dram.reads > 0);
}

#[test]
fn launches_are_deterministic() {
    let run = || {
        let mut gpu = small_gpu();
        let inp = gpu.alloc(4096);
        let outp = gpu.alloc(4096);
        gpu.mem.copy_from_host_u32(inp, &(0..1024).collect::<Vec<_>>());
        gpu.launch(&saxpyish_kernel(), 16, 64, &[inp, outp]).unwrap().stats
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.warp_instructions, b.warp_instructions);
    assert_eq!(a.dram.reads, b.dram.reads);
    assert_eq!(a.icnt_flits, b.icnt_flits);
}

#[test]
fn divergent_branches_reconverge_with_correct_results() {
    // out[i] = i even ? i*2 : i+100
    let mut b = KernelBuilder::new("diverge");
    let outp = b.param(0);
    let t = b.global_tid();
    let bit = b.and(t, 1u32);
    let is_odd = b.setp(CmpOp::Eq, bit, 1u32);
    let r = b.reg();
    b.if_then_else(
        is_odd,
        |b| {
            let v = b.add(t, 100u32);
            b.assign(r, v);
        },
        |b| {
            let v = b.mul(t, 2u32);
            b.assign(r, v);
        },
    );
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, r, 4);
    let k = b.build();

    let mut gpu = small_gpu();
    let outp = gpu.alloc(256 * 4);
    gpu.launch(&k, 4, 64, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 256);
    for (i, &v) in out.iter().enumerate() {
        let i = i as u32;
        let expect = if i % 2 == 1 { i + 100 } else { i * 2 };
        assert_eq!(v, expect, "element {i}");
    }
}

#[test]
fn data_dependent_loops_terminate_correctly() {
    // out[i] = sum(0..=i % 7)
    let mut b = KernelBuilder::new("loops");
    let outp = b.param(0);
    let t = b.global_tid();
    let lim = b.rem(t, 7u32);
    let acc = b.mov(0u32);
    b.for_range(0u32, lim, 1u32, |b, i| {
        let i1 = b.add(i, 1u32);
        b.bin_into(BinOp::Add, acc, acc, i1);
    });
    let off = b.shl(t, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, acc, 4);
    let k = b.build();

    let mut gpu = small_gpu();
    let outp = gpu.alloc(128 * 4);
    gpu.launch(&k, 2, 64, &[outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 128);
    for (i, &v) in out.iter().enumerate() {
        let lim = (i as u32) % 7;
        assert_eq!(v, (1..=lim).sum::<u32>(), "element {i}");
    }
}

/// Tree reduction in shared memory; `with_barriers = false` injects the
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

#[test]
fn shared_reduction_with_barriers_is_race_free_and_correct() {
    let mut gpu = detecting_gpu();
    let n = 512u32;
    let block = 128u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc((n / block) * 4);
    gpu.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
    let res = gpu.launch(&reduction_kernel(block, true), n / block, block, &[inp, outp]).unwrap();
    assert_eq!(res.races.distinct(), 0, "{:?}", res.races.records());
    let out = gpu.mem.copy_to_host_u32(outp, (n / block) as usize);
    assert!(out.iter().all(|&v| v == block), "{out:?}");
    assert!(res.stats.barriers > 0);
    assert!(res.stats.shared_loads > 0);
}

#[test]
fn missing_barrier_reduction_reports_shared_races() {
    let mut gpu = detecting_gpu();
    let n = 256u32;
    let block = 128u32; // 4 warps: cross-warp tree steps race
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc((n / block) * 4);
    gpu.mem.copy_from_host_u32(inp, &vec![1u32; n as usize]);
    let res = gpu.launch(&reduction_kernel(block, false), n / block, block, &[inp, outp]).unwrap();
    assert!(res.races.any(), "missing barriers must produce races");
    assert!(res
        .races
        .records()
        .iter()
        .any(|r| r.space == haccrg::access::MemSpace::Shared && r.category == RaceCategory::Barrier));
}

/// All threads increment `data[0]` inside a global spin-lock critical
/// section. `locked` controls whether the CS markers + lock are used.
fn lock_increment_kernel(locked: bool) -> Kernel {
    let mut b = KernelBuilder::new("lock_inc");
    let lockp = b.param(0);
    let datap = b.param(1);
    if locked {
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
    } else {
        let v = b.ld(Space::Global, datap, 0, 4);
        let v1 = b.add(v, 1u32);
        b.st(Space::Global, datap, 0, v1, 4);
    }
    b.build()
}

#[test]
fn spin_locked_increments_serialize_and_report_no_race() {
    let mut gpu = detecting_gpu();
    let lockp = gpu.alloc(4);
    let datap = gpu.alloc(4);
    let res = gpu.launch(&lock_increment_kernel(true), 2, 32, &[lockp, datap]).unwrap();
    assert_eq!(gpu.mem.read_u32(datap), 64, "all increments applied");
    assert_eq!(gpu.mem.read_u32(lockp), 0, "lock released");
    assert_eq!(
        res.races.records().iter().filter(|r| r.category == RaceCategory::CriticalSection).count(),
        0,
        "{:?}",
        res.races.records()
    );
}

#[test]
fn unlocked_increments_race() {
    let mut gpu = detecting_gpu();
    let _lockp = gpu.alloc(4);
    let datap = gpu.alloc(4);
    let res = gpu.launch(&lock_increment_kernel(false), 2, 32, &[0, datap]).unwrap();
    assert!(res.races.any(), "unsynchronized read-modify-write must race");
}

/// PSUM-style producer/consumer across blocks (the Fig. 4 pattern):
/// block 0 writes `data[0..32]`, optionally fences, then raises a flag
/// atomically; block 1 spins on the flag and reads the data.
fn producer_consumer_kernel(with_fence: bool) -> Kernel {
    let mut b = KernelBuilder::new("prodcons");
    let datap = b.param(0);
    let flagp = b.param(1);
    let outp = b.param(2);
    let tid = b.tid();
    let ctaid = b.ctaid();
    let is_producer = b.setp(CmpOp::Eq, ctaid, 0u32);
    b.if_then_else(
        is_producer,
        |b| {
            let off = b.shl(tid, 2u32);
            let dst = b.add(datap, off);
            let v = b.add(tid, 7u32);
            b.st(Space::Global, dst, 0, v, 4);
            if with_fence {
                b.membar();
            }
            let lane0 = b.setp(CmpOp::Eq, tid, 0u32);
            b.if_then(lane0, |b| {
                b.atom(Space::Global, AtomOp::Add, flagp, 0, 1u32, 0u32);
            });
        },
        |b| {
            // Spin until the flag is set (atomic read-modify-write of +0
            // acts as an atomic read and is exempt from race checks).
            let seen = b.mov(0u32);
            b.while_loop(
                |b| b.setp(CmpOp::Eq, seen, 0u32),
                |b| {
                    let f = b.atom(Space::Global, AtomOp::Add, flagp, 0, 0u32, 0u32);
                    b.assign(seen, f);
                },
            );
            let off = b.shl(tid, 2u32);
            let src = b.add(datap, off);
            let v = b.ld(Space::Global, src, 0, 4);
            let dst = b.add(outp, off);
            b.st(Space::Global, dst, 0, v, 4);
        },
    );
    b.build()
}

#[test]
fn fenced_producer_consumer_is_race_free() {
    let mut gpu = detecting_gpu();
    let datap = gpu.alloc(32 * 4);
    let flagp = gpu.alloc(4);
    let outp = gpu.alloc(32 * 4);
    let res = gpu.launch(&producer_consumer_kernel(true), 2, 32, &[datap, flagp, outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, 32);
    assert_eq!(out, (7..39).collect::<Vec<u32>>());
    assert_eq!(
        res.races.records().iter().filter(|r| r.category == RaceCategory::Fence).count(),
        0,
        "{:?}",
        res.races.records()
    );
    assert!(res.stats.fences >= 1);
    assert!(res.max_fence_id >= 1);
}

#[test]
fn unfenced_producer_consumer_reports_fence_race() {
    let mut gpu = detecting_gpu();
    let datap = gpu.alloc(32 * 4);
    let flagp = gpu.alloc(4);
    let outp = gpu.alloc(32 * 4);
    let res = gpu.launch(&producer_consumer_kernel(false), 2, 32, &[datap, flagp, outp]).unwrap();
    let fence_races: Vec<_> = res
        .races
        .records()
        .iter()
        .filter(|r| r.category == RaceCategory::Fence || r.category == RaceCategory::StaleL1)
        .collect();
    assert!(!fence_races.is_empty(), "{:?}", res.races.records());
    assert!(fence_races.iter().all(|r| r.kind == RaceKind::Raw));
}

#[test]
fn global_atomics_count_every_thread() {
    let mut b = KernelBuilder::new("counter");
    let cp = b.param(0);
    b.atom(Space::Global, AtomOp::Add, cp, 0, 1u32, 0u32);
    let k = b.build();
    let mut gpu = small_gpu();
    let cp = gpu.alloc(4);
    let res = gpu.launch(&k, 8, 64, &[cp]).unwrap();
    assert_eq!(gpu.mem.read_u32(cp), 512);
    assert_eq!(res.stats.atomics, 512);
}

#[test]
fn detection_overhead_is_positive_but_bounded() {
    let kernel = saxpyish_kernel();
    let n = 2048u32;
    let run = |det: Option<DetectorConfig>| {
        let mut gpu = match det {
            Some(d) => Gpu::with_detector(GpuConfig::test_small(), d),
            None => small_gpu(),
        };
        let inp = gpu.alloc(n * 4);
        let outp = gpu.alloc(n * 4);
        gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
        gpu.launch(&kernel, n / 64, 64, &[inp, outp]).unwrap().stats
    };
    let base = run(None);
    let shared_only = run(Some(DetectorConfig::shared_only()));
    let full = run(Some(DetectorConfig::paper_default()));
    // A purely global-memory kernel: shared-only detection is ~free.
    let shared_ovh = shared_only.cycles as f64 / base.cycles as f64;
    assert!(shared_ovh < 1.02, "shared-only overhead {shared_ovh}");
    // Combined detection costs something (shadow traffic) but not 10x.
    let full_ovh = full.cycles as f64 / base.cycles as f64;
    assert!(full_ovh > 1.0, "full detection must not be free: {full_ovh}");
    assert!(full_ovh < 4.0, "full detection overhead out of range: {full_ovh}");
    assert!(full.shadow_l2_accesses > 0);
    assert!(full.dram.bus_busy_cycles >= base.dram.bus_busy_cycles);
}

#[test]
fn partial_warps_and_odd_block_sizes_work() {
    let mut gpu = small_gpu();
    let n = 80u32; // 80 threads in blocks of 40: partial warps of 8
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    gpu.launch(&saxpyish_kernel(), 2, 40, &[inp, outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, n as usize);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as u32) * 3 + 1);
    }
}

#[test]
fn bad_launches_are_rejected() {
    let mut gpu = small_gpu();
    let k = saxpyish_kernel();
    assert!(matches!(gpu.launch(&k, 0, 32, &[]), Err(SimError::BadLaunch(_))));
    assert!(matches!(gpu.launch(&k, 1, 0, &[]), Err(SimError::BadLaunch(_))));
    assert!(matches!(gpu.launch(&k, 1, 20_000, &[]), Err(SimError::BadLaunch(_))));

    // 15,900 B of shared memory passes the per-kernel check (≤ 16,000 B)
    // but rounds up to a 16,128 B allocation that no SM can ever hold:
    // the no-progress guard rejects the launch at its first block.
    let mut cfg = GpuConfig::test_small();
    cfg.shared_mem_per_sm = 16_000;
    let mut b = KernelBuilder::new("too_much_shared");
    let sh = b.shared_alloc(15_900);
    let t = b.tid();
    let off = b.shl(t, 2u32);
    let addr = b.add(off, sh);
    b.st(Space::Shared, addr, 0, t, 4);
    let k = b.build();
    for cycle_skip in [false, true] {
        cfg.cycle_skip = cycle_skip;
        match Gpu::new(cfg).launch(&k, 4, 32, &[]) {
            Err(SimError::BadLaunch(msg)) => {
                assert!(msg.contains("block 0 "), "wrong rejection: {msg}")
            }
            other => panic!("expected BadLaunch at block 0, got {other:?}"),
        }
    }
}

/// A launch that fails inside the cycle loop hands device memory back to
/// the GPU untouched: the heap's bytes and allocation pointer are as
/// before, and the next launch runs and writes its output.
#[test]
fn failed_launches_give_device_memory_back() {
    let mut cfg = GpuConfig::test_small();
    cfg.shared_mem_per_sm = 16_000;
    cfg.watchdog_cycles = 20_000;
    let mut gpu = Gpu::new(cfg);
    let n = 256u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).map(|i| i * 7 + 5).collect::<Vec<_>>());

    // Spins forever without touching memory: the watchdog fires.
    let mut b = KernelBuilder::new("spin");
    let zero = b.mov(0u32);
    b.while_loop(|b| b.setp(CmpOp::Eq, zero, 0u32), |b| b.assign(zero, 0u32));
    let spin = b.build();
    // The too-much-shared kernel of `bad_launches_are_rejected`: the
    // no-progress guard rejects it at its first block.
    let mut b = KernelBuilder::new("too_much_shared");
    let sh = b.shared_alloc(15_900);
    let t = b.tid();
    let off = b.shl(t, 2u32);
    let addr = b.add(off, sh);
    b.st(Space::Shared, addr, 0, t, 4);
    let unplaceable = b.build();

    type Expected = fn(&SimError) -> bool;
    let cases: [(&Kernel, u32, Expected); 2] = [
        (&spin, 1, |e| matches!(e, SimError::Hang { .. })),
        (&unplaceable, 4, |e| matches!(e, SimError::BadLaunch(m) if m.contains("block 0 "))),
    ];
    for (k, grid, expected) in cases {
        let ptr = gpu.mem.alloc_ptr();
        let heap = gpu.mem.copy_to_host_u8(HEAP_BASE, (ptr - HEAP_BASE) as usize);
        match gpu.launch(k, grid, 32, &[]) {
            Err(e) if expected(&e) => {}
            other => panic!("{}: unexpected outcome {other:?}", k.name),
        }
        assert_eq!(gpu.mem.alloc_ptr(), ptr, "{}: allocation pointer moved", k.name);
        assert_eq!(
            gpu.mem.copy_to_host_u8(HEAP_BASE, (ptr - HEAP_BASE) as usize),
            heap,
            "{}: heap bytes changed",
            k.name
        );

        gpu.mem.copy_from_host_u32(outp, &vec![0; n as usize]);
        gpu.launch(&saxpyish_kernel(), n / 64, 64, &[inp, outp])
            .unwrap_or_else(|e| panic!("launch after {} failed: {e}", k.name));
        let out = gpu.mem.copy_to_host_u32(outp, n as usize);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u32 * 7 + 5) * 3 + 1, "after {}: element {i}", k.name);
        }
    }
}

/// `thread id + alu_ops` through a chain of dependent adds, optionally
/// after each thread stores its global id to `out[global id]`.
fn alu_kernel(store_first: bool, alu_ops: u32) -> Kernel {
    let mut b = KernelBuilder::new("alu_chain");
    if store_first {
        let outp = b.param(0);
        let gt = b.global_tid();
        let off = b.shl(gt, 2u32);
        let dst = b.add(outp, off);
        b.st(Space::Global, dst, 0, gt, 4);
    }
    let mut x = b.tid();
    for _ in 0..alu_ops {
        x = b.add(x, 1u32);
    }
    b.build()
}

/// Launch `k` densely and with cycle skipping; both must succeed with
/// equal statistics.
fn launch_dense_and_skipping(
    cfg: GpuConfig,
    k: &Kernel,
    grid: u32,
    block: u32,
    out_bytes: u32,
) -> SimStats {
    let run = |cycle_skip: bool| {
        let mut cfg = cfg;
        cfg.cycle_skip = cycle_skip;
        let mut gpu = Gpu::new(cfg);
        let outp = gpu.alloc(out_bytes.max(4));
        match gpu.launch(k, grid, block, &[outp]) {
            Ok(res) => res.stats,
            Err(e) => panic!("{} (cycle_skip={cycle_skip}): valid launch failed: {e}", k.name),
        }
    };
    let dense = run(false);
    assert_eq!(dense, run(true), "{}: dense and skipping runs diverged", k.name);
    dense
}

#[test]
fn multi_wave_launches_complete_when_every_resident_block_retires_at_once() {
    // Three ALU instructions per warp (tid, add, add) before the exit:
    // the 30 resident 1024-thread blocks all retire in the same cycle
    // with nothing in flight, and the second wave must still be
    // dispatched.
    let k = alu_kernel(false, 2);
    assert_eq!(k.instrs.len(), 4);
    let s = launch_dense_and_skipping(GpuConfig::quadro_fx5800(), &k, 60, 1024, 0);
    assert_eq!(s.warp_instructions, 60 * 32 * 4);

    // One SM, one block at a time: the stores drain long before the
    // 200-add chain ends, so the machine is quiescent when each block
    // retires.
    let mut one_sm = GpuConfig::test_small();
    one_sm.num_sms = 1;
    let k = alu_kernel(true, 200);
    let s = launch_dense_and_skipping(one_sm, &k, 2, 1024, 2 * 1024 * 4);
    assert_eq!(s.global_stores, 2 * 1024);
    assert_eq!(s.warp_instructions, 2 * 32 * k.instrs.len() as u64);
}

#[test]
fn many_blocks_multiplex_over_few_sms() {
    let mut gpu = small_gpu(); // 4 SMs
    let n = 8192u32;
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc(n * 4);
    gpu.mem.copy_from_host_u32(inp, &(0..n).collect::<Vec<_>>());
    // 128 blocks of 64 threads: far more blocks than SM slots.
    let res = gpu.launch(&saxpyish_kernel(), 128, 64, &[inp, outp]).unwrap();
    let out = gpu.mem.copy_to_host_u32(outp, n as usize);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as u32) * 3 + 1);
    }
    assert_eq!(res.stats.global_stores, u64::from(n));
}
