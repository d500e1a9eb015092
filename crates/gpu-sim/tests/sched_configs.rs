//! Scheduler-policy and GPU-generation ablations: both configurations
//! must be functionally identical; timing differs; detection verdicts
//! stay the same.

use gpu_sim::config::SchedPolicy;
use gpu_sim::prelude::*;
use gpu_sim::stats::SimStats;
use haccrg::config::DetectorConfig;

fn tree_reduce_kernel(block: u32) -> Kernel {
    let mut b = KernelBuilder::new("reduce");
    let sh = b.shared_alloc(block * 4);
    let inp = b.param(0);
    let outp = b.param(1);
    let tid = b.tid();
    let gt = b.global_tid();
    let goff = b.shl(gt, 2u32);
    let src = b.add(inp, goff);
    let v = b.ld(Space::Global, src, 0, 4);
    let t4 = b.shl(tid, 2u32);
    let my = b.add(t4, sh);
    b.st(Space::Shared, my, 0, v, 4);
    b.bar();
    let mut s = block / 2;
    while s > 0 {
        let p = b.setp(CmpOp::LtU, tid, s);
        b.if_then(p, |b| {
            let mine = b.ld(Space::Shared, my, 0, 4);
            let theirs = b.ld(Space::Shared, my, s * 4, 4);
            let sum = b.add(mine, theirs);
            b.st(Space::Shared, my, 0, sum, 4);
        });
        b.bar();
        s /= 2;
    }
    let p0 = b.setp(CmpOp::Eq, tid, 0u32);
    b.if_then(p0, |b| {
        let shreg = b.mov(sh);
        let total = b.ld(Space::Shared, shreg, 0, 4);
        let ctaid = b.ctaid();
        let o = b.shl(ctaid, 2u32);
        let dst = b.add(outp, o);
        b.st(Space::Global, dst, 0, total, 4);
    });
    b.build()
}

fn run(cfg: GpuConfig, detect: bool) -> (u64, Vec<u32>, usize) {
    let (stats, out, races) = reduce(cfg, detect, 1024, 128);
    (stats.cycles, out, races)
}

/// Tree-reduce `n` threes in blocks of `block` threads: the launch's
/// stats, the per-block sums and the distinct race count.
fn reduce(cfg: GpuConfig, detect: bool, n: u32, block: u32) -> (SimStats, Vec<u32>, usize) {
    let mut gpu = if detect {
        Gpu::with_detector(cfg, DetectorConfig::paper_default())
    } else {
        Gpu::new(cfg)
    };
    let inp = gpu.alloc(n * 4);
    let outp = gpu.alloc((n / block) * 4);
    gpu.mem.copy_from_host_u32(inp, &vec![3u32; n as usize]);
    let res = gpu.launch(&tree_reduce_kernel(block), n / block, block, &[inp, outp]).unwrap();
    (res.stats, gpu.mem.copy_to_host_u32(outp, (n / block) as usize), res.races.distinct())
}

fn with_policy(mut cfg: GpuConfig, sched: SchedPolicy) -> GpuConfig {
    cfg.sched = sched;
    cfg
}

#[test]
fn gto_scheduler_is_functionally_identical_to_round_robin() {
    let rr = GpuConfig::test_small();
    let mut gto = GpuConfig::test_small();
    gto.sched = SchedPolicy::GreedyThenOldest;
    let (c_rr, out_rr, races_rr) = run(rr, true);
    let (c_gto, out_gto, races_gto) = run(gto, true);
    assert_eq!(out_rr, out_gto, "results must not depend on scheduling");
    assert_eq!(out_rr, vec![384; 8]);
    assert_eq!(races_rr, races_gto, "verdicts must not depend on scheduling");
    assert_eq!(races_rr, 0);
    // Timing genuinely differs between the policies on multi-warp blocks.
    assert_ne!(c_rr, c_gto, "policies should schedule differently");
}

#[test]
fn gto_is_deterministic_too() {
    let mut gto = GpuConfig::test_small();
    gto.sched = SchedPolicy::GreedyThenOldest;
    let a = run(gto, false);
    let b = run(gto, false);
    assert_eq!(a, b);
}

#[test]
fn fermi_config_runs_the_same_kernels() {
    let cfg = GpuConfig::fermi();
    assert!(cfg.validate().is_ok());
    assert_eq!(cfg.shared_mem_per_sm, 48 * 1024);
    assert_eq!(cfg.max_warps_per_sm(), 48);
    let (cycles, out, races) = run(cfg, true);
    assert_eq!(out, vec![384; 8]);
    assert_eq!(races, 0);
    assert!(cycles > 0);
}

#[test]
fn fermi_shared_shadow_budget_matches_section_6c2() {
    // 48 KB shared at 16 B granularity × 12-bit entries = 4.5 KB per SM —
    // the exact number the paper states for Fermi.
    let cfg = GpuConfig::fermi();
    let entries = haccrg::granularity::Granularity::SHARED_DEFAULT.entries_for(cfg.shared_mem_per_sm);
    let bytes = entries as u64 * u64::from(haccrg::cost::SHARED_ENTRY_BITS) / 8;
    assert_eq!(bytes, 4608);
}

#[test]
fn detection_overhead_shape_holds_on_fermi_as_well() {
    // The overhead story is configuration-independent: shared-only stays
    // near-free on the second machine generation too.
    let base = run(GpuConfig::fermi(), false).0;
    let mut shared_only = Gpu::new(GpuConfig::fermi());
    shared_only.set_detector(Some(DetectorConfig::shared_only()));
    let n = 1024u32;
    let inp = shared_only.alloc(n * 4);
    let outp = shared_only.alloc((n / 128) * 4);
    shared_only.mem.copy_from_host_u32(inp, &vec![3u32; n as usize]);
    let res = shared_only.launch(&tree_reduce_kernel(128), n / 128, 128, &[inp, outp]).unwrap();
    let ovh = res.stats.cycles as f64 / base as f64;
    assert!(ovh < 1.10, "shared-only on Fermi: {ovh}");
}

/// Exact `(cycles, warp_instructions)` of the reduction under both
/// policies, on `test_small` (32 warp slots per SM) and Fermi (48), so a
/// scheduler rewrite must reproduce the same issue order, not only the
/// same results.
#[test]
fn scheduler_timing_is_pinned() {
    // The last case fills every Fermi warp slot: six 256-thread blocks
    // of eight warps on each of the 16 SMs, two waves.
    let cases = [
        ("test_small", GpuConfig::test_small(), 1024, 128, (1645, 1520), (1600, 1520)),
        ("fermi", GpuConfig::fermi(), 1024, 128, (476, 1520), (446, 1520)),
        ("fermi/48 slots", GpuConfig::fermi(), 16 * 12 * 256, 256, (9246, 73344), (9281, 73344)),
    ];
    for (name, cfg, n, block, rr, gto) in cases {
        for (policy, want) in [(SchedPolicy::RoundRobin, rr), (SchedPolicy::GreedyThenOldest, gto)]
        {
            let (stats, out, _) = reduce(with_policy(cfg, policy), false, n, block);
            assert_eq!(out, vec![3 * block; (n / block) as usize], "{name} {policy:?}");
            assert_eq!((stats.cycles, stats.warp_instructions), want, "{name} {policy:?}");
        }
    }
}

/// Blocks `0..4` run eight iterations of a global load plus an add; every
/// other block runs the same loop without the load. Each warp's load is
/// one fresh line (`words` must hold eight `threads`-word rows), so it
/// misses L1 and parks the warp on memory. All end with
/// `out[gtid] = sum`. With 512-thread blocks on a 128-slot SM, the first
/// wave's loading warps fill slots 0-63 and its ALU warps slots 64-127.
fn split_kernel(threads: u32, words: u32) -> Kernel {
    assert!(8 * threads <= words);
    let mut b = KernelBuilder::new("split");
    let inp = b.param(0);
    let outp = b.param(1);
    let gt = b.global_tid();
    let ctaid = b.ctaid();
    let loads = b.setp(CmpOp::LtU, ctaid, 4u32);
    let acc = b.mov(0u32);
    b.for_range(0u32, 8u32, 1u32, |b, i| {
        b.if_then(loads, |b| {
            let row = b.mul(i, threads);
            let word = b.add(row, gt);
            let off = b.shl(word, 2u32);
            let a = b.add(inp, off);
            let v = b.ld(Space::Global, a, 0, 4);
            b.bin_into(BinOp::Add, acc, acc, v);
        });
        b.bin_into(BinOp::Add, acc, acc, i);
    });
    let off = b.shl(gt, 2u32);
    let dst = b.add(outp, off);
    b.st(Space::Global, dst, 0, acc, 4);
    b.build()
}

/// 128 warp slots per SM (4096 threads): one SM holds eight 512-thread
/// blocks of 16 warps. While the warps in slots 0-63 wait on memory, the
/// ready warps sit past slot 64, so the round-robin walk must cross the
/// word boundary of the scheduler's slot set and wrap around.
#[test]
fn schedulers_handle_more_than_64_warp_slots() {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 1;
    cfg.max_threads_per_sm = 4096;
    // A load outlasts a full round-robin pass over the ALU warps, so the
    // walk from `rr_next = 0` finds word 0 empty and must reach slot 64.
    cfg.icnt.latency = 1000;
    assert!(cfg.validate().is_ok());
    assert_eq!(cfg.max_warps_per_sm(), 128);
    let (block, grid) = (512u32, 16u32);
    let words = 8 * grid * block;
    let run = |cfg: GpuConfig| {
        let mut gpu = Gpu::with_detector(cfg, DetectorConfig::paper_default());
        let n = grid * block;
        let inp = gpu.alloc(words * 4);
        let outp = gpu.alloc(n * 4);
        gpu.mem.copy_from_host_u32(inp, &vec![1u32; words as usize]);
        let res = gpu.launch(&split_kernel(n, words), grid, block, &[inp, outp]).unwrap();
        let out = gpu.mem.copy_to_host_u32(outp, n as usize);
        // 0 + 1 + ... + 7, plus one per load.
        let want = |t: usize| if t < 4 * block as usize { 28 + 8 } else { 28 };
        assert!(out.iter().enumerate().all(|(t, &v)| v == want(t)), "sums");
        assert_eq!(res.races.distinct(), 0);
        res.stats
    };
    let pins = [
        (SchedPolicy::RoundRobin, (86_613, 19_456)),
        (SchedPolicy::GreedyThenOldest, (86_774, 19_456)),
    ];
    for (policy, want) in pins {
        let cfg = with_policy(cfg, policy);
        let stats = run(cfg);
        let mut dense = cfg;
        dense.cycle_skip = false;
        assert_eq!(run(dense), stats, "{policy:?}: dense vs skip");
        assert_eq!((stats.cycles, stats.warp_instructions), want, "{policy:?}");
    }
}
