//! Property-based tests for simulator substrates: SIMT reconvergence,
//! coalescing, cache behaviour, DRAM scheduling, and functional ALU
//! semantics.

use gpu_sim::config::GpuConfig;
use gpu_sim::exec::{eval_atom, eval_bin, eval_cmp};
use gpu_sim::fuzzgen::{GenConfig, KernelSpec};
use gpu_sim::isa::{AtomOp, BinOp, CmpOp, Kernel};
use gpu_sim::mem::cache::Cache;
use gpu_sim::mem::coalesce::{coalesce, BankConflicts, LaneAddr};
use gpu_sim::mem::dram::{Dram, DramReq};
use gpu_sim::simt::SimtStack;
use gpu_sim::{Gpu, SimStats, SkipStats};
use haccrg::config::DetectorConfig;
use proptest::prelude::*;

proptest! {
    /// Lanes are conserved by coalescing: every active lane appears in at
    /// least one transaction, and transactions cover only touched lines.
    #[test]
    fn coalescing_conserves_lanes(
        addrs in proptest::collection::vec(0u32..0x4000, 1..32),
    ) {
        let lanes: Vec<LaneAddr> = addrs
            .iter()
            .enumerate()
            .map(|(l, &a)| LaneAddr { lane: l as u8, addr: a, size: 4 })
            .collect();
        let txs = coalesce(&lanes, 128);
        for la in &lanes {
            let line = la.addr & !127;
            prop_assert!(
                txs.iter().any(|t| t.line_addr == line && t.lanes.contains(la.lane)),
                "lane {} lost", la.lane
            );
        }
        // No duplicate lines.
        let mut lines: Vec<u32> = txs.iter().map(|t| t.line_addr).collect();
        let n = lines.len();
        lines.dedup();
        prop_assert_eq!(lines.len(), n);
        // Bytes per transaction bounded by the line size.
        prop_assert!(txs.iter().all(|t| t.bytes <= 128));
    }

    /// Bank-conflict degree is between 1 and the lane count, and equals 1
    /// for a conflict-free strided access.
    #[test]
    fn bank_conflicts_bounded(
        addrs in proptest::collection::vec((0u32..0x1000).prop_map(|x| x * 4), 1..32),
    ) {
        let lanes: Vec<LaneAddr> = addrs
            .iter()
            .enumerate()
            .map(|(l, &a)| LaneAddr { lane: l as u8, addr: a, size: 4 })
            .collect();
        let d = BankConflicts::new(16 * 1024).degree(&lanes, 16);
        prop_assert!(d >= 1);
        prop_assert!(d as usize <= lanes.len().max(1));
    }

    /// Cache: after a fill, a probe of any address in the same line hits;
    /// the cache never exceeds its capacity in resident lines.
    #[test]
    fn cache_fill_then_hit(
        addrs in proptest::collection::vec(0u32..0x10000, 1..64),
    ) {
        let cfg = GpuConfig::test_small().l2;
        let mut c = Cache::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            c.fill(a, false, i as u64);
            prop_assert!(c.probe(a, false, i as u64 + 1), "just-filled line must hit");
        }
    }

    /// DRAM completes every request exactly once, regardless of address
    /// pattern.
    #[test]
    fn dram_completes_everything(
        lines in proptest::collection::vec(0u32..0x100000, 1..24),
    ) {
        let mut d = Dram::new(GpuConfig::quadro_fx5800().dram);
        let mut pushed = 0u64;
        for (i, &l) in lines.iter().enumerate() {
            if d.can_accept() {
                d.push(DramReq { id: i as u64, line_addr: l & !127, is_write: i % 2 == 0, row_hit: false });
                pushed += 1;
            }
        }
        let mut done = Vec::new();
        for now in 0..200_000u64 {
            d.cycle(now, &mut done);
            if !d.busy() {
                break;
            }
        }
        prop_assert_eq!(done.len() as u64, pushed);
    }

    /// SIMT: a chain of structured diamonds (branch at P → taken P+10,
    /// reconverge P+20) always rejoins every lane, whatever the masks.
    #[test]
    fn simt_divergence_always_reconverges(
        taken_masks in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let mut s = SimtStack::new(u32::MAX);
        for &m in &taken_masks {
            prop_assert!(s.convergent());
            let p = s.pc();
            let (target, reconv) = (p + 10, p + 20);
            s.branch(m, target, reconv).unwrap();
            // March both paths to the join.
            let mut guard = 0;
            while !(s.convergent() && s.pc() == reconv) {
                s.advance();
                guard += 1;
                prop_assert!(guard < 4096, "no reconvergence: depth {} pc {}", s.depth(), s.pc());
            }
            prop_assert_eq!(s.active_mask(), u32::MAX, "no lane lost");
        }
    }

    /// Integer ALU identities.
    #[test]
    fn alu_identities(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(eval_bin(BinOp::Add, a, b), eval_bin(BinOp::Add, b, a));
        prop_assert_eq!(eval_bin(BinOp::Xor, a, a), 0);
        prop_assert_eq!(eval_bin(BinOp::And, a, 0), 0);
        prop_assert_eq!(eval_bin(BinOp::Or, a, 0), a);
        prop_assert_eq!(eval_bin(BinOp::Min, a, b), eval_bin(BinOp::Min, b, a));
        // Cmp consistency.
        prop_assert_eq!(eval_cmp(CmpOp::LtU, a, b), !eval_cmp(CmpOp::GeU, a, b));
        prop_assert_eq!(eval_cmp(CmpOp::Eq, a, b), !eval_cmp(CmpOp::Ne, a, b));
    }

    /// Atomic CAS semantics: succeeds iff the comparand matches.
    #[test]
    fn cas_semantics(old in any::<u32>(), cmp in any::<u32>(), swap in any::<u32>()) {
        let new = eval_atom(AtomOp::Cas, old, cmp, swap);
        if old == cmp {
            prop_assert_eq!(new, swap);
        } else {
            prop_assert_eq!(new, old);
        }
    }

    /// atomicInc wraps exactly like the CUDA definition.
    #[test]
    fn atomic_inc_semantics(old in 0u32..1000, bound in 0u32..1000) {
        let new = eval_atom(AtomOp::Inc, old, bound, 0);
        if old >= bound {
            prop_assert_eq!(new, 0);
        } else {
            prop_assert_eq!(new, old + 1);
        }
    }
}

/// Random kernels for the cycle-skip equivalence check come from the
/// shared `fuzzgen` generator (promoted out of this file so the
/// differential fuzz farm in `haccrg-bench` exercises the exact same
/// statement space): ALU stretches, shared/global traffic, atomics,
/// lock critical sections, divergence, loops and barriers — the state
/// space the fast-forward hints must be conservative over.
fn arb_spec() -> impl Strategy<Value = KernelSpec> {
    any::<u64>().prop_map(|seed| KernelSpec::generate(seed, &GenConfig::default()))
}

/// Everything a launch reports, plus the output buffer.
fn run_skip_kernel(
    spec: &KernelSpec,
    k: &Kernel,
    cycle_skip: bool,
) -> (SimStats, Vec<u32>, Vec<haccrg::prelude::RaceRecord>, SkipStats) {
    let mut cfg = GpuConfig::test_small();
    cfg.watchdog_cycles = 20_000_000;
    cfg.cycle_skip = cycle_skip;
    let mut gpu = Gpu::with_detector(cfg, DetectorConfig::paper_default());
    let params = spec.alloc_params(&mut gpu);
    let res = gpu
        .launch(k, spec.grid, spec.block_dim, &params)
        .expect("kernel terminates");
    let out = gpu.mem.copy_to_host_u32(params[1], spec.out_words() as usize);
    (res.stats, out, res.races.records().to_vec(), res.skip)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast-forwarding is bit-identical to the dense loop on random
    /// kernels: same statistics (cycles included), same functional
    /// results, same race records, same per-SM idle accounting.
    #[test]
    fn cycle_skipping_never_changes_results(spec in arb_spec()) {
        let k = spec.build();
        prop_assert!(k.validate().is_ok());
        let (dense_stats, dense_out, dense_races, dense_skip) = run_skip_kernel(&spec, &k, false);
        let (skip_stats, skip_out, skip_races, skip_skip) = run_skip_kernel(&spec, &k, true);
        prop_assert_eq!(dense_stats, skip_stats, "SimStats diverged");
        prop_assert_eq!(dense_out, skip_out, "functional results diverged");
        prop_assert_eq!(dense_races, skip_races, "race records diverged");
        prop_assert_eq!(
            dense_skip.sm_idle_cycles, skip_skip.sm_idle_cycles,
            "idle accounting diverged"
        );
        prop_assert_eq!(dense_skip.cycles_skipped, 0, "dense run fast-forwarded");
    }
}
