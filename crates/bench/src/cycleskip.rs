//! Microkernels and measurement helpers for the event-driven
//! fast-forward benchmark (the `cycleskip_bench` bin).
//!
//! Two workloads sit at the extremes the fast-forward layer targets:
//!
//! * **pointer chase** — one warp serially chasing dependent global
//!   loads through a permutation; the machine spends almost every cycle
//!   waiting on a single in-flight DRAM round trip, so nearly the whole
//!   launch is skippable.
//! * **barrier storm** — one warp of a wide block does a global load per
//!   iteration while seven warps wait at `__syncthreads()`; the barrier
//!   wait plus the memory latency dominate.
//!
//! Both run on the full Table I configuration; results are bit-identical
//! with skipping on or off (enforced by `tests/cycle_skip_equivalence.rs`
//! and asserted again by the bench bin on every run).

use gpu_sim::prelude::*;
use gpu_sim::stats::SimStats;

/// Words in the pointer-chase permutation (64 KiB: larger than one L1).
pub const CHASE_WORDS: u32 = 16 * 1024;
/// Dependent loads per lane in the chase.
pub const CHASE_STEPS: u32 = 256;
/// Barrier iterations in the storm.
pub const STORM_ITERS: u32 = 64;
/// Threads per block in the storm (8 warps; one does memory work).
pub const STORM_BLOCK: u32 = 256;

/// A self-contained microkernel: program, geometry, and host-side setup.
pub struct Micro {
    /// Name used in reports.
    pub name: &'static str,
    /// The program.
    pub kernel: Kernel,
    /// Blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Allocate and initialize device buffers; returns the launch params.
    pub setup: fn(&mut Gpu) -> Vec<u32>,
}

/// Memory-bound: `off = mem[off]` repeated `CHASE_STEPS` times per lane.
pub fn pointer_chase() -> Micro {
    let mut b = KernelBuilder::new("chase");
    let base = b.param(0);
    let t = b.tid();
    let off = b.shl(t, 2u32);
    b.for_range(0u32, CHASE_STEPS, 1u32, move |b, _| {
        let a = b.add(base, off);
        let v = b.ld(Space::Global, a, 0, 4);
        b.assign(off, v);
    });
    let outp = b.param(1);
    let g = b.global_tid();
    let o = b.shl(g, 2u32);
    let dst = b.add(outp, o);
    b.st(Space::Global, dst, 0, off, 4);
    Micro {
        name: "pointer_chase",
        kernel: b.build(),
        grid: 1,
        block: 32,
        setup: |gpu| {
            let buf = gpu.alloc(CHASE_WORDS * 4);
            let outp = gpu.alloc(32 * 4);
            // next[i] = (i + 97) % N, stored as byte offsets: a permutation
            // with a long stride so consecutive steps change DRAM rows.
            let next: Vec<u32> =
                (0..CHASE_WORDS).map(|i| ((i + 97) % CHASE_WORDS) * 4).collect();
            gpu.mem.copy_from_host_u32(buf, &next);
            vec![buf, outp]
        },
    }
}

/// Dependent loads warp 0 chases between consecutive barriers.
const STORM_CHASE: u32 = 4;

/// Barrier-heavy: warp 0 chases dependent global loads between
/// block-wide barriers while the other seven warps wait. The barrier
/// sequence is unrolled at build time so the waiting warps execute only
/// a branch and the barrier per round — each round is one long
/// quiescent window for the fast-forward layer to jump.
pub fn barrier_storm() -> Micro {
    let mut b = KernelBuilder::new("storm");
    let base = b.param(0);
    let t = b.tid();
    let p = b.setp(CmpOp::LtU, t, 32u32);
    let off = b.shl(t, 2u32);
    for _ in 0..STORM_ITERS {
        b.if_then(p, |b| {
            for _ in 0..STORM_CHASE {
                let a = b.add(base, off);
                let v = b.ld(Space::Global, a, 0, 4);
                b.assign(off, v);
            }
        });
        b.bar();
    }
    let outp = b.param(1);
    let g = b.global_tid();
    let o = b.shl(g, 2u32);
    let dst = b.add(outp, o);
    b.st(Space::Global, dst, 0, off, 4);
    Micro {
        name: "barrier_storm",
        kernel: b.build(),
        grid: 2,
        block: STORM_BLOCK,
        setup: |gpu| {
            let buf = gpu.alloc(CHASE_WORDS * 4);
            let outp = gpu.alloc(2 * STORM_BLOCK * 4);
            // Same long-stride permutation as the chase, as byte offsets.
            let next: Vec<u32> =
                (0..CHASE_WORDS).map(|i| ((i + 97) % CHASE_WORDS) * 4).collect();
            gpu.mem.copy_from_host_u32(buf, &next);
            vec![buf, outp]
        },
    }
}

/// One launch of `m` on the Table I machine, dense or skipping.
pub fn run_micro(m: &Micro, cycle_skip: bool) -> (SimStats, SkipStats) {
    let mut cfg = GpuConfig::quadro_fx5800();
    cfg.cycle_skip = cycle_skip;
    let mut gpu = Gpu::new(cfg);
    let params = (m.setup)(&mut gpu);
    let r = gpu
        .launch(&m.kernel, m.grid, m.block, &params)
        .expect("microkernel terminates");
    (r.stats, r.skip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernels_validate_and_mostly_skip() {
        for m in [pointer_chase(), barrier_storm()] {
            assert!(m.kernel.validate().is_ok(), "{} invalid", m.name);
            let (dense_stats, dense_skip) = run_micro(&m, false);
            let (skip_stats, skip) = run_micro(&m, true);
            assert_eq!(dense_stats, skip_stats, "{} diverged", m.name);
            assert_eq!(dense_skip.cycles_skipped, 0);
            // The whole point: the overwhelming majority of cycles are
            // quiescent and jumped over.
            assert!(
                skip.cycles_skipped > skip_stats.cycles / 2,
                "{}: only {} of {} cycles skipped",
                m.name,
                skip.cycles_skipped,
                skip_stats.cycles
            );
        }
    }
}
