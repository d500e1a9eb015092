//! Programmatic race injection (§VI-A "Injected Races").
//!
//! The paper plants 41 artificial races across the suite: 23 by removing
//! barrier calls, 13 by inserting dummy memory accesses across thread-
//! block access boundaries, 3 by removing memory-fence calls, and 2 by
//! inserting dummy accesses inside/outside critical sections. This module
//! performs the same four mutations mechanically on compiled kernels:
//!
//! * **barrier/fence removal** replaces the instruction with a no-op
//!   (a jump to the next PC), so no other PCs shift;
//! * **dummy-access insertion** prepends a small instruction sequence and
//!   fixes up every branch target.

use gpu_sim::isa::{Instr, Kernel, Op, Reg, Space, SpecialReg};

/// One planted fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Remove the `index`-th `bar.sync` (0-based, static order).
    DropBarrier(usize),
    /// Remove every barrier.
    DropAllBarriers,
    /// Remove the `index`-th `membar`.
    DropFence(usize),
    /// Remove every fence.
    DropAllFences,
    /// Prepend a write of `threadIdx` to `param[param_idx][threadIdx]`:
    /// the same addresses are hit by every *block*, planting cross-block
    /// conflicts on whatever array the parameter points to.
    CrossBlockWrite {
        /// Kernel parameter holding the target array's device pointer.
        param_idx: u16,
    },
    /// Prepend an *unprotected* write to `param[param_idx] + offset` —
    /// racy against accesses other threads make to the same word under
    /// locks (the paper's "dummy memory accesses inside and outside the
    /// critical sections").
    UnprotectedWrite {
        /// Kernel parameter holding the lock-protected array's pointer.
        param_idx: u16,
        /// Byte offset of the targeted word.
        offset: u32,
    },
    /// Prepend a write to `param[data_param_idx] + data_offset` performed
    /// inside a critical section guarded by the *wrong* lock:
    /// `param[lock_param_idx] + lock_offset + alias_offset`. With
    /// `alias_offset` a multiple of 16 the wrong lock's Bloom signature is
    /// identical to the victim lock's under an 8-bit/2-bin atomic ID, so
    /// the resulting lockset race is invisible to that signature (a pure
    /// aliasing miss) while wider signatures — or the exact lookup-table
    /// lockset — still catch it. The detector's health counters attribute
    /// the miss (`bloom_suppressed_conflicts`).
    LockedWrite {
        /// Kernel parameter holding the lock array's pointer.
        lock_param_idx: u16,
        /// Byte offset of the victim's lock word in the lock array.
        lock_offset: u32,
        /// Byte distance from the victim's lock to the injected lock.
        alias_offset: u32,
        /// Kernel parameter holding the protected data array's pointer.
        data_param_idx: u16,
        /// Byte offset of the targeted data word.
        data_offset: u32,
    },
}

/// Number of static sites available for an injection kind.
pub fn barrier_sites(k: &Kernel) -> usize {
    k.instrs.iter().filter(|i| matches!(i.op, Op::Bar)).count()
}

/// Number of static `membar` sites.
pub fn fence_sites(k: &Kernel) -> usize {
    k.instrs.iter().filter(|i| matches!(i.op, Op::Membar)).count()
}

fn nopify(k: &mut Kernel, pc: usize) {
    let next = pc as u32 + 1;
    k.instrs[pc].op = Op::Bra { pred: None, target: next, reconv: next };
}

fn drop_matching(k: &mut Kernel, nth: Option<usize>, is_bar: bool) -> usize {
    let mut seen = 0;
    let mut dropped = 0;
    for pc in 0..k.instrs.len() {
        let hit = matches!((is_bar, &k.instrs[pc].op), (true, Op::Bar) | (false, Op::Membar));
        if !hit {
            continue;
        }
        let take = match nth {
            Some(n) => seen == n,
            None => true,
        };
        if take {
            nopify(k, pc);
            dropped += 1;
        }
        seen += 1;
    }
    dropped
}

/// Prepend `extra` instructions, fixing up all branch targets.
fn prepend(k: &mut Kernel, extra: Vec<Instr>) {
    let shift = extra.len() as u32;
    for i in &mut k.instrs {
        if let Op::Bra { target, reconv, .. } = &mut i.op {
            *target += shift;
            *reconv += shift;
        }
    }
    let mut instrs = extra;
    instrs.append(&mut k.instrs);
    k.instrs = instrs;
}

/// Apply an injection, returning the mutated kernel and how many faults
/// were actually planted (0 if the site does not exist).
pub fn apply(kernel: &Kernel, inj: Injection) -> (Kernel, usize) {
    let mut k = kernel.clone();
    let planted = match inj {
        Injection::DropBarrier(n) => drop_matching(&mut k, Some(n), true),
        Injection::DropAllBarriers => drop_matching(&mut k, None, true),
        Injection::DropFence(n) => drop_matching(&mut k, Some(n), false),
        Injection::DropAllFences => drop_matching(&mut k, None, false),
        Injection::CrossBlockWrite { param_idx } => {
            let base = Reg(k.num_regs);
            let tid = Reg(k.num_regs + 1);
            let off = Reg(k.num_regs + 2);
            let addr = Reg(k.num_regs + 3);
            k.num_regs += 4;
            let line = 900_000; // distinct source tag for injected code
            let seq = vec![
                Instr { op: Op::LdParam { d: base, idx: param_idx }, line },
                Instr { op: Op::Sreg { d: tid, r: SpecialReg::Tid }, line },
                Instr {
                    op: Op::Bin { op: gpu_sim::isa::BinOp::Shl, d: off, a: tid.into(), b: 2u32.into() },
                    line,
                },
                Instr {
                    op: Op::Bin { op: gpu_sim::isa::BinOp::Add, d: addr, a: base.into(), b: off.into() },
                    line,
                },
                Instr { op: Op::St { space: Space::Global, addr, imm: 0, src: tid.into(), size: 4 }, line },
            ];
            prepend(&mut k, seq);
            1
        }
        Injection::UnprotectedWrite { param_idx, offset } => {
            let base = Reg(k.num_regs);
            k.num_regs += 1;
            let line = 910_000;
            let seq = vec![
                Instr { op: Op::LdParam { d: base, idx: param_idx }, line },
                Instr {
                    op: Op::St { space: Space::Global, addr: base, imm: offset, src: 1u32.into(), size: 4 },
                    line,
                },
            ];
            prepend(&mut k, seq);
            1
        }
        Injection::LockedWrite {
            lock_param_idx,
            lock_offset,
            alias_offset,
            data_param_idx,
            data_offset,
        } => {
            let lockbase = Reg(k.num_regs);
            let lock = Reg(k.num_regs + 1);
            let data = Reg(k.num_regs + 2);
            let tid = Reg(k.num_regs + 3);
            let p = Reg(k.num_regs + 4);
            k.num_regs += 5;
            let line = 920_000;
            // Only thread 0 of each block performs the write: a warp-wide
            // same-address store would additionally raise an intra-warp
            // WAW, muddying what is meant to be a *pure* lockset plant.
            // The skip branch targets the first original instruction
            // (index `seq.len()` after the prepend).
            let end = 9;
            let seq = vec![
                Instr { op: Op::Sreg { d: tid, r: SpecialReg::Tid }, line },
                Instr {
                    op: Op::SetP { cmp: gpu_sim::isa::CmpOp::Ne, d: p, a: tid.into(), b: 0u32.into() },
                    line,
                },
                Instr { op: Op::Bra { pred: Some((p, true)), target: end, reconv: end }, line },
                Instr { op: Op::LdParam { d: lockbase, idx: lock_param_idx }, line },
                Instr {
                    op: Op::Bin {
                        op: gpu_sim::isa::BinOp::Add,
                        d: lock,
                        a: lockbase.into(),
                        b: (lock_offset + alias_offset).into(),
                    },
                    line,
                },
                Instr { op: Op::CsBegin { lock }, line },
                Instr { op: Op::LdParam { d: data, idx: data_param_idx }, line },
                Instr {
                    op: Op::St { space: Space::Global, addr: data, imm: data_offset, src: 1u32.into(), size: 4 },
                    line,
                },
                Instr { op: Op::CsEnd, line },
            ];
            debug_assert_eq!(seq.len() as u32, end);
            prepend(&mut k, seq);
            1
        }
    };
    k.validate().expect("injected kernel still valid");
    (k, planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    fn kernel_with_barrier() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let t = b.tid();
        let p = b.setp(CmpOp::LtU, t, 16u32);
        b.if_then(p, |b| {
            b.mov(1u32);
        });
        b.bar();
        b.membar();
        b.bar();
        b.build()
    }

    #[test]
    fn site_counting() {
        let k = kernel_with_barrier();
        assert_eq!(barrier_sites(&k), 2);
        assert_eq!(fence_sites(&k), 1);
    }

    #[test]
    fn drop_barrier_nopifies_only_the_requested_site() {
        let k = kernel_with_barrier();
        let (k2, n) = apply(&k, Injection::DropBarrier(1));
        assert_eq!(n, 1);
        assert_eq!(barrier_sites(&k2), 1);
        assert_eq!(k2.instrs.len(), k.instrs.len(), "no PC shift");
        let (k3, n3) = apply(&k, Injection::DropAllBarriers);
        assert_eq!(n3, 2);
        assert_eq!(barrier_sites(&k3), 0);
    }

    #[test]
    fn drop_missing_site_plants_nothing() {
        let k = kernel_with_barrier();
        let (_, n) = apply(&k, Injection::DropBarrier(7));
        assert_eq!(n, 0);
        let (_, nf) = apply(&k, Injection::DropFence(3));
        assert_eq!(nf, 0);
    }

    #[test]
    fn prepend_fixes_branch_targets() {
        let k = kernel_with_barrier();
        let (k2, _) = apply(&k, Injection::CrossBlockWrite { param_idx: 0 });
        assert_eq!(k2.instrs.len(), k.instrs.len() + 5);
        assert!(k2.validate().is_ok());
        // The original conditional branch moved by 5 and still jumps
        // forward to its (shifted) join.
        let orig = k
            .instrs
            .iter()
            .find_map(|i| match i.op {
                Op::Bra { pred: Some(_), target, .. } => Some(target),
                _ => None,
            })
            .unwrap();
        let shifted = k2
            .instrs
            .iter()
            .find_map(|i| match i.op {
                Op::Bra { pred: Some(_), target, .. } => Some(target),
                _ => None,
            })
            .unwrap();
        assert_eq!(shifted, orig + 5);
    }

    #[test]
    fn injected_kernels_still_execute() {
        let k = kernel_with_barrier();
        let (k2, _) = apply(&k, Injection::DropAllBarriers);
        let mut gpu = Gpu::new(GpuConfig::test_small());
        gpu.launch(&k2, 1, 32, &[]).unwrap();
    }

    /// Victim kernel: every thread read-modify-writes `data[0]` under the
    /// lock at `locks[0]`. Correctly synchronized on its own.
    fn locked_victim() -> Kernel {
        let mut b = KernelBuilder::new("locked_victim");
        let datap = b.param(0);
        let lockp = b.param(1);
        b.cs_begin(lockp);
        let v = b.ld(Space::Global, datap, 0, 4);
        let v1 = b.add(v, 1u32);
        b.st(Space::Global, datap, 0, v1, 4);
        b.cs_end();
        b.build()
    }

    fn run_locked_write(bits: u8, exact: bool) -> gpu_sim::LaunchResult {
        let (k, n) = apply(
            &locked_victim(),
            Injection::LockedWrite {
                lock_param_idx: 1,
                lock_offset: 0,
                alias_offset: 16,
                data_param_idx: 0,
                data_offset: 0,
            },
        );
        assert_eq!(n, 1);
        let mut cfg = haccrg::config::DetectorConfig::paper_default();
        cfg.bloom = haccrg::bloom::BloomConfig { bits, bins: 2 };
        cfg.exact_lockset = exact;
        let mut gpu = Gpu::with_detector(GpuConfig::test_small(), cfg);
        let data = gpu.alloc(256);
        let locks = gpu.alloc(256);
        gpu.launch(&k, 2, 32, &[data, locks]).unwrap()
    }

    fn cs_races(res: &gpu_sim::LaunchResult) -> usize {
        res.races
            .records()
            .iter()
            .filter(|r| r.category == haccrg::prelude::RaceCategory::CriticalSection)
            .count()
    }

    #[test]
    fn locked_write_alias_miss_is_attributed_not_detected() {
        // 8-bit/2-bin signature: the wrong lock 16 bytes away aliases the
        // victim's, so the lockset race is missed — but the suppressed
        // conflict is counted in the health block.
        let res = run_locked_write(8, false);
        assert_eq!(cs_races(&res), 0, "{:?}", res.races.records());
        assert!(
            res.stats.health.bloom_suppressed_conflicts > 0,
            "miss must be attributed to Bloom aliasing"
        );
    }

    #[test]
    fn locked_write_is_caught_by_exact_lockset() {
        let res = run_locked_write(8, true);
        assert!(cs_races(&res) > 0, "exact lockset sees disjoint lock tables");
        assert!(res.stats.health.bloom_suppressed_conflicts > 0);
    }

    #[test]
    fn locked_write_is_caught_by_a_wider_signature() {
        // 16-bit/2-bin: the two locks map to different bits, so even the
        // Bloom signature separates them.
        let res = run_locked_write(16, false);
        assert!(cs_races(&res) > 0, "{:?}", res.races.records());
    }

    #[test]
    fn cross_block_write_creates_cross_block_races() {
        // A trivial kernel that only has the injected write: two blocks
        // write the same words.
        let mut b = KernelBuilder::new("noop");
        b.mov(0u32);
        let k = b.build();
        let (k2, _) = apply(&k, Injection::CrossBlockWrite { param_idx: 0 });
        let mut gpu = Gpu::with_detector(
            GpuConfig::test_small(),
            haccrg::config::DetectorConfig::paper_default(),
        );
        let arr = gpu.alloc(4096);
        let res = gpu.launch(&k2, 2, 32, &[arr]).unwrap();
        assert!(res.races.any(), "cross-block WAW expected");
        assert!(res.races.records().iter().any(|r| r.prev.block != r.cur.block));
    }
}
