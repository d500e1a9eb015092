//! HAccRG-SW — the paper's *software implementation* of the HAccRG
//! algorithm (§VI-B compares it against the hardware on SCAN, HIST and
//! KMEANS: 6.6×, 12.4× and 18.1× slowdowns respectively).
//!
//! Without RDU hardware, every tracked memory access must maintain the
//! shadow entry in software: compute the shadow address, load the packed
//! shadow word from global memory, run the state-machine comparison in
//! ALU instructions, and store the updated word back. Shared-memory
//! accesses pay the same price — their shadow entries can only live in
//! global memory — which is why shared-heavy kernels suffer the most.
//!
//! The instrumented kernel carries the real memory traffic of that
//! sequence (the loads/stores hit the actual shadow region through the
//! full cache hierarchy); the per-access ALU work is emitted as real
//! instructions whose results feed the shadow store, so nothing can be
//! dead-code-eliminated away. The SW baseline is measured for cost only:
//! its algorithm is the hardware's, so its reports would equal a HAccRG
//! run's, and no run computes them separately (a documented modeling
//! choice).

use gpu_sim::isa::{BinOp, Instr, Kernel, Op, Reg, Space, Src};

use crate::instrument::{instrument, InstrumentCtx};

/// Source-line tag for inserted instructions.
pub const SW_LINE_TAG: u32 = 800_000;

/// Configuration of the software shadow.
#[derive(Clone, Copy, Debug)]
pub struct SwConfig {
    /// Device address of the software shadow region for global data.
    pub shadow_base: u32,
    /// Base of the tracked region (the heap).
    pub heap_base: u32,
    /// log2 of the tracking granularity in bytes.
    pub gran_shift: u32,
    /// Also instrument shared-memory accesses (the paper's SW baseline
    /// does; their shadow lives in global memory too).
    pub cover_shared: bool,
    /// Device address of the per-block shared-memory shadow region.
    pub shared_shadow_base: u32,
    /// Shadow words per block (`shared_bytes >> gran_shift`).
    pub shared_chunks_per_block: u32,
}

impl SwConfig {
    /// Bytes of shadow needed for `tracked_bytes` of heap (8-byte packed
    /// words, one per chunk).
    pub fn shadow_bytes(&self, tracked_bytes: u32) -> u32 {
        (tracked_bytes >> self.gran_shift).saturating_add(1) * 8
    }

    /// Bytes of shared-shadow needed for a `grid`-block launch.
    pub fn shared_shadow_bytes(&self, grid: u32) -> u32 {
        grid.saturating_mul(self.shared_chunks_per_block).saturating_add(1) * 8
    }
}

/// The per-access check sequence:
///
/// ```text
/// a      = addr_reg + imm                  ; effective address
/// idx    = (a - heap_base) >> gran_shift   ; chunk index
/// sa     = shadow_base + idx * 8           ; shadow word address
/// w      = ld.global [sa]                  ; fetch shadow word
/// …state-machine compare/update (ALU)…
/// st.global [sa] = w'                      ; write back
/// ```
fn emit_check(
    ctx: &mut InstrumentCtx,
    cfg: &SwConfig,
    space: Space,
    addr_reg: Reg,
    imm: u32,
    scratch: &Scratch,
) {
    let Scratch { my_id, ctaid, a, idx, sa, w, t } = *scratch;

    ctx.emit(Op::Bin { op: BinOp::Add, d: a, a: addr_reg.into(), b: Src::Imm(imm) });
    match space {
        Space::Global => {
            ctx.emit(Op::Bin { op: BinOp::Sub, d: idx, a: a.into(), b: Src::Imm(cfg.heap_base) });
            ctx.emit(Op::Bin { op: BinOp::Shr, d: idx, a: idx.into(), b: Src::Imm(cfg.gran_shift) });
            ctx.emit(Op::Bin { op: BinOp::Shl, d: sa, a: idx.into(), b: Src::Imm(3) });
            ctx.emit(Op::Bin { op: BinOp::Add, d: sa, a: sa.into(), b: Src::Imm(cfg.shadow_base) });
        }
        Space::Shared => {
            // Shared offsets shadow per block:
            // slot = ctaid · chunks_per_block + (offset >> gran_shift).
            ctx.emit(Op::Bin { op: BinOp::Shr, d: idx, a: a.into(), b: Src::Imm(cfg.gran_shift) });
            ctx.emit(Op::Mad {
                d: idx,
                a: ctaid.into(),
                b: Src::Imm(cfg.shared_chunks_per_block),
                c: idx.into(),
            });
            ctx.emit(Op::Bin { op: BinOp::Shl, d: sa, a: idx.into(), b: Src::Imm(3) });
            ctx.emit(Op::Bin { op: BinOp::Add, d: sa, a: sa.into(), b: Src::Imm(cfg.shared_shadow_base) });
        }
    }
    ctx.emit(Op::Ld { space: Space::Global, d: w, addr: sa, imm: 0, size: 4 });
    // State-machine work: extract tid field, compare with self, merge
    // modified/shared bits — six dependent ALU ops, as in the paper's
    // software sequence.
    ctx.emit(Op::Bin { op: BinOp::And, d: t, a: w.into(), b: Src::Imm(0x3FF) });
    ctx.emit(Op::Bin { op: BinOp::Xor, d: t, a: t.into(), b: my_id.into() });
    ctx.emit(Op::Bin { op: BinOp::Min, d: t, a: t.into(), b: Src::Imm(1) });
    ctx.emit(Op::Bin { op: BinOp::Shl, d: t, a: t.into(), b: Src::Imm(10) });
    ctx.emit(Op::Bin { op: BinOp::Or, d: w, a: w.into(), b: t.into() });
    ctx.emit(Op::Bin { op: BinOp::Or, d: w, a: w.into(), b: my_id.into() });
    ctx.emit(Op::St { space: Space::Global, addr: sa, imm: 0, src: w.into(), size: 4 });
}

/// Scratch registers shared by every check site (the sequences are
/// straight-line, so one set suffices — exactly what a compiler's
/// register allocator would do).
#[derive(Clone, Copy)]
struct Scratch {
    my_id: Reg,
    ctaid: Reg,
    a: Reg,
    idx: Reg,
    sa: Reg,
    w: Reg,
    t: Reg,
}

/// Instrument every tracked memory access of `k` with the software
/// shadow-maintenance sequence.
pub fn instrument_sw(k: &Kernel, cfg: SwConfig) -> Kernel {
    let mut scratch: Option<Scratch> = None;
    instrument(k, SW_LINE_TAG, |ins, ctx| {
        let covered = match ins.op {
            Op::Ld { space, .. } | Op::St { space, .. } => match space {
                Space::Global => true,
                Space::Shared => cfg.cover_shared,
            },
            _ => false,
        };
        if !covered {
            return;
        }
        // Materialize the scratch set + thread/block IDs at the first
        // covered site only.
        let sc = *scratch.get_or_insert_with(|| {
            let sc = Scratch {
                my_id: ctx.reg(),
                ctaid: ctx.reg(),
                a: ctx.reg(),
                idx: ctx.reg(),
                sa: ctx.reg(),
                w: ctx.reg(),
                t: ctx.reg(),
            };
            ctx.emit(Op::Sreg { d: sc.my_id, r: gpu_sim::isa::SpecialReg::Tid });
            ctx.emit(Op::Sreg { d: sc.ctaid, r: gpu_sim::isa::SpecialReg::Ctaid });
            sc
        });
        if let Op::Ld { space, addr, imm, .. } | Op::St { space, addr, imm, .. } = ins.op {
            emit_check(ctx, &cfg, space, addr, imm, &sc);
        }
    })
}

/// Static count of instrumented access sites (for reporting).
pub fn tracked_sites(k: &Kernel, cover_shared: bool) -> usize {
    k.instrs
        .iter()
        .filter(|i| match i.op {
            Op::Ld { space, .. } | Op::St { space, .. } => {
                space == Space::Global || (cover_shared && space == Space::Shared)
            }
            _ => false,
        })
        .count()
}

/// The inserted instructions per instrumented access (for the §VI-B
/// space/overhead discussion).
pub fn check_sequence_len() -> usize {
    13
}

/// Keep a handle on `Instr` so the module's doc example types resolve.
#[doc(hidden)]
pub type _Instr = Instr;

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::builder::KernelBuilder;
    use gpu_sim::isa::CmpOp;
    use gpu_sim::prelude::*;

    fn vec_kernel() -> Kernel {
        let mut b = KernelBuilder::new("v");
        let inp = b.param(0);
        let outp = b.param(1);
        let t = b.global_tid();
        let off = b.shl(t, 2u32);
        let sa = b.add(inp, off);
        let v = b.ld(Space::Global, sa, 0, 4);
        let v2 = b.add(v, 5u32);
        let da = b.add(outp, off);
        b.st(Space::Global, da, 0, v2, 4);
        b.build()
    }

    fn cfg(shadow_base: u32) -> SwConfig {
        SwConfig {
            shadow_base,
            heap_base: 0x1000,
            gran_shift: 2,
            cover_shared: true,
            shared_shadow_base: shadow_base + 0x8_0000,
            shared_chunks_per_block: 4096,
        }
    }

    #[test]
    fn instrumentation_adds_checks_per_site() {
        let k = vec_kernel();
        let k2 = instrument_sw(&k, cfg(0x10_0000));
        let sites = tracked_sites(&k, true);
        assert_eq!(sites, 2);
        // +2 for the lazily materialized thread and block IDs.
        assert_eq!(k2.instrs.len(), k.instrs.len() + sites * check_sequence_len() + 2);
        // Scratch registers are shared across sites: a small constant.
        assert!(k2.num_regs <= k.num_regs + 7, "{} vs {}", k2.num_regs, k.num_regs);
    }

    #[test]
    fn instrumented_kernel_still_computes_correctly() {
        let k = vec_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_small());
        let inp = gpu.alloc(64 * 4);
        let outp = gpu.alloc(64 * 4);
        let shadow = gpu.alloc(64 * 1024);
        gpu.mem.copy_from_host_u32(inp, &(0..64).collect::<Vec<_>>());
        let k2 = instrument_sw(&k, cfg(shadow));
        gpu.launch(&k2, 2, 32, &[inp, outp]).unwrap();
        assert_eq!(gpu.mem.copy_to_host_u32(outp, 64), (5..69).collect::<Vec<u32>>());
    }

    #[test]
    fn software_checks_cost_real_memory_traffic() {
        let k = vec_kernel();
        let run = |instrumented: bool| {
            let mut gpu = Gpu::new(GpuConfig::test_small());
            let inp = gpu.alloc(1024 * 4);
            let outp = gpu.alloc(1024 * 4);
            let shadow = gpu.alloc(1024 * 1024);
            let kernel = if instrumented { instrument_sw(&k, cfg(shadow)) } else { k.clone() };
            gpu.launch(&kernel, 16, 64, &[inp, outp]).unwrap().stats
        };
        let base = run(false);
        let sw = run(true);
        // Every original access gained a shadow load + shadow store.
        assert!(sw.global_loads >= base.global_loads * 2);
        assert!(sw.global_stores >= base.global_stores * 2);
        assert!(sw.cycles > base.cycles, "software checks must slow the kernel");
    }

    #[test]
    fn shared_coverage_is_optional() {
        let mut b = KernelBuilder::new("s");
        let sh = b.shared_alloc(128);
        let t = b.tid();
        let p = b.setp(CmpOp::LtU, t, 32u32);
        let _ = p;
        let o = b.shl(t, 2u32);
        let a = b.add(o, sh);
        b.st(Space::Shared, a, 0, t, 4);
        let k = b.build();
        let with = instrument_sw(&k, cfg(0x10_0000));
        let without = instrument_sw(&k, SwConfig { cover_shared: false, ..cfg(0x10_0000) });
        assert!(with.instrs.len() > without.instrs.len());
        assert_eq!(without.instrs.len(), k.instrs.len(), "no global accesses to cover");
    }
}
