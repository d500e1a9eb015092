//! Vectorized warp-lane engine over the SoA register file.
//!
//! The CTA register file is laid out structure-of-arrays: register `r`
//! of the 32 lanes of warp `w` occupies the contiguous slice
//! `regs[r * lane_slots + w * LANES ..][..LANES]`. Every interpreter
//! step therefore becomes a fixed-width array kernel: fetch whole
//! operand rows, compute all [`LANES`] lanes unconditionally (lane ALUs
//! are pure, so inactive-lane results are simply discarded), and
//! predicate only the writeback on the SIMT active mask. This mirrors
//! how a real SM executes a warp — and lets the compiler autovectorize
//! loops that were previously per-lane gathers with bounds checks and
//! a branch per lane.
//!
//! The op `match` runs once per instruction, not once per lane: each
//! arm of [`WarpLanes::bin`], [`WarpLanes::setp`] and [`WarpLanes::un`]
//! calls [`eval_bin`] & co. on a constant op, so the lane loop inlines to
//! one operation and the evaluation functions stay the only definitions
//! of the ALU semantics. Writeback copies a full-mask row outright and
//! otherwise selects per lane without a branch.
//!
//! Bit-identity: active lanes read exactly the values the scalar
//! interpreter read (lane slots never alias across lanes), inactive
//! lanes keep their values, and the per-lane evaluation functions are
//! shared with the scalar paths.

use crate::exec::{eval_bin, eval_cmp, eval_un};
use crate::isa::{BinOp, CmpOp, Reg, Src, UnOp};

/// Fixed lane width of the SoA register file. Warps narrower than this
/// (sub-warp blocks, `warp_size < 32` configs) pad their row; the SIMT
/// mask never has bits set past `warp_size`, so padding lanes are dead.
pub const LANES: usize = 32;

/// `match $op` with one arm per listed variant of `$Enum`, each binding
/// the variant to the constant `$k` before evaluating `$body`: the body's
/// lane loop sees a constant op and inlines to one operation. The match
/// is exhaustive, so a new variant fails to compile until listed here.
macro_rules! per_op {
    ($op:expr, $Enum:ident { $($V:ident),+ $(,)? }, $k:ident => $body:expr) => {
        match $op {
            $($Enum::$V => {
                const $k: $Enum = $Enum::$V;
                $body
            })+
        }
    };
}

/// Offset of register `r`'s row for the warp based at `warp_base`.
#[inline]
fn row(lane_slots: usize, warp_base: usize, r: Reg) -> usize {
    usize::from(r.0) * lane_slots + warp_base
}

/// Read one register row (32 lanes) out of the SoA file.
#[inline]
pub fn read_reg(regs: &[u32], lane_slots: usize, warp_base: usize, r: Reg) -> [u32; LANES] {
    let o = row(lane_slots, warp_base, r);
    let mut out = [0u32; LANES];
    out.copy_from_slice(&regs[o..o + LANES]);
    out
}

/// Read an operand row: immediates broadcast, registers gather.
#[inline]
pub fn read_operand(regs: &[u32], lane_slots: usize, warp_base: usize, s: Src) -> [u32; LANES] {
    match s {
        Src::Imm(v) => [v; LANES],
        Src::Reg(r) => read_reg(regs, lane_slots, warp_base, r),
    }
}

/// Address generation `addr_reg + imm` over a shared borrow of the
/// file (the MSHR pre-check runs before any mutable access exists).
#[inline]
pub fn addr_gen(
    regs: &[u32],
    lane_slots: usize,
    warp_base: usize,
    addr_reg: Reg,
    imm: u32,
) -> [u32; LANES] {
    let base = read_reg(regs, lane_slots, warp_base, addr_reg);
    let mut out = [0u32; LANES];
    for l in 0..LANES {
        out[l] = base[l].wrapping_add(imm);
    }
    out
}

/// One warp's mutable window into the SoA register file.
///
/// Construct once per instruction; all kernels below go through it so
/// the operand-fetch prologue lives in exactly one place.
pub struct WarpLanes<'a> {
    regs: &'a mut [u32],
    lane_slots: usize,
    warp_base: usize,
}

impl<'a> WarpLanes<'a> {
    /// Window onto warp `warp_in_block` of a CTA register file.
    pub fn new(regs: &'a mut [u32], lane_slots: usize, warp_in_block: u32) -> Self {
        let warp_base = warp_in_block as usize * LANES;
        debug_assert!(warp_base + LANES <= lane_slots);
        Self { regs, lane_slots, warp_base }
    }

    /// Fetch one register row.
    #[inline]
    pub fn reg(&self, r: Reg) -> [u32; LANES] {
        read_reg(self.regs, self.lane_slots, self.warp_base, r)
    }

    /// Fetch one operand row (immediate broadcast or register).
    #[inline]
    pub fn operand(&self, s: Src) -> [u32; LANES] {
        read_operand(self.regs, self.lane_slots, self.warp_base, s)
    }

    /// Read a single lane of a register (scalar escape hatch for the
    /// memory pipeline's per-lane functional loops).
    #[inline]
    pub fn lane(&self, r: Reg, l: usize) -> u32 {
        self.regs[row(self.lane_slots, self.warp_base, r) + l]
    }

    /// Write a single lane of a register.
    #[inline]
    pub fn set_lane(&mut self, r: Reg, l: usize, v: u32) {
        self.regs[row(self.lane_slots, self.warp_base, r) + l] = v;
    }

    /// Mask-predicated writeback of a computed row: a full mask copies
    /// the row, any other mask selects lane by lane without a branch.
    #[inline]
    pub fn write_masked(&mut self, d: Reg, mask: u32, vals: &[u32; LANES]) {
        let o = row(self.lane_slots, self.warp_base, d);
        let dst = &mut self.regs[o..o + LANES];
        if mask == u32::MAX {
            dst.copy_from_slice(vals);
            return;
        }
        for l in 0..LANES {
            let keep = ((mask >> l) & 1).wrapping_neg();
            dst[l] = (vals[l] & keep) | (dst[l] & !keep);
        }
    }

    /// `d = op(a, b)` across the warp.
    pub fn bin(&mut self, op: BinOp, d: Reg, a: Src, b: Src, mask: u32) {
        let va = self.operand(a);
        let vb = self.operand(b);
        let out = per_op!(
            op,
            BinOp {
                Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr,
                FAdd, FSub, FMul, FDiv, FMin, FMax,
            },
            OP => std::array::from_fn(|l| eval_bin(OP, va[l], vb[l]))
        );
        self.write_masked(d, mask, &out);
    }

    /// `d = op(a)` across the warp.
    pub fn un(&mut self, op: UnOp, d: Reg, a: Src, mask: u32) {
        let va = self.operand(a);
        let out = per_op!(
            op,
            UnOp { Mov, Not, FNeg, FAbs, FSqrt, FExp, FLog, FSin, FCos, I2F, F2I },
            OP => va.map(|x| eval_un(OP, x))
        );
        self.write_masked(d, mask, &out);
    }

    /// Integer multiply-add `d = a * b + c` across the warp.
    pub fn mad(&mut self, d: Reg, a: Src, b: Src, c: Src, mask: u32) {
        let va = self.operand(a);
        let vb = self.operand(b);
        let vc = self.operand(c);
        let mut out = [0u32; LANES];
        for l in 0..LANES {
            out[l] = va[l].wrapping_mul(vb[l]).wrapping_add(vc[l]);
        }
        self.write_masked(d, mask, &out);
    }

    /// Float fused form `d = a * b + c` across the warp (bit-pattern
    /// lanes, same rounding as the scalar interpreter: mul then add).
    pub fn fmad(&mut self, d: Reg, a: Src, b: Src, c: Src, mask: u32) {
        let va = self.operand(a);
        let vb = self.operand(b);
        let vc = self.operand(c);
        let mut out = [0u32; LANES];
        for l in 0..LANES {
            let (fa, fb, fc) =
                (f32::from_bits(va[l]), f32::from_bits(vb[l]), f32::from_bits(vc[l]));
            out[l] = (fa * fb + fc).to_bits();
        }
        self.write_masked(d, mask, &out);
    }

    /// Predicate-set `d = cmp(a, b)` across the warp.
    pub fn setp(&mut self, cmp: CmpOp, d: Reg, a: Src, b: Src, mask: u32) {
        let va = self.operand(a);
        let vb = self.operand(b);
        let out = per_op!(
            cmp,
            CmpOp { Eq, Ne, LtU, LeU, GtU, GeU, LtS, LeS, GtS, GeS, FLt, FLe, FGt, FGe },
            OP => std::array::from_fn(|l| u32::from(eval_cmp(OP, va[l], vb[l])))
        );
        self.write_masked(d, mask, &out);
    }

    /// Select `d = c != 0 ? a : b` across the warp.
    pub fn sel(&mut self, d: Reg, c: Reg, a: Src, b: Src, mask: u32) {
        let vc = self.reg(c);
        let va = self.operand(a);
        let vb = self.operand(b);
        let mut out = [0u32; LANES];
        for l in 0..LANES {
            out[l] = if vc[l] != 0 { va[l] } else { vb[l] };
        }
        self.write_masked(d, mask, &out);
    }

    /// Branch vote: lanes (within `mask`) whose predicate truth equals
    /// `sense`, as a taken-mask.
    pub fn vote(&self, r: Reg, sense: bool, mask: u32) -> u32 {
        let v = self.reg(r);
        let mut taken = 0u32;
        for (l, &x) in v.iter().enumerate() {
            taken |= u32::from((x != 0) == sense) << l;
        }
        taken & mask
    }

    /// Address generation: `addr_reg + imm` across the warp.
    #[inline]
    pub fn addr_gen(&self, addr_reg: Reg, imm: u32) -> [u32; LANES] {
        addr_gen(self.regs, self.lane_slots, self.warp_base, addr_reg, imm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(lane_slots: usize, nregs: usize) -> Vec<u32> {
        // Deterministic non-trivial fill.
        (0..lane_slots * nregs).map(|i| (i as u32).wrapping_mul(0x9E37_79B9)).collect()
    }

    const BIN_OPS: [BinOp; 18] = [
        BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem, BinOp::Min,
        BinOp::Max, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Shl, BinOp::Shr,
        BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv, BinOp::FMin, BinOp::FMax,
    ];
    const CMP_OPS: [CmpOp; 14] = [
        CmpOp::Eq, CmpOp::Ne, CmpOp::LtU, CmpOp::LeU, CmpOp::GtU, CmpOp::GeU, CmpOp::LtS,
        CmpOp::LeS, CmpOp::GtS, CmpOp::GeS, CmpOp::FLt, CmpOp::FLe, CmpOp::FGt, CmpOp::FGe,
    ];
    const UN_OPS: [UnOp; 11] = [
        UnOp::Mov, UnOp::Not, UnOp::FNeg, UnOp::FAbs, UnOp::FSqrt, UnOp::FExp, UnOp::FLog,
        UnOp::FSin, UnOp::FCos, UnOp::I2F, UnOp::F2I,
    ];

    /// Operands every kernel must get right lane for lane: zero (a
    /// divisor), extreme integers, shift counts of 32 and more, and the
    /// special floats, NaNs with distinct payloads among them.
    const EDGES: [u32; 16] = [
        0,               // also +0.0
        1,
        u32::MAX,        // also a negative quiet NaN
        i32::MIN as u32, // also -0.0
        i32::MAX as u32, // also a quiet NaN
        31,
        32,
        33,
        100,
        0x7FC0_0000, // quiet NaN
        0x7F9A_3C08, // signalling NaN
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x3FC0_0000, // 1.5
        0xC000_0000, // -2.0
        0x4F00_0000, // 2^31: F2I saturates
    ];

    /// Two warps' rows: `d` (register 0) a non-trivial fill, so a lane
    /// written by mistake shows; `a`, `b`, `c` (registers 1-3) edge
    /// operands, `b` rotated by `rot` so that over all rotations every
    /// (a, b) pair of [`EDGES`] meets in some lane.
    fn edge_file(lane_slots: usize, rot: usize) -> Vec<u32> {
        let mut regs = file(lane_slots, 4);
        for l in 0..lane_slots {
            regs[lane_slots + l] = EDGES[l % EDGES.len()];
            regs[2 * lane_slots + l] = EDGES[(l + rot) % EDGES.len()];
            regs[3 * lane_slots + l] = EDGES[(3 * l + rot) % EDGES.len()];
        }
        regs
    }

    /// Every kernel must equal the scalar interpreter loop it replaced:
    /// every `BinOp`, `CmpOp` (through `setp`) and `UnOp`, plus `mad`,
    /// `fmad` and `sel`, on edge operands under five masks, with `a` a
    /// register or an immediate.
    #[test]
    fn kernels_match_scalar_reference() {
        let lane_slots = 2 * LANES; // two warps
        let (d, a, b, c) = (Reg(0), Reg(1), Reg(2), Reg(3));
        let masks = [0u32, 1, 0xAAAA_AAAA, 0xFFFF_FFFF, 0x0000_FFFF];
        for (rot, &imm) in EDGES.iter().enumerate() {
            let regs = edge_file(lane_slots, rot);
            for warp in 0..2u32 {
                let at =
                    |r: Reg, l: usize| usize::from(r.0) * lane_slots + warp as usize * LANES + l;
                for mask in masks {
                    for sa in [Src::Reg(a), Src::Imm(imm)] {
                        let rd = |s: Src, l: usize| match s {
                            Src::Imm(v) => v,
                            Src::Reg(r) => regs[at(r, l)],
                        };
                        let f = |s: Src, l: usize| f32::from_bits(rd(s, l));
                        let nan = |s: Src, l: usize| f(s, l).is_nan();
                        // Lanes in `mask` of `d` get `lane(l)` bit for
                        // bit; every other slot of the file keeps its
                        // value. The one exception is a float operation
                        // where two NaNs meet (`two_nans(l)`): IEEE 754
                        // lets it return either payload, and the
                        // compiler may commute its operands, so there a
                        // NaN matches any NaN. A single NaN must carry
                        // its payload through.
                        let check = |what: String,
                                     two_nans: &dyn Fn(usize) -> bool,
                                     kernel: &dyn Fn(&mut WarpLanes<'_>),
                                     lane: &dyn Fn(usize) -> u32| {
                            let mut vr = regs.clone();
                            kernel(&mut WarpLanes::new(&mut vr, lane_slots, warp));
                            let mut sr = regs.clone();
                            for l in 0..LANES {
                                if mask & (1 << l) == 0 {
                                    continue;
                                }
                                sr[at(d, l)] = lane(l);
                                let is_nan = |v: u32| f32::from_bits(v).is_nan();
                                if two_nans(l) && is_nan(vr[at(d, l)]) && is_nan(sr[at(d, l)]) {
                                    vr[at(d, l)] = sr[at(d, l)];
                                }
                            }
                            let ctx = format!("warp {warp} mask {mask:#x} rot {rot} a {sa:?}");
                            assert_eq!(vr, sr, "{what} {ctx}");
                        };
                        let exact = |_: usize| false;
                        let (sb, sc) = (Src::Reg(b), Src::Reg(c));
                        for op in BIN_OPS {
                            let float = matches!(
                                op,
                                BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv
                                    | BinOp::FMin | BinOp::FMax
                            );
                            check(
                                format!("bin {op:?}"),
                                &|l| float && nan(sa, l) && nan(sb, l),
                                &|w| w.bin(op, d, sa, sb, mask),
                                &|l| eval_bin(op, rd(sa, l), rd(sb, l)),
                            );
                        }
                        for cmp in CMP_OPS {
                            check(
                                format!("setp {cmp:?}"),
                                &exact,
                                &|w| w.setp(cmp, d, sa, sb, mask),
                                &|l| u32::from(eval_cmp(cmp, rd(sa, l), rd(sb, l))),
                            );
                        }
                        for op in UN_OPS {
                            check(
                                format!("un {op:?}"),
                                &exact,
                                &|w| w.un(op, d, sa, mask),
                                &|l| eval_un(op, rd(sa, l)),
                            );
                        }
                        check("mad".into(), &exact, &|w| w.mad(d, sa, sb, sc, mask), &|l| {
                            rd(sa, l).wrapping_mul(rd(sb, l)).wrapping_add(rd(sc, l))
                        });
                        // Two NaNs meet in the multiply, or the product
                        // is a NaN (carried or made, as by 0 * inf) and
                        // meets a NaN addend.
                        let fmad_two_nans = |l: usize| {
                            (nan(sa, l) && nan(sb, l))
                                || ((f(sa, l) * f(sb, l)).is_nan() && nan(sc, l))
                        };
                        check(
                            "fmad".into(),
                            &fmad_two_nans,
                            &|w| w.fmad(d, sa, sb, sc, mask),
                            &|l| (f(sa, l) * f(sb, l) + f(sc, l)).to_bits(),
                        );
                        check("sel".into(), &exact, &|w| w.sel(d, b, sa, sc, mask), &|l| {
                            if rd(sb, l) != 0 {
                                rd(sa, l)
                            } else {
                                rd(sc, l)
                            }
                        });
                    }
                }
            }
        }
    }

    /// In-place kernels (`d` aliasing a source) read pre-writeback
    /// values, exactly like the scalar loop's per-lane read-then-write.
    #[test]
    fn destination_aliasing_source_is_safe() {
        let lane_slots = LANES;
        let r = Reg(0);
        let mut regs: Vec<u32> = (0..LANES as u32).collect();
        let expect: Vec<u32> = regs.iter().map(|v| v.wrapping_add(*v)).collect();
        WarpLanes::new(&mut regs, lane_slots, 0).bin(
            BinOp::Add,
            r,
            Src::Reg(r),
            Src::Reg(r),
            u32::MAX,
        );
        assert_eq!(regs, expect);
    }

    #[test]
    fn vote_and_addr_gen() {
        let lane_slots = LANES;
        let mut regs: Vec<u32> = (0..LANES as u32).map(|l| l % 3).collect();
        let w = WarpLanes::new(&mut regs, lane_slots, 0);
        let mask = 0x00FF_FFFF;
        let taken = w.vote(Reg(0), true, mask);
        let mut expect = 0u32;
        for l in 0..24 {
            if (l % 3) != 0 {
                expect |= 1 << l;
            }
        }
        assert_eq!(taken, expect);
        assert_eq!(w.vote(Reg(0), false, mask), !expect & mask);
        let addrs = w.addr_gen(Reg(0), 0x100);
        for (l, &a) in addrs.iter().enumerate() {
            assert_eq!(a, (l as u32 % 3).wrapping_add(0x100));
        }
    }
}
