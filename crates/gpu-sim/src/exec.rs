//! Functional (architectural) evaluation of ALU and atomic operations.
//!
//! All values are 32-bit lanes; floats operate on the IEEE-754 bit
//! pattern. Division by zero yields zero (the simulator does not model
//! lane faults), matching the forgiving semantics GPU ALUs expose.

use crate::isa::{AtomOp, BinOp, CmpOp, UnOp};

/// Evaluate a binary ALU operation.
#[inline]
pub fn eval_bin(op: BinOp, a: u32, b: u32) -> u32 {
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b),
        BinOp::Shr => a.wrapping_shr(b),
        BinOp::FAdd => (fa + fb).to_bits(),
        BinOp::FSub => (fa - fb).to_bits(),
        BinOp::FMul => (fa * fb).to_bits(),
        BinOp::FDiv => (fa / fb).to_bits(),
        BinOp::FMin => fa.min(fb).to_bits(),
        BinOp::FMax => fa.max(fb).to_bits(),
    }
}

/// Evaluate a unary ALU operation.
#[inline]
pub fn eval_un(op: UnOp, a: u32) -> u32 {
    let fa = f32::from_bits(a);
    match op {
        UnOp::Mov => a,
        UnOp::Not => !a,
        UnOp::FNeg => (-fa).to_bits(),
        UnOp::FAbs => fa.abs().to_bits(),
        UnOp::FSqrt => fa.sqrt().to_bits(),
        UnOp::FExp => fa.exp().to_bits(),
        UnOp::FLog => fa.ln().to_bits(),
        UnOp::FSin => fa.sin().to_bits(),
        UnOp::FCos => fa.cos().to_bits(),
        UnOp::I2F => (a as i32 as f32).to_bits(),
        UnOp::F2I => (fa as i32) as u32,
    }
}

/// Evaluate a comparison.
#[inline]
pub fn eval_cmp(cmp: CmpOp, a: u32, b: u32) -> bool {
    let (ia, ib) = (a as i32, b as i32);
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::LtU => a < b,
        CmpOp::LeU => a <= b,
        CmpOp::GtU => a > b,
        CmpOp::GeU => a >= b,
        CmpOp::LtS => ia < ib,
        CmpOp::LeS => ia <= ib,
        CmpOp::GtS => ia > ib,
        CmpOp::GeS => ia >= ib,
        CmpOp::FLt => fa < fb,
        CmpOp::FLe => fa <= fb,
        CmpOp::FGt => fa > fb,
        CmpOp::FGe => fa >= fb,
    }
}

/// Evaluate an atomic RMW: given the old memory value, return the new
/// value to store. The destination register receives `old` regardless.
pub fn eval_atom(op: AtomOp, old: u32, src: u32, src2: u32) -> u32 {
    match op {
        AtomOp::Add => old.wrapping_add(src),
        // CUDA atomicInc semantics (Fig. 1 line 8).
        AtomOp::Inc => {
            if old >= src {
                0
            } else {
                old + 1
            }
        }
        AtomOp::Exch => src,
        AtomOp::Cas => {
            if old == src {
                src2
            } else {
                old
            }
        }
        AtomOp::Min => old.min(src),
        AtomOp::Max => old.max(src),
        AtomOp::And => old & src,
        AtomOp::Or => old | src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(eval_bin(BinOp::Add, u32::MAX, 1), 0);
        assert_eq!(eval_bin(BinOp::Sub, 0, 1), u32::MAX);
        assert_eq!(eval_bin(BinOp::Mul, 1 << 31, 2), 0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval_bin(BinOp::Div, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Rem, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Div, 7, 2), 3);
        assert_eq!(eval_bin(BinOp::Rem, 7, 2), 1);
    }

    #[test]
    fn float_ops_round_trip_bits() {
        let a = 2.5f32.to_bits();
        let b = 0.5f32.to_bits();
        assert_eq!(f32::from_bits(eval_bin(BinOp::FAdd, a, b)), 3.0);
        assert_eq!(f32::from_bits(eval_bin(BinOp::FMul, a, b)), 1.25);
        assert_eq!(f32::from_bits(eval_un(UnOp::FSqrt, 4.0f32.to_bits())), 2.0);
        assert_eq!(f32::from_bits(eval_un(UnOp::FNeg, a)), -2.5);
    }

    #[test]
    fn conversions() {
        assert_eq!(f32::from_bits(eval_un(UnOp::I2F, (-3i32) as u32)), -3.0);
        assert_eq!(eval_un(UnOp::F2I, 3.9f32.to_bits()) as i32, 3);
        assert_eq!(eval_un(UnOp::F2I, (-3.9f32).to_bits()) as i32, -3);
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let neg1 = (-1i32) as u32;
        assert!(eval_cmp(CmpOp::LtS, neg1, 0));
        assert!(!eval_cmp(CmpOp::LtU, neg1, 0));
        assert!(eval_cmp(CmpOp::GeU, neg1, 0));
    }

    #[test]
    fn float_compare() {
        let a = 1.0f32.to_bits();
        let b = 2.0f32.to_bits();
        assert!(eval_cmp(CmpOp::FLt, a, b));
        assert!(!eval_cmp(CmpOp::FGe, a, b));
    }

    #[test]
    fn atomic_inc_wraps_at_bound() {
        // old < bound: +1 ; old >= bound: 0 (CUDA atomicInc).
        assert_eq!(eval_atom(AtomOp::Inc, 0, 3, 0), 1);
        assert_eq!(eval_atom(AtomOp::Inc, 2, 3, 0), 3);
        assert_eq!(eval_atom(AtomOp::Inc, 3, 3, 0), 0);
    }

    #[test]
    fn atomic_cas() {
        assert_eq!(eval_atom(AtomOp::Cas, 0, 0, 9), 9);
        assert_eq!(eval_atom(AtomOp::Cas, 1, 0, 9), 1);
    }

    #[test]
    fn atomic_minmax_exch() {
        assert_eq!(eval_atom(AtomOp::Min, 5, 3, 0), 3);
        assert_eq!(eval_atom(AtomOp::Max, 5, 3, 0), 5);
        assert_eq!(eval_atom(AtomOp::Exch, 5, 3, 0), 3);
        assert_eq!(eval_atom(AtomOp::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(eval_atom(AtomOp::Or, 0b1100, 0b1010, 0), 0b1110);
    }
}
