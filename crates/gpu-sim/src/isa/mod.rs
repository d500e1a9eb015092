//! The miniature SIMT instruction set the simulator executes.
//!
//! This is a PTX-flavoured register machine: per-thread 32-bit registers,
//! explicit memory spaces (shared / global / parameter), block-wide
//! barriers (`bar.sync`), memory fences (`membar`), hardware atomics, and
//! structured branches carrying their reconvergence point so the SIMT
//! stack can rejoin divergent lanes at the immediate post-dominator.
//! Kernels are written against [`builder::KernelBuilder`], which emits
//! this IR with all labels resolved.

pub mod builder;

/// A per-thread 32-bit register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u16);

/// An ALU operand: register or 32-bit immediate (floats are passed as
/// their IEEE-754 bit patterns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// A register operand.
    Reg(Reg),
    /// A 32-bit immediate (floats pass their bit pattern).
    Imm(u32),
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Self {
        Src::Reg(r)
    }
}

impl From<u32> for Src {
    fn from(v: u32) -> Self {
        Src::Imm(v)
    }
}

impl From<i32> for Src {
    fn from(v: i32) -> Self {
        Src::Imm(v as u32)
    }
}

impl From<f32> for Src {
    fn from(v: f32) -> Self {
        Src::Imm(v.to_bits())
    }
}

/// Integer/float binary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division (traps on zero divisor → lane fault).
    Div,
    /// Unsigned remainder.
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    /// Logical shift right.
    Shr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
}

/// Unary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Mov,
    Not,
    FNeg,
    FAbs,
    FSqrt,
    FExp,
    FLog,
    FSin,
    FCos,
    /// Signed int → float.
    I2F,
    /// Float → signed int (truncating).
    F2I,
}

/// Comparison predicates for `SetP`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    LtU,
    LeU,
    GtU,
    GeU,
    LtS,
    LeS,
    GtS,
    GeS,
    FLt,
    FLe,
    FGt,
    FGe,
}

/// Hardware atomic read-modify-write operations (§II-A: "GPUs also
/// support atomic operations in hardware").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AtomOp {
    Add,
    /// CUDA `atomicInc`: `old >= bound ? 0 : old + 1` (Fig. 1, line 8).
    Inc,
    Exch,
    /// Compare-and-swap: swaps in `src2` when the old value equals `src`.
    Cas,
    Min,
    Max,
    And,
    Or,
}

/// Special registers readable by `Sreg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecialReg {
    /// Thread index within the block (`threadIdx.x`).
    Tid,
    /// Block index within the grid (`blockIdx.x`).
    Ctaid,
    /// Threads per block (`blockDim.x`).
    Ntid,
    /// Blocks in the grid (`gridDim.x`).
    Nctaid,
    /// Lane index within the warp.
    LaneId,
    /// Warp index within the block.
    WarpId,
}

/// Memory spaces addressable by loads/stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Per-SM on-chip shared memory; addresses are offsets into the
    /// block's shared allocation.
    Shared,
    /// Off-chip device memory; addresses are device pointers.
    Global,
}

/// One instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Op {
    /// `d = a <op> b`
    Bin { op: BinOp, d: Reg, a: Src, b: Src },
    /// `d = <op> a`
    Un { op: UnOp, d: Reg, a: Src },
    /// `d = a * b + c` (integer).
    Mad { d: Reg, a: Src, b: Src, c: Src },
    /// `d = a * b + c` (float).
    FMad { d: Reg, a: Src, b: Src, c: Src },
    /// `d = (a <cmp> b) ? 1 : 0`
    SetP { cmp: CmpOp, d: Reg, a: Src, b: Src },
    /// `d = c != 0 ? a : b`
    Sel { d: Reg, c: Reg, a: Src, b: Src },
    /// Read a special register.
    Sreg { d: Reg, r: SpecialReg },
    /// Load the `idx`-th 32-bit kernel parameter.
    LdParam { d: Reg, idx: u16 },
    /// `d = [space: addr + imm]`, `size` ∈ {1, 2, 4} (zero-extended).
    Ld { space: Space, d: Reg, addr: Reg, imm: u32, size: u8 },
    /// `[space: addr + imm] = src`, `size` ∈ {1, 2, 4} (truncated).
    St { space: Space, addr: Reg, imm: u32, src: Src, size: u8 },
    /// Atomic RMW; `d` receives the old value. `src2` is the CAS swap
    /// value / unused otherwise.
    Atom { space: Space, op: AtomOp, d: Reg, addr: Reg, imm: u32, src: Src, src2: Src },
    /// Block-wide barrier (`__syncthreads`). Must be reached by all warps
    /// of the block in convergent control flow.
    Bar,
    /// Memory fence (`__threadfence`): the warp waits until its prior
    /// global stores are visible at the coherence point (L2), then bumps
    /// its fence ID (§III-C).
    Membar,
    /// Critical-section entry marker: the lock at address `lock` was just
    /// acquired (§III-B: "we insert marker instructions after lock
    /// acquire and before lock release operations").
    CsBegin { lock: Reg },
    /// Critical-section exit marker.
    CsEnd,
    /// Branch to `target` when the predicate holds (for every lane,
    /// independently — divergence handled via the SIMT stack with `reconv`
    /// as the rejoin point). `pred = None` is an unconditional jump;
    /// `(reg, sense)` takes the branch when `(reg != 0) == sense`.
    Bra { pred: Option<(Reg, bool)>, target: u32, reconv: u32 },
    /// Thread exit.
    Exit,
}

impl Op {
    /// Whether the instruction accesses memory (for Table II's
    /// instruction-mix accounting).
    pub fn mem_space(&self) -> Option<Space> {
        match self {
            Op::Ld { space, .. } | Op::St { space, .. } | Op::Atom { space, .. } => Some(*space),
            _ => None,
        }
    }

    /// Whether this op writes register `d` (used by the builder's
    /// sanity checks and the instrumentation passes).
    pub fn dest(&self) -> Option<Reg> {
        match self {
            Op::Bin { d, .. }
            | Op::Un { d, .. }
            | Op::Mad { d, .. }
            | Op::FMad { d, .. }
            | Op::SetP { d, .. }
            | Op::Sel { d, .. }
            | Op::Sreg { d, .. }
            | Op::LdParam { d, .. }
            | Op::Ld { d, .. }
            | Op::Atom { d, .. } => Some(*d),
            _ => None,
        }
    }
}

/// An instruction plus a source tag for race reports ("line number").
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)]
pub struct Instr {
    pub op: Op,
    /// Builder-assigned source location tag (defaults to the emission
    /// index); surfaces in race reports as the `pc`.
    pub line: u32,
}

/// A compiled kernel.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub struct Kernel {
    pub name: String,
    pub instrs: Vec<Instr>,
    /// Per-thread register count.
    pub num_regs: u16,
    /// Static shared-memory allocation per block, in bytes.
    pub shared_bytes: u32,
}

impl Kernel {
    /// Validate structural invariants: branch targets in range, register
    /// indices within `num_regs`, barrier/fence ops well-formed.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.instrs.len() as u32;
        let check_reg = |r: Reg| -> Result<(), String> {
            if r.0 >= self.num_regs {
                Err(format!("register r{} out of range (kernel has {})", r.0, self.num_regs))
            } else {
                Ok(())
            }
        };
        let check_src = |s: Src| match s {
            Src::Reg(r) => check_reg(r),
            Src::Imm(_) => Ok(()),
        };
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Some(d) = i.op.dest() {
                check_reg(d)?;
            }
            match i.op {
                Op::Bra { target, reconv, pred } => {
                    if target > n || reconv > n {
                        return Err(format!("pc {pc}: branch target/reconv out of range"));
                    }
                    if let Some((r, _)) = pred {
                        check_reg(r)?;
                    }
                }
                Op::Bin { a, b, .. } | Op::SetP { a, b, .. } => {
                    check_src(a)?;
                    check_src(b)?;
                }
                Op::Un { a, .. } => check_src(a)?,
                Op::Mad { a, b, c, .. } | Op::FMad { a, b, c, .. } => {
                    check_src(a)?;
                    check_src(b)?;
                    check_src(c)?;
                }
                Op::Sel { c, a, b, .. } => {
                    check_reg(c)?;
                    check_src(a)?;
                    check_src(b)?;
                }
                Op::Ld { addr, size, .. } => {
                    check_reg(addr)?;
                    if !matches!(size, 1 | 2 | 4) {
                        return Err(format!("pc {pc}: bad load size {size}"));
                    }
                }
                Op::St { addr, src, size, .. } => {
                    check_reg(addr)?;
                    check_src(src)?;
                    if !matches!(size, 1 | 2 | 4) {
                        return Err(format!("pc {pc}: bad store size {size}"));
                    }
                }
                Op::Atom { addr, src, src2, .. } => {
                    check_reg(addr)?;
                    check_src(src)?;
                    check_src(src2)?;
                }
                Op::CsBegin { lock } => check_reg(lock)?,
                _ => {}
            }
        }
        match self.instrs.last() {
            Some(Instr { op: Op::Exit, .. }) => Ok(()),
            _ => Err("kernel must end with Exit".into()),
        }
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_conversions() {
        assert_eq!(Src::from(Reg(3)), Src::Reg(Reg(3)));
        assert_eq!(Src::from(7u32), Src::Imm(7));
        assert_eq!(Src::from(-1i32), Src::Imm(u32::MAX));
        assert_eq!(Src::from(1.0f32), Src::Imm(0x3f80_0000));
    }

    #[test]
    fn mem_space_classification() {
        let ld = Op::Ld { space: Space::Shared, d: Reg(0), addr: Reg(1), imm: 0, size: 4 };
        assert_eq!(ld.mem_space(), Some(Space::Shared));
        assert_eq!(Op::Bar.mem_space(), None);
    }

    #[test]
    fn validation_rejects_bad_register() {
        let k = Kernel {
            name: "bad".into(),
            instrs: vec![
                Instr { op: Op::Un { op: UnOp::Mov, d: Reg(9), a: Src::Imm(0) }, line: 0 },
                Instr { op: Op::Exit, line: 1 },
            ],
            num_regs: 4,
            shared_bytes: 0,
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_rejects_missing_exit() {
        let k = Kernel { name: "noexit".into(), instrs: vec![], num_regs: 0, shared_bytes: 0 };
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_rejects_wild_branch() {
        let k = Kernel {
            name: "wild".into(),
            instrs: vec![
                Instr { op: Op::Bra { pred: None, target: 99, reconv: 99 }, line: 0 },
                Instr { op: Op::Exit, line: 1 },
            ],
            num_regs: 0,
            shared_bytes: 0,
        };
        assert!(k.validate().is_err());
    }
}
