//! SIMT reconvergence stack (immediate-post-dominator scheme).
//!
//! Each warp owns one stack. The top-of-stack entry supplies the warp's
//! current PC and active mask. On a divergent branch, the current entry is
//! rewritten to wait at the reconvergence point with the full mask, and
//! one entry per outcome is pushed; entries pop when their PC reaches
//! their reconvergence PC, merging lanes back together. The *fall-through*
//! path is pushed last (executes first) — this makes the canonical GPU
//! spin-lock idiom (`if (CAS succeeds) { critical section; release }`
//! inside a retry loop) make forward progress, because the winning lanes
//! run and release the lock before the losers retry.

/// A 32-lane activity mask.
pub type Mask = u32;

/// Reconvergence PC of the bottom entry (never popped by reconvergence).
pub const NO_RECONV: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    pc: u32,
    rpc: u32,
    mask: Mask,
}

/// Per-warp SIMT stack.
#[derive(Clone, Debug)]
pub struct SimtStack {
    entries: Vec<Entry>,
}

/// Stack depth limit — exceeding it means runaway divergence (every
/// realistic kernel stays far below; each divergent loop iteration adds
/// one entry).
pub const MAX_DEPTH: usize = 4096;

impl SimtStack {
    /// New stack with the warp's launched lanes active at PC 0.
    pub fn new(entry_mask: Mask) -> Self {
        Self { entries: vec![Entry { pc: 0, rpc: NO_RECONV, mask: entry_mask }] }
    }

    /// Current PC.
    pub fn pc(&self) -> u32 {
        self.top().pc
    }

    /// Current active mask.
    pub fn active_mask(&self) -> Mask {
        self.top().mask
    }

    /// Whether every lane has exited.
    pub fn done(&self) -> bool {
        self.entries.iter().all(|e| e.mask == 0)
    }

    /// Whether control flow is convergent (all live lanes in one entry) —
    /// required at barriers.
    pub fn convergent(&self) -> bool {
        self.entries.len() == 1
    }

    /// Current stack depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn top(&self) -> &Entry {
        self.entries.last().expect("SIMT stack never empty")
    }

    fn top_mut(&mut self) -> &mut Entry {
        self.entries.last_mut().expect("SIMT stack never empty")
    }

    /// Sequential PC advance (non-branch instruction retired).
    pub fn advance(&mut self) {
        self.top_mut().pc += 1;
        self.reconverge();
    }

    /// Resolve a (possibly divergent) branch. `taken` is the subset of the
    /// active mask whose predicate selects `target`; the rest fall through
    /// to `pc + 1`. Returns `Err` if the stack overflows.
    pub fn branch(&mut self, taken: Mask, target: u32, reconv: u32) -> Result<(), &'static str> {
        let cur = *self.top();
        let taken = taken & cur.mask;
        let fall = cur.mask & !taken;
        if fall == 0 {
            self.top_mut().pc = target;
        } else if taken == 0 {
            self.top_mut().pc = cur.pc + 1;
        } else {
            if self.entries.len() + 2 > MAX_DEPTH {
                return Err("SIMT stack overflow (runaway divergence)");
            }
            // The current entry becomes the reconvergence continuation.
            self.top_mut().pc = reconv;
            self.entries.push(Entry { pc: target, rpc: reconv, mask: taken });
            // Fall-through on top: executes first.
            self.entries.push(Entry { pc: cur.pc + 1, rpc: reconv, mask: fall });
        }
        self.reconverge();
        Ok(())
    }

    /// Retire `Exit` for the active lanes: they leave every entry.
    pub fn exit_active(&mut self) {
        let gone = self.active_mask();
        for e in &mut self.entries {
            e.mask &= !gone;
        }
        // Drop emptied entries (keep the bottom one as the resting state).
        while self.entries.len() > 1 && self.top().mask == 0 {
            self.entries.pop();
        }
        self.reconverge();
    }

    fn reconverge(&mut self) {
        while self.entries.len() > 1 {
            let t = *self.top();
            if t.pc == t.rpc || t.mask == 0 {
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Mask = u32::MAX;

    #[test]
    fn sequential_advance() {
        let mut s = SimtStack::new(FULL);
        assert_eq!(s.pc(), 0);
        s.advance();
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), FULL);
        assert!(s.convergent());
    }

    #[test]
    fn uniform_taken_branch_jumps() {
        let mut s = SimtStack::new(FULL);
        s.branch(FULL, 10, 12).unwrap();
        assert_eq!(s.pc(), 10);
        assert!(s.convergent());
    }

    #[test]
    fn uniform_not_taken_falls_through() {
        let mut s = SimtStack::new(FULL);
        s.advance(); // pc 1
        s.branch(0, 10, 12).unwrap();
        assert_eq!(s.pc(), 2);
        assert!(s.convergent());
    }

    #[test]
    fn divergence_executes_fallthrough_first_then_reconverges() {
        let mut s = SimtStack::new(0xF);
        // At pc 0: lanes 0-1 take the branch to 5, lanes 2-3 fall through.
        s.branch(0x3, 5, 8).unwrap();
        assert_eq!(s.pc(), 1, "fall-through path runs first");
        assert_eq!(s.active_mask(), 0xC);
        // Fall-through path executes 1..8.
        for _ in 1..8 {
            s.advance();
        }
        // Now the taken path runs from 5.
        assert_eq!(s.pc(), 5);
        assert_eq!(s.active_mask(), 0x3);
        for _ in 5..8 {
            s.advance();
        }
        // Everyone rejoined at the reconvergence point.
        assert_eq!(s.pc(), 8);
        assert_eq!(s.active_mask(), 0xF);
        assert!(s.convergent());
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xF);
        s.branch(0x3, 10, 20).unwrap(); // outer split
        // fall-through (lanes 2,3) at pc 1 diverges again
        s.branch(0x4, 5, 9).unwrap();
        assert_eq!(s.pc(), 2);
        assert_eq!(s.active_mask(), 0x8);
        assert_eq!(s.depth(), 5);
        // lane 3 runs to 9
        for _ in 2..9 {
            s.advance();
        }
        // lane 2 runs 5..9
        assert_eq!((s.pc(), s.active_mask()), (5, 0x4));
        for _ in 5..9 {
            s.advance();
        }
        // inner reconverged: lanes 2,3 at 9; run to outer reconv at 20
        assert_eq!((s.pc(), s.active_mask()), (9, 0xC));
        for _ in 9..20 {
            s.advance();
        }
        // taken outer path: lanes 0,1 from 10
        assert_eq!((s.pc(), s.active_mask()), (10, 0x3));
        for _ in 10..20 {
            s.advance();
        }
        assert_eq!((s.pc(), s.active_mask()), (20, 0xF));
        assert!(s.convergent());
    }

    #[test]
    fn divergent_loop_exit() {
        // while-loop shape: header at 0 branches exiting lanes to 4
        // (reconv 4), body 1..3, backedge at 3 -> 0.
        let mut s = SimtStack::new(0x3);
        // Iteration 1: lane 1 exits, lane 0 stays.
        s.branch(0x2, 4, 4).unwrap();
        assert_eq!((s.pc(), s.active_mask()), (1, 0x1));
        s.advance(); // 2
        s.advance(); // 3
        s.branch(0x1, 0, 4).unwrap(); // backedge (uniform among active)
        assert_eq!(s.pc(), 0);
        // Iteration 2: lane 0 exits too.
        s.branch(0x1, 4, 4).unwrap();
        assert_eq!((s.pc(), s.active_mask()), (4, 0x3), "all lanes rejoined at loop exit");
        assert!(s.convergent());
    }

    #[test]
    fn exit_removes_lanes_everywhere() {
        let mut s = SimtStack::new(0xF);
        s.branch(0x3, 10, 20).unwrap();
        // Fall-through lanes (2,3) exit.
        s.exit_active();
        // Taken lanes still to run.
        assert_eq!((s.pc(), s.active_mask()), (10, 0x3));
        for _ in 10..20 {
            s.advance();
        }
        assert_eq!((s.pc(), s.active_mask()), (20, 0x3));
        s.exit_active();
        assert!(s.done());
    }

    #[test]
    fn overflow_is_reported() {
        let mut s = SimtStack::new(0x3);
        for i in 0..5000 {
            if s.branch(0x1, 1, NO_RECONV - 1).is_err() {
                assert!(i > 1000, "guard fired too early at {i}");
                return;
            }
            // Force the stack to keep growing: re-arm the top entry so the
            // next branch diverges again (mimics a pathological loop).
            let t = s.top_mut();
            t.pc = 0;
            t.mask = 0x3;
        }
        panic!("SIMT stack overflow was never reported");
    }

    #[test]
    fn partial_warp_mask() {
        let s = SimtStack::new(0x1FFF); // 13-thread block tail warp
        assert_eq!(s.active_mask().count_ones(), 13);
    }
}
