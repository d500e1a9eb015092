//! Detector-fidelity introspection: health counters and per-race
//! witness timelines.
//!
//! HAccRG's fidelity degrades silently — Bloom-signature aliasing makes
//! the lockset check miss races at exactly the `1/bin_width` rate §VI-A2
//! quantifies, packed-ID truncation (Tables III/IV widths) aliases
//! writers, and a saturated race log drops records without a trace. The
//! [`DetectorHealth`] block counts each of those loss channels as the
//! detector runs, so a miss can be *attributed* after the fact instead
//! of guessed at. The counters are deterministic functions of the access
//! stream, so they ride inside the simulator's bit-identity contract
//! (dense, cycle-skipping and parallel engines must agree on them).
//!
//! [`WitnessEvent`]/[`WitnessRing`] implement the opt-in windowed access
//! recorder: each RDU keeps a small ring of recent accesses (chunk
//! address, thread, PC, Fig. 3 state before/after) and, when a race
//! fires, the most recent events touching the racy chunk are attached to
//! the race log as a bounded witness timeline.

use crate::access::{AccessKind, ThreadCoord};
use crate::shadow::ShadowState;

/// Counters for every channel through which the detector can silently
/// lose (or come close to losing) a race. All counters are cumulative
/// and deterministic per access stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorHealth {
    /// Lock acquisitions whose Bloom insert set no new bit: a *distinct*
    /// lock became indistinguishable from the set already held (§VI-A2
    /// aliasing at the insert side).
    pub bloom_insert_aliased: u64,
    /// Both-protected lockset checks whose signature intersection was
    /// null (disjoint locksets proven — the check could still race).
    pub bloom_null_intersections: u64,
    /// Both-protected lockset checks whose signature intersection was
    /// non-null (a common lock *may* exist; races are suppressed).
    pub bloom_nonnull_intersections: u64,
    /// Conflicting both-protected accesses whose exact locksets were
    /// provably disjoint while the Bloom intersection stayed non-null:
    /// a race the signature aliased away. This is the §VI-A2 miss
    /// channel, observed in vivo.
    pub bloom_suppressed_conflicts: u64,
    /// Shadow-history comparisons where the §VI-C2 packed field widths
    /// (10-bit tid / 3-bit bid / 5-bit sid) would have conflated two
    /// genuinely different threads. The unpacked simulator still decides
    /// correctly; the counter reports how often packed hardware would
    /// not have.
    pub id_truncation_collisions: u64,
    /// Shadow entries lazily re-initialized on an epoch-stamp mismatch
    /// (demand-paged table servicing a stale entry as fresh).
    pub shadow_fresh_on_mismatch: u64,
    /// Shadow pages materialized on first touch (occupancy gauge).
    pub shadow_pages_allocated: u64,
    /// Distinct race records dropped because the race log was at
    /// capacity (counters kept counting; the record itself is gone).
    pub log_dropped: u64,
}

impl DetectorHealth {
    /// Fold another block's counts into this one.
    pub fn accumulate(&mut self, o: &DetectorHealth) {
        self.bloom_insert_aliased += o.bloom_insert_aliased;
        self.bloom_null_intersections += o.bloom_null_intersections;
        self.bloom_nonnull_intersections += o.bloom_nonnull_intersections;
        self.bloom_suppressed_conflicts += o.bloom_suppressed_conflicts;
        self.id_truncation_collisions += o.id_truncation_collisions;
        self.shadow_fresh_on_mismatch += o.shadow_fresh_on_mismatch;
        self.shadow_pages_allocated += o.shadow_pages_allocated;
        self.log_dropped += o.log_dropped;
    }

    /// Field-wise difference (`self - prev`), for interval sampling.
    pub fn delta(&self, prev: &DetectorHealth) -> DetectorHealth {
        DetectorHealth {
            bloom_insert_aliased: self.bloom_insert_aliased - prev.bloom_insert_aliased,
            bloom_null_intersections: self.bloom_null_intersections
                - prev.bloom_null_intersections,
            bloom_nonnull_intersections: self.bloom_nonnull_intersections
                - prev.bloom_nonnull_intersections,
            bloom_suppressed_conflicts: self.bloom_suppressed_conflicts
                - prev.bloom_suppressed_conflicts,
            id_truncation_collisions: self.id_truncation_collisions
                - prev.id_truncation_collisions,
            shadow_fresh_on_mismatch: self.shadow_fresh_on_mismatch
                - prev.shadow_fresh_on_mismatch,
            shadow_pages_allocated: self.shadow_pages_allocated - prev.shadow_pages_allocated,
            log_dropped: self.log_dropped - prev.log_dropped,
        }
    }

    /// Whether any counter indicates the detector may have *lost* a race
    /// (as opposed to the pure-diagnostic occupancy/outcome gauges).
    pub fn any_loss(&self) -> bool {
        self.bloom_suppressed_conflicts > 0
            || self.id_truncation_collisions > 0
            || self.log_dropped > 0
    }
}

/// Maximum witness events attached to one race record.
pub const WITNESS_CAP: usize = 8;

/// Default depth of the per-RDU witness ring.
pub const WITNESS_RING_DEPTH: usize = 64;

/// One recorded access in a witness timeline: who touched the racy
/// chunk, with which instruction, and how the Fig. 3 state machine moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessEvent {
    /// Issue cycle of the access (0 for untimed streams).
    pub cycle: u64,
    /// The accessing thread.
    pub who: ThreadCoord,
    /// Static instruction of the access.
    pub pc: u32,
    /// Read / write / atomic.
    pub kind: AccessKind,
    /// Chunk base address (at the RDU's tracking granularity).
    pub addr: u32,
    /// Fig. 3 state of the chunk's shadow entry before the access.
    pub state_before: ShadowState,
    /// Fig. 3 state after the access.
    pub state_after: ShadowState,
}

/// Bounded ring of recent accesses, pre-allocated so steady-state
/// recording never allocates. Oldest events are overwritten.
#[derive(Clone, Debug, Default)]
pub struct WitnessRing {
    buf: Vec<WitnessEvent>,
    /// Next slot to overwrite once the buffer is full.
    next: usize,
}

impl WitnessRing {
    /// A ring holding up to `depth` events, allocated up front.
    pub fn with_depth(depth: usize) -> Self {
        Self { buf: Vec::with_capacity(depth.max(1)), next: 0 }
    }

    /// Record one access (alloc-free once the ring is warm).
    pub fn push(&mut self, e: WitnessEvent) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            // Branchy wrap instead of `%`: the capacity is not a
            // compile-time constant, and a hardware divide on every push
            // is measurable in the batch check loop.
            self.next += 1;
            if self.next == self.buf.capacity() {
                self.next = 0;
            }
        }
    }

    /// Forget everything (kernel relaunch).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
    }

    /// The most recent events whose chunk address equals `addr`, oldest
    /// first, at most [`WITNESS_CAP`] of them. Allocates the returned
    /// vector — called only when a race actually fires.
    pub fn collect_for(&self, addr: u32) -> Vec<WitnessEvent> {
        let n = self.buf.len();
        let mut out: Vec<WitnessEvent> = Vec::new();
        // Walk newest -> oldest; the ring is [next..n) ++ [0..next) in
        // chronological order once full, [0..n) while filling.
        for i in (0..n).rev() {
            let idx = if self.buf.len() == self.buf.capacity() {
                (self.next + i) % n
            } else {
                i
            };
            let e = self.buf[idx];
            if e.addr == addr {
                out.push(e);
                if out.len() == WITNESS_CAP {
                    break;
                }
            }
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, addr: u32) -> WitnessEvent {
        WitnessEvent {
            cycle,
            who: ThreadCoord::new(cycle as u32, 0, 0, 0),
            pc: 1,
            kind: AccessKind::Write,
            addr,
            state_before: ShadowState::Fresh,
            state_after: ShadowState::Written,
        }
    }

    #[test]
    fn accumulate_and_delta_invert() {
        let mut a = DetectorHealth { bloom_insert_aliased: 3, log_dropped: 1, ..Default::default() };
        let b = DetectorHealth {
            bloom_null_intersections: 7,
            bloom_suppressed_conflicts: 2,
            shadow_pages_allocated: 5,
            ..Default::default()
        };
        let before = a;
        a.accumulate(&b);
        assert_eq!(a.delta(&before), b);
        assert_eq!(a.delta(&a), DetectorHealth::default());
    }

    #[test]
    fn any_loss_ignores_diagnostic_gauges() {
        let mut h = DetectorHealth {
            bloom_null_intersections: 10,
            bloom_nonnull_intersections: 10,
            shadow_fresh_on_mismatch: 10,
            shadow_pages_allocated: 10,
            bloom_insert_aliased: 10,
            ..Default::default()
        };
        assert!(!h.any_loss(), "outcome/occupancy counters are not losses");
        h.bloom_suppressed_conflicts = 1;
        assert!(h.any_loss());
    }

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let mut r = WitnessRing::with_depth(4);
        for c in 0..10 {
            r.push(ev(c, 16));
        }
        let w = r.collect_for(16);
        assert_eq!(w.iter().map(|e| e.cycle).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn collect_filters_by_chunk_address() {
        let mut r = WitnessRing::with_depth(8);
        r.push(ev(1, 16));
        r.push(ev(2, 32));
        r.push(ev(3, 16));
        let w = r.collect_for(16);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].cycle, w[1].cycle), (1, 3));
        assert!(r.collect_for(48).is_empty());
    }

    #[test]
    fn collect_caps_the_timeline_length() {
        let mut r = WitnessRing::with_depth(2 * WITNESS_CAP);
        for c in 0..(2 * WITNESS_CAP as u64) {
            r.push(ev(c, 4));
        }
        let w = r.collect_for(4);
        assert_eq!(w.len(), WITNESS_CAP);
        assert_eq!(w[0].cycle, WITNESS_CAP as u64, "keeps the newest, oldest first");
    }

    #[test]
    fn clear_empties_without_deallocating() {
        let mut r = WitnessRing::with_depth(4);
        for c in 0..6 {
            r.push(ev(c, 8));
        }
        r.clear();
        assert!(r.collect_for(8).is_empty());
        r.push(ev(9, 8));
        assert_eq!(r.collect_for(8).len(), 1);
    }
}
