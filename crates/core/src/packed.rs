//! Packed shadow-word encoding — the §VI-C2 bit layout.
//!
//! The paper budgets global shadow entries at 52 bits: 1-bit `modified`,
//! 1-bit `shared`, 10-bit `tid`, 3-bit `bid`, 5-bit `sid`, 8-bit
//! `sync ID`, 8-bit `fence ID`, 16-bit `atomic ID`. The RDUs in this
//! crate store every field at full width, in the lossless columns of
//! [`crate::shadow_table`]; this module provides the exact hardware
//! encoding for anyone persisting shadow state (trace tools, hardware
//! co-simulation) and pins the field widths with round-trip tests.
//!
//! Field widths impose the same truncation the hardware would: thread IDs
//! wrap modulo 1024, block IDs modulo 8, SM IDs modulo 32. The detector's
//! entries carry full-width values, so packing is lossy exactly where the
//! paper's hardware is.

use crate::access::ThreadCoord;
use crate::bloom::BloomSig;
use crate::shadow::ShadowEntry;

/// Bit positions of the packed layout (LSB first).
mod layout {
    pub const MODIFIED: u32 = 0;
    pub const SHARED: u32 = 1;
    pub const TID: u32 = 2;
    pub const TID_BITS: u32 = 10;
    pub const BID: u32 = TID + TID_BITS; // 12
    pub const BID_BITS: u32 = 3;
    pub const SID: u32 = BID + BID_BITS; // 15
    pub const SID_BITS: u32 = 5;
    pub const SYNC: u32 = SID + SID_BITS; // 20
    pub const SYNC_BITS: u32 = 8;
    pub const FENCE: u32 = SYNC + SYNC_BITS; // 28
    pub const FENCE_BITS: u32 = 8;
    pub const ATOMIC: u32 = FENCE + FENCE_BITS; // 36
    pub const ATOMIC_BITS: u32 = 16;
    pub const PROTECTED: u32 = ATOMIC + ATOMIC_BITS; // 52
    pub const TOTAL_BITS: u32 = PROTECTED + 1;
}

/// Total bits of the packed word (52 data bits + the protected flag the
/// lockset path needs; the paper folds the latter into the atomic-ID
/// validity convention).
pub const PACKED_BITS: u32 = layout::TOTAL_BITS;

fn field(v: u64, pos: u32, bits: u32) -> u64 {
    (v >> pos) & ((1 << bits) - 1)
}

/// Pack an entry into the hardware word. Warp ID and the simulator-side
/// `write_cycle` / `pc` provenance are not part of the hardware layout
/// (the warp is derived from `tid / warp_size`); they are reconstructed
/// (or zeroed) on unpack.
pub fn pack(e: &ShadowEntry) -> u64 {
    use layout::*;
    (u64::from(e.modified) << MODIFIED)
        | (u64::from(e.shared) << SHARED)
        | (u64::from(e.tid & 0x3FF) << TID)
        | (u64::from(e.block & 0x7) << BID)
        | (u64::from(e.sm & 0x1F) << SID)
        | (u64::from(e.sync_id) << SYNC)
        | (u64::from(e.fence_id) << FENCE)
        | (u64::from(e.atomic_sig.0 & 0xFFFF) << ATOMIC)
        | (u64::from(e.protected) << PROTECTED)
}

/// Unpack a hardware word. `warp_size` rebuilds the warp ID the detector
/// caches alongside.
pub fn unpack(w: u64, warp_size: u32) -> ShadowEntry {
    use layout::*;
    let tid = field(w, TID, TID_BITS) as u32;
    ShadowEntry {
        modified: field(w, MODIFIED, 1) != 0,
        shared: field(w, SHARED, 1) != 0,
        tid,
        warp: tid / warp_size.max(1),
        block: field(w, BID, BID_BITS) as u32,
        sm: field(w, SID, SID_BITS) as u32,
        sync_id: field(w, SYNC, SYNC_BITS) as u8,
        fence_id: field(w, FENCE, FENCE_BITS) as u8,
        atomic_sig: BloomSig(field(w, ATOMIC, ATOMIC_BITS) as u32),
        locks: crate::locktable::LockTable::EMPTY,
        locks_known: false,
        protected: field(w, PROTECTED, 1) != 0,
        write_cycle: 0,
        pc: 0,
    }
}

/// Whether the §VI-C2 packed field widths would conflate the recorded
/// accessor with `cur`: the truncated `(tid mod 1024, bid mod 8, sid mod
/// 32)` triples match while the full-width identities differ. The unpacked
/// simulator still distinguishes the two threads — this predicate reports
/// how often packed hardware would not have, which is a fidelity-loss
/// channel on grids larger than the field widths.
pub fn id_truncation_collision(recorded: &ShadowEntry, cur: &ThreadCoord) -> bool {
    let full_differ =
        recorded.tid != cur.tid || recorded.block != cur.block || recorded.sm != cur.sm;
    let truncated_match = recorded.tid & 0x3FF == cur.tid & 0x3FF
        && recorded.block & 0x7 == cur.block & 0x7
        && recorded.sm & 0x1F == cur.sm & 0x1F;
    full_differ && truncated_match
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::FRESH;
    use proptest::prelude::*;

    #[test]
    fn layout_matches_section_6c2() {
        // 1 + 1 + 10 + 3 + 5 + 8 = 28 basic bits; +8 fence = 36;
        // +16 atomic = 52.
        assert_eq!(layout::FENCE, 28);
        assert_eq!(layout::ATOMIC, 36);
        assert_eq!(layout::PROTECTED, 52);
        const { assert!(PACKED_BITS <= 64) };
    }

    #[test]
    fn truncation_collision_requires_matching_truncated_triple() {
        let mut e = FRESH;
        e.tid = 5;
        e.block = 2;
        e.sm = 3;
        // Identical thread: not a collision (same identity, no conflation).
        assert!(!id_truncation_collision(&e, &ThreadCoord::new(5, 0, 2, 3)));
        // tid differs by exactly 1024 with bid/sid equal: hardware would
        // see the same packed triple.
        assert!(id_truncation_collision(&e, &ThreadCoord::new(5 + 1024, 0, 2, 3)));
        // bid wraps modulo 8.
        assert!(id_truncation_collision(&e, &ThreadCoord::new(5, 0, 2 + 8, 3)));
        // A genuinely distinguishable thread is not flagged.
        assert!(!id_truncation_collision(&e, &ThreadCoord::new(6, 0, 2, 3)));
    }

    #[test]
    fn fresh_round_trips() {
        let w = pack(&FRESH);
        let e = unpack(w, 32);
        assert!(e.is_fresh());
        assert_eq!(e.tid, 0);
    }

    proptest! {
        #[test]
        fn round_trip_is_exact_within_field_widths(
            modified: bool,
            shared: bool,
            tid in 0u32..1024,
            block in 0u32..8,
            sm in 0u32..32,
            sync_id: u8,
            fence_id: u8,
            sig in 0u32..0x10000,
            protected: bool,
        ) {
            let e = ShadowEntry {
                modified,
                shared,
                tid,
                warp: tid / 32,
                block,
                sm,
                sync_id,
                fence_id,
                atomic_sig: BloomSig(sig),
                locks: crate::locktable::LockTable::EMPTY,
                locks_known: false,
                protected,
                write_cycle: 0,
                pc: 0,
            };
            let back = unpack(pack(&e), 32);
            prop_assert_eq!(back, e);
        }

        #[test]
        fn packing_truncates_like_hardware(
            tid in 1024u32..100_000,
            block in 8u32..1000,
            sm in 32u32..1000,
        ) {
            let mut e = FRESH;
            e.modified = false; // leave fresh encoding
            e.tid = tid;
            e.block = block;
            e.sm = sm;
            let back = unpack(pack(&e), 32);
            prop_assert_eq!(back.tid, tid % 1024);
            prop_assert_eq!(back.block, block % 8);
            prop_assert_eq!(back.sm, sm % 32);
        }

        #[test]
        fn packed_words_fit_the_budgeted_stride(e_tid in 0u32..1024, sig in 0u32..0x10000) {
            let mut e = FRESH;
            e.tid = e_tid;
            e.atomic_sig = BloomSig(sig);
            let w = pack(&e);
            prop_assert!(w < (1u64 << PACKED_BITS));
            // The simulator's 8-byte addressable stride can hold it.
            prop_assert!(PACKED_BITS as u64 <= 8 * u64::from(crate::cost::GLOBAL_SHADOW_STRIDE_BYTES));
        }
    }
}
