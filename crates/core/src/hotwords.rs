//! Packed per-entry *hot words* for the SIMD/SWAR shadow-check tier.
//!
//! The wide tier of the batch kernel retires a lane without the full
//! Fig. 3 check when the rules order it with the recorded access: a
//! predicate over seven entry fields (fresh/tid/warp/block/sm/protected/
//! sync-ID), where the tid compare ignores the bits a lane of the
//! recorded warp may differ in when the §III-A warp filter is on.
//! Walking the unpacked ~64-byte AoS entry to evaluate it would cost one
//! cache line and a branch chain per lane. This module packs exactly the
//! fields that predicate reads into two `u64` *hot words* — stored as
//! parallel arrays per shadow page (see [`crate::shadow_table`]) — so the
//! batch pipeline screens each lane with two wide compares per entry:
//!
//! * `h0` = `tid | warp << 32` — the per-lane identity half, compared
//!   under the policy's identity mask ([`ScreenMasks::h0`]).
//! * `h1` = `block | sync_id << 32 | sm << 40` plus the
//!   `protected`/`fresh`/`shared`/`modified` flag bits — the warp-uniform
//!   half, compared under a policy/kind-specific mask.
//! * `h2` = `fence_id | pc << 8 | write_cycle << 40` — the store-elision
//!   word, so the `Written`+write steady state can decide "entry
//!   unchanged" without touching the AoS entry at all.
//!
//! The packing is **conservative by construction**: a value that does not
//! fit its lane (an SM ID above 16 bits, a write cycle above 23 bits)
//! poisons the word with a bit the key side can never match, forcing the
//! lane onto the full check. A screen mismatch therefore only costs
//! time; only exact matches take the wide tier, and on those the full
//! check finds an ordered lane with nothing to report (DESIGN.md §9
//! spells out the argument).

use crate::access::ThreadCoord;
use crate::shadow::{ShadowEntry, ShadowPolicy};

// ---- h1 bit layout ----

/// Bits 0..32 of `h1`: the recorded block ID (full width, exact).
pub const H1_BLOCK_BITS: u32 = 32;
/// Bit offset of the 8-bit sync ID in `h1`.
pub const H1_SYNC_SHIFT: u32 = 32;
/// Bit offset of the 16-bit SM lane in `h1`.
pub const H1_SM_SHIFT: u32 = 40;
/// Widest SM ID the `h1` lane can hold; wider values poison the word.
pub const H1_SM_LIMIT: u32 = 1 << 16;
/// Entry was opened inside a critical section.
pub const H1_PROTECTED: u64 = 1 << 56;
/// Entry is in the reset state (`modified & shared`).
pub const H1_FRESH: u64 = 1 << 57;
/// The entry's `shared` bit (screened for writes, don't-care for reads).
pub const H1_SHARED: u64 = 1 << 58;
/// The entry's `modified` bit. Never part of a compare mask — the apply
/// phase reads it to pick between the `ReadSingle -> Written` promotion
/// and the store-elision check.
pub const H1_MODIFIED: u64 = 1 << 59;
/// Key-side flag for `MemAccess::in_critical_section`. The entry side
/// never sets it, so an in-CS access always mismatches (the §III-B
/// lockset rules of the full check handle every critical-section lane).
pub const H1_KEY_CS: u64 = 1 << 61;
/// Entry-side poison: some entry field did not fit its lane.
pub const H1_ENTRY_POISON: u64 = 1 << 62;
/// Key-side poison: some access field did not fit its lane.
pub const H1_KEY_POISON: u64 = 1 << 63;

/// Compare mask for write accesses: every screened field. `modified` is
/// excluded (both `ReadSingle` and `Written` pass for writes).
pub const H1_WRITE_MASK: u64 =
    ((1u64 << 59) - 1) | H1_KEY_CS | H1_ENTRY_POISON | H1_KEY_POISON;
/// Compare mask for reads: like writes, minus `shared` (reads pass in
/// every non-fresh state, including `ReadShared`).
pub const H1_READ_MASK: u64 = H1_WRITE_MASK & !H1_SHARED;
/// Strip mask for policies without sync-ID epochs (shared memory): the
/// full check reopens an epoch on a sync-ID mismatch only under
/// `p.sync_id_epochs`.
const H1_SYNC_STRIP: u64 = !(0xFFu64 << H1_SYNC_SHIFT);

// ---- h2 (store elision) ----

/// Widest write cycle the `h2` lane can hold.
pub const H2_CYCLE_LIMIT: u64 = 1 << 23;
/// Entry-side poison value for an unpackable `write_cycle`. Distinct from
/// [`H2_KEY_POISON`] so a poisoned entry never spuriously equals a
/// poisoned key — both sides then fall back to the exact AoS compare.
pub const H2_ENTRY_POISON: u64 = 1 << 63;
/// Key-side poison value for an unpackable access cycle.
pub const H2_KEY_POISON: u64 = (1 << 63) | 1;
/// Set on every poison encoding and never on a regular pack: `h2`
/// equality is exact only when this bit is clear on both sides.
pub const H2_POISON_BIT: u64 = 1 << 63;

/// `h0` of the [`crate::shadow::FRESH`] entry.
pub const FRESH_H0: u64 = 0;
/// `h1` of the fresh entry: `modified & shared` sets the fresh, shared
/// and modified flags; every identity lane is zero.
pub const FRESH_H1: u64 = H1_FRESH | H1_SHARED | H1_MODIFIED;
/// `h2` of the fresh entry.
pub const FRESH_H2: u64 = 0;

/// Pack the per-lane identity word of an entry.
#[inline]
pub fn pack_h0(e: &ShadowEntry) -> u64 {
    u64::from(e.tid) | (u64::from(e.warp) << 32)
}

/// Pack the warp-uniform identity/flag word of an entry.
#[inline]
pub fn pack_h1(e: &ShadowEntry) -> u64 {
    let mut w = u64::from(e.block)
        | (u64::from(e.sync_id) << H1_SYNC_SHIFT)
        | (u64::from(e.protected) << 56)
        | (u64::from(e.modified & e.shared) << 57)
        | (u64::from(e.shared) << 58)
        | (u64::from(e.modified) << 59);
    if e.sm < H1_SM_LIMIT {
        w |= u64::from(e.sm) << H1_SM_SHIFT;
    } else {
        w |= H1_ENTRY_POISON;
    }
    w
}

/// Pack the store-elision word from entry-side values.
#[inline]
pub fn pack_h2(fence_id: u8, write_cycle: u64, pc: u32) -> u64 {
    if write_cycle >= H2_CYCLE_LIMIT {
        return H2_ENTRY_POISON;
    }
    u64::from(fence_id) | (u64::from(pc) << 8) | (write_cycle << 40)
}

/// Key-side counterpart of [`pack_h0`], built from the access identity.
#[inline]
pub fn key0(who: &ThreadCoord) -> u64 {
    u64::from(who.tid) | (u64::from(who.warp) << 32)
}

/// Key-side counterpart of [`pack_h1`]. The key expects
/// `protected = fresh = shared = 0` (those key bits stay clear) and
/// carries the access's critical-section flag in a lane the entry side
/// never sets.
#[inline]
pub fn key1(who: &ThreadCoord, sync_id: u8, in_critical_section: bool) -> u64 {
    let mut w = u64::from(who.block)
        | (u64::from(sync_id) << H1_SYNC_SHIFT)
        | (u64::from(in_critical_section) << 61);
    if who.sm < H1_SM_LIMIT {
        w |= u64::from(who.sm) << H1_SM_SHIFT;
    } else {
        w |= H1_KEY_POISON;
    }
    w
}

/// Key-side store-elision word for a write access.
#[inline]
pub fn key2(fence_id: u8, cycle: u64, pc: u32) -> u64 {
    if cycle >= H2_CYCLE_LIMIT {
        return H2_KEY_POISON;
    }
    u64::from(fence_id) | (u64::from(pc) << 8) | (cycle << 40)
}

/// The tid bits a passing lane must share with the recorded accessor.
/// With the §III-A warp filter on, a lane of the recorded warp is ordered
/// with it, so the §VI-C2 10-bit tid field (the bits one warp's lanes
/// differ in) is left out of the compare: two tids that agree above it
/// differ inside it iff they differ at all, so the packed-ID truncation
/// counter can never fire on a passing lane. Without the filter only
/// the recorded thread itself passes.
#[inline]
pub fn tid_mask(p: &ShadowPolicy) -> u32 {
    if p.warp_filter {
        !0x3FF
    } else {
        !0
    }
}

/// The compare masks of one policy's screen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScreenMasks {
    /// `h0` mask: the warp half exact, the tid half under [`tid_mask`].
    pub h0: u64,
    /// `h1` mask for write accesses.
    pub write: u64,
    /// `h1` mask for reads.
    pub read: u64,
}

/// The screen masks for a policy: sync IDs participate only when the
/// policy runs the §IV-B epoch filter (global memory), and same-warp tids
/// pass only under the warp filter.
#[inline]
pub fn screen_masks(p: &ShadowPolicy) -> ScreenMasks {
    let h0 = u64::from(tid_mask(p)) | (u64::from(u32::MAX) << 32);
    if p.sync_id_epochs {
        ScreenMasks { h0, write: H1_WRITE_MASK, read: H1_READ_MASK }
    } else {
        ScreenMasks { h0, write: H1_WRITE_MASK & H1_SYNC_STRIP, read: H1_READ_MASK & H1_SYNC_STRIP }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess};
    use crate::bloom::{BloomConfig, BloomSig};
    use crate::clocks::ClockFile;
    use crate::health::DetectorHealth;
    use crate::shadow::{reference_check, FRESH};

    fn entry_for(who: ThreadCoord, kind: AccessKind) -> ShadowEntry {
        let mut e = FRESH;
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let a = MemAccess::plain(0, 4, kind, who).with_clocks(3, 0);
        e.observe(&a, &c, &p).map(|_| ()).unwrap_or(());
        e
    }

    /// The packed screen over a grid of identity, sync-epoch and
    /// critical-section perturbations, with the warp filter on and off,
    /// against the full check: wherever the screen passes, the full
    /// check orders the lane with the recorded access — no race, no
    /// health count (the §VI-C2 truncated-ID count included), no epoch
    /// reopen. And the screen passes where it must: the recorded thread
    /// passes, sibling lanes pass with the warp filter and never without,
    /// and a write to a read-shared entry screens out.
    #[test]
    fn screen_equals_the_scalar_bail_predicate() {
        let base = ThreadCoord::new(7, 3, 1, 2);
        let siblings = [ThreadCoord::new(8, 3, 1, 2), ThreadCoord::new(31, 3, 1, 2)];
        let perturbed = [
            base,
            siblings[0],
            siblings[1],
            ThreadCoord::new(7 + 1024, 3, 1, 2), // agrees in the tid field
            ThreadCoord::new(8 + 4096, 3, 1, 2),
            ThreadCoord::new(7, 4, 1, 2),
            ThreadCoord::new(8, 4, 1, 2),
            ThreadCoord::new(7, 3, 2, 2),
            ThreadCoord::new(8, 3, 2, 2),
            ThreadCoord::new(7, 3, 1, 9),
            ThreadCoord::new(7, 3, 1, 1 << 17), // unpackable SM
        ];
        let c = ClockFile::new(4, 16);
        let mut policies = Vec::new();
        for warp_filter in [true, false] {
            policies.push(ShadowPolicy::global(warp_filter, true, BloomConfig::PAPER_DEFAULT));
            policies.push(ShadowPolicy::shared(warp_filter, BloomConfig::PAPER_DEFAULT));
        }
        for policy in policies {
            let masks = screen_masks(&policy);
            let screen = |e: &ShadowEntry, a: &MemAccess| {
                let m = if a.kind.is_write() { masks.write } else { masks.read };
                (((pack_h0(e) ^ key0(&a.who)) & masks.h0)
                    | ((pack_h1(e) ^ key1(&a.who, a.sync_id, a.in_critical_section)) & m))
                    == 0
            };
            for opener in [AccessKind::Read, AccessKind::Write] {
                let mut e = entry_for(base, opener);
                for who in perturbed {
                    for sync in [3u8, 4] {
                        for cs in [false, true] {
                            for kind in [AccessKind::Read, AccessKind::Write] {
                                let a = MemAccess::plain(0, 4, kind, who).with_clocks(sync, 0);
                                let a = if cs {
                                    a.locked(BloomSig::of_lock(0x100, policy.bloom))
                                } else {
                                    a
                                };
                                let pass = screen(&e, &a);
                                let at = format!("{who:?} sync={sync} cs={cs} {kind:?}");
                                if pass {
                                    let (mut full, mut h) = (e, DetectorHealth::default());
                                    let race = reference_check(&mut full, &a, &c, &policy, &mut h);
                                    assert!(race.is_none(), "screen passed a race: {at}");
                                    assert_eq!(h, DetectorHealth::default(), "{at}");
                                    let epoch = |e: &ShadowEntry| {
                                        (e.warp, e.block, e.sm, e.sync_id, e.protected)
                                    };
                                    assert_eq!(epoch(&full), epoch(&e), "epoch reopened: {at}");
                                }
                                if !cs && sync == 3 {
                                    if who == base {
                                        assert!(pass, "the recorded thread screened out: {at}");
                                    } else if siblings.contains(&who) {
                                        assert_eq!(pass, policy.warp_filter, "{at}");
                                    }
                                }
                            }
                        }
                    }
                }
                // Write to a read-shared entry must screen out.
                e.shared = true;
                e.modified = false;
                let a = MemAccess::plain(0, 4, AccessKind::Write, base).with_clocks(3, 0);
                assert!(!screen(&e, &a), "ReadShared write must go cold");
            }
        }
    }

    #[test]
    fn fresh_words_always_bail() {
        let who = ThreadCoord::new(0, 0, 0, 0);
        // Even an access whose identity is all zeros (matching FRESH's
        // zeroed fields) must mismatch via the fresh flag.
        let k1 = key1(&who, 0, false);
        assert_ne!(FRESH_H1 & H1_WRITE_MASK, k1 & H1_WRITE_MASK);
        assert_ne!(FRESH_H1 & H1_READ_MASK, k1 & H1_READ_MASK);
        assert_eq!(pack_h0(&FRESH), FRESH_H0);
        assert_eq!(pack_h1(&FRESH), FRESH_H1);
        assert_eq!(pack_h2(FRESH.fence_id, FRESH.write_cycle, FRESH.pc), FRESH_H2);
    }

    #[test]
    fn elision_word_is_exact_or_poisoned() {
        // Packable: equality iff all three fields match.
        assert_eq!(pack_h2(3, 77, 0x40), key2(3, 77, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(3, 78, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(4, 77, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(3, 77, 0x44));
        // Unpackable cycles poison both sides with distinct values, so
        // equality can never be claimed spuriously.
        let big = H2_CYCLE_LIMIT + 5;
        assert_eq!(pack_h2(0, big, 0), H2_ENTRY_POISON);
        assert_eq!(key2(0, big, 0), H2_KEY_POISON);
        assert_ne!(H2_ENTRY_POISON, H2_KEY_POISON);
        assert_ne!(pack_h2(0, big, 0), key2(0, big, 0));
        assert!(pack_h2(0, big, 0) & H2_POISON_BIT != 0);
        assert!(key2(0, big, 0) & H2_POISON_BIT != 0);
        // Regular packs never carry the poison bit.
        assert_eq!(pack_h2(0xFF, H2_CYCLE_LIMIT - 1, u32::MAX) & H2_POISON_BIT, 0);
    }
}
