//! Demand-paged, epoch-stamped shadow storage.
//!
//! The RDU shadow tables used to be monolithic `Vec<ShadowEntry>`s that
//! were allocated and zeroed eagerly — one unpacked ~48-byte entry per
//! tracked chunk, every launch. That is precisely the software
//! shadow-memory upkeep the paper argues against (§VI, Fig. 7): the
//! *modeled* hardware clears banked SRAM rows in parallel, but the
//! *simulator* was paying O(tracked bytes) on the host for it.
//!
//! [`ShadowTable`] decouples the two:
//!
//! * **Demand paging** — entries live in fixed-size pages
//!   ([`PAGE_ENTRIES`] each) materialized on first touch. Untouched pages
//!   read as [`FRESH`], so launch-time cost is O(pages touched), not
//!   O(tracked bytes).
//! * **Epoch stamping** — each page carries a generation counter and each
//!   entry the generation it was last written under. A bulk reset of a
//!   fully-covered page is a counter bump; entries whose stamp mismatches
//!   the page generation read as fresh and are lazily re-initialized on
//!   the next write. Partially-covered boundary pages are walked.
//!
//! The *timing* charge for a reset (the banked-clear cycles of §IV-A) is
//! unchanged — callers compute it arithmetically from the range size via
//! [`crate::cost::banked_reset_cycles`]; only the host-side work is lazy.
//! Observable behavior is bit-identical to the eager table: a stale-stamp
//! entry is indistinguishable from one that was eagerly reset.

use crate::access::MemAccess;
use crate::health::DetectorHealth;
use crate::hotwords;
use crate::shadow::{ShadowEntry, ShadowState, FRESH};

/// Entries per shadow page. 128 × ~48 bytes ≈ 6 KiB per page keeps the
/// page-pointer vector tiny (8 bytes per page) while amortizing the
/// allocation over many chunks.
pub const PAGE_ENTRIES: usize = 128;

/// One materialized shadow page.
///
/// Besides the AoS `entries` (always authoritative — serde, witness
/// capture and the cold path read it directly), each page carries the
/// SoA *hot words* of [`crate::hotwords`]: three parallel `u64` arrays
/// holding the packed fast-path bail predicate (`hot0`/`hot1`) and the
/// store-elision fields (`hot2`) per entry. The batch pipeline screens a
/// whole lane run against these with wide compares instead of walking
/// the ~64-byte entries. The arrays are a cache: any `&mut ShadowEntry`
/// handed out through the scalar accessors clears `hot_valid`, and the
/// next batch run lazily repacks the page.
#[derive(Clone, Debug)]
struct ShadowPage {
    /// Current epoch. An entry is live only while `stamps[i]` matches.
    generation: u32,
    /// Generation each entry was last initialized under.
    stamps: [u32; PAGE_ENTRIES],
    entries: [ShadowEntry; PAGE_ENTRIES],
    /// Packed per-lane identity (`tid | warp << 32`) per entry.
    hot0: [u64; PAGE_ENTRIES],
    /// Packed warp-uniform identity + state flags per entry.
    hot1: [u64; PAGE_ENTRIES],
    /// Packed store-elision word (`fence | pc | write_cycle`) per entry.
    hot2: [u64; PAGE_ENTRIES],
    /// Whether the hot arrays mirror `entries`. Cleared whenever a raw
    /// `&mut ShadowEntry` escapes; restored by [`PageEntries::ensure_hot`].
    hot_valid: bool,
}

impl Default for ShadowPage {
    fn default() -> Self {
        Self {
            generation: 0,
            stamps: [0; PAGE_ENTRIES],
            entries: [FRESH; PAGE_ENTRIES],
            hot0: [hotwords::FRESH_H0; PAGE_ENTRIES],
            hot1: [hotwords::FRESH_H1; PAGE_ENTRIES],
            hot2: [hotwords::FRESH_H2; PAGE_ENTRIES],
            hot_valid: true,
        }
    }
}

impl ShadowPage {
    /// Eagerly reset every entry and rewind the epoch. Used on generation
    /// wraparound, where a plain bump could collide with an ancient stamp
    /// and resurrect a stale entry.
    fn hard_reset(&mut self) {
        *self = Self::default();
    }

    /// Recompute the hot words of entry `o` from its AoS view.
    #[inline]
    fn repack(&mut self, o: usize) {
        let e = &self.entries[o];
        self.hot0[o] = hotwords::pack_h0(e);
        self.hot1[o] = hotwords::pack_h1(e);
        self.hot2[o] = hotwords::pack_h2(e.fence_id, e.write_cycle, e.pc);
    }

    /// Apply a screened-pass *write* lane at slot `o` entirely through
    /// the hot words: `ReadSingle -> Written` promotion, or store elision
    /// against the packed `h2` word for an already-`Written` entry.
    /// Returns whether the entry changed — exactly the `*entry != before`
    /// the scalar path computes, because `h2` equality is exact for
    /// packable fields and unpackable ones fall back to the AoS compare.
    #[inline]
    fn fast_write_at(&mut self, o: usize, a: &MemAccess, h1: u64) -> bool {
        if h1 & hotwords::H1_MODIFIED != 0 {
            // Written + write: the steady store-elision state.
            let k2 = hotwords::key2(a.fence_id, a.cycle, a.pc);
            if self.hot2[o] == k2 {
                return false;
            }
            if (self.hot2[o] | k2) & hotwords::H2_POISON_BIT != 0 {
                // One side is unpackable: decide on the exact fields.
                let e = &mut self.entries[o];
                let changed =
                    e.fence_id != a.fence_id || e.write_cycle != a.cycle || e.pc != a.pc;
                if changed {
                    e.fence_id = a.fence_id;
                    e.write_cycle = a.cycle;
                    e.pc = a.pc;
                    self.hot2[o] = hotwords::pack_h2(a.fence_id, a.cycle, a.pc);
                }
                return changed;
            }
            let e = &mut self.entries[o];
            e.fence_id = a.fence_id;
            e.write_cycle = a.cycle;
            e.pc = a.pc;
            self.hot2[o] = k2;
            true
        } else {
            // ReadSingle + same-thread write: promote to Written.
            let e = &mut self.entries[o];
            e.modified = true;
            e.fence_id = a.fence_id;
            e.write_cycle = a.cycle;
            e.pc = a.pc;
            self.hot1[o] |= hotwords::H1_MODIFIED;
            self.hot2[o] = hotwords::pack_h2(a.fence_id, a.cycle, a.pc);
            true
        }
    }

    /// Bump the epoch, invalidating every entry lazily.
    fn bump(&mut self) {
        if self.generation == u32::MAX {
            self.hard_reset();
        } else {
            self.generation += 1;
        }
    }
}

/// Demand-paged table of [`ShadowEntry`]s with epoch-stamped invalidation.
#[derive(Clone, Debug, Default)]
pub struct ShadowTable {
    pages: Vec<Option<Box<ShadowPage>>>,
    num_entries: usize,
}

impl ShadowTable {
    /// A table of `num_entries` entries, all reading as [`FRESH`]. Only
    /// the page-pointer vector is allocated up front.
    pub fn new(num_entries: usize) -> Self {
        Self {
            pages: vec![None; num_entries.div_ceil(PAGE_ENTRIES)],
            num_entries,
        }
    }

    /// Number of addressable entries.
    pub fn len(&self) -> usize {
        self.num_entries
    }

    /// Whether the table tracks no entries at all.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Pages currently materialized (diagnostics/benchmarks).
    pub fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Read entry `idx` by value. Absent pages and stale-stamped entries
    /// read as [`FRESH`].
    pub fn get(&self, idx: usize) -> ShadowEntry {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        match &self.pages[idx / PAGE_ENTRIES] {
            Some(p) if p.stamps[idx % PAGE_ENTRIES] == p.generation => {
                p.entries[idx % PAGE_ENTRIES]
            }
            _ => FRESH,
        }
    }

    /// Mutable access to entry `idx`, materializing its page and lazily
    /// re-initializing the entry if its stamp is stale.
    pub fn get_mut(&mut self, idx: usize) -> &mut ShadowEntry {
        let mut h = DetectorHealth::default();
        self.get_mut_counted(idx, &mut h)
    }

    /// [`Self::get_mut`] with fidelity accounting: counts page
    /// materializations (occupancy gauge) and lazy fresh-on-mismatch
    /// re-initializations into `h`.
    pub fn get_mut_counted(&mut self, idx: usize, h: &mut DetectorHealth) -> &mut ShadowEntry {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        let slot = &mut self.pages[idx / PAGE_ENTRIES];
        if slot.is_none() {
            h.shadow_pages_allocated += 1;
        }
        let page = slot.get_or_insert_with(Default::default);
        let o = idx % PAGE_ENTRIES;
        if page.stamps[o] != page.generation {
            h.shadow_fresh_on_mismatch += 1;
            page.stamps[o] = page.generation;
            page.entries[o] = FRESH;
        }
        // The caller may mutate the entry arbitrarily through the
        // returned reference; the hot-word mirror is repacked lazily by
        // the next batch run.
        page.hot_valid = false;
        &mut page.entries[o]
    }

    /// Page index of entry `idx` — the grouping key batch checks use to
    /// form contiguous same-page runs.
    #[inline]
    pub fn page_of(idx: usize) -> usize {
        idx / PAGE_ENTRIES
    }

    /// Resolve the page containing entry `idx` once — materializing it
    /// with the same allocation accounting as [`Self::get_mut_counted`] —
    /// and run `f` against it. Batch-check entry point: callers group a
    /// warp's consecutive same-page accesses and amortize the page lookup
    /// over the whole run instead of paying it per chunk. The health
    /// counter is lent back into the closure so entry resolution and
    /// state-machine accounting share one accumulator.
    pub fn with_page<R>(
        &mut self,
        idx: usize,
        h: &mut DetectorHealth,
        f: impl FnOnce(&mut PageEntries<'_>, &mut DetectorHealth) -> R,
    ) -> R {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        let pi = idx / PAGE_ENTRIES;
        let slot = &mut self.pages[pi];
        if slot.is_none() {
            h.shadow_pages_allocated += 1;
        }
        let page = slot.get_or_insert_with(Default::default);
        f(&mut PageEntries { page, base: pi * PAGE_ENTRIES }, h)
    }

    /// Invalidate entries in the half-open range `[first, last)`:
    /// generation bump for fully-covered pages, an entry walk for partial
    /// boundary pages, nothing at all for pages never materialized.
    pub fn reset_range(&mut self, first: usize, last: usize) {
        let first = first.min(self.num_entries);
        let last = last.min(self.num_entries);
        if first >= last {
            return;
        }
        let first_page = first / PAGE_ENTRIES;
        let last_page = (last - 1) / PAGE_ENTRIES;
        for pi in first_page..=last_page {
            let Some(page) = self.pages[pi].as_deref_mut() else {
                continue;
            };
            let page_lo = pi * PAGE_ENTRIES;
            let lo = first.max(page_lo) - page_lo;
            let hi = last.min(page_lo + PAGE_ENTRIES) - page_lo;
            if lo == 0 && hi == PAGE_ENTRIES {
                page.bump();
            } else {
                for o in lo..hi {
                    page.stamps[o] = page.generation;
                    page.entries[o] = FRESH;
                    page.hot0[o] = hotwords::FRESH_H0;
                    page.hot1[o] = hotwords::FRESH_H1;
                    page.hot2[o] = hotwords::FRESH_H2;
                }
            }
        }
    }

    /// Invalidate every entry (kernel launch/termination). Always a pure
    /// generation bump, even for a short tail page — indices past
    /// `num_entries` are unreachable, so the whole-page reset is safe.
    pub fn reset_all(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.bump();
        }
    }

    /// Test hook: overwrite the generation counter of the page holding
    /// `idx` (materializing it) *without* restamping entries, so tests can
    /// manufacture stale stamps and near-wraparound epochs directly.
    #[doc(hidden)]
    pub fn force_generation(&mut self, idx: usize, generation: u32) {
        let page = self.pages[idx / PAGE_ENTRIES].get_or_insert_with(Default::default);
        page.generation = generation;
    }

    /// Test hook: the generation counter of the page holding `idx`
    /// (`None` if the page was never materialized).
    #[doc(hidden)]
    pub fn generation_of(&self, idx: usize) -> Option<u32> {
        self.pages[idx / PAGE_ENTRIES].as_deref().map(|p| p.generation)
    }
}

/// Mutable view of one materialized shadow page, handed out by
/// [`ShadowTable::with_page`]. Entry resolution performs the identical
/// lazy fresh-on-mismatch restamping (and fidelity accounting) as
/// [`ShadowTable::get_mut_counted`], minus the per-chunk page lookup.
pub struct PageEntries<'a> {
    page: &'a mut ShadowPage,
    base: usize,
}

impl PageEntries<'_> {
    /// Mutable access to entry `idx` (absolute table index; must lie on
    /// this page), lazily re-initializing it if its stamp is stale.
    #[inline]
    pub fn entry_counted(&mut self, idx: usize, h: &mut DetectorHealth) -> &mut ShadowEntry {
        debug_assert_eq!(idx / PAGE_ENTRIES, self.base / PAGE_ENTRIES, "index off page");
        // The mask is a no-op for on-page indices (debug-asserted above)
        // and proves the index in-bounds, eliding both bounds checks in
        // the batch loop.
        let o = (idx - self.base) % PAGE_ENTRIES;
        if self.page.stamps[o] != self.page.generation {
            h.shadow_fresh_on_mismatch += 1;
            self.page.stamps[o] = self.page.generation;
            self.page.entries[o] = FRESH;
        }
        self.page.hot_valid = false;
        &mut self.page.entries[o]
    }

    /// Repack the whole page's hot words if a scalar accessor invalidated
    /// them. Wide runs call this once per run; the common case is a
    /// single `bool` test.
    #[inline]
    pub fn ensure_hot(&mut self) {
        if !self.page.hot_valid {
            for o in 0..PAGE_ENTRIES {
                self.page.repack(o);
            }
            self.page.hot_valid = true;
        }
    }

    /// Fused per-lane wide tier: stamp-check, SWAR screen, and (for a
    /// passing write) the hot-word apply, in one slot resolution. Returns
    /// `Some((changed, before, after))` when the lane passed the screen —
    /// exactly the scalar fast path's outcome, with the Fig. 3 states
    /// read from the hot-word flags (a passing lane's only possible edge
    /// is a write promoting `ReadSingle` to `Written`) — or `None` for a
    /// cold lane, which is left stamp-checked for [`Self::cold_entry`].
    /// Because each lane screens against the *current* hot words at its
    /// own turn, a run walked through this method observes mutations
    /// from earlier cold lanes exactly as the scalar pipeline would.
    #[inline]
    pub fn lane_screen_apply(
        &mut self,
        idx: usize,
        a: &MemAccess,
        masks: (u64, u64),
        h: &mut DetectorHealth,
    ) -> Option<(bool, ShadowState, ShadowState)> {
        let o = (idx - self.base) % PAGE_ENTRIES;
        let p = &mut *self.page;
        if p.stamps[o] != p.generation {
            h.shadow_fresh_on_mismatch += 1;
            p.stamps[o] = p.generation;
            p.entries[o] = FRESH;
            p.hot0[o] = hotwords::FRESH_H0;
            p.hot1[o] = hotwords::FRESH_H1;
            p.hot2[o] = hotwords::FRESH_H2;
        }
        let h1 = p.hot1[o];
        let before =
            ShadowState::of(h1 & hotwords::H1_MODIFIED != 0, h1 & hotwords::H1_SHARED != 0);
        if !a.kind.is_tracked() {
            // Untracked (atomic) lanes screen as pass and apply nothing,
            // mirroring the scalar early return.
            return Some((false, before, before));
        }
        let k0 = hotwords::key0(&a.who);
        let k1 = hotwords::key1(&a.who, a.sync_id, a.in_critical_section);
        let is_write = a.kind.is_write();
        let m = if is_write { masks.0 } else { masks.1 };
        // Folded into one word so the screen is a single branch source.
        if ((p.hot0[o] ^ k0) | ((h1 ^ k1) & m)) != 0 {
            return None;
        }
        Some(if is_write {
            (p.fast_write_at(o, a, h1), before, ShadowState::Written)
        } else {
            (false, before, before)
        })
    }

    /// Raw entry access for a screened-out (cold) lane. Unlike
    /// [`Self::entry_counted`] this neither stamp-checks (the lane was
    /// stamp-checked by [`Self::lane_screen_apply`]) nor
    /// invalidates the page mirror — the caller repacks the entry via
    /// [`Self::repack_entry`] after mutating it.
    #[inline]
    pub fn cold_entry(&mut self, idx: usize) -> &mut ShadowEntry {
        let o = (idx - self.base) % PAGE_ENTRIES;
        debug_assert_eq!(self.page.stamps[o], self.page.generation, "cold lane not stamp-checked");
        &mut self.page.entries[o]
    }

    /// Recompute entry `idx`'s hot words after a cold-path mutation.
    #[inline]
    pub fn repack_entry(&mut self, idx: usize) {
        let o = (idx - self.base) % PAGE_ENTRIES;
        self.page.repack(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess, ThreadCoord};
    use crate::bloom::BloomConfig;
    use crate::clocks::ClockFile;
    use crate::shadow::ShadowPolicy;

    fn dirty(t: &mut ShadowTable, idx: usize) {
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT);
        let a = MemAccess::plain(0, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0));
        let r = t.get_mut(idx).observe(&a, &c, &p);
        assert!(r.is_none());
        assert!(!t.get(idx).is_fresh());
    }

    #[test]
    fn untouched_entries_read_fresh_without_pages() {
        let t = ShadowTable::new(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.pages_allocated(), 0);
        assert!(t.get(0).is_fresh());
        assert!(t.get(999).is_fresh());
    }

    #[test]
    fn first_touch_materializes_one_page() {
        let mut t = ShadowTable::new(1000);
        dirty(&mut t, 3);
        assert_eq!(t.pages_allocated(), 1);
        assert!(t.get(4).is_fresh(), "neighbours on the page stay fresh");
        dirty(&mut t, PAGE_ENTRIES + 1);
        assert_eq!(t.pages_allocated(), 2);
    }

    #[test]
    fn full_page_reset_is_a_generation_bump() {
        let mut t = ShadowTable::new(4 * PAGE_ENTRIES);
        dirty(&mut t, 0);
        dirty(&mut t, PAGE_ENTRIES);
        let g0 = t.generation_of(0).unwrap();
        t.reset_range(0, PAGE_ENTRIES);
        assert_eq!(t.generation_of(0), Some(g0 + 1));
        assert!(t.get(0).is_fresh());
        assert!(!t.get(PAGE_ENTRIES).is_fresh(), "second page untouched");
    }

    #[test]
    fn partial_page_reset_walks_only_the_subrange() {
        let mut t = ShadowTable::new(2 * PAGE_ENTRIES);
        dirty(&mut t, 10);
        dirty(&mut t, 20);
        let g0 = t.generation_of(0).unwrap();
        t.reset_range(15, 30);
        assert_eq!(t.generation_of(0), Some(g0), "no bump for a partial page");
        assert!(!t.get(10).is_fresh(), "outside the range: survives");
        assert!(t.get(20).is_fresh(), "inside the range: cleared");
    }

    #[test]
    fn reset_straddling_a_page_boundary() {
        let mut t = ShadowTable::new(3 * PAGE_ENTRIES);
        dirty(&mut t, PAGE_ENTRIES - 1);
        dirty(&mut t, PAGE_ENTRIES);
        dirty(&mut t, 2 * PAGE_ENTRIES - 1);
        dirty(&mut t, 2 * PAGE_ENTRIES + 5);
        // [last entry of page 0, all of page 1, first 6 of page 2).
        t.reset_range(PAGE_ENTRIES - 1, 2 * PAGE_ENTRIES + 6);
        assert!(t.get(PAGE_ENTRIES - 1).is_fresh());
        assert!(t.get(PAGE_ENTRIES).is_fresh());
        assert!(t.get(2 * PAGE_ENTRIES - 1).is_fresh());
        assert!(t.get(2 * PAGE_ENTRIES + 5).is_fresh());
    }

    #[test]
    fn reset_of_absent_pages_allocates_nothing() {
        let mut t = ShadowTable::new(64 * PAGE_ENTRIES);
        t.reset_range(0, 64 * PAGE_ENTRIES);
        t.reset_all();
        assert_eq!(t.pages_allocated(), 0);
    }

    #[test]
    fn stale_stamped_entry_reads_fresh_and_reinitializes_on_write() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        dirty(&mut t, 7);
        t.reset_range(0, PAGE_ENTRIES);
        assert!(t.get(7).is_fresh(), "stale stamp reads fresh");
        // The lazy re-init on get_mut must hand back a genuinely fresh
        // entry, not the stale pre-reset state.
        assert!(t.get_mut(7).is_fresh());
    }

    #[test]
    fn generation_wraparound_does_not_resurrect_stale_entries() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        // Entry stamped under generation 0, then an epoch forced to the
        // far future (as if u32::MAX resets happened since).
        dirty(&mut t, 0);
        t.force_generation(0, u32::MAX);
        assert!(t.get(0).is_fresh(), "stamp 0 vs generation MAX: stale");
        // The wrapping bump must NOT land the counter back on 0 with the
        // old stamp still in place — that would resurrect the entry.
        t.reset_range(0, PAGE_ENTRIES);
        assert!(t.get(0).is_fresh(), "wraparound resurrected a stale entry");
        assert_eq!(t.generation_of(0), Some(0), "hard reset rewinds the epoch");
        assert!(t.get_mut(0).is_fresh());
    }

    #[test]
    fn reset_all_covers_a_short_tail_page() {
        let mut t = ShadowTable::new(PAGE_ENTRIES + 10);
        dirty(&mut t, PAGE_ENTRIES + 3);
        t.reset_all();
        assert!(t.get(PAGE_ENTRIES + 3).is_fresh());
    }

    #[test]
    fn counted_access_reports_pages_and_stale_reinit() {
        let mut t = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        t.get_mut_counted(0, &mut h);
        assert_eq!(h.shadow_pages_allocated, 1, "first touch materializes");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "new pages come pre-stamped");
        t.get_mut_counted(0, &mut h);
        assert_eq!(h.shadow_pages_allocated, 1, "second touch reuses the page");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "live entry: no re-init");
        dirty(&mut t, 0);
        t.reset_range(0, PAGE_ENTRIES);
        t.get_mut_counted(0, &mut h);
        assert_eq!(h.shadow_fresh_on_mismatch, 1, "stale stamp re-inits");
    }

    #[test]
    fn with_page_matches_get_mut_counted() {
        // The batch page view must be indistinguishable from per-entry
        // resolution: same entries handed out, same health accounting,
        // through materialization, reset, and lazy re-init.
        let mut scalar = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut batch = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut hs = DetectorHealth::default();
        let mut hb = DetectorHealth::default();
        let idxs = [0usize, 5, 5, PAGE_ENTRIES - 1];
        for &i in &idxs {
            scalar.get_mut_counted(i, &mut hs).protected = true;
        }
        batch.with_page(idxs[0], &mut hb, |pe, h| {
            for &i in &idxs {
                pe.entry_counted(i, h).protected = true;
            }
        });
        assert_eq!(hs.shadow_pages_allocated, hb.shadow_pages_allocated);
        assert_eq!(hs.shadow_fresh_on_mismatch, hb.shadow_fresh_on_mismatch);
        scalar.reset_range(0, PAGE_ENTRIES);
        batch.reset_range(0, PAGE_ENTRIES);
        // Stale stamps re-init identically through both paths.
        let s = *scalar.get_mut_counted(5, &mut hs);
        let b = batch.with_page(5, &mut hb, |pe, h| *pe.entry_counted(5, h));
        assert_eq!(s, b);
        assert!(b.is_fresh());
        assert_eq!(hs.shadow_fresh_on_mismatch, hb.shadow_fresh_on_mismatch);
        assert_eq!(hs.shadow_pages_allocated, hb.shadow_pages_allocated);
    }

    #[test]
    fn hot_mirror_survives_scalar_mutation_and_resets() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        let who = ThreadCoord::new(3, 1, 0, 0);
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let masks = crate::hotwords::screen_masks(&p);
        let w = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(7).at_pc(0x40);
        let w2 = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(9).at_pc(0x44);
        // A scalar mutation invalidates the mirror; ensure_hot repacks it,
        // so the owner's next write passes the screen (stale fresh hot
        // words would have sent it cold) and refreshes the entry.
        let _ = t.get_mut_counted(2, &mut h).observe_health(&w, &c, &p, &mut h);
        let written = (ShadowState::Written, ShadowState::Written);
        t.with_page(2, &mut h, |pe, h| {
            pe.ensure_hot();
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), Some((true, written.0, written.1)));
            // An identical repeat elides the store.
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), Some((false, written.0, written.1)));
        });
        let e = t.get(2);
        assert_eq!((e.write_cycle, e.pc), (9, 0x44));
        // A partial-page reset walks entries and hot words together: the
        // slot screens cold as a fresh entry, with no lazy re-init left.
        t.reset_range(0, 10);
        let stale_before = h.shadow_fresh_on_mismatch;
        t.with_page(2, &mut h, |pe, h| {
            pe.ensure_hot();
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), None);
            assert!(pe.cold_entry(2).is_fresh());
        });
        assert_eq!(h.shadow_fresh_on_mismatch, stale_before);
    }

    #[test]
    fn out_of_table_reset_ranges_are_clamped() {
        let mut t = ShadowTable::new(100);
        dirty(&mut t, 99);
        t.reset_range(50, 100_000);
        assert!(t.get(99).is_fresh());
        t.reset_range(500, 600); // entirely past the end: no-op
        t.reset_range(60, 10); // inverted: no-op
    }
}
