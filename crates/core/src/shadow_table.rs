//! Demand-paged, epoch-stamped shadow storage, and the page format the
//! batch kernel's wide tier screens.
//!
//! The RDU shadow tables used to be monolithic `Vec<ShadowEntry>`s that
//! were allocated and zeroed eagerly — one entry per tracked chunk,
//! every launch. That is precisely the software shadow-memory upkeep the
//! paper argues against (§VI, Fig. 7): the *modeled* hardware clears
//! banked SRAM rows in parallel, but the *simulator* was paying
//! O(tracked bytes) on the host for it.
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
//!   the next access. Partially-covered boundary pages are walked.
//!
//! The *timing* charge for a reset (the banked-clear cycles of §IV-A) is
//! unchanged — callers compute it arithmetically from the range size via
//! [`crate::cost::banked_reset_cycles`]; only the host-side work is lazy.
//! Observable behavior is bit-identical to the eager table: a stale-stamp
//! entry is indistinguishable from one that was eagerly reset.
//!
//! # Page format
//!
//! A page stores each entry once, as columns that hold every field at
//! its full width, so storing a [`ShadowEntry`] and loading it back
//! returns it bit for bit:
//!
//! * `id` = `tid | warp << 32` — the per-lane identity;
//! * `place` = `block | sm << 32` — the warp-uniform identity;
//! * `tag` — `sync_id` in bits 0..8, then the `protected`, `fresh`
//!   (`modified & shared`), `shared` and `modified` flags;
//! * `fence_pc` = `fence_id | pc << 8`, and `write_cycle`;
//! * `cold` — `atomic_sig`, `locks` and `locks_known`, which only the
//!   full check reads.
//!
//! The full Fig. 3 check loads an entry, runs the rules on the value and
//! stores the result back ([`PageEntries::load`], [`PageEntries::store`]).
//! The wide tier ([`PageEntries::lane_screen_apply`],
//! [`PageEntries::lane_first_touch`]) works on the columns directly: its
//! screen is three masked XORs of stored words against keys built from
//! the access, and a passing write updates only `id`, `tag`, `fence_pc`
//! and `write_cycle`. DESIGN.md §9 argues that a lane passes the screen
//! exactly when the Fig. 3 rules order it with the recorded access.

use crate::access::MemAccess;
use crate::bloom::BloomSig;
use crate::health::DetectorHealth;
use crate::locktable::LockTable;
use crate::shadow::{ShadowEntry, ShadowPolicy, ShadowState, FRESH};

/// Entries per shadow page. 128 entries of 66 host bytes (the columns
/// plus a 4-byte stamp) make a page of about 8.3 KiB, which keeps the
/// page-pointer vector tiny (8 bytes per page) while amortizing the
/// allocation over many chunks.
pub const PAGE_ENTRIES: usize = 128;

// ---- tag bits ----

/// Bits 0..8 of a tag: the recorded sync ID.
const TAG_SYNC: u16 = 0xFF;
/// The epoch was opened inside a critical section.
const TAG_PROTECTED: u16 = 1 << 8;
/// The reset state, `modified & shared`.
const TAG_FRESH: u16 = 1 << 9;
/// The entry's `shared` bit: screened for writes, don't-care for reads.
const TAG_SHARED: u16 = 1 << 10;
/// The entry's `modified` bit. No screen mask holds it: the wide apply
/// reads it to pick between the `ReadSingle -> Written` promotion and
/// store elision.
const TAG_MODIFIED: u16 = 1 << 11;
/// Key-side flag for an access inside a critical section. No entry sets
/// it, so such an access always screens out: the §III-B lockset rules of
/// the full check take every critical-section lane.
const KEY_CS: u16 = 1 << 12;

/// The `id` column's word.
fn id_word(tid: u32, warp: u32) -> u64 {
    u64::from(tid) | u64::from(warp) << 32
}

/// The `place` column's word.
fn place_word(block: u32, sm: u32) -> u64 {
    u64::from(block) | u64::from(sm) << 32
}

/// The `fence_pc` column's word.
fn fence_pc_word(fence_id: u8, pc: u32) -> u64 {
    u64::from(fence_id) | u64::from(pc) << 8
}

/// The `tag` column's word.
fn tag_of(e: &ShadowEntry) -> u16 {
    let flag = |on: bool, bit: u16| if on { bit } else { 0 };
    u16::from(e.sync_id)
        | flag(e.protected, TAG_PROTECTED)
        | flag(e.modified && e.shared, TAG_FRESH)
        | flag(e.shared, TAG_SHARED)
        | flag(e.modified, TAG_MODIFIED)
}

/// The fields only the full check reads: the entry's locksets.
#[derive(Clone, Copy, Debug)]
struct Cold {
    atomic_sig: BloomSig,
    locks: LockTable<4>,
    locks_known: bool,
}

impl Cold {
    fn of(e: &ShadowEntry) -> Self {
        Self { atomic_sig: e.atomic_sig, locks: e.locks, locks_known: e.locks_known }
    }
}

/// The compare masks of one policy's screen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScreenMasks {
    /// `id` mask: the warp half exact, the tid half as [`screen_masks`]
    /// sets it.
    pub id: u64,
    /// `tag` mask for writes: the sync ID (under sync-ID epochs), the
    /// protected, fresh and shared flags and the critical-section key.
    pub write: u16,
    /// `tag` mask for reads: the write mask minus `shared` (reads pass
    /// in every non-fresh state, `ReadShared` included).
    pub read: u16,
}

/// The screen masks for a policy. Sync IDs take part only when the
/// policy runs the §IV-B epoch filter (global memory): the full check
/// reopens an epoch on a sync-ID mismatch only under
/// `p.sync_id_epochs`. With the §III-A warp filter on, a lane of the
/// recorded warp is ordered with it, so the §VI-C2 10-bit tid field (the
/// bits one warp's lanes differ in) is left out of the `id` compare: two
/// tids that agree above it differ inside it iff they differ at all, so
/// the packed-ID truncation counter can never fire on a passing lane.
/// Without the filter only the recorded thread itself passes.
#[inline]
pub fn screen_masks(p: &ShadowPolicy) -> ScreenMasks {
    let tid: u32 = if p.warp_filter { !0x3FF } else { !0 };
    let sync = if p.sync_id_epochs { TAG_SYNC } else { 0 };
    let write = sync | TAG_PROTECTED | TAG_FRESH | TAG_SHARED | KEY_CS;
    ScreenMasks { id: id_word(tid, u32::MAX), write, read: write & !TAG_SHARED }
}

/// One materialized shadow page: a generation, a stamp per entry, and
/// the entries as the columns of the module's page format.
#[derive(Clone, Debug)]
struct ShadowPage {
    /// Current epoch. An entry is live only while `stamps[i]` matches.
    generation: u32,
    /// Generation each entry was last initialized under.
    stamps: [u32; PAGE_ENTRIES],
    id: [u64; PAGE_ENTRIES],
    place: [u64; PAGE_ENTRIES],
    tag: [u16; PAGE_ENTRIES],
    fence_pc: [u64; PAGE_ENTRIES],
    write_cycle: [u64; PAGE_ENTRIES],
    cold: [Cold; PAGE_ENTRIES],
}

impl Default for ShadowPage {
    fn default() -> Self {
        Self {
            generation: 0,
            stamps: [0; PAGE_ENTRIES],
            id: [id_word(FRESH.tid, FRESH.warp); PAGE_ENTRIES],
            place: [place_word(FRESH.block, FRESH.sm); PAGE_ENTRIES],
            tag: [tag_of(&FRESH); PAGE_ENTRIES],
            fence_pc: [fence_pc_word(FRESH.fence_id, FRESH.pc); PAGE_ENTRIES],
            write_cycle: [FRESH.write_cycle; PAGE_ENTRIES],
            cold: [Cold::of(&FRESH); PAGE_ENTRIES],
        }
    }
}

impl ShadowPage {
    /// The entry slot `o` stores.
    #[inline]
    fn load(&self, o: usize) -> ShadowEntry {
        let (id, place, tag, fence_pc) = (self.id[o], self.place[o], self.tag[o], self.fence_pc[o]);
        let cold = self.cold[o];
        ShadowEntry {
            modified: tag & TAG_MODIFIED != 0,
            shared: tag & TAG_SHARED != 0,
            tid: id as u32,
            warp: (id >> 32) as u32,
            block: place as u32,
            sm: (place >> 32) as u32,
            sync_id: tag as u8,
            fence_id: fence_pc as u8,
            atomic_sig: cold.atomic_sig,
            locks: cold.locks,
            locks_known: cold.locks_known,
            protected: tag & TAG_PROTECTED != 0,
            write_cycle: self.write_cycle[o],
            pc: (fence_pc >> 8) as u32,
        }
    }

    /// Store `e` in slot `o`.
    #[inline]
    fn store(&mut self, o: usize, e: &ShadowEntry) {
        self.id[o] = id_word(e.tid, e.warp);
        self.place[o] = place_word(e.block, e.sm);
        self.tag[o] = tag_of(e);
        self.fence_pc[o] = fence_pc_word(e.fence_id, e.pc);
        self.write_cycle[o] = e.write_cycle;
        self.cold[o] = Cold::of(e);
    }

    /// Stamp-check slot `o`: a slot stamped under an older generation is
    /// re-initialized to [`FRESH`], counted in `h`.
    #[inline(always)]
    fn restamp(&mut self, o: usize, h: &mut DetectorHealth) {
        if self.stamps[o] != self.generation {
            h.shadow_fresh_on_mismatch += 1;
            self.stamps[o] = self.generation;
            self.store(o, &FRESH);
        }
    }

    /// The SWAR screen: whether tracked access `a` fails to match the
    /// entry in slot `o` under `masks` — another warp, block or SM, a
    /// thread the masks do not order, another sync epoch, a critical
    /// section on either side, a fresh entry, or a write to a
    /// read-shared one. Folded into one word so the screen is a single
    /// branch source.
    #[inline(always)]
    fn screens_out(&self, o: usize, a: &MemAccess, masks: ScreenMasks) -> bool {
        let key_tag = u16::from(a.sync_id) | if a.in_critical_section { KEY_CS } else { 0 };
        let tag_mask = if a.kind.is_write() { masks.write } else { masks.read };
        (((self.id[o] ^ id_word(a.who.tid, a.who.warp)) & masks.id)
            | (self.place[o] ^ place_word(a.who.block, a.who.sm))
            | u64::from((self.tag[o] ^ key_tag) & tag_mask))
            != 0
    }

    /// Apply a screened-pass *write* lane at slot `o` on the columns:
    /// `ReadSingle -> Written` promotion, or store elision for an
    /// already-`Written` entry. A writer that is another lane of the
    /// recorded warp (its `id` differs in the tid half only) takes over
    /// `tid`, as the full check's ordered write does. Returns whether the
    /// entry changed — exactly the `*entry != before` the full check
    /// computes, because every column holds its fields exactly.
    #[inline]
    fn fast_write_at(&mut self, o: usize, a: &MemAccess, tag: u16) -> bool {
        let key_id = id_word(a.who.tid, a.who.warp);
        let other_lane = self.id[o] != key_id;
        self.id[o] = key_id;
        let fence_pc = fence_pc_word(a.fence_id, a.pc);
        if tag & TAG_MODIFIED != 0 {
            // Written + write: the steady store-elision state.
            if self.fence_pc[o] == fence_pc && self.write_cycle[o] == a.cycle {
                return other_lane;
            }
        } else {
            // ReadSingle + ordered write: promote to Written.
            self.tag[o] = tag | TAG_MODIFIED;
        }
        self.fence_pc[o] = fence_pc;
        self.write_cycle[o] = a.cycle;
        true
    }

    /// Open a fresh slot `o` with `a`'s first touch: the full check's
    /// State 1 (no lockset outside a critical section, no truncated-ID
    /// check on a fresh entry, always a change). Cold and out of line: a
    /// first touch happens once per slot and epoch, so it stays off the
    /// steady-state lanes' code path.
    #[cold]
    #[inline(never)]
    fn open_at(&mut self, o: usize, a: &MemAccess) -> (bool, ShadowState, ShadowState) {
        let mut e = FRESH;
        e.init_from(a);
        self.store(o, &e);
        (true, ShadowState::Fresh, e.state())
    }

    /// Bump the epoch, invalidating every entry lazily. On wraparound,
    /// where a plain bump could collide with an ancient stamp and
    /// resurrect a stale entry, every entry is reset eagerly and the
    /// epoch rewinds.
    fn bump(&mut self) {
        if self.generation == u32::MAX {
            *self = Self::default();
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

    /// Read entry `idx` by value. Absent pages and stale-stamped entries
    /// read as [`FRESH`].
    pub fn get(&self, idx: usize) -> ShadowEntry {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        match &self.pages[idx / PAGE_ENTRIES] {
            Some(p) if p.stamps[idx % PAGE_ENTRIES] == p.generation => p.load(idx % PAGE_ENTRIES),
            _ => FRESH,
        }
    }

    /// Page index of entry `idx` — the grouping key batch checks use to
    /// form contiguous same-page runs.
    #[inline]
    pub fn page_of(idx: usize) -> usize {
        idx / PAGE_ENTRIES
    }

    /// Resolve the page containing entry `idx` once — materializing it,
    /// and counting the materialization in
    /// `h.shadow_pages_allocated` — and run `f` against it. The one
    /// access path: the batch kernel's runs resolve their page once for
    /// the whole run, and every other check resolves it per chunk. The
    /// health counter is lent back into the closure so entry resolution
    /// and state-machine accounting share one accumulator.
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
                    page.store(o, &FRESH);
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
/// [`ShadowTable::with_page`]. Every method takes an absolute table
/// index, which must lie on this page.
pub struct PageEntries<'a> {
    page: &'a mut ShadowPage,
    base: usize,
}

impl PageEntries<'_> {
    /// The page slot of entry `idx`.
    #[inline(always)]
    fn slot(&self, idx: usize) -> usize {
        debug_assert_eq!(idx / PAGE_ENTRIES, self.base / PAGE_ENTRIES, "index off page");
        // The modulo is a no-op for on-page indices (debug-asserted
        // above) and proves the index in bounds, eliding the columns'
        // bounds checks in the batch loop.
        (idx - self.base) % PAGE_ENTRIES
    }

    /// Entry `idx` by value, for the full check: a slot stamped under an
    /// older generation is re-initialized to [`FRESH`] first (counted in
    /// `h.shadow_fresh_on_mismatch`).
    #[inline]
    pub fn load(&mut self, idx: usize, h: &mut DetectorHealth) -> ShadowEntry {
        let o = self.slot(idx);
        self.page.restamp(o, h);
        self.page.load(o)
    }

    /// Store `e` as entry `idx`, whose slot a [`Self::load`] or a screen
    /// of the same lane stamp-checked.
    #[inline]
    pub fn store(&mut self, idx: usize, e: &ShadowEntry) {
        let o = self.slot(idx);
        debug_assert_eq!(self.page.stamps[o], self.page.generation, "store to an unstamped slot");
        self.page.store(o, e);
    }

    /// Fused per-lane wide tier: stamp-check, SWAR screen, and (for a
    /// passing write) the column apply, in one slot resolution. Returns
    /// `Some((changed, before, after))` when the lane passed the screen —
    /// exactly the full check's outcome for a lane the Fig. 3 rules order
    /// with the recorded access, with the Fig. 3 states read from the
    /// tag (a passing lane's only possible edge is a write promoting
    /// `ReadSingle` to `Written`) — or `None` for a lane that screened
    /// out, which is left stamp-checked for [`Self::lane_first_touch`]
    /// and the full check. Because each lane screens against the
    /// *current* columns at its own turn, a run walked through this
    /// method observes mutations from earlier full-check lanes exactly as
    /// the scalar pipeline would. Always inlined into the batch loop: as
    /// an out-of-line call it cost the coalesced steady state about 40%.
    #[inline(always)]
    pub fn lane_screen_apply(
        &mut self,
        idx: usize,
        a: &MemAccess,
        masks: ScreenMasks,
        h: &mut DetectorHealth,
    ) -> Option<(bool, ShadowState, ShadowState)> {
        let o = self.slot(idx);
        let p = &mut *self.page;
        p.restamp(o, h);
        let tag = p.tag[o];
        let before = ShadowState::of(tag & TAG_MODIFIED != 0, tag & TAG_SHARED != 0);
        if !a.kind.is_tracked() {
            // Untracked (atomic) lanes screen as pass and apply nothing,
            // mirroring the scalar early return.
            return Some((false, before, before));
        }
        if p.screens_out(o, a, masks) {
            return None;
        }
        Some(if a.kind.is_write() {
            (p.fast_write_at(o, a, tag), before, ShadowState::Written)
        } else {
            (false, before, before)
        })
    }

    /// The wide tier's second chance for a lane that screened out: the
    /// first touch of a fresh slot by a tracked access outside a
    /// critical section opens the epoch exactly as the full check's
    /// State 1 does, returning `Some((true, Fresh, after))`. `None`
    /// leaves the lane (critical-section first touches included) to the
    /// full check. Must follow [`Self::lane_screen_apply`] on the same
    /// lane, which stamp-checked the slot.
    #[inline(always)]
    pub fn lane_first_touch(
        &mut self,
        idx: usize,
        a: &MemAccess,
    ) -> Option<(bool, ShadowState, ShadowState)> {
        let o = self.slot(idx);
        let p = &mut *self.page;
        debug_assert_eq!(p.stamps[o], p.generation, "first touch not stamp-checked");
        let fresh = p.tag[o] & TAG_FRESH != 0;
        (fresh && a.kind.is_tracked() && !a.in_critical_section).then(|| p.open_at(o, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess, ThreadCoord};
    use crate::bloom::BloomConfig;
    use crate::clocks::ClockFile;
    use crate::shadow::reference_check;

    /// Pages currently materialized.
    fn pages(t: &ShadowTable) -> usize {
        t.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Entry `idx` through the one access path, counting into `h`.
    fn load(t: &mut ShadowTable, idx: usize, h: &mut DetectorHealth) -> ShadowEntry {
        t.with_page(idx, h, |pe, h| pe.load(idx, h))
    }

    /// Store `e` as entry `idx` through the one access path.
    fn put(t: &mut ShadowTable, idx: usize, e: &ShadowEntry) {
        t.with_page(idx, &mut DetectorHealth::default(), |pe, h| {
            pe.load(idx, h);
            pe.store(idx, e);
        });
    }

    fn dirty(t: &mut ShadowTable, idx: usize) {
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT);
        let a = MemAccess::plain(0, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0));
        let mut e = t.get(idx);
        assert!(e.observe(&a, &c, &p).is_none());
        put(t, idx, &e);
        assert!(!t.get(idx).is_fresh());
    }

    #[test]
    fn untouched_entries_read_fresh_without_pages() {
        let t = ShadowTable::new(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(pages(&t), 0);
        assert!(t.get(0).is_fresh());
        assert!(t.get(999).is_fresh());
    }

    #[test]
    fn first_touch_materializes_one_page() {
        let mut t = ShadowTable::new(1000);
        dirty(&mut t, 3);
        assert_eq!(pages(&t), 1);
        assert!(t.get(4).is_fresh(), "neighbours on the page stay fresh");
        dirty(&mut t, PAGE_ENTRIES + 1);
        assert_eq!(pages(&t), 2);
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
        assert_eq!(pages(&t), 0);
    }

    #[test]
    fn stale_stamped_entry_reads_fresh_and_reinitializes_on_write() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        dirty(&mut t, 7);
        t.reset_range(0, PAGE_ENTRIES);
        assert!(t.get(7).is_fresh(), "stale stamp reads fresh");
        // The lazy re-init on load must hand back a genuinely fresh
        // entry, not the stale pre-reset state.
        assert!(load(&mut t, 7, &mut DetectorHealth::default()).is_fresh());
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
        assert!(load(&mut t, 0, &mut DetectorHealth::default()).is_fresh());
    }

    #[test]
    fn reset_all_covers_a_short_tail_page() {
        let mut t = ShadowTable::new(PAGE_ENTRIES + 10);
        dirty(&mut t, PAGE_ENTRIES + 3);
        t.reset_all();
        assert!(t.get(PAGE_ENTRIES + 3).is_fresh());
    }

    /// The health accounting of the one access path: a page counts once
    /// when materialized, however many slots its `with_page` call
    /// resolves, and a stale slot counts one lazy re-init.
    #[test]
    fn with_page_counts_pages_and_lazy_reinit() {
        let mut t = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        let idxs = [0usize, 5, 5, PAGE_ENTRIES - 1];
        t.with_page(idxs[0], &mut h, |pe, h| {
            for &i in &idxs {
                let mut e = pe.load(i, h);
                e.protected = true;
                pe.store(i, &e);
            }
        });
        assert_eq!(h.shadow_pages_allocated, 1, "first touch materializes");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "new pages come pre-stamped");
        assert!(load(&mut t, 5, &mut h).protected);
        assert_eq!(h.shadow_pages_allocated, 1, "second touch reuses the page");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "live entry: no re-init");
        t.reset_range(0, PAGE_ENTRIES);
        assert_eq!(load(&mut t, 5, &mut h), FRESH, "stale stamp re-inits");
        assert_eq!(h.shadow_fresh_on_mismatch, 1);
        load(&mut t, 5, &mut h);
        assert_eq!(h.shadow_fresh_on_mismatch, 1, "a re-init happens once");
        load(&mut t, PAGE_ENTRIES, &mut h);
        assert_eq!((h.shadow_pages_allocated, h.shadow_fresh_on_mismatch), (2, 1));
    }

    /// Storing an entry and loading it back returns it bit for bit at the
    /// full width of every field: each `(modified, shared)` pair (the
    /// Written+shared alias of a lockset-read `Written` entry included),
    /// identities past the §VI-C2 field widths up to `u32::MAX`, cycles
    /// past 2^23 up to `u64::MAX`, and every shape of exact lockset.
    #[test]
    fn columns_round_trip_at_full_width() {
        let ids = [0, 1023, 1024, 1 << 16, u32::MAX];
        let mut partial = LockTable::new();
        for lock in [0x40, 0x80, 0xC0] {
            partial.insert(lock);
        }
        partial.remove(0x40); // leaves a stale slot past `len`
        let mut saturated = LockTable::new();
        for lock in 1..=5 {
            saturated.insert(lock << 2);
        }
        assert!(saturated.saturated());
        // An unknown table, a known-empty one (refined to nothing), a
        // partial and a saturated one.
        let locksets =
            [(LockTable::EMPTY, false), (LockTable::EMPTY, true), (partial, true), (saturated, true)];
        let mut t = ShadowTable::new(3 * PAGE_ENTRIES);
        let mut n = 0;
        for (modified, shared) in [(false, false), (false, true), (true, false), (true, true)] {
            for k in 0..ids.len() {
                for write_cycle in [0, 1 << 23, u64::MAX] {
                    for (locks, locks_known) in locksets {
                        let e = ShadowEntry {
                            modified,
                            shared,
                            tid: ids[k],
                            warp: ids[(k + 1) % ids.len()],
                            block: ids[(k + 2) % ids.len()],
                            sm: ids[(k + 3) % ids.len()],
                            sync_id: 255,
                            fence_id: 255,
                            atomic_sig: BloomSig(u32::MAX - k as u32),
                            locks,
                            locks_known,
                            protected: k % 2 == 1,
                            write_cycle,
                            pc: u32::MAX,
                        };
                        let idx = n % (2 * PAGE_ENTRIES);
                        put(&mut t, idx, &e);
                        assert_eq!(t.get(idx), e, "slot {idx}");
                        n += 1;
                    }
                }
            }
        }
        // A stale-stamped slot and a slot on a page never materialized
        // both load as FRESH, through `get` and through the access path.
        t.reset_range(0, PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        for idx in [3, 2 * PAGE_ENTRIES + 3] {
            assert_eq!(t.get(idx), FRESH, "slot {idx}");
            assert_eq!(load(&mut t, idx, &mut h), FRESH, "slot {idx}");
        }
        assert_eq!((h.shadow_pages_allocated, h.shadow_fresh_on_mismatch), (1, 1));
        assert_eq!(t.get(PAGE_ENTRIES + 3).pc, u32::MAX, "the reset left page 1 alone");
    }

    /// The screen over a grid of identity, sync-epoch and
    /// critical-section perturbations, with the warp filter on and off,
    /// against the full check: wherever the screen passes, the full check
    /// orders the lane with the recorded access — no race, no health
    /// count (the §VI-C2 truncated-ID count included), no epoch reopen.
    /// And the screen passes where it must: the recorded thread passes,
    /// sibling lanes pass with the warp filter and never without, and a
    /// write to a read-shared entry screens out. The grid runs from a
    /// recorded thread with small ids and from one whose block and SM
    /// lie past 16 bits.
    #[test]
    fn screen_equals_the_scalar_bail_predicate() {
        let c = ClockFile::new(4, 16);
        let mut policies = Vec::new();
        for warp_filter in [true, false] {
            policies.push(ShadowPolicy::global(warp_filter, true, BloomConfig::PAPER_DEFAULT));
            policies.push(ShadowPolicy::shared(warp_filter, BloomConfig::PAPER_DEFAULT));
        }
        for base in [ThreadCoord::new(7, 3, 1, 2), ThreadCoord::new(7, 3, u32::MAX - 1, 1 << 17)] {
            let (b, s) = (base.block, base.sm);
            let siblings = [ThreadCoord::new(8, 3, b, s), ThreadCoord::new(31, 3, b, s)];
            let perturbed = [
                base,
                siblings[0],
                siblings[1],
                ThreadCoord::new(7 + 1024, 3, b, s), // agrees in the tid field
                ThreadCoord::new(8 + 4096, 3, b, s),
                ThreadCoord::new(7, 4, b, s),
                ThreadCoord::new(8, 4, b, s),
                ThreadCoord::new(7, 3, b ^ 1, s),
                ThreadCoord::new(8, 3, b ^ 1, s),
                ThreadCoord::new(7, 3, b, s ^ 9),
                ThreadCoord::new(7, 3, b, s ^ (1 << 20)),
                ThreadCoord::new(7, 3, b, u32::MAX),
            ];
            for policy in &policies {
                let masks = screen_masks(policy);
                let screen = |e: &ShadowEntry, a: &MemAccess| {
                    let mut page = ShadowPage::default();
                    page.store(0, e);
                    !page.screens_out(0, a, masks)
                };
                for opener in [AccessKind::Read, AccessKind::Write] {
                    let mut e = FRESH;
                    let open = MemAccess::plain(0, 4, opener, base).with_clocks(3, 0);
                    assert!(e.observe(&open, &c, policy).is_none());
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
                                        let race = reference_check(&mut full, &a, &c, policy, &mut h);
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
    }

    #[test]
    fn fresh_slots_always_screen_out() {
        // Even an access whose identity and sync ID are all zeros
        // (matching FRESH's zeroed fields) must mismatch via the fresh
        // flag, in either policy and either kind.
        let who = ThreadCoord::new(0, 0, 0, 0);
        let page = ShadowPage::default();
        for p in [
            ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT),
            ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT),
        ] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let a = MemAccess::plain(0, 4, kind, who);
                assert!(page.screens_out(0, &a, screen_masks(&p)), "{kind:?}");
            }
        }
        assert_eq!(page.load(0), FRESH);
    }

    /// The owner's repeated write is elided iff fence, pc and cycle all
    /// match, at any cycle: a change to any one of them is a change to
    /// the entry.
    #[test]
    fn write_elision_is_exact() {
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let masks = screen_masks(&p);
        let who = ThreadCoord::new(3, 1, 0, 0);
        let mut h = DetectorHealth::default();
        for cycle in [77, (1 << 23) - 1, 1 << 23, u64::MAX - 1] {
            let mut t = ShadowTable::new(PAGE_ENTRIES);
            let w = MemAccess::plain(8, 4, AccessKind::Write, who).with_clocks(0, 3).at_pc(0x40);
            let opened = Some((true, ShadowState::Fresh, ShadowState::Written));
            let written = |changed| Some((changed, ShadowState::Written, ShadowState::Written));
            t.with_page(2, &mut h, |pe, h| {
                assert_eq!(pe.lane_screen_apply(2, &w.at_cycle(cycle), masks, h), None);
                assert_eq!(pe.lane_first_touch(2, &w.at_cycle(cycle)), opened);
                let mut last = w.at_cycle(cycle);
                for next in [
                    w.at_cycle(cycle + 1),
                    w.at_cycle(cycle + 1).with_clocks(0, 4),
                    w.at_cycle(cycle + 1).with_clocks(0, 4).at_pc(0x44),
                ] {
                    assert_eq!(pe.lane_screen_apply(2, &last, masks, h), written(false));
                    assert_eq!(pe.lane_screen_apply(2, &next, masks, h), written(true));
                    last = next;
                }
                assert_eq!(pe.lane_screen_apply(2, &last, masks, h), written(false));
            });
            let e = t.get(2);
            assert_eq!((e.write_cycle, e.fence_id, e.pc), (cycle + 1, 4, 0x44));
        }
        assert_eq!(h, DetectorHealth { shadow_pages_allocated: 4, ..DetectorHealth::default() });
    }

    /// First touches on the wide tier: a partial-page reset walks the
    /// slot back to FRESH with no lazy re-init left to count, a first
    /// touch after it opens on the wide tier with the entry and health
    /// the full check's State 1 leaves, and a critical-section first
    /// touch stays on the full check.
    #[test]
    fn first_touch_after_a_reset_opens_on_the_wide_tier() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        let who = ThreadCoord::new(3, 1, 0, 0);
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let masks = screen_masks(&p);
        let w = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(7).at_pc(0x40);
        let w2 = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(9).at_pc(0x44);
        let opened = Some((true, ShadowState::Fresh, ShadowState::Written));
        let written = |changed| Some((changed, ShadowState::Written, ShadowState::Written));
        t.with_page(2, &mut h, |pe, h| {
            assert_eq!(pe.lane_screen_apply(2, &w, masks, h), None);
            assert_eq!(pe.lane_first_touch(2, &w), opened);
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), written(true));
        });
        assert_eq!((t.get(2).write_cycle, t.get(2).pc), (9, 0x44));
        t.reset_range(0, 10);
        assert!(t.get(2).is_fresh());
        let health_before = h;
        let mut reference = FRESH;
        let mut h_ref = DetectorHealth::default();
        assert!(reference_check(&mut reference, &w2, &c, &p, &mut h_ref).is_none());
        t.with_page(2, &mut h, |pe, h| {
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), None, "a fresh slot screens out");
            assert_eq!(pe.lane_first_touch(2, &w2), opened);
            // The owner's repeat elides on the columns the open wrote.
            assert_eq!(pe.lane_screen_apply(2, &w2, masks, h), written(false));
        });
        assert_eq!(t.get(2), reference);
        assert_eq!(h_ref, DetectorHealth::default());
        assert_eq!(h, health_before, "a walked reset leaves no lazy re-init to count");
        // A critical-section first touch stays on the full check.
        t.reset_range(0, 10);
        let locked = w2.locked(BloomSig::of_lock(0x100, p.bloom));
        t.with_page(2, &mut h, |pe, h| {
            assert_eq!(pe.lane_screen_apply(2, &locked, masks, h), None);
            assert_eq!(pe.lane_first_touch(2, &locked), None);
            assert!(pe.load(2, h).is_fresh());
        });
    }

    /// The wide tier — `lane_screen_apply`, then `lane_first_touch` —
    /// against the full check, over a grid of recorded entries (fresh,
    /// opened by a read, opened by a write, read-shared) and follow-up
    /// lanes, in both spaces, with the §III-A warp filter on and off.
    /// Wherever the tier claims a lane, the full check must leave the
    /// identical entry, report no race and count no health event, the
    /// tier's change flag and Fig. 3 states must be the full check's, and
    /// the stored columns must load as the full check's entry. A declined
    /// lane must leave the entry as it was, for the full check.
    #[test]
    fn wide_tier_matches_the_full_check() {
        const IDX: usize = 2;
        let c = ClockFile::new(8, 64);
        let t = |tid: u32, warp: u32| ThreadCoord::new(tid, warp, warp / 2, (warp / 2) % 4);
        let rd = |who| MemAccess::plain(0, 4, AccessKind::Read, who);
        let wr = |who| MemAccess::plain(0, 4, AccessKind::Write, who);
        let lock = BloomSig::of_lock(0x100, BloomConfig::PAPER_DEFAULT);
        let locked = |who, kind| MemAccess::plain(0, 4, kind, who).locked(lock);
        let mut policies = Vec::new();
        for warp_filter in [true, false] {
            policies.push(ShadowPolicy::shared(warp_filter, BloomConfig::PAPER_DEFAULT));
            policies.push(ShadowPolicy::global(warp_filter, true, BloomConfig::PAPER_DEFAULT));
        }
        for p in policies {
            let masks = screen_masks(&p);
            // The tier's verdict on one lane against a slot holding
            // `setup`, the entry the slot loads as afterwards, and the
            // health the tier counted.
            let wide = |setup: ShadowEntry, a: &MemAccess| {
                let mut table = ShadowTable::new(PAGE_ENTRIES);
                put(&mut table, IDX, &setup);
                let mut h = DetectorHealth::default();
                let verdict = table.with_page(IDX, &mut h, |pe, h| {
                    pe.lane_screen_apply(IDX, a, masks, h).or_else(|| pe.lane_first_touch(IDX, a))
                });
                (verdict, table.get(IDX), h)
            };
            let opener_read = rd(t(5, 2)).with_clocks(3, 0).at_pc(10);
            let opener_write = wr(t(5, 2)).with_clocks(3, 0).at_pc(11).at_cycle(7);
            let mut setups = vec![FRESH];
            for opener in [&opener_read, &opener_write] {
                let mut e = FRESH;
                e.observe(opener, &c, &p);
                setups.push(e);
            }
            // Read-shared: a reader from another warp after the read.
            let mut read_shared = setups[1];
            read_shared.observe(&rd(t(90, 4)).with_clocks(3, 0), &c, &p);
            setups.push(read_shared);

            // Lane 6 of the opener's warp, and a thread 1024 tids away
            // that claims the same warp: it agrees with the recorded tid
            // in the §VI-C2 10-bit field, so packed hardware would
            // conflate the two and the full check counts a collision.
            let sibling = t(6, 2);
            let far = ThreadCoord::new(5 + 1024, 2, 1, 1);
            let followups = [
                opener_read,
                opener_write,
                rd(t(5, 2)).with_clocks(3, 0).at_pc(20),
                wr(t(5, 2)).with_clocks(3, 0).at_pc(21).at_cycle(9),
                wr(t(5, 2)).with_clocks(3, 0).at_pc(21).at_cycle(u64::MAX),
                wr(t(5, 2)).with_clocks(3, 1).at_pc(11).at_cycle(7),
                MemAccess::plain(0, 4, AccessKind::Atomic, t(5, 2)).with_clocks(3, 0),
                rd(sibling).with_clocks(3, 0).at_pc(22),
                wr(sibling).with_clocks(3, 0).at_pc(11).at_cycle(7),
                wr(sibling).with_clocks(3, 0).at_pc(23).at_cycle(9),
                // Lanes the tier must leave to the full check once the
                // entry is open: another warp, a new epoch, a critical
                // section, the far thread.
                wr(t(90, 4)).with_clocks(3, 0),
                wr(t(5, 2)).with_clocks(4, 0),
                wr(sibling).with_clocks(4, 0),
                locked(t(5, 2), AccessKind::Write),
                locked(sibling, AccessKind::Read),
                wr(far).with_clocks(3, 0),
                rd(far).with_clocks(3, 0),
            ];
            for setup in &setups {
                for a in &followups {
                    let (verdict, after, h) = wide(*setup, a);
                    let Some((changed, before, to)) = verdict else {
                        assert_eq!(after, *setup, "a declined lane was mutated: {a:?}");
                        continue;
                    };
                    let mut full = *setup;
                    let mut h_full = DetectorHealth::default();
                    let race = reference_check(&mut full, a, &c, &p, &mut h_full);
                    assert_eq!(after, full, "columns do not load as the full check's entry: {a:?} from {setup:?}");
                    assert!(race.is_none(), "the tier claimed a race: {a:?} from {setup:?}");
                    assert_eq!(h_full, DetectorHealth::default(), "the tier hid health: {a:?}");
                    assert_eq!(h, DetectorHealth::default(), "the tier counted health: {a:?}");
                    assert_eq!(changed, full != *setup, "changed flag for {a:?}");
                    assert_eq!((before, to), (setup.state(), full.state()), "states for {a:?}");
                    if !setup.is_fresh() && a.kind.is_tracked() && a.who.tid != setup.tid {
                        assert!(p.warp_filter, "a sibling lane passed without the warp filter");
                    }
                }
            }
            // Every first touch outside a critical section opens on the
            // tier; a sibling's write takes it exactly under the filter.
            assert!(wide(FRESH, &opener_write).0.is_some());
            assert!(wide(FRESH, &locked(t(5, 2), AccessKind::Write)).0.is_none());
            let claimed = wide(setups[1], &wr(sibling).with_clocks(3, 0)).0.is_some();
            assert_eq!(claimed, p.warp_filter);
        }
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
