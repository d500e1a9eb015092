//! The per-SM shared-memory Race Detection Unit (§IV-A).
//!
//! Shared memory is small, on-chip and private to an SM, so its shadow
//! entries live in dedicated storage next to the banks and every access is
//! checked *in parallel* with the data access — detection itself costs no
//! cycles. The only timing effect is the bulk invalidation of a block's
//! entries when it passes a barrier, which the simulator charges using
//! [`SharedRdu::reset_block_range`]'s returned cycle count.

use crate::access::MemAccess;
use crate::bloom::BloomConfig;
use crate::config::DetectorConfig;
use crate::cost;
use crate::granularity::Granularity;
use crate::region::{ShadowRegion, Space};
use crate::shadow::ShadowPolicy;

/// The shared-memory space of one SM: entries indexed by shared-memory
/// offset in SRAM split over `banks` banks.
#[derive(Clone, Copy, Debug)]
pub struct Shared {
    /// The SM this RDU belongs to.
    pub sm: u32,
    /// Shared-memory banks (16 on the paper's configuration); a barrier
    /// reset clears one entry row per bank per cycle.
    pub banks: u32,
}

impl Space for Shared {
    const TRAFFIC: bool = false;

    fn configure(cfg: &DetectorConfig) -> (Granularity, ShadowPolicy) {
        (cfg.shared_granularity, ShadowPolicy::shared(!cfg.warp_regrouping, cfg.bloom))
    }

    fn owns(&self, a: &MemAccess) -> bool {
        a.who.sm == self.sm
    }
}

/// Shared-memory RDU for one streaming multiprocessor.
pub type SharedRdu = ShadowRegion<Shared>;

impl SharedRdu {
    /// Build an RDU covering `shared_bytes` of shared memory, split into
    /// `banks` banks (16 on the paper's configuration), with the given
    /// tracking granularity. `warp_filter` should be `!warp_regrouping`.
    pub fn new(
        sm: u32,
        shared_bytes: u32,
        banks: u32,
        gran: Granularity,
        warp_filter: bool,
        bloom: BloomConfig,
    ) -> Self {
        let cfg = DetectorConfig {
            shared_granularity: gran,
            warp_regrouping: !warp_filter,
            bloom,
            ..DetectorConfig::paper_default()
        };
        Self::from_config(&cfg, Shared { sm, banks }, 0, shared_bytes, 0)
    }

    /// A block resident on this SM reached a barrier: invalidate the shadow
    /// entries covering its shared-memory allocation `[lo, hi)` and return
    /// the stall cycles the invalidation costs (`entries / banks` — the
    /// banked shadow storage clears one row per bank per cycle).
    pub fn reset_block_range(&mut self, lo: u32, hi: u32) -> u64 {
        let gran = self.granularity();
        let first = gran.index(0, lo);
        let last = gran.entries_for(hi).min(self.num_entries());
        let count = last.saturating_sub(first);
        // Functionally a lazy epoch bump (O(pages)); the charged cycles
        // keep modeling the banked hardware clear over the full range.
        self.table.reset_range(first, last);
        self.stats.resets += 1;
        self.stats.reset_entries += count as u64;
        let cycles = cost::banked_reset_cycles(count as u64, self.space.banks.max(1));
        self.stats.reset_cycles += cycles;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};
    use crate::clocks::ClockFile;
    use crate::race::RaceLog;
    use crate::scratch::RaceScratch;

    fn rdu() -> SharedRdu {
        SharedRdu::new(
            0,
            16 * 1024,
            16,
            Granularity::SHARED_DEFAULT,
            true,
            BloomConfig::PAPER_DEFAULT,
        )
    }

    fn acc(addr: u32, kind: AccessKind, tid: u32, warp: u32) -> MemAccess {
        MemAccess::plain(addr, 4, kind, ThreadCoord::new(tid, warp, 0, 0))
    }

    #[test]
    fn sizing_follows_granularity() {
        assert_eq!(rdu().num_entries(), 1024);
        let fine = SharedRdu::new(0, 16 * 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        assert_eq!(fine.num_entries(), 4096);
    }

    #[test]
    fn detects_cross_warp_conflict() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        assert_eq!(r.stats.checks, 2);
    }

    #[test]
    fn sixteen_byte_chunks_conflate_neighbours() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        // Different words, same 16-byte chunk: conflated (false positive
        // territory — exactly Table III's effect).
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(12, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn word_granularity_separates_neighbours() {
        let mut r = SharedRdu::new(0, 16 * 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(12, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0);
    }

    #[test]
    fn barrier_reset_clears_history_and_charges_cycles() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        // A block owning the whole 16KB: 1024 entries / 16 banks = 64 cycles.
        let cycles = r.reset_block_range(0, 16 * 1024);
        assert_eq!(cycles, 64);
        assert_eq!(r.stats.reset_entries, 1024);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0, "barrier ordered the accesses");
    }

    #[test]
    fn partial_reset_only_touches_the_block_range() {
        let mut r = rdu();
        let c = ClockFile::new(2, 4);
        let mut log = RaceLog::default();
        // Two blocks each own 8KB of the SM's shared memory.
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(8192, AccessKind::Write, 64, 2), &c, &mut log);
        r.reset_block_range(0, 8192); // block 0's barrier
        r.observe(&acc(0, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0);
        // Block 1's history survived.
        r.observe(&acc(8192, AccessKind::Read, 96, 3), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn straddling_access_checks_both_chunks() {
        let mut r = SharedRdu::new(0, 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        // 8-byte write covering words 0 and 1.
        let mut w = acc(0, AccessKind::Write, 0, 0);
        w.size = 8;
        r.observe(&w, &c, &mut log);
        r.observe(&acc(4, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn out_of_range_access_is_clamped() {
        let mut r = SharedRdu::new(0, 64, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 1);
        let mut log = RaceLog::default();
        // Address past the end must not panic.
        r.observe(&acc(1 << 20, AccessKind::Write, 0, 0), &c, &mut log);
    }

    #[test]
    fn witness_capture_attaches_a_timeline_to_the_race() {
        let mut r = rdu();
        r.set_witness_capture(true);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0).at_pc(0x10).at_cycle(5), &c, &mut log);
        r.observe(&acc(128, AccessKind::Read, 1, 0).at_pc(0x14).at_cycle(6), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1).at_pc(0x18).at_cycle(7), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        let w = log.witness_of(0);
        // Only the two accesses to the racy chunk, oldest first, ending
        // with the racing access itself.
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].cycle, w[0].pc), (5, 0x10));
        assert_eq!((w[1].cycle, w[1].pc), (7, 0x18));
        assert_eq!(w[0].state_before, crate::shadow::ShadowState::Fresh);
        assert_eq!(w[0].state_after, crate::shadow::ShadowState::Written);
    }

    #[test]
    fn witness_capture_off_attaches_nothing() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        assert!(log.witness_of(0).is_empty());
    }

    #[test]
    fn intra_warp_waw_reported_via_rdu() {
        let mut r = rdu();
        let mut scratch = RaceScratch::default();
        let mut log = RaceLog::default();
        // Same 16-byte chunk, different words: NOT a race (§VI-A1).
        let benign = vec![
            crate::intra_warp::lane_store(0, 4, 0, 0, 9),
            crate::intra_warp::lane_store(4, 4, 1, 0, 9),
        ];
        r.check_warp_stores(&benign, &mut scratch, &mut log);
        assert_eq!(log.total(), 0);
        // Same word from two lanes: a true intra-warp WAW.
        let clash = vec![
            crate::intra_warp::lane_store(0, 4, 0, 0, 9),
            crate::intra_warp::lane_store(0, 4, 1, 0, 9),
        ];
        r.check_warp_stores(&clash, &mut scratch, &mut log);
        assert_eq!(log.total(), 1);
        assert_eq!(r.stats.intra_warp_checks, 2);
    }
}
