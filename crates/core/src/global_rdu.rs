//! The global-memory Race Detection Unit (§IV-B).
//!
//! Global memory is far too large for dedicated shadow SRAM, so HAccRG
//! reserves a *global shadow memory* region in device memory with a 1:1
//! mapping (at the tracking granularity) onto the kernel's data structures.
//! A hardware RDU in every memory slice generates the shadow fetches and
//! updates; in the paper the requests travel through the same L2 slice
//! and DRAM channel as ordinary data, which is where the combined-detection
//! overhead of Fig. 7/9 comes from. The simulator charges them
//! arithmetically beside that path instead (`gpu_sim::detector::ShadowTimingModel`,
//! folded into the cycle count at launch end); routing them through it is
//! ROADMAP item 2.
//!
//! Functionally the sliced RDUs operate on one logical shadow table: a
//! [`ShadowRegion`] over the heap, whose checks skip untracked addresses,
//! count §VI-C2 truncated-ID collisions, and report the
//! [`crate::region::ShadowTraffic`] the simulator charges to its timing
//! model.

use crate::bloom::BloomConfig;
use crate::config::DetectorConfig;
use crate::cost;
use crate::granularity::Granularity;
use crate::region::{ShadowRegion, Space};
use crate::shadow::ShadowPolicy;

/// The global-memory space: entries for the heap, shadow words in device
/// memory, rules with sync-ID epochs, fences and the stale-L1 check.
#[derive(Clone, Copy, Debug)]
pub struct Global;

impl Space for Global {
    const TRAFFIC: bool = true;

    fn configure(cfg: &DetectorConfig) -> (Granularity, ShadowPolicy) {
        let policy = ShadowPolicy::global(!cfg.warp_regrouping, cfg.l1_stale_check, cfg.bloom);
        (cfg.global_granularity, policy)
    }
}

/// The logical global shadow table + per-slice RDU behaviour.
pub type GlobalRdu = ShadowRegion<Global>;

impl GlobalRdu {
    /// Track `tracked_bytes` of device memory starting at `base`. The
    /// shadow region lives at `shadow_base` (allocated by the runtime at
    /// kernel launch, `cudaMalloc`-style) with one
    /// [`cost::GLOBAL_SHADOW_STRIDE_BYTES`]-byte packed word per chunk.
    pub fn new(
        base: u32,
        tracked_bytes: u32,
        shadow_base: u32,
        gran: Granularity,
        warp_filter: bool,
        l1_stale_check: bool,
        bloom: BloomConfig,
    ) -> Self {
        let cfg = DetectorConfig {
            global_granularity: gran,
            warp_regrouping: !warp_filter,
            l1_stale_check,
            bloom,
            ..DetectorConfig::paper_default()
        };
        Self::from_config(&cfg, Global, base, tracked_bytes, shadow_base)
    }

    /// Size of the reserved shadow region in bytes (Table IV's overhead).
    pub fn shadow_bytes(&self) -> u64 {
        self.num_entries() as u64 * u64::from(cost::GLOBAL_SHADOW_STRIDE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess, MemSpace, ThreadCoord};
    use crate::clocks::ClockFile;
    use crate::health::DetectorHealth;
    use crate::race::RaceLog;
    use crate::region::ShadowTraffic;

    const HEAP: u32 = 0x1000;
    const SHADOW: u32 = 0x10_0000;

    fn rdu() -> GlobalRdu {
        GlobalRdu::new(
            HEAP,
            4096,
            SHADOW,
            Granularity::GLOBAL_DEFAULT,
            true,
            true,
            BloomConfig::PAPER_DEFAULT,
        )
    }

    fn who(tid: u32, warp: u32, block: u32, sm: u32) -> ThreadCoord {
        ThreadCoord::new(tid, warp, block, sm)
    }

    fn acc(addr: u32, kind: AccessKind, w: ThreadCoord) -> MemAccess {
        MemAccess::plain(addr, 4, kind, w)
    }

    #[test]
    fn shadow_region_sizing() {
        let r = rdu();
        assert_eq!(r.num_entries(), 1024);
        assert_eq!(r.shadow_bytes(), 1024 * u64::from(cost::GLOBAL_SHADOW_STRIDE_BYTES));
        assert_eq!(r.shadow_addr(0), SHADOW);
        assert_eq!(r.shadow_addr(2), SHADOW + 2 * cost::GLOBAL_SHADOW_STRIDE_BYTES);
    }

    #[test]
    fn untracked_addresses_produce_no_traffic() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let t = r.observe(&acc(0, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        assert_eq!(t, ShadowTraffic::default());
        let t2 = r.observe(&acc(HEAP + 5000, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        assert_eq!(t2, ShadowTraffic::default());
        assert_eq!(r.stats.checks, 0);
    }

    #[test]
    fn first_access_reads_and_writes_shadow() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let t = r.observe(&acc(HEAP + 8, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1, "state changed: written back");
        assert_eq!(t.shadow_addr, r.shadow_addr(2));
    }

    #[test]
    fn repeated_same_thread_read_does_not_rewrite_shadow() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        r.observe(&acc(HEAP, AccessKind::Read, who(0, 0, 0, 0)), &c, &mut log);
        let t = r.observe(&acc(HEAP, AccessKind::Read, who(0, 0, 0, 0)), &c, &mut log);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 0, "no state change, no write-back");
    }

    #[test]
    fn cross_block_conflict_detected() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        r.observe(&acc(HEAP, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        r.observe(&acc(HEAP, AccessKind::Read, who(64, 2, 1, 1)), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.records()[0].space, MemSpace::Global);
    }

    #[test]
    fn fenced_cross_block_read_is_safe() {
        let mut r = rdu();
        let mut c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        r.observe(&acc(HEAP, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        c.on_fence(0);
        r.observe(&acc(HEAP, AccessKind::Read, who(64, 2, 1, 1)), &c, &mut log);
        assert_eq!(log.distinct(), 0);
    }

    #[test]
    fn barrier_epoch_filter_uses_sync_ids() {
        let mut r = rdu();
        let mut c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let w = acc(HEAP, AccessKind::Write, who(0, 0, 0, 0)).with_clocks(c.sync_id(0), 0);
        r.observe(&w, &c, &mut log);
        // Block 0 passes a barrier having touched global memory.
        c.note_global_access(0);
        assert!(c.on_barrier(0));
        // Warp 1, same block, next epoch: ordered by the barrier.
        let rd = acc(HEAP, AccessKind::Read, who(32, 1, 0, 0)).with_clocks(c.sync_id(0), 0);
        r.observe(&rd, &c, &mut log);
        assert_eq!(log.distinct(), 0);
    }

    #[test]
    fn kernel_reset_clears_all_entries() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        r.observe(&acc(HEAP, AccessKind::Write, who(0, 0, 0, 0)), &c, &mut log);
        r.reset_all();
        assert!(r.entry(0).is_fresh());
        r.observe(&acc(HEAP, AccessKind::Read, who(64, 2, 1, 1)), &c, &mut log);
        assert_eq!(log.distinct(), 0);
    }

    #[test]
    fn straddling_access_touches_multiple_shadow_words() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let mut a = acc(HEAP + 2, AccessKind::Write, who(0, 0, 0, 0));
        a.size = 8; // covers chunks 0,1,2
        let t = r.observe(&a, &c, &mut log);
        assert_eq!(t.reads, 3);
    }

    #[test]
    fn id_truncation_collisions_are_counted_not_acted_on() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let mut h = DetectorHealth::default();
        r.observe_health(&acc(HEAP, AccessKind::Write, who(1, 0, 0, 0)), &c, &mut log, &mut h);
        // tid differs by exactly 1024, same block/sm: packed hardware
        // would see the same 10-bit tid and treat this as the same thread.
        r.observe_health(&acc(HEAP, AccessKind::Write, who(1 + 1024, 32, 0, 0)), &c, &mut log, &mut h);
        assert_eq!(h.id_truncation_collisions, 1);
        assert_eq!(log.distinct(), 1, "the unpacked simulator still reports the WAW");
        // A packed-distinguishable thread does not bump the counter.
        let mut h2 = DetectorHealth::default();
        r.observe_health(&acc(HEAP + 4, AccessKind::Write, who(2, 0, 0, 0)), &c, &mut log, &mut h2);
        r.observe_health(&acc(HEAP + 4, AccessKind::Write, who(3, 0, 0, 0)), &c, &mut log, &mut h2);
        assert_eq!(h2.id_truncation_collisions, 0);
    }

    #[test]
    fn witness_capture_records_the_global_timeline() {
        let mut r = rdu();
        r.set_witness_capture(true);
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        r.observe(&acc(HEAP, AccessKind::Write, who(0, 0, 0, 0)).at_pc(0x20).at_cycle(3), &c, &mut log);
        r.observe(&acc(HEAP, AccessKind::Read, who(64, 2, 1, 1)).at_pc(0x24).at_cycle(9), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        let w = log.witness_of(0);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].pc, w[1].pc), (0x20, 0x24));
        assert_eq!(w[1].kind, AccessKind::Read);
    }

    #[test]
    fn l1_hit_probe_counted() {
        let mut r = rdu();
        let c = ClockFile::new(4, 16);
        let mut log = RaceLog::default();
        let a = acc(HEAP, AccessKind::Read, who(0, 0, 0, 0)).l1(true);
        r.observe(&a, &c, &mut log);
        assert_eq!(r.stats.l1_hit_probes, 1);
    }
}
