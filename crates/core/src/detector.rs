//! The detector front end: every RDU of one kernel launch behind the
//! operations a driver performs on them.
//!
//! The paper's RDUs are one Fig. 3 machine per memory space, fed memory
//! accesses plus barrier and fence events (§III–IV). A [`Detector`] holds
//! them all — one shared-memory RDU per SM, the global RDU, the logical
//! clocks and the race log — and both drivers of the reproduction feed it
//! the same calls: the trace replayer ([`crate::replay::Replayer`]) one
//! event at a time, and the cycle-level simulator (`gpu_sim`) in the
//! apply phase of each cycle, with clock fields captured at issue.

use crate::access::{MemAccess, MemSpace};
use crate::clocks::ClockFile;
use crate::config::DetectorConfig;
use crate::dispatch::DispatchStats;
use crate::global_rdu::{Global, GlobalRdu};
use crate::health::DetectorHealth;
use crate::race::RaceLog;
use crate::region::{ShadowTraffic, TransitionSink};
use crate::replay::TraceGeometry;
use crate::scratch::RaceScratch;
use crate::shared_rdu::{Shared, SharedRdu};

/// The RDUs, clocks and race log of one kernel launch.
///
/// An access is routed by its space, and a shared access by its SM; a
/// space whose detection `cfg` turns off checks nothing. The caller
/// keeps ids inside the geometry the detector was built for.
pub struct Detector {
    cfg: DetectorConfig,
    /// One RDU per SM when shared detection is on, none otherwise.
    shared: Vec<SharedRdu>,
    global: Option<GlobalRdu>,
    clocks: ClockFile,
    log: RaceLog,
}

impl Detector {
    /// The detector `cfg` configures for a launch of geometry `geo`, with
    /// the global shadow table addressed from `shadow_base`.
    pub fn new(cfg: DetectorConfig, geo: &TraceGeometry, shadow_base: u32) -> Self {
        cfg.validate().expect("invalid detector config");
        let sms = if cfg.shared_enabled { geo.num_sms } else { 0 };
        let shared = (0..sms)
            .map(|sm| {
                let space = Shared {
                    sm,
                    banks: geo.shared_banks,
                };
                SharedRdu::from_config(&cfg, space, 0, geo.shared_bytes_per_sm, 0)
            })
            .collect();
        let global = cfg.global_enabled.then(|| {
            GlobalRdu::from_config(&cfg, Global, geo.global_base, geo.global_len, shadow_base)
        });
        Self {
            cfg,
            shared,
            global,
            clocks: ClockFile::new(geo.blocks, geo.warps),
            log: RaceLog::default(),
        }
    }

    /// Check one warp's accesses in `space` — the batch kernel of
    /// [`crate::region::ShadowRegion::check_warp_batch`], whose contract
    /// (reference-identical races, health, witnesses, Fig. 3 edges and
    /// traffic) this inherits. A shared batch goes to its first lane's SM.
    #[allow(clippy::too_many_arguments)]
    pub fn check_warp_batch(
        &mut self,
        space: MemSpace,
        accesses: &[MemAccess],
        is_store: bool,
        scratch: &mut RaceScratch,
        h: &mut DetectorHealth,
        on_transition: Option<TransitionSink<'_>>,
        per_traffic: impl FnMut(ShadowTraffic),
    ) {
        let Self {
            cfg,
            shared,
            global,
            clocks,
            log,
        } = self;
        match (space, accesses.first()) {
            (MemSpace::Shared, Some(a)) if cfg.shared_enabled => shared[a.who.sm as usize]
                .check_warp_batch(
                    accesses,
                    is_store,
                    clocks,
                    scratch,
                    log,
                    h,
                    on_transition,
                    per_traffic,
                ),
            (MemSpace::Global, _) => {
                if let Some(rdu) = global {
                    rdu.check_warp_batch(
                        accesses,
                        is_store,
                        clocks,
                        scratch,
                        log,
                        h,
                        on_transition,
                        per_traffic,
                    );
                }
            }
            _ => {}
        }
    }

    /// Check one access in `space` — the per-access reference
    /// ([`crate::region::ShadowRegion::observe_health`]).
    pub fn observe_health(&mut self, space: MemSpace, a: &MemAccess, h: &mut DetectorHealth) {
        match space {
            MemSpace::Shared if self.cfg.shared_enabled => {
                self.shared[a.who.sm as usize].observe_health(a, &self.clocks, &mut self.log, h);
            }
            MemSpace::Global => {
                if let Some(rdu) = self.global.as_mut() {
                    rdu.observe_health(a, &self.clocks, &mut self.log, h);
                }
            }
            _ => {}
        }
    }

    /// Block `block` on SM `sm` passed a barrier: bump its sync ID
    /// (§IV-B) and reset its shared allocation `[lo, hi)` (§IV-A).
    /// Returns the reset's modeled cycles.
    pub fn barrier(&mut self, block: u32, sm: u32, lo: u32, hi: u32) -> u64 {
        self.clocks.on_barrier(block);
        self.reset_shared(sm, lo, hi)
    }

    /// Invalidate the shared shadow entries of `[lo, hi)` on SM `sm` —
    /// a barrier's reset, or a retiring block's (kernel end is an
    /// implicit barrier). Returns the banked reset's modeled cycles; an
    /// empty range, or shared detection off, resets nothing and costs 0.
    pub fn reset_shared(&mut self, sm: u32, lo: u32, hi: u32) -> u64 {
        if !self.cfg.shared_enabled || lo >= hi {
            return 0;
        }
        self.shared[sm as usize].reset_block_range(lo, hi)
    }

    /// Warp `warp` completed a memory fence: bump its fence ID (§III-C).
    pub fn fence(&mut self, warp: u32) {
        self.clocks.on_fence(warp);
    }

    /// Block `block` issued a global access (the sync-ID increment
    /// filter of §IV-B).
    pub fn note_global(&mut self, block: u32) {
        self.clocks.note_global_access(block);
    }

    /// The configuration the detector was built from.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The logical clocks, as the accesses of the next check read them
    /// (and with them the largest sync and fence IDs reached).
    pub fn clocks(&self) -> &ClockFile {
        &self.clocks
    }

    /// Races detected so far.
    pub fn races(&self) -> &RaceLog {
        &self.log
    }

    /// The race log, consuming the detector.
    pub fn into_races(self) -> RaceLog {
        self.log
    }

    /// Shadow-check lanes per dispatch tier, summed over every RDU.
    pub fn dispatch(&self) -> DispatchStats {
        let mut d = DispatchStats::default();
        for rdu in &self.shared {
            d.accumulate(&rdu.dispatch);
        }
        if let Some(rdu) = &self.global {
            d.accumulate(&rdu.dispatch);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};

    fn geo() -> TraceGeometry {
        TraceGeometry {
            num_sms: 2,
            shared_bytes_per_sm: 4096,
            shared_banks: 16,
            blocks: 4,
            warps: 16,
            global_base: 0x1000,
            global_len: 0x1000,
        }
    }

    fn acc(addr: u32, kind: AccessKind, tid: u32, warp: u32, block: u32, sm: u32) -> MemAccess {
        MemAccess::plain(addr, 4, kind, ThreadCoord::new(tid, warp, block, sm))
    }

    fn observe(d: &mut Detector, space: MemSpace, a: MemAccess) {
        d.observe_health(space, &a, &mut DetectorHealth::default());
    }

    #[test]
    fn builds_the_rdus_its_config_enables() {
        let d = Detector::new(DetectorConfig::paper_default(), &geo(), 0x2000);
        assert_eq!(d.shared.len(), 2);
        assert!(d.global.is_some());
        assert_eq!((d.clocks().num_blocks(), d.clocks().num_warps()), (4, 16));
        let d = Detector::new(DetectorConfig::shared_only(), &geo(), 0x2000);
        assert!(d.global.is_none());
        let cfg = DetectorConfig {
            shared_enabled: false,
            ..DetectorConfig::paper_default()
        };
        assert!(Detector::new(cfg, &geo(), 0x2000).shared.is_empty());
    }

    #[test]
    fn shared_accesses_route_by_sm_and_barriers_reset_one_range() {
        let mut d = Detector::new(DetectorConfig::paper_default(), &geo(), 0x2000);
        // The same offset on two SMs is two locations.
        observe(
            &mut d,
            MemSpace::Shared,
            acc(64, AccessKind::Write, 0, 0, 0, 0),
        );
        observe(
            &mut d,
            MemSpace::Shared,
            acc(64, AccessKind::Read, 40, 1, 0, 1),
        );
        assert_eq!(d.races().distinct(), 0);
        // Block 0's barrier clears its range on SM 0: 256 entries over 16
        // banks.
        assert_eq!(d.barrier(0, 0, 0, 4096), 16);
        observe(
            &mut d,
            MemSpace::Shared,
            acc(64, AccessKind::Read, 40, 1, 0, 0),
        );
        assert_eq!(d.races().distinct(), 0, "the barrier ordered the accesses");
        observe(
            &mut d,
            MemSpace::Shared,
            acc(64, AccessKind::Write, 0, 0, 0, 0),
        );
        assert_eq!(d.races().distinct(), 1, "a WAR with no barrier between");
        assert_eq!(d.reset_shared(1, 64, 64), 0, "an empty range costs nothing");
    }

    #[test]
    fn batches_match_single_accesses_and_count_dispatch() {
        let lanes = [
            acc(0x1040, AccessKind::Write, 0, 0, 0, 0),
            acc(0x1040, AccessKind::Read, 64, 4, 1, 1),
        ];
        let mut one = Detector::new(DetectorConfig::paper_default(), &geo(), 0x2000);
        for a in lanes {
            observe(&mut one, MemSpace::Global, a);
        }
        let mut batch = Detector::new(DetectorConfig::paper_default(), &geo(), 0x2000);
        let mut traffic = 0;
        batch.check_warp_batch(
            MemSpace::Global,
            &lanes,
            false,
            &mut RaceScratch::default(),
            &mut DetectorHealth::default(),
            None,
            |t| traffic += t.reads,
        );
        assert_eq!(batch.races().records(), one.races().records());
        assert_eq!(batch.races().distinct(), 1);
        assert_eq!(traffic, 2);
        assert_eq!(batch.dispatch().total(), 2);
    }

    #[test]
    fn clock_operations_reach_the_clock_file() {
        let mut d = Detector::new(DetectorConfig::paper_default(), &geo(), 0x2000);
        d.barrier(1, 0, 0, 0);
        assert_eq!(
            d.clocks().sync_id(1),
            0,
            "no global access since the last barrier"
        );
        d.note_global(1);
        d.barrier(1, 0, 0, 0);
        d.fence(3);
        assert_eq!(
            (d.clocks().max_sync_id(), d.clocks().max_fence_id()),
            (1, 1)
        );
        assert_eq!(d.into_races().total(), 0);
    }
}
