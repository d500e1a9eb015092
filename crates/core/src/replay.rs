//! Trace replay: drive the RDUs from a recorded event stream instead of a
//! live simulator.
//!
//! The detector core is completely decoupled from how accesses are
//! produced, so a program trace — memory accesses plus synchronization
//! events in program order — is enough to reproduce HAccRG's verdicts.
//! This is how one would use the library against traces captured from a
//! real GPU profiler, and it is also the substrate for the repository's
//! ablation studies.

use serde::{Deserialize, Serialize};

use crate::access::{MemAccess, MemSpace};
use crate::clocks::ClockFile;
use crate::config::DetectorConfig;
use crate::global_rdu::{Global, GlobalRdu};
use crate::health::DetectorHealth;
use crate::race::RaceLog;
use crate::shared_rdu::{Shared, SharedRdu};

/// One trace event, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A memory access. `space` selects the RDU; shared accesses carry
    /// SM-local shared addresses.
    Access {
        /// Which memory space the access targets.
        space: MemSpace,
        /// The access itself (clock fields are filled by the replayer).
        access: MemAccess,
    },
    /// Block `block` passed a barrier; its shared allocation on SM `sm`
    /// covers `[shared_lo, shared_hi)`.
    Barrier {
        /// The block that synchronized.
        block: u32,
        /// SM the block resides on.
        sm: u32,
        /// Start of its shared-memory allocation.
        shared_lo: u32,
        /// End (exclusive) of its shared-memory allocation.
        shared_hi: u32,
    },
    /// Warp `warp` completed a memory fence.
    Fence {
        /// Global warp ID.
        warp: u32,
    },
}

/// Geometry the replayer needs up front.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceGeometry {
    /// SMs with shared-memory RDUs.
    pub num_sms: u32,
    /// Shared memory per SM in bytes.
    pub shared_bytes_per_sm: u32,
    /// Shared-memory banks per SM.
    pub shared_banks: u32,
    /// Thread-blocks in the grid.
    pub blocks: u32,
    /// Total (global) warps.
    pub warps: u32,
    /// Tracked global region `[base, base+len)`.
    pub global_base: u32,
    /// Tracked global region length.
    pub global_len: u32,
}

/// Replays traces through the detector.
pub struct Replayer {
    shared: Vec<SharedRdu>,
    global: Option<GlobalRdu>,
    clocks: ClockFile,
    log: RaceLog,
    health: DetectorHealth,
    events: u64,
}

impl Replayer {
    /// Build a replayer for a configuration and geometry. The shadow
    /// region is addressed immediately after the tracked region (replay
    /// has no timing, so only distinctness matters).
    pub fn new(cfg: &DetectorConfig, geo: &TraceGeometry) -> Self {
        cfg.validate().expect("valid detector config");
        Self {
            shared: (0..geo.num_sms)
                .map(|sm| {
                    let space = Shared { sm, banks: geo.shared_banks };
                    SharedRdu::from_config(cfg, space, 0, geo.shared_bytes_per_sm, 0)
                })
                .collect(),
            global: cfg.global_enabled.then(|| {
                let shadow_base = geo.global_base.saturating_add(geo.global_len);
                GlobalRdu::from_config(cfg, Global, geo.global_base, geo.global_len, shadow_base)
            }),
            clocks: ClockFile::new(geo.blocks, geo.warps),
            log: RaceLog::default(),
            health: DetectorHealth::default(),
            events: 0,
        }
    }

    /// Feed one event. Access events get their sync/fence clock fields
    /// stamped from the replayer's clock state (so traces do not need to
    /// carry them).
    pub fn feed(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match *ev {
            TraceEvent::Access { space, mut access } => {
                access.sync_id = self.clocks.sync_id(access.who.block);
                access.fence_id = self.clocks.fence_id(access.who.warp);
                match space {
                    MemSpace::Shared => {
                        let sm = access.who.sm as usize;
                        if let Some(rdu) = self.shared.get_mut(sm) {
                            rdu.observe_health(&access, &self.clocks, &mut self.log, &mut self.health);
                        }
                    }
                    MemSpace::Global => {
                        self.clocks.note_global_access(access.who.block);
                        if let Some(rdu) = self.global.as_mut() {
                            rdu.observe_health(&access, &self.clocks, &mut self.log, &mut self.health);
                        }
                    }
                    MemSpace::Local => {}
                }
            }
            TraceEvent::Barrier { block, sm, shared_lo, shared_hi } => {
                self.clocks.on_barrier(block);
                if let Some(rdu) = self.shared.get_mut(sm as usize) {
                    rdu.reset_block_range(shared_lo, shared_hi);
                }
            }
            TraceEvent::Fence { warp } => self.clocks.on_fence(warp),
        }
    }

    /// Feed a whole trace.
    pub fn replay<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) -> &RaceLog {
        for e in events {
            self.feed(e);
        }
        &self.log
    }

    /// Races detected so far.
    pub fn races(&self) -> &RaceLog {
        &self.log
    }

    /// Fidelity health counters accumulated so far (drops folded in).
    pub fn health(&self) -> DetectorHealth {
        let mut h = self.health;
        h.log_dropped += self.log.dropped();
        h
    }

    /// Events consumed.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};
    use crate::prelude::RaceKind;

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

    fn acc(space: MemSpace, addr: u32, kind: AccessKind, tid: u32, warp: u32, block: u32, sm: u32) -> TraceEvent {
        TraceEvent::Access {
            space,
            access: MemAccess::plain(addr, 4, kind, ThreadCoord::new(tid, warp, block, sm)),
        }
    }

    #[test]
    fn replay_detects_the_fig3_raw() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        let log = r.replay(trace.iter());
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.records()[0].kind, RaceKind::Raw);
        assert_eq!(r.events(), 2);
    }

    #[test]
    fn barrier_events_order_shared_accesses() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 4096 },
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).distinct(), 0);
    }

    #[test]
    fn fence_events_publish_global_writes() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let racy = [
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Global, 0x1040, AccessKind::Read, 100, 4, 1, 1),
        ];
        assert_eq!(r.replay(racy.iter()).distinct(), 1);

        let mut r2 = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let fenced = [
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Fence { warp: 0 },
            acc(MemSpace::Global, 0x1040, AccessKind::Read, 100, 4, 1, 1),
        ];
        assert_eq!(r2.replay(fenced.iter()).distinct(), 0);
    }

    #[test]
    fn clock_fields_are_stamped_by_the_replayer() {
        // The same trace with barriers interleaved: sync IDs advance so
        // same-block cross-warp accesses in later epochs are safe.
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let trace = [
            acc(MemSpace::Global, 0x1000, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 0 },
            acc(MemSpace::Global, 0x1000, AccessKind::Read, 33, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).distinct(), 0, "barrier separated epochs");
    }

    #[test]
    fn local_accesses_are_ignored() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo());
        let trace = [
            acc(MemSpace::Local, 0x10, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Local, 0x10, AccessKind::Write, 40, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).distinct(), 0);
    }

    #[test]
    fn replayer_surfaces_health_and_witnesses() {
        let mut cfg = DetectorConfig::paper_default();
        cfg.witness_capture = true;
        let mut r = Replayer::new(&cfg, &geo());
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        let log = r.replay(trace.iter());
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.witness_of(0).len(), 2, "witness timeline rides the race");
        let h = r.health();
        assert_eq!(h.log_dropped, 0);
        assert!(h.shadow_pages_allocated >= 1, "occupancy gauge counts the touched page");
    }

    #[test]
    fn trace_events_serialize() {
        let e = acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0);
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
