//! # HAccRG — Hardware-Accelerated Data Race Detection for GPUs
//!
//! This crate is the detector core of a full reproduction of
//! *"HAccRG: Hardware-Accelerated Data Race Detection in GPUs"*
//! (Holey, Mekkat, Zhai — ICPP 2013). It implements the Race Detection
//! Units (RDUs) the paper proposes for the shared and global memory
//! spaces of a GPU:
//!
//! * a **per-location shadow-entry state machine** (Fig. 3) combining
//!   happens-before detection between barrier synchronizations with
//!   lockset detection inside critical sections — see [`shadow`];
//! * **per-SM shared-memory RDUs** with hardware shadow entries reset at
//!   each barrier — see [`shared_rdu`];
//! * **per-memory-slice global RDUs** with a reserved shadow region in
//!   device memory, per-block *sync IDs*, per-warp *fence IDs* and the
//!   replicated race register file — see [`global_rdu`] and [`clocks`];
//!   both are instances of one shadow region and batch kernel — see
//!   [`region`];
//! * **Bloom-filter locksets** ("atomic IDs") — see [`bloom`] and
//!   [`lockset`] — plus the exact lookup-table alternative §III-B
//!   mentions, in [`locktable`];
//! * the pre-issue **intra-warp WAW check** — see [`intra_warp`];
//! * configurable **tracking granularity** (§IV-C / Table III) — see
//!   [`granularity`];
//! * the **hardware/memory cost model** (§VI-C / Table IV) — see [`cost`].
//!
//! The detector is driven purely by [`access::MemAccess`] records, so it
//! can be attached to the cycle-level GPU simulator in the companion
//! `gpu-sim` crate (which charges the timing costs), replayed over traces,
//! or unit-tested directly.
//!
//! ## Quick example
//!
//! ```
//! use haccrg::prelude::*;
//!
//! // A 4 KB shared-memory RDU for SM 0, paper-default configuration.
//! let mut rdu = SharedRdu::new(0, 4096, 16, Granularity::SHARED_DEFAULT,
//!                              /*warp_filter=*/true, BloomConfig::PAPER_DEFAULT);
//! let clocks = ClockFile::new(/*blocks=*/1, /*warps=*/2);
//! let mut log = RaceLog::default();
//!
//! // Thread 0 (warp 0) writes; thread 32 (warp 1) reads the same word
//! // with no intervening barrier: a read-after-write race.
//! let w = MemAccess::plain(64, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0));
//! let r = MemAccess::plain(64, 4, AccessKind::Read, ThreadCoord::new(32, 1, 0, 0));
//! rdu.observe(&w, &clocks, &mut log);
//! rdu.observe(&r, &clocks, &mut log);
//! assert_eq!(log.distinct(), 1);
//! assert_eq!(log.records()[0].kind, RaceKind::Raw);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod bloom;
pub mod clocks;
pub mod config;
pub mod cost;
pub mod dispatch;
pub mod global_rdu;
pub mod granularity;
pub mod health;
pub mod hotwords;
pub mod intra_warp;
pub mod lockset;
pub mod locktable;
pub mod packed;
pub mod race;
pub mod region;
pub mod replay;
pub mod scratch;
pub mod shadow;
pub mod shadow_table;
pub mod shared_rdu;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::access::{AccessKind, MemAccess, MemSpace, ThreadCoord};
    pub use crate::bloom::{BloomConfig, BloomSig};
    pub use crate::clocks::ClockFile;
    pub use crate::config::{DetectorConfig, SharedShadowPlacement};
    pub use crate::dispatch::DispatchStats;
    pub use crate::global_rdu::{Global, GlobalRdu};
    pub use crate::granularity::Granularity;
    pub use crate::health::{DetectorHealth, WitnessEvent, WitnessRing, WITNESS_CAP};
    pub use crate::lockset::AtomicIdRegister;
    pub use crate::locktable::LockTable;
    pub use crate::race::{group_races, RaceCategory, RaceGroup, RaceKind, RaceLog, RaceRecord};
    pub use crate::region::{RduStats, ShadowRegion, ShadowTraffic, Space, TransitionSink};
    pub use crate::scratch::RaceScratch;
    pub use crate::shadow::{ShadowEntry, ShadowPolicy, ShadowState};
    pub use crate::shadow_table::ShadowTable;
    pub use crate::shared_rdu::{Shared, SharedRdu};
}

pub use prelude::*;
