//! Wiring between the simulator and the `haccrg` detector core.
//!
//! [`LaunchDet::new`] builds the per-SM shared RDUs, the global RDU, the
//! logical clocks and the race log for one kernel launch. The
//! [`DetectorMode`] distinguishes the *hardware* proposal (detection
//! results **and** timing costs: shadow traffic, barrier reset stalls,
//! probe packets) from an *oracle* mode that detects identically but
//! charges nothing — used by the software baselines, whose cost comes
//! from instrumentation instructions instead.

use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg::prelude::*;

/// How detection is costed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorMode {
    /// The paper's proposal: RDU hardware, with all timing side effects.
    Hardware,
    /// Detection logic only, zero timing cost (software baselines get
    /// their cost from instrumentation).
    Oracle,
}

/// Side model of the global RDU's shadow-memory timing, kept entirely
/// outside the architectural memory system so detection stays passive:
/// shadow line accesses charge modeled L2-port cycles per slice, and
/// first touches of a shadow line charge a modeled DRAM fill. The fold
/// into the launch cycle count (max over slices) happens in
/// `Gpu::launch`'s epilogue.
pub struct ShadowTimingModel {
    /// Per-slice shadow L2-port accesses.
    pub port_accesses: Vec<u64>,
    /// Per-slice first-touch DRAM fills.
    pub fills: Vec<u64>,
    /// Residency bitmap over the shadow region, one bit per L2 line —
    /// a ghost cache with no evictions (the shadow table is dense and
    /// hot; modeling eviction noise would buy nothing).
    resident: Vec<u64>,
    base_line: u32,
    line_shift: u32,
}

impl ShadowTimingModel {
    /// Model covering `[shadow_base, shadow_base + span_bytes)` striped
    /// over `num_slices` slices of `line_bytes` lines. Preallocated so
    /// the per-access path never touches the heap.
    pub fn new(num_slices: u32, shadow_base: u32, span_bytes: u64, line_bytes: u32) -> Self {
        let line_shift = line_bytes.trailing_zeros();
        let lines = span_bytes.div_ceil(u64::from(line_bytes));
        Self {
            port_accesses: vec![0; num_slices as usize],
            fills: vec![0; num_slices as usize],
            resident: vec![0; (lines as usize).div_ceil(64)],
            base_line: shadow_base >> line_shift,
            line_shift,
        }
    }

    /// Record one shadow line access routed to `slice`.
    pub fn access(&mut self, slice: u32, line_addr: u32) {
        self.port_accesses[slice as usize] += 1;
        let idx = ((line_addr >> self.line_shift).wrapping_sub(self.base_line)) as usize;
        let (w, b) = (idx / 64, idx % 64);
        // Out-of-range lines (clamped layouts) charge the port but skip
        // residency tracking rather than indexing out of bounds.
        if let Some(word) = self.resident.get_mut(w) {
            if *word & (1 << b) == 0 {
                *word |= 1 << b;
                self.fills[slice as usize] += 1;
            }
        }
    }

    /// Modeled busy cycles of the busiest slice's shadow port.
    pub fn max_slice_cycles(&self) -> u64 {
        self.port_accesses
            .iter()
            .zip(&self.fills)
            .map(|(&p, &f)| haccrg::cost::shadow_slice_cycles(p, f))
            .max()
            .unwrap_or(0)
    }

    /// Total modeled first-touch DRAM fills (all slices).
    pub fn total_fills(&self) -> u64 {
        self.fills.iter().sum()
    }
}

/// The cycle loop's detector state during one launch: the global RDU,
/// the logical clocks, the race log and the shadow timing model. The
/// per-SM shared RDUs live inside the SMs for the duration (see
/// [`LaunchDet::new`]).
#[allow(missing_docs)]
pub struct LaunchDet {
    pub cfg: DetectorConfig,
    pub mode: DetectorMode,
    pub global: Option<GlobalRdu>,
    pub clocks: ClockFile,
    pub log: RaceLog,
    /// Passive timing model for global shadow traffic (mutated only in
    /// the apply phase).
    pub shadow_timing: ShadowTimingModel,
}

impl LaunchDet {
    /// Build detector state for a launch, split for the two-phase cycle:
    /// the launch-wide state, which the cycle loop mutates only in the
    /// apply phase, and one shared RDU per SM, which each SM owns during
    /// the compute phase.
    ///
    /// `tracked` is the `[base, base+len)` device region covered by the
    /// global shadow table (everything allocated before the launch);
    /// `shadow_base` is where the shadow table itself is addressed.
    /// `slices` describes the memory system the timing model mirrors:
    /// `(num_slices, l2_line_bytes)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: DetectorConfig,
        mode: DetectorMode,
        num_sms: u32,
        shared_per_sm: u32,
        shared_banks: u32,
        blocks: u32,
        total_warps: u32,
        tracked: (u32, u32),
        shadow_base: u32,
        slices: (u32, u32),
    ) -> (Self, Vec<SharedRdu>) {
        cfg.validate().expect("invalid detector config");
        let shared = (0..num_sms)
            .map(|sm| {
                let space = Shared { sm, banks: shared_banks };
                SharedRdu::from_config(&cfg, space, 0, shared_per_sm, 0)
            })
            .collect();
        let global = cfg
            .global_enabled
            .then(|| GlobalRdu::from_config(&cfg, Global, tracked.0, tracked.1, shadow_base));
        let span = haccrg::cost::global_shadow_footprint(u64::from(tracked.1), cfg.global_granularity)
            .allocated_bytes;
        let det = Self {
            cfg,
            mode,
            global,
            clocks: ClockFile::new(blocks, total_warps),
            log: RaceLog::default(),
            shadow_timing: ShadowTimingModel::new(slices.0, shadow_base, span, slices.1),
        };
        (det, shared)
    }

    /// Whether timing costs should be charged.
    pub fn hardware(&self) -> bool {
        self.mode == DetectorMode::Hardware
    }

    /// Whether shared-shadow entries live in global memory (Fig. 8).
    pub fn sw_shared_shadow(&self) -> bool {
        self.hardware() && self.cfg.shared_shadow == SharedShadowPlacement::GlobalMemory
    }

    /// Read-only view for the compute phase.
    pub fn view(&self) -> DetView<'_> {
        DetView {
            cfg: self.cfg,
            hardware: self.hardware(),
            sw_shared_shadow: self.sw_shared_shadow(),
            clocks: &self.clocks,
        }
    }
}

/// Read-only detector view handed to `Sm::cycle_compute` (the compute
/// phase). All clock *mutations* are buffered as [`crate::sm::SmOp`]s
/// and applied in SM-id order once every SM has computed.
#[derive(Clone, Copy)]
#[allow(missing_docs)]
pub struct DetView<'a> {
    pub cfg: DetectorConfig,
    pub hardware: bool,
    pub sw_shared_shadow: bool,
    pub clocks: &'a ClockFile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_per_config() {
        let (d, shared) = LaunchDet::new(
            DetectorConfig::paper_default(),
            DetectorMode::Hardware,
            4,
            16 * 1024,
            16,
            8,
            64,
            (0x1000, 0x8000),
            0x100_0000,
            (8, 128),
        );
        assert_eq!(shared.len(), 4);
        assert!(d.global.is_some());
        assert_eq!(d.clocks.num_blocks(), 8);
        assert_eq!(d.clocks.num_warps(), 64);
        assert!(d.hardware());
        assert!(!d.sw_shared_shadow());
    }

    #[test]
    fn shared_only_config_has_no_global_rdu() {
        let (d, _) = LaunchDet::new(
            DetectorConfig::shared_only(),
            DetectorMode::Hardware,
            2,
            16 * 1024,
            16,
            1,
            8,
            (0x1000, 0x1000),
            0x100_0000,
            (8, 128),
        );
        assert!(d.global.is_none());
    }

    #[test]
    fn oracle_mode_charges_nothing() {
        let (d, _) = LaunchDet::new(
            DetectorConfig::paper_default(),
            DetectorMode::Oracle,
            1,
            16 * 1024,
            16,
            1,
            1,
            (0x1000, 0x1000),
            0x100_0000,
            (8, 128),
        );
        assert!(!d.hardware());
        assert!(!d.sw_shared_shadow());
    }
}
