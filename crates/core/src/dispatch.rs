//! Shadow-check dispatch accounting and the scalar-path escape hatch.
//!
//! The batch kernel ([`crate::region::ShadowRegion::check_warp_batch`])
//! retires each lane on one of three rungs:
//!
//! * **wide** — the SWAR hot-word screen passed and the lane was applied
//!   vectorized (no per-entry branch chain, no AoS touch on the steady
//!   store path);
//! * **cs-fast** — the lane screened out because it is in a critical
//!   section, but the batched lockset path
//!   ([`crate::shadow::ShadowEntry::observe_lockset_fast`]) settled the
//!   §III-B verdict without the full check;
//! * **scalar** — the full Fig. 3 check, also taken by multi-chunk and
//!   page-straddling lanes and by every lane when the escape hatch pins it.
//!
//! Tracing and witness capture run on whichever rung retires the lane —
//! each rung reports its own Fig. 3 edges and witness events — so
//! attaching an observer never changes the tier. [`DispatchStats`] counts
//! lanes per tier so tests (and bisection) can assert which path actually
//! ran; detection results are bit-identical across tiers by construction,
//! so nothing else observable moves.
//!
//! Setting the environment variable `HACCRG_FORCE_SCALAR_SHADOW`
//! (`1`/`true`/`yes`/`on`) pins every lane of every RDU built afterwards
//! to the scalar tier, mirroring `GpuConfig::cycle_skip = false` for the
//! cycle-skip layer. Each RDU's `set_force_scalar` overrides that per
//! instance, which is what tests and `warp_bench`'s reference columns use.

/// Per-RDU counters of how many lanes each dispatch tier retired.
///
/// Deliberately *not* part of [`crate::region::RduStats`]: those are
/// compared bit-identical between scalar and batch pipelines by the
/// equivalence suites, while dispatch counts differ by construction
/// (that difference is exactly what the escape-hatch test asserts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Lanes retired by the wide SWAR screen + vectorized apply.
    pub wide_lanes: u64,
    /// Lanes retired by the batched lockset fast path.
    pub cs_fast_lanes: u64,
    /// Lanes retired by the per-lane scalar reference path.
    pub scalar_lanes: u64,
}

impl DispatchStats {
    /// Total lanes dispatched through any tier.
    pub fn total(&self) -> u64 {
        self.wide_lanes + self.cs_fast_lanes + self.scalar_lanes
    }
}

/// Parse an `HACCRG_FORCE_SCALAR_SHADOW` value. Split out for tests —
/// mutating the process environment is racy under the threaded test
/// harness.
pub fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "true" | "yes" | "on"))
}

/// Whether newly constructed RDUs should pin the scalar shadow path
/// (`HACCRG_FORCE_SCALAR_SHADOW`).
pub fn force_scalar_shadow_default() -> bool {
    parse_force_scalar(std::env::var("HACCRG_FORCE_SCALAR_SHADOW").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_like_no_cycle_skip() {
        for on in ["1", "true", "yes", "on"] {
            assert!(parse_force_scalar(Some(on)), "{on:?} must force scalar");
        }
        for off in [None, Some("0"), Some("false"), Some(""), Some("2")] {
            assert!(!parse_force_scalar(off), "{off:?} must stay wide");
        }
    }

    #[test]
    fn dispatch_totals_sum_all_tiers() {
        let d = DispatchStats { wide_lanes: 5, cs_fast_lanes: 2, scalar_lanes: 1 };
        assert_eq!(d.total(), 8);
    }
}
