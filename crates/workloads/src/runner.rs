//! Drives benchmarks through the simulator under any detector
//! configuration and collects merged statistics, races, and functional
//! verification results.

use gpu_sim::prelude::*;
use haccrg::config::DetectorConfig;
use haccrg::prelude::{DispatchStats, RaceLog};

use crate::{BenchInstance, Benchmark, Scale};

/// How to run a benchmark.
pub struct RunConfig {
    /// GPU hardware configuration (Table I by default).
    pub gpu: GpuConfig,
    /// HAccRG detector; `None` = the unmodified-GPU baseline.
    pub detector: Option<DetectorConfig>,
    /// Input scale.
    pub scale: Scale,
}

impl RunConfig {
    /// Baseline: detection off.
    pub fn base(scale: Scale) -> Self {
        Self { gpu: GpuConfig::quadro_fx5800(), detector: None, scale }
    }

    /// HAccRG hardware detection with the paper-default configuration.
    pub fn detecting(scale: Scale) -> Self {
        Self::with_detector(scale, DetectorConfig::paper_default())
    }

    /// HAccRG with a specific detector configuration.
    pub fn with_detector(scale: Scale, cfg: DetectorConfig) -> Self {
        Self { gpu: GpuConfig::quadro_fx5800(), detector: Some(cfg), scale }
    }
}

/// Merged outcome of all of a benchmark's launches.
pub struct RunOutput {
    /// Summed statistics across launches.
    pub stats: SimStats,
    /// Merged race log.
    pub races: RaceLog,
    /// Functional verification result.
    pub verified: Result<(), String>,
    /// Whether the instance was expected to contain real races.
    pub expect_races: bool,
    /// Global footprint tracked by the RDU at first launch (Table IV).
    pub tracked_bytes: u32,
    /// Packed shadow-memory overhead (Table IV).
    pub shadow_packed_bytes: u64,
    /// Largest sync/fence IDs reached (§VI-A2).
    pub max_sync_id: u8,
    /// Largest fence ID reached.
    pub max_fence_id: u8,
    /// Number of kernel launches.
    pub launches: usize,
    /// Fast-forward accounting summed across launches (empty-equivalent
    /// when `cycle_skip` is off; never part of result comparisons).
    pub skip: SkipStats,
    /// Shadow-check lanes per dispatch tier summed across launches
    /// (which tier ran, not what it found; never part of result
    /// comparisons).
    pub dispatch: DispatchStats,
}

/// Run a prepared instance on an existing GPU.
pub fn run_instance(gpu: &mut Gpu, inst: &BenchInstance) -> Result<RunOutput, SimError> {
    let mut stats = SimStats::default();
    let mut races = RaceLog::default();
    let mut skip = SkipStats::default();
    let mut dispatch = DispatchStats::default();
    let mut tracked = 0;
    let mut shadow = 0;
    let mut max_sync = 0u8;
    let mut max_fence = 0u8;
    for l in &inst.launches {
        let r = gpu.launch(&l.kernel, l.grid, l.block, &l.params)?;
        stats.accumulate(&r.stats);
        races.absorb(&r.races);
        skip.accumulate(&r.skip);
        dispatch.accumulate(&r.dispatch);
        tracked = r.tracked_bytes;
        shadow = r.shadow_packed_bytes;
        max_sync = max_sync.max(r.max_sync_id);
        max_fence = max_fence.max(r.max_fence_id);
    }
    Ok(RunOutput {
        stats,
        races,
        verified: (inst.verify)(&gpu.mem),
        expect_races: inst.expect_races,
        tracked_bytes: tracked,
        shadow_packed_bytes: shadow,
        max_sync_id: max_sync,
        max_fence_id: max_fence,
        launches: inst.launches.len(),
        skip,
        dispatch,
    })
}

/// Prepare and run a benchmark under `cfg`.
pub fn run(bench: &dyn Benchmark, cfg: &RunConfig) -> Result<RunOutput, SimError> {
    let mut gpu = Gpu::new(cfg.gpu);
    gpu.set_detector(cfg.detector);
    let inst = bench.prepare(&mut gpu, cfg.scale);
    run_instance(&mut gpu, &inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Scan;

    #[test]
    fn runner_merges_multi_launch_stats() {
        let out = run(&Scan::single_block(), &RunConfig::base(Scale::Tiny)).unwrap();
        assert_eq!(out.launches, 1);
        assert!(out.stats.cycles > 0);
        assert!(out.verified.is_ok());
        assert_eq!(out.races.distinct(), 0, "no detector installed");
    }

    #[test]
    fn detecting_config_tracks_footprint() {
        let out = run(&Scan::single_block(), &RunConfig::detecting(Scale::Tiny)).unwrap();
        assert!(out.tracked_bytes > 0);
        assert!(out.shadow_packed_bytes > 0);
    }
}
