//! Runs Table II benchmarks under the software baselines.

use gpu_sim::device::HEAP_BASE;
use gpu_sim::prelude::*;
use haccrg_workloads::runner::{run_instance, RunOutput};
use haccrg_workloads::{Benchmark, LaunchSpec, Scale};

use crate::grace::{instrument_grace, GraceConfig};
use crate::sw_haccrg::{instrument_sw, SwConfig};

/// Which software baseline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// The paper's software implementation of HAccRG.
    SwHaccrg,
    /// The GRace-add re-implementation (shared-memory detector).
    GraceAdd,
}

impl BaselineKind {
    /// Display name used in Fig. 7 rows.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::SwHaccrg => "HAccRG-SW",
            BaselineKind::GraceAdd => "GRace-add",
        }
    }
}

/// Prepare `bench`, instrument its kernels for `kind`, allocate the
/// baseline's device structures, and run. Detection hardware is off —
/// the baseline's cost *is* the instrumentation.
pub fn run_baseline(
    bench: &dyn Benchmark,
    kind: BaselineKind,
    gpu_cfg: GpuConfig,
    scale: Scale,
) -> Result<RunOutput, SimError> {
    let mut gpu = Gpu::new(gpu_cfg);
    let mut inst = bench.prepare(&mut gpu, scale);
    instrument_launches(&mut gpu, kind, &mut inst.launches);
    run_instance(&mut gpu, &inst)
}

/// Allocate `kind`'s device structures on `gpu`, sized for every launch
/// of `launches`, and instrument each launch's kernel in place. Call it
/// once the inputs are allocated: HAccRG-SW's shadow covers everything
/// allocated before it.
pub fn instrument_launches(gpu: &mut Gpu, kind: BaselineKind, launches: &mut [LaunchSpec]) {
    match kind {
        BaselineKind::SwHaccrg => {
            let tracked = gpu.mem.alloc_ptr() - HEAP_BASE;
            let max_shared = launches.iter().map(|l| l.kernel.shared_bytes).max().unwrap_or(0);
            let max_grid = launches.iter().map(|l| l.grid).max().unwrap_or(1);
            let mut cfg = SwConfig {
                shadow_base: 0,
                heap_base: HEAP_BASE,
                gran_shift: 2,
                cover_shared: true,
                shared_shadow_base: 0,
                shared_chunks_per_block: (max_shared >> 2).max(1),
            };
            cfg.shadow_base = gpu.mem.alloc(cfg.shadow_bytes(tracked)).expect("shadow alloc");
            cfg.shared_shadow_base =
                gpu.mem.alloc(cfg.shared_shadow_bytes(max_grid)).expect("shared shadow alloc");
            for l in launches {
                l.kernel = instrument_sw(&l.kernel, cfg);
            }
        }
        BaselineKind::GraceAdd => {
            let warp = gpu.cfg.warp_size;
            let max_warps: u32 =
                launches.iter().map(|l| l.grid * l.block.div_ceil(warp)).max().unwrap_or(1);
            let warps_per_block = launches.iter().map(|l| l.block.div_ceil(warp)).max().unwrap_or(1);
            let log_cap = 256;
            let cfg = GraceConfig {
                cursors_base: gpu.mem.alloc(max_warps * 4).expect("cursor alloc"),
                logs_base: gpu.mem.alloc(max_warps * log_cap * 4).expect("log alloc"),
                log_cap,
                warps_per_block,
                warp_size: warp,
            };
            for l in launches {
                l.kernel = instrument_grace(&l.kernel, cfg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccrg_workloads::runner::{run, RunConfig};
    use haccrg_workloads::scan::Scan;

    #[test]
    fn sw_baseline_is_slower_but_still_correct() {
        let base = run(
            &Scan::single_block(),
            &RunConfig { gpu: GpuConfig::test_small(), detector: None, scale: Scale::Tiny },
        )
        .unwrap();
        let sw = run_baseline(
            &Scan::single_block(),
            BaselineKind::SwHaccrg,
            GpuConfig::test_small(),
            Scale::Tiny,
        )
        .unwrap();
        sw.verified.as_ref().expect("instrumented scan still correct");
        let slowdown = sw.stats.cycles as f64 / base.stats.cycles as f64;
        assert!(slowdown > 1.5, "SW detection should cost well over 50%: {slowdown}");
    }

    #[test]
    fn grace_is_slower_than_sw_haccrg_on_shared_kernels() {
        let sw = run_baseline(
            &Scan::single_block(),
            BaselineKind::SwHaccrg,
            GpuConfig::test_small(),
            Scale::Tiny,
        )
        .unwrap();
        let grace = run_baseline(
            &Scan::single_block(),
            BaselineKind::GraceAdd,
            GpuConfig::test_small(),
            Scale::Tiny,
        )
        .unwrap();
        grace.verified.as_ref().expect("instrumented scan still correct");
        assert!(
            grace.stats.cycles > sw.stats.cycles,
            "GRace ({}) should exceed HAccRG-SW ({})",
            grace.stats.cycles,
            sw.stats.cycles
        );
    }
}
