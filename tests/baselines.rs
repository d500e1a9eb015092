//! §VI-B comparison shape: hardware detection is cheap, HAccRG-SW is
//! several times slower, GRace-add is slower still on shared-memory
//! kernels — while all remain functionally correct.

use gpu_sim::prelude::GpuConfig;
use haccrg_baselines::{run_baseline, BaselineKind};
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::scan::Scan;
use haccrg_workloads::Scale;

#[test]
fn hardware_beats_software_beats_grace_on_scan() {
    let bench = Scan::single_block();
    let gpu = GpuConfig::test_small();
    let base = run(&bench, &RunConfig { gpu, detector: None, scale: Scale::Tiny }).unwrap();
    let hw = run(
        &bench,
        &RunConfig {
            gpu,
            detector: Some(haccrg::config::DetectorConfig::paper_default()),
            scale: Scale::Tiny,
        },
    )
    .unwrap();
    let sw = run_baseline(&bench, BaselineKind::SwHaccrg, gpu, Scale::Tiny).unwrap();
    let grace = run_baseline(&bench, BaselineKind::GraceAdd, gpu, Scale::Tiny).unwrap();

    // Every variant computes the right scan.
    base.verified.as_ref().unwrap();
    hw.verified.as_ref().unwrap();
    sw.verified.as_ref().unwrap();
    grace.verified.as_ref().unwrap();

    let hw_x = hw.stats.cycles as f64 / base.stats.cycles as f64;
    let sw_x = sw.stats.cycles as f64 / base.stats.cycles as f64;
    let grace_x = grace.stats.cycles as f64 / base.stats.cycles as f64;

    // The paper's ordering (§VI-B): hardware ≈ 1×, software single-digit
    // multiples, GRace orders of magnitude.
    assert!(hw_x < 1.5, "hardware overhead too high: {hw_x:.2}");
    assert!(sw_x > 2.0, "software should be several times slower: {sw_x:.2}");
    assert!(grace_x > sw_x, "GRace ({grace_x:.1}) must exceed HAccRG-SW ({sw_x:.1})");
}

#[test]
fn software_baseline_instruments_every_kernel_of_a_multi_kernel_benchmark() {
    use haccrg_workloads::fwalsh::FWalsh;
    let gpu = GpuConfig::test_small();
    let base = run(&FWalsh, &RunConfig { gpu, detector: None, scale: Scale::Tiny }).unwrap();
    let sw = run_baseline(&FWalsh, BaselineKind::SwHaccrg, gpu, Scale::Tiny).unwrap();
    sw.verified.as_ref().unwrap();
    assert!(sw.stats.warp_instructions > base.stats.warp_instructions * 2);
    assert!(sw.stats.global_stores > base.stats.global_stores * 2);
}
