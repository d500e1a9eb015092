//! Host-side phase profiler acceptance: on a Table II workload at the
//! repro scale, the profiler's phase tree must
//! attribute at least 95% of the launch wall time to child phases —
//! i.e. the uninstrumented "self" remainder of `Phase::Launch` stays
//! under 5%.
//!
//! This lives in its own integration-test binary (one process, one
//! test) because the profiler tables are process-global: concurrent
//! simulations on other test threads would pollute the attribution.

use gpu_sim::prof;
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::{benchmark_by_name, Scale};

#[test]
fn profiler_attributes_95_percent_of_hist_repro_wall_time() {
    if cfg!(debug_assertions) {
        // Attribution is a release-build property: debug builds inflate
        // the uninstrumented glue disproportionately, and the repro-scale
        // run is far too slow unoptimized.
        return;
    }
    prof::reset();
    prof::set_enabled(true);
    let b = benchmark_by_name("HIST").expect("HIST is in Table II");
    let out = run(b.as_ref(), &RunConfig::detecting(Scale::Repro)).expect("workload runs");
    prof::set_enabled(false);
    assert!(out.stats.cycles > 0, "nothing simulated");

    let rep = prof::report();
    let f = rep.attributed_fraction();
    assert!(
        f >= 0.95,
        "profiler attributed only {:.1}% of launch wall time:\n{}",
        f * 100.0,
        rep.render()
    );
}
