//! The simulator is a deterministic measurement instrument: identical
//! inputs produce bit-identical statistics and race logs, across every
//! configuration the evaluation uses.

use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg_workloads::runner::{run, RunConfig, RunOutput};
use haccrg_workloads::{benchmark_by_name, Scale};

fn fingerprint(o: &RunOutput) -> (u64, u64, u64, u64, usize, u64) {
    (
        o.stats.cycles,
        o.stats.warp_instructions,
        o.stats.icnt_flits,
        o.stats.dram.bus_busy_cycles,
        o.races.distinct(),
        o.stats.l2.hits,
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    for name in ["SCAN", "HASH", "REDUCE", "OFFT"] {
        let b1 = benchmark_by_name(name).unwrap();
        let b2 = benchmark_by_name(name).unwrap();
        let r1 = run(b1.as_ref(), &RunConfig::detecting(Scale::Tiny)).unwrap();
        let r2 = run(b2.as_ref(), &RunConfig::detecting(Scale::Tiny)).unwrap();
        assert_eq!(fingerprint(&r1), fingerprint(&r2), "{name}");
        // Full race logs match, not just counts.
        assert_eq!(r1.races.records(), r2.races.records(), "{name}");
    }
}

#[test]
fn all_detector_configurations_are_deterministic() {
    let configs: Vec<(&str, Option<DetectorConfig>)> = vec![
        ("off", None),
        ("shared", Some(DetectorConfig::shared_only())),
        ("full", Some(DetectorConfig::paper_default())),
        ("fig8", {
            let mut c = DetectorConfig::paper_default();
            c.shared_shadow = SharedShadowPlacement::GlobalMemory;
            Some(c)
        }),
    ];
    for (label, cfg) in configs {
        let mk = || RunConfig { detector: cfg, ..RunConfig::base(Scale::Tiny) };
        let b1 = benchmark_by_name("SORTNW").unwrap();
        let b2 = benchmark_by_name("SORTNW").unwrap();
        let r1 = run(b1.as_ref(), &mk()).unwrap();
        let r2 = run(b2.as_ref(), &mk()).unwrap();
        assert_eq!(fingerprint(&r1), fingerprint(&r2), "config {label}");
    }
}
