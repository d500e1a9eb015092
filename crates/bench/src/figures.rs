//! Regenerators for Figures 7–9 and the §VI-A2 Bloom stress test.

use haccrg::bloom::{BloomConfig, BloomSig};
use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg_baselines::{run_baseline, BaselineKind};
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::{all_benchmarks, Scale};

use gpu_sim::prelude::GpuConfig;

use crate::parallel_map_benches;
use crate::report::{geomean, pct, ratio, Table};

/// Fig. 7 — execution time normalized to the unmodified GPU, for shared-
/// only detection and combined shared+global detection, plus the §VI-B
/// software comparison (HAccRG-SW and GRace-add on SCAN, HIST, KMEANS).
pub fn fig7(scale: Scale) -> Table {
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let base = run(b.as_ref(), &RunConfig::base(scale)).expect("base run").stats.cycles as f64;
        let shared =
            run(b.as_ref(), &RunConfig::with_detector(scale, DetectorConfig::shared_only())).expect("shared run");
        let full = run(b.as_ref(), &RunConfig::detecting(scale)).expect("full run");
        let s = shared.stats.cycles as f64 / base;
        let f = full.stats.cycles as f64 / base;
        // §VI-B compares the software detectors on three benchmarks only.
        let software = matches!(b.name(), "SCAN" | "HIST" | "KMEANS").then(|| {
            let gpu = GpuConfig::quadro_fx5800();
            let sw = run_baseline(b.as_ref(), BaselineKind::SwHaccrg, gpu, scale).expect("sw");
            let grace = run_baseline(b.as_ref(), BaselineKind::GraceAdd, gpu, scale).expect("grace");
            (sw.stats.cycles as f64 / base, grace.stats.cycles as f64 / base)
        });
        (b.name().to_string(), s, f, software)
    });

    let mut t = Table::new(
        "Fig. 7 — normalized execution time (1.00 = unmodified GPU)",
        &["benchmark", "shared-only", "shared+global"],
    );
    let (mut ss, mut fs) = (Vec::new(), Vec::new());
    for (name, s, f, _) in &rows {
        t.row(vec![name.clone(), format!("{s:.3}"), format!("{f:.3}")]);
        ss.push(*s);
        fs.push(*f);
    }
    t.row(vec!["GEOMEAN".into(), format!("{:.3}", geomean(&ss)), format!("{:.3}", geomean(&fs))]);

    for (name, _, _, software) in &rows {
        if let Some((sw, grace)) = software {
            t.row(vec![format!("{name} (HAccRG-SW)"), "-".into(), ratio(*sw)]);
            t.row(vec![format!("{name} (GRace-add)"), "-".into(), ratio(*grace)]);
        }
    }
    t
}

/// Fig. 8 — combined detection with the shared shadow entries in hardware
/// vs spilled to global memory (cached in L1), normalized to baseline.
pub fn fig8(scale: Scale) -> Table {
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let base = run(b.as_ref(), &RunConfig::base(scale)).expect("base");
        let hw = run(b.as_ref(), &RunConfig::detecting(scale)).expect("hw");
        let mut cfg = DetectorConfig::paper_default();
        cfg.shared_shadow = SharedShadowPlacement::GlobalMemory;
        let sw = run(b.as_ref(), &RunConfig::with_detector(scale, cfg)).expect("sw shadow");
        (
            b.name().to_string(),
            hw.stats.cycles as f64 / base.stats.cycles as f64,
            sw.stats.cycles as f64 / base.stats.cycles as f64,
            sw.stats.shared_shadow_l1_accesses,
        )
    });
    let mut t = Table::new(
        "Fig. 8 — shared shadow entries: hardware vs global memory (normalized time)",
        &["benchmark", "HW shadow", "shadow in global mem", "shadow L1 accesses"],
    );
    let (mut hs, mut gs) = (Vec::new(), Vec::new());
    for (name, h, g, acc) in rows {
        t.row(vec![name, format!("{h:.3}"), format!("{g:.3}"), acc.to_string()]);
        hs.push(h);
        gs.push(g);
    }
    t.row(vec![
        "GEOMEAN".into(),
        format!("{:.3}", geomean(&hs)),
        format!("{:.3}", geomean(&gs)),
        "-".into(),
    ]);
    t
}

/// Fig. 9 — average DRAM bandwidth utilization without detection, with
/// shared-only detection, and with combined detection.
pub fn fig9(scale: Scale) -> Table {
    let slices = GpuConfig::quadro_fx5800().num_mem_slices;
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let base = run(b.as_ref(), &RunConfig::base(scale)).expect("base");
        let shared =
            run(b.as_ref(), &RunConfig::with_detector(scale, DetectorConfig::shared_only())).expect("shared");
        let full = run(b.as_ref(), &RunConfig::detecting(scale)).expect("full");
        vec![
            b.name().to_string(),
            pct(base.stats.dram_utilization(slices)),
            pct(shared.stats.dram_utilization(slices)),
            pct(full.stats.dram_utilization(slices)),
            format!("{:.1}%", base.stats.l1.hit_rate() * 100.0),
            format!("{:.1}%", base.stats.l2.hit_rate() * 100.0),
        ]
    });
    let mut t = Table::new(
        "Fig. 9 — DRAM bandwidth utilization",
        &["benchmark", "no detection", "shared-only", "shared+global", "L1 hit", "L2 hit"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// §IV-B — the virtual-memory TLB study: replay each benchmark's recorded
/// (data, shadow) page streams through the paper's two dual-translation
/// mechanisms (appended tag bit vs. a separate shadow TLB).
pub fn tlb_ablation(scale: Scale, main_entries: usize, ways: usize, shadow_entries: usize) -> Table {
    use gpu_sim::mem::tlb::{replay_mechanism, TlbMechanism};
    use haccrg_workloads::runner::run_instance;
    use gpu_sim::prelude::Gpu;

    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let mut gpu = Gpu::with_detector(GpuConfig::quadro_fx5800(), DetectorConfig::paper_default());
        gpu.record_trace(true);
        let inst = b.prepare(&mut gpu, scale);
        run_instance(&mut gpu, &inst).expect("run");
        let trace = gpu.take_trace();

        let alone = replay_mechanism(
            TlbMechanism::AppendedBit,
            main_entries,
            ways,
            trace.iter().map(|&(d, _)| (d, None)),
        );
        let appended =
            replay_mechanism(TlbMechanism::AppendedBit, main_entries, ways, trace.iter().copied());
        let split = replay_mechanism(
            TlbMechanism::SeparateShadowTlb { shadow_entries },
            main_entries,
            ways,
            trace.iter().copied(),
        );
        vec![
            b.name().to_string(),
            trace.len().to_string(),
            pct(alone.data_hit_rate()),
            pct(appended.data_hit_rate()),
            pct(appended.shadow_hit_rate()),
            pct(split.data_hit_rate()),
            pct(split.shadow_hit_rate()),
        ]
    });
    let mut t = Table::new(
        format!("§IV-B — TLB mechanisms ({main_entries}-entry main TLB, {shadow_entries}-entry shadow TLB)"),
        &[
            "benchmark",
            "transactions",
            "data hit (no detect)",
            "data hit (appended)",
            "shadow hit (appended)",
            "data hit (separate)",
            "shadow hit (separate)",
        ],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// The signature shapes the §VI-A2 stress sweeps: 8/16/32 bits crossed
/// with 2/4 bins (the paper default is 16×2).
pub const BLOOM_STRESS_CONFIGS: [BloomConfig; 6] = [
    BloomConfig { bits: 8, bins: 2 },
    BloomConfig { bits: 8, bins: 4 },
    BloomConfig { bits: 16, bins: 2 },
    BloomConfig { bits: 16, bins: 4 },
    BloomConfig { bits: 32, bins: 2 },
    BloomConfig { bits: 32, bins: 4 },
];

/// Random distinct lock pairs the §VI-A2 stress test draws.
pub const BLOOM_STRESS_PAIRS: u64 = 1_000_000;

/// Measured miss rate per stress config over [`BLOOM_STRESS_PAIRS`]
/// pairs: `(config, measured)`. The analytical companion is
/// `config.expected_miss_rate()`.
pub fn bloom_stress_rows() -> Vec<(BloomConfig, f64)> {
    BLOOM_STRESS_CONFIGS.iter().map(|&cfg| (cfg, measure_miss_rate(cfg, BLOOM_STRESS_PAIRS))).collect()
}

/// §VI-A2 — the atomic-ID (Bloom signature) stress test: over a million
/// random distinct lock pairs, the fraction whose signatures collide (a
/// collision makes HAccRG *miss* that race). `rows` are
/// [`bloom_stress_rows`].
pub fn bloom_stress(rows: &[(BloomConfig, f64)]) -> Table {
    let mut t = Table::new(
        "§VI-A2 — atomic-ID accuracy stress (missed races over random lock pairs)",
        &["signature", "bins", "measured miss", "analytical"],
    );
    for &(cfg, missed) in rows {
        t.row(vec![
            format!("{}-bit", cfg.bits),
            cfg.bins.to_string(),
            pct(missed),
            pct(cfg.expected_miss_rate()),
        ]);
    }
    t
}

/// Fraction of random distinct word-aligned lock pairs whose signatures
/// fail to produce a null intersection (= missed race).
pub fn measure_miss_rate(cfg: BloomConfig, pairs: u64) -> f64 {
    // Deterministic xorshift stream; addresses word-aligned as lock
    // variables are.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as u32) & !3
    };
    let mut missed = 0u64;
    let mut total = 0u64;
    while total < pairs {
        let a = next();
        let b = next();
        if a == b {
            continue;
        }
        total += 1;
        let sa = BloomSig::of_lock(a, cfg);
        let sb = BloomSig::of_lock(b, cfg);
        if !sa.is_null_intersection(sb, cfg) {
            missed += 1;
        }
    }
    missed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_stress_reproduces_section_6a2() {
        // Every stress shape at the table's million pairs lands within one
        // point of its analytical rate (8/16/32-bit 2-bin: 25%, 12.5%,
        // 6.25%, as `bloom::tests` pins).
        for (cfg, got) in bloom_stress_rows() {
            let expect = cfg.expected_miss_rate();
            assert!(
                (got - expect).abs() < 0.01,
                "{}-bit/{}-bin: measured {got}, analytical {expect}",
                cfg.bits,
                cfg.bins
            );
        }
    }

    #[test]
    fn two_bins_beat_four_bins() {
        // §VI-A2: "signatures with 2 bins have better accuracy than those
        // with 4 bins for the same signature size."
        for bits in [8u8, 16, 32] {
            let two = measure_miss_rate(BloomConfig { bits, bins: 2 }, 100_000);
            let four = measure_miss_rate(BloomConfig { bits, bins: 4 }, 100_000);
            assert!(two < four, "{bits}-bit: 2-bin {two} vs 4-bin {four}");
        }
    }
}
