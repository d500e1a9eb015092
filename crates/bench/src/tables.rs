//! Regenerators for Tables I–IV.

use gpu_sim::prelude::*;
use haccrg::cost::{self, BudgetParams};
use haccrg::granularity::Granularity;
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::{all_benchmarks, Scale};

use crate::parallel_map_benches;
use crate::report::{bytes, pct, Table};

/// Table I: the simulated GPU configuration.
pub fn table1() -> Table {
    let c = GpuConfig::quadro_fx5800();
    let mut t = Table::new("Table I — GPU hardware configuration (Quadro FX5800 + Fermi caches)", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("# SMs", c.num_sms.to_string());
    kv("SIMD pipeline width / warp size", format!("{} / {}", c.simd_width, c.warp_size));
    kv("# threads / registers per SM", format!("{} / {}", c.max_threads_per_sm, c.regs_per_sm));
    kv("warp scheduling", "round robin".into());
    kv("shared memory per SM", bytes(u64::from(c.shared_mem_per_sm)));
    kv(
        "L1 data cache per SM",
        format!("{} / {}-way / {}B line (non-coherent)", bytes(u64::from(c.l1.size_bytes)), c.l1.ways, c.l1.line_bytes),
    );
    kv(
        "unified L2 per memory slice",
        format!("{} / {}-way / {}B line", bytes(u64::from(c.l2.size_bytes)), c.l2.ways, c.l2.line_bytes),
    );
    kv("# memory slices", c.num_mem_slices.to_string());
    kv("DRAM request queue size", c.dram.queue_size.to_string());
    kv("memory controller", "out-of-order (FR-FCFS)".into());
    kv(
        "GDDR3 timing",
        format!(
            "tRCD={} tCL={} tRP={} tRAS={} burst={}",
            c.dram.t_rcd, c.dram.t_cl, c.dram.t_rp, c.dram.t_ras, c.dram.burst_cycles
        ),
    );
    kv("interconnect", format!("{}B flits, {}-cycle latency", c.icnt.flit_bytes, c.icnt.latency));
    t
}

/// Table II: benchmark inputs and instruction mix.
pub fn table2(scale: Scale) -> Table {
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let out = run(b.as_ref(), &RunConfig::base(scale)).expect("run");
        let verified = match (&out.verified, out.expect_races) {
            (Ok(()), _) => "ok".to_string(),
            (Err(e), _) => format!("FAIL: {e}"),
        };
        vec![
            b.name().to_string(),
            b.paper_inputs().to_string(),
            pct(out.stats.shared_inst_fraction()),
            pct(out.stats.global_inst_fraction()),
            out.stats.warp_instructions.to_string(),
            out.stats.cycles.to_string(),
            verified,
        ]
    });
    let mut t = Table::new(
        "Table II — benchmarks, inputs, instruction mix",
        &["benchmark", "paper inputs", "shared inst", "global inst", "warp insts", "cycles", "verify"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// One space's Table III sweep: distinct races per granularity, with the
/// finest-granularity count subtracted (false positives only).
pub fn table3(scale: Scale, shared_space: bool) -> Table {
    let sweep = Granularity::table3_sweep();
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let counts: Vec<usize> = sweep
            .iter()
            .map(|&g| {
                let mut cfg = haccrg::config::DetectorConfig::paper_default();
                if shared_space {
                    cfg.global_enabled = false;
                    cfg.shared_granularity = g;
                } else {
                    cfg.shared_enabled = false;
                    cfg.global_granularity = g;
                }
                let out = run(b.as_ref(), &RunConfig::with_detector(scale, cfg)).expect("run");
                let space = if shared_space {
                    haccrg::access::MemSpace::Shared
                } else {
                    haccrg::access::MemSpace::Global
                };
                out.races.records().iter().filter(|r| r.space == space).count()
            })
            .collect();
        let baseline = counts[0]; // 4B = the paper's finest evaluated point
        let mut row = vec![b.name().to_string()];
        row.extend(counts.iter().map(|&c| (c.saturating_sub(baseline)).to_string()));
        row.push(baseline.to_string());
        row
    });
    let space = if shared_space { "shared" } else { "global" };
    let mut t = Table::new(
        format!("Table III — false {space}-memory races vs tracking granularity"),
        &["benchmark", "4B", "8B", "16B", "32B", "64B", "(real @4B)"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// Table IV: global shadow-memory overhead at 4-byte granularity.
pub fn table4(scale: Scale) -> Table {
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let out = run(b.as_ref(), &RunConfig::detecting(scale)).expect("run");
        vec![
            b.name().to_string(),
            bytes(u64::from(out.tracked_bytes)),
            bytes(out.shadow_packed_bytes),
            format!("{:.2}", out.shadow_packed_bytes as f64 / f64::from(out.tracked_bytes.max(1))),
        ]
    });
    let mut t = Table::new(
        "Table IV — global shadow memory overhead (4B granularity, 52-bit entries)",
        &["benchmark", "kernel footprint", "shadow overhead", "ratio"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// §VI-A2: measured logical-clock maxima across the suite (the paper
/// observes a max sync ID of 5, for REDUCE, and similarly small fence
/// counts — 8-bit counters have enormous headroom).
pub fn id_sizing(scale: Scale) -> Table {
    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let out = run(b.as_ref(), &RunConfig::detecting(scale)).expect("run");
        vec![
            b.name().to_string(),
            out.max_sync_id.to_string(),
            out.max_fence_id.to_string(),
            out.stats.barriers.to_string(),
            out.stats.fences.to_string(),
        ]
    });
    let mut t = Table::new(
        "§VI-A2 — logical-clock headroom (8-bit sync/fence IDs wrap at 256)",
        &["benchmark", "max sync ID", "max fence ID", "barriers", "fences"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// Extension: the SDK's alternative algorithm variants under combined
/// detection — cost follows the synchronization idiom, not the name.
pub fn variants_table(scale: Scale) -> Table {
    use haccrg_workloads::scan::Scan;
    use haccrg_workloads::variants::{Hist256, ScanWorkEfficient};
    use haccrg_workloads::{benchmark_by_name, Benchmark};

    fn row(b: &dyn Benchmark, scale: Scale) -> Vec<String> {
        let base = run(b, &RunConfig::base(scale)).expect("base");
        let det = run(b, &RunConfig::detecting(scale)).expect("detect");
        vec![
            b.name().to_string(),
            base.stats.cycles.to_string(),
            format!("{:.3}", det.stats.cycles as f64 / base.stats.cycles as f64),
            det.races.distinct().to_string(),
            det.stats.barriers.to_string(),
            det.stats.atomics.to_string(),
        ]
    }
    let mut t = Table::new(
        "Extension — SDK algorithm variants under combined detection",
        &["kernel", "base cycles", "overhead", "races", "barriers", "atomics"],
    );
    t.row(row(&Scan::single_block(), scale));
    t.row(row(&ScanWorkEfficient, scale));
    t.row(row(benchmark_by_name("HIST").unwrap().as_ref(), scale));
    t.row(row(&Hist256, scale));
    t
}

/// Extension: HAccRG's overhead under round-robin (Table I) versus
/// greedy-then-oldest warp scheduling. Detection verdicts must not
/// depend on the issue policy; the overhead ratios should be similar,
/// since the detector burdens memory traffic, not the scheduler.
pub fn sched_ablation(scale: Scale) -> Table {
    use gpu_sim::config::SchedPolicy;

    let rows = parallel_map_benches(all_benchmarks(), |b| {
        let mut row = vec![b.name().to_string()];
        let mut verdicts = Vec::new();
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::GreedyThenOldest] {
            let mut base_cfg = RunConfig::base(scale);
            base_cfg.gpu.sched = policy;
            let mut det_cfg = RunConfig::detecting(scale);
            det_cfg.gpu.sched = policy;
            let base = run(b.as_ref(), &base_cfg).expect("base");
            let det = run(b.as_ref(), &det_cfg).expect("detect");
            row.push(base.stats.cycles.to_string());
            row.push(format!("{:.3}", det.stats.cycles as f64 / base.stats.cycles as f64));
            verdicts.push(det.races.any());
        }
        row.push(if verdicts[0] == verdicts[1] { "agree" } else { "DISAGREE" }.into());
        row
    });
    let mut t = Table::new(
        "Scheduler ablation — detection overhead under RR vs GTO",
        &["benchmark", "RR base cycles", "RR overhead", "GTO base cycles", "GTO overhead", "verdicts"],
    );
    for r in rows {
        t.row(r);
    }
    t
}

/// §VI-C2: the hardware storage/comparator budget, derived from the cost
/// model for both the paper's Fermi sizing and the simulated FX5800.
pub fn hardware_budget_table() -> Table {
    let mut t = Table::new("§VI-C2 — hardware budget", &["quantity", "Fermi (paper)", "FX5800 (simulated)"]);
    let fermi = cost::hardware_budget(&BudgetParams::fermi());
    let c = GpuConfig::quadro_fx5800();
    let fx = cost::hardware_budget(&BudgetParams {
        num_sms: c.num_sms,
        shared_bytes_per_sm: c.shared_mem_per_sm,
        shared_granularity: Granularity::SHARED_DEFAULT,
        global_granularity: Granularity::GLOBAL_DEFAULT,
        shared_banks: c.shared_banks,
        max_blocks_per_sm: c.max_blocks_per_sm,
        max_warps_per_sm: c.max_warps_per_sm(),
        max_threads_per_sm: c.max_threads_per_sm,
        l2_line_bytes: c.l2.line_bytes,
    });
    let mut kv = |k: &str, a: String, b: String| t.row(vec![k.into(), a, b]);
    kv("shared shadow storage / SM", bytes(fermi.shared_shadow_bytes_per_sm), bytes(fx.shared_shadow_bytes_per_sm));
    kv("ID storage / SM", bytes(fermi.id_storage_bytes_per_sm), bytes(fx.id_storage_bytes_per_sm));
    kv("race register file / replica", bytes(fermi.race_register_file_bytes), bytes(fx.race_register_file_bytes));
    kv(
        "shared comparators / SM",
        fermi.shared_comparators_per_sm.to_string(),
        fx.shared_comparators_per_sm.to_string(),
    );
    kv(
        "global basic comparators / slice",
        fermi.global_basic_comparators_per_slice.to_string(),
        fx.global_basic_comparators_per_slice.to_string(),
    );
    kv(
        "global ID comparators / slice",
        fermi.global_id_comparators_per_slice.to_string(),
        fx.global_id_comparators_per_slice.to_string(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_table_i_parameters() {
        let t = table1();
        let s = t.render();
        assert!(s.contains("30"));
        assert!(s.contains("FR-FCFS"));
        assert!(s.contains("16.0KB"));
    }

    #[test]
    fn hardware_budget_matches_paper_numbers() {
        let t = hardware_budget_table();
        let s = t.render();
        assert!(s.contains("4.5KB"), "{s}");
        assert!(s.contains("768B"), "{s}");
    }
}
