//! Regenerate the §VI-A2 atomic-ID (Bloom signature) stress test over one
//! million random lock pairs, writing the measured-vs-analytical miss
//! rates to `BENCH_bloom.json`.
//! Usage: `cargo run --release -p haccrg-bench --bin bloom_stress --
//! [--out FILE] [--manifest-out FILE]` (default `BENCH_bloom.json` in the
//! current directory — run from the repo root to refresh the committed
//! snapshot).
//!
//! The binary asserts the acceptance floor as it writes the file: every
//! measured miss rate within one percentage point of
//! `BloomConfig::expected_miss_rate()` for its (bits, bins) shape. The
//! lock-pair stream is a fixed xorshift sequence, so `measured_miss_rate`
//! fields are bit-stable across hosts — diff the JSON after a change.

use gpu_sim::{log_error, log_info};
use haccrg_bench::cli::{MANIFEST_OUT, OUT};
use haccrg_bench::figures::{bloom_stress, bloom_stress_rows, BLOOM_STRESS_PAIRS};

fn main() {
    let setup = haccrg_bench::RunSetup::from_args("bloom_stress", &[OUT, MANIFEST_OUT]);
    let out_path = setup.args.value(OUT.0).unwrap_or("BENCH_bloom.json");

    let rows = bloom_stress_rows();
    println!("{}", bloom_stress(&rows).render());

    let mut configs = String::new();
    for (i, (cfg, measured)) in rows.iter().enumerate() {
        let expected = cfg.expected_miss_rate();
        assert!(
            (measured - expected).abs() < 0.01,
            "{}x{}: measured {measured:.4} vs analytical {expected:.4}",
            cfg.bits,
            cfg.bins
        );
        configs.push_str(&format!(
            "    {{\"bits\": {}, \"bins\": {}, \"measured_miss_rate\": {measured:.6}, \"expected_miss_rate\": {expected:.6}}}{}\n",
            cfg.bits,
            cfg.bins,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let env = haccrg_bench::Environment::capture().to_json();
    let report = format!(
        r#"{{
  "benchmark": "bloom_stress",
  "produced_by": "cargo run --release -p haccrg-bench --bin bloom_stress",
  "environment": {env},
  "pairs": {BLOOM_STRESS_PAIRS},
  "configs": [
{configs}  ]
}}
"#
    );
    if let Err(e) = std::fs::write(out_path, report) {
        log_error!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    log_info!("wrote {} signature shapes to {out_path}", rows.len());
    setup.write_manifest(&[out_path]);
}
