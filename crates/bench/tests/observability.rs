//! Sweep-observability integration tests: the live progress JSONL
//! stream and the run manifest must be deterministic functions of the
//! work — not of the `--jobs` count, the engine, or the scheduling —
//! modulo wall-clock fields. See `progress` / `manifest` module docs.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpu_sim::prelude::GpuConfig;
use haccrg_bench::manifest::{self, RunManifest};
use haccrg_bench::progress::SweepProgress;
use haccrg_bench::SweepRunner;
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::{all_benchmarks, Scale};

/// A `Vec<u8>` sink shared with the test through an `Arc<Mutex<_>>`.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run a 4-workload detecting sweep at tiny scale on `jobs` workers and
/// return the emitted JSONL stream.
fn sweep_stream(jobs: usize) -> Vec<String> {
    let benches: Vec<_> = all_benchmarks().into_iter().take(4).collect();
    let labels: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
    let buf = Buf::default();
    let p = SweepProgress::new(
        labels,
        jobs,
        Some(Box::new(buf.clone())),
        false,
        Duration::from_millis(5),
    );
    let runner = SweepRunner::new(jobs);
    let results = runner.run_with_progress(Some(p), benches, |b| {
        run(b.as_ref(), &RunConfig::detecting(Scale::Tiny)).expect("workload runs").stats.cycles
    });
    assert!(results.iter().all(Result::is_ok), "a sweep job failed");
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap().lines().map(str::to_string).collect()
}

/// Strip the wall-clock field from a JSONL event line: everything about
/// a terminal `job` record except `wall_ms` (and the free-text `error`)
/// is a deterministic function of the job.
fn strip_wall_ms(line: &str) -> String {
    match line.find("\"wall_ms\":") {
        Some(i) => {
            let tail = &line[i + "\"wall_ms\":".len()..];
            let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
            format!("{}{}", &line[..i], &tail[end..])
        }
        None => line.to_string(),
    }
}

#[test]
fn progress_stream_is_deterministic_across_jobs_counts() {
    // Terminal `job` records (sorted by id — completion order is
    // scheduling) and the lifecycle bookends must agree between a serial
    // and a 4-worker sweep of the same battery.
    let canonical = |lines: &[String]| {
        let mut jobs: Vec<String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"job\""))
            .map(|l| strip_wall_ms(l))
            .collect();
        jobs.sort();
        let start = lines.first().expect("sweep_start").clone();
        let end = strip_wall_ms(lines.last().expect("sweep_end"));
        (start, jobs, end)
    };

    let serial = sweep_stream(1);
    let wide = sweep_stream(4);

    let (start_1, jobs_1, end_1) = canonical(&serial);
    let (start_4, jobs_4, end_4) = canonical(&wide);

    assert!(start_1.contains("\"event\":\"sweep_start\""), "{start_1}");
    assert!(start_1.contains("\"jobs\":4"), "{start_1}");
    assert!(start_1.contains("\"workers\":1"), "{start_1}");
    assert!(start_4.contains("\"workers\":4"), "{start_4}");
    assert_eq!(jobs_1.len(), 4, "one terminal record per job:\n{}", jobs_1.join("\n"));
    assert_eq!(
        jobs_1, jobs_4,
        "job records must not depend on the worker count"
    );
    assert!(end_1.contains("\"event\":\"sweep_end\""), "{end_1}");
    assert_eq!(end_1, end_4, "sweep_end must not depend on the worker count");
    // Every terminal record carries real simulation throughput counters.
    for j in &jobs_1 {
        assert!(j.contains("\"state\":\"done\""), "{j}");
        assert!(!j.contains("\"cycles\":0,"), "job never heartbeat: {j}");
    }
}

#[test]
fn progress_stream_reports_heartbeats_while_running() {
    // With a 5ms tick and four tiny workloads on one worker, at least
    // one periodic snapshot lands while a job is mid-flight.
    let lines = sweep_stream(1);
    let progress: Vec<_> =
        lines.iter().filter(|l| l.contains("\"event\":\"progress\"")).collect();
    assert!(!progress.is_empty(), "no periodic snapshots in:\n{}", lines.join("\n"));
    for p in &progress {
        assert!(p.contains("\"elapsed_ms\":"), "{p}");
        assert!(p.contains("\"running\":["), "{p}");
    }
}

/// Strip the wall-clock lines from a pretty-printed manifest.
fn strip_timing(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"wall_ms\"") && !l.contains("\"created_unix_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn manifest_is_deterministic_modulo_timing() {
    let make = || {
        let mut m = RunManifest::new("observability-test");
        m.scale = "tiny".into();
        m.jobs = 3;
        m.workloads = manifest::suite_workloads(Scale::Tiny);
        m.config_hash = manifest::config_hash(&GpuConfig::quadro_fx5800());
        m.to_json()
    };
    let a = make();
    let b = make();
    assert_eq!(strip_timing(&a), strip_timing(&b), "manifest content drifted between builds");

    // Schema and hash shape: 16 lowercase hex digits per hash.
    assert!(a.contains("\"schema\": 1"), "{a}");
    assert!(a.contains("\"bin\": \"observability-test\""), "{a}");
    assert!(a.contains("\"rustc\""), "{a}");
    let hashes: Vec<&str> = a
        .lines()
        .filter_map(|l| {
            let i = l.find("_hash\": \"")? + "_hash\": \"".len();
            l[i..].split('"').next()
        })
        .collect();
    assert!(!hashes.is_empty(), "no content hashes in:\n{a}");
    for h in hashes {
        assert_eq!(h.len(), 16, "hash {h:?} is not 64-bit hex");
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()), "hash {h:?} is not hex");
    }
    // The full Table II suite is referenced.
    assert_eq!(a.matches("\"workload_hash\"").count(), all_benchmarks().len());
}

#[test]
fn stats_digest_is_engine_independent() {
    // The digest covers simulation outcomes, which the determinism
    // contract pins across skipping and dense (no fast-forward) runs of
    // the same workload: they must digest equally.
    let b = all_benchmarks().into_iter().next().expect("suite nonempty");
    let skip = run(b.as_ref(), &RunConfig::detecting(Scale::Tiny)).expect("runs");
    let mut dense_cfg = RunConfig::detecting(Scale::Tiny);
    dense_cfg.gpu.cycle_skip = false;
    let dense = run(b.as_ref(), &dense_cfg).expect("runs");

    let digest =
        |o: &haccrg_workloads::runner::RunOutput| manifest::stats_digest(&o.stats, &o.races);
    assert_eq!(digest(&skip), digest(&dense), "dense engine changed the digest");
}
