//! Live sweep progress: a per-job state machine over the
//! [`crate::SweepRunner`] pool, throughput counters fed by the
//! simulator's per-job heartbeats, a periodic JSONL stream
//! (`--progress-out FILE`) and a single-line TTY renderer.
//!
//! ## JSONL schema (one event object per line)
//!
//! | `event`       | fields |
//! |---------------|--------|
//! | `sweep_start` | `schema`, `jobs`, `workers` |
//! | `progress`    | `elapsed_ms`, `done`, `failed`, `eta_ms`, `running[]` (`id`, `label`, `cycles`, `instructions`, `checks`, `launches`, `cycles_per_s`, `stalled`) |
//! | `job`         | `id`, `label`, `state` (`done`/`failed`), `cycles`, `instructions`, `checks`, `launches`, `wall_ms`, `error?` |
//! | `sweep_end`   | `wall_ms`, `done`, `failed` |
//!
//! Terminal `job` records are keyed by `id` and — apart from `wall_ms`
//! and `error` text — are a deterministic function of the job (the
//! simulator's counters don't depend on scheduling), so two sweeps of
//! the same battery agree on every non-timing field for any `--jobs`
//! count. `progress` events are sampling-time snapshots and carry the
//! only scheduling-dependent data.
//!
//! A `running` entry whose heartbeat stops advancing between two ticks
//! is flagged `stalled: true` — visible wedge telemetry long before the
//! per-launch watchdog fires.

use std::io::{IsTerminal, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gpu_sim::trace::heartbeat::Heartbeat;
use haccrg::json::esc_json;

/// Version stamped into `sweep_start` events.
pub const PROGRESS_SCHEMA: u32 = 1;

/// Default reporter tick.
pub const DEFAULT_INTERVAL_MS: u64 = 500;

/// Lifecycle of one sweep job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Not yet claimed by a worker.
    Queued,
    /// Claimed and simulating.
    Running,
    /// Finished successfully.
    Done,
    /// Panicked (the sweep itself continues).
    Failed,
}

impl JobState {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            _ => JobState::Queued,
        }
    }

    /// Stable lowercase name used in the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

struct JobSlot {
    label: String,
    state: AtomicU8,
    hb: Arc<Heartbeat>,
    wall_ms: AtomicU64,
    started_ms: AtomicU64,
    error: Mutex<Option<String>>,
}

/// Shared progress state for one sweep. Workers mutate their slot;
/// the reporter thread and the JSONL sink only read.
pub struct SweepProgress {
    slots: Vec<JobSlot>,
    workers: usize,
    t0: Instant,
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    tty: bool,
    interval: Duration,
}

impl SweepProgress {
    /// Build a progress tracker for `labels.len()` jobs and emit the
    /// `sweep_start` event. `sink` receives the JSONL stream; `tty`
    /// additionally renders a live status line on stderr.
    pub fn new(
        labels: Vec<String>,
        workers: usize,
        sink: Option<Box<dyn Write + Send>>,
        tty: bool,
        interval: Duration,
    ) -> Arc<Self> {
        let slots = labels
            .into_iter()
            .map(|label| JobSlot {
                label,
                state: AtomicU8::new(0),
                hb: Arc::new(Heartbeat::new()),
                wall_ms: AtomicU64::new(0),
                started_ms: AtomicU64::new(0),
                error: Mutex::new(None),
            })
            .collect::<Vec<_>>();
        let p = Arc::new(SweepProgress {
            workers,
            t0: Instant::now(),
            sink: sink.map(Mutex::new),
            tty,
            interval,
            slots,
        });
        p.emit(format!(
            "{{\"event\":\"sweep_start\",\"schema\":{},\"jobs\":{},\"workers\":{}}}",
            PROGRESS_SCHEMA,
            p.slots.len(),
            p.workers,
        ));
        p
    }

    /// Number of jobs tracked.
    pub fn jobs(&self) -> usize {
        self.slots.len()
    }

    /// Reporter tick interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The heartbeat a worker should attach before running job `i`.
    pub fn heartbeat(&self, i: usize) -> Arc<Heartbeat> {
        Arc::clone(&self.slots[i].hb)
    }

    /// State of job `i`.
    pub fn state(&self, i: usize) -> JobState {
        JobState::from_u8(self.slots[i].state.load(Ordering::Relaxed))
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Mark job `i` running.
    pub fn job_started(&self, i: usize) {
        let s = &self.slots[i];
        s.started_ms.store(self.elapsed_ms(), Ordering::Relaxed);
        s.state.store(1, Ordering::Relaxed);
    }

    /// Mark job `i` finished and emit its terminal `job` record.
    pub fn job_finished(&self, i: usize, error: Option<String>) {
        let s = &self.slots[i];
        let wall = self.elapsed_ms().saturating_sub(s.started_ms.load(Ordering::Relaxed));
        s.wall_ms.store(wall, Ordering::Relaxed);
        let failed = error.is_some();
        *s.error.lock().expect("error slot") = error;
        s.state.store(if failed { 3 } else { 2 }, Ordering::Relaxed);

        let h = s.hb.snapshot();
        let mut line = format!(
            "{{\"event\":\"job\",\"id\":{},\"label\":\"{}\",\"state\":\"{}\",\"cycles\":{},\"instructions\":{},\"checks\":{},\"launches\":{},\"wall_ms\":{}",
            i,
            esc_json(&s.label),
            if failed { "failed" } else { "done" },
            h.cycles,
            h.instructions,
            h.checks,
            h.launches,
            wall,
        );
        if let Some(e) = s.error.lock().expect("error slot").as_deref() {
            line.push_str(&format!(",\"error\":\"{}\"", esc_json(e)));
        }
        line.push('}');
        self.emit(line);
    }

    /// Emit one periodic `progress` event (and refresh the TTY line).
    /// `prev` carries the previous tick's (beats, cycles) per job for
    /// stall detection and throughput; `dt` is the time since that tick.
    pub fn tick(&self, prev: &mut [(u64, u64)], dt: Duration) {
        let mut done = 0usize;
        let mut failed = 0usize;
        let mut done_wall_ms = 0u64;
        let mut running = String::new();
        let mut tty_jobs = String::new();
        let mut nrun = 0usize;
        for (i, s) in self.slots.iter().enumerate() {
            match JobState::from_u8(s.state.load(Ordering::Relaxed)) {
                JobState::Done => {
                    done += 1;
                    done_wall_ms += s.wall_ms.load(Ordering::Relaxed);
                }
                JobState::Failed => failed += 1,
                JobState::Running => {
                    let h = s.hb.snapshot();
                    let (pb, pc) = prev[i];
                    let stalled = h.beats > 0 && h.beats == pb;
                    let dcycles = h.cycles.saturating_sub(pc);
                    let cps = (dcycles as f64 / dt.as_secs_f64().max(1e-3)) as u64;
                    prev[i] = (h.beats, h.cycles);
                    if nrun > 0 {
                        running.push(',');
                    }
                    running.push_str(&format!(
                        "{{\"id\":{},\"label\":\"{}\",\"cycles\":{},\"instructions\":{},\"checks\":{},\"launches\":{},\"cycles_per_s\":{},\"stalled\":{}}}",
                        i,
                        esc_json(&s.label),
                        h.cycles,
                        h.instructions,
                        h.checks,
                        h.launches,
                        cps,
                        stalled,
                    ));
                    if nrun < 3 {
                        tty_jobs.push_str(&format!(
                            " {}:{:.1}Mcy{}",
                            s.label,
                            h.cycles as f64 / 1e6,
                            if stalled { "(STALLED)" } else { "" },
                        ));
                    }
                    nrun += 1;
                }
                JobState::Queued => {}
            }
        }
        // ETA: average wall time of finished jobs, applied to what's left
        // across the pool. Zero finished jobs means no estimate yet.
        let remaining = self.slots.len() - done - failed;
        let eta_ms = if done > 0 && remaining > 0 {
            (done_wall_ms / done as u64) * remaining.div_ceil(self.workers.max(1)) as u64
        } else {
            0
        };
        self.emit(format!(
            "{{\"event\":\"progress\",\"elapsed_ms\":{},\"done\":{},\"failed\":{},\"eta_ms\":{},\"running\":[{}]}}",
            self.elapsed_ms(),
            done,
            failed,
            eta_ms,
            running,
        ));
        if self.tty {
            let total = self.slots.len();
            let mut line = format!(
                "[sweep] {done}/{total} done{}{}, {nrun} running{tty_jobs}",
                if failed > 0 { format!(", {failed} failed") } else { String::new() },
                if eta_ms > 0 { format!(", eta {}s", eta_ms.div_ceil(1000)) } else { String::new() },
            );
            line.truncate(120);
            eprint!("\r\x1b[2K{line}");
            let _ = std::io::stderr().flush();
        }
    }

    /// Emit the `sweep_end` event and release the TTY line.
    pub fn finish(&self) {
        let (mut done, mut failed) = (0usize, 0usize);
        for s in &self.slots {
            match JobState::from_u8(s.state.load(Ordering::Relaxed)) {
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                _ => {}
            }
        }
        self.emit(format!(
            "{{\"event\":\"sweep_end\",\"wall_ms\":{},\"done\":{},\"failed\":{}}}",
            self.elapsed_ms(),
            done,
            failed,
        ));
        if self.tty {
            eprintln!(
                "\r\x1b[2K[sweep] finished: {done} done, {failed} failed in {:.1}s",
                self.t0.elapsed().as_secs_f64(),
            );
        }
    }

    fn emit(&self, line: String) {
        if let Some(sink) = &self.sink {
            let mut w = sink.lock().expect("progress sink");
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

/// Process-wide progress configuration, pinned once by
/// [`crate::RunSetup::from_args`] from `--progress-out`.
#[derive(Clone, Debug, Default)]
pub struct ProgressConfig {
    /// JSONL destination (`--progress-out`).
    pub path: Option<PathBuf>,
    /// Reporter tick in milliseconds.
    pub interval_ms: u64,
}

static CONFIG: OnceLock<ProgressConfig> = OnceLock::new();

/// Pin the process-wide progress configuration (first call wins).
pub fn configure(cfg: ProgressConfig) {
    let _ = CONFIG.set(cfg);
}

/// The pinned configuration, if any.
pub fn config() -> Option<&'static ProgressConfig> {
    CONFIG.get()
}

/// Build a [`SweepProgress`] for one sweep from the process-wide
/// configuration: JSONL when `--progress-out` was given, a TTY line when
/// stderr is a terminal, `None` when neither applies (the common
/// redirected/CI case — zero overhead).
///
/// The first sweep of the process truncates the JSONL file; subsequent
/// sweeps (a multi-battery bin like `all`) append their streams, so the
/// file always covers exactly one process run.
pub fn for_sweep(labels: Vec<String>, workers: usize) -> Option<Arc<SweepProgress>> {
    use std::sync::atomic::{AtomicBool, Ordering};
    static TRUNCATED: AtomicBool = AtomicBool::new(false);

    let cfg = config();
    let tty = std::io::stderr().is_terminal();
    let sink: Option<Box<dyn Write + Send>> = match cfg.and_then(|c| c.path.as_ref()) {
        Some(p) => {
            let first = !TRUNCATED.swap(true, Ordering::Relaxed);
            let open = std::fs::File::options()
                .create(true)
                .truncate(first)
                .append(!first)
                .write(true)
                .open(p);
            match open {
                Ok(f) => Some(Box::new(f)),
                Err(e) => {
                    gpu_sim::log_warn!("cannot write progress stream {}: {e}", p.display());
                    None
                }
            }
        }
        None => None,
    };
    if sink.is_none() && !tty {
        return None;
    }
    let interval = Duration::from_millis(cfg.map_or(DEFAULT_INTERVAL_MS, |c| c.interval_ms));
    Some(SweepProgress::new(labels, workers, sink, tty, interval))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Vec<u8> sink shared with the test through an Arc<Mutex<_>>.
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

    fn lines(buf: &Buf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn stream_carries_the_job_lifecycle() {
        let buf = Buf::default();
        let p = SweepProgress::new(
            vec!["alpha".into(), "beta".into()],
            2,
            Some(Box::new(buf.clone())),
            false,
            Duration::from_millis(10),
        );
        p.job_started(0);
        let hb = p.heartbeat(0);
        let base = hb.launch_started();
        hb.beat(base, 1000, 400, 20);
        let mut prev = vec![(0u64, 0u64); 2];
        p.tick(&mut prev, Duration::from_millis(10));
        p.job_finished(0, None);
        p.job_started(1);
        p.job_finished(1, Some("boom \"quoted\"".into()));
        p.finish();

        let ls = lines(&buf);
        assert!(ls[0].contains("\"event\":\"sweep_start\""), "{}", ls[0]);
        assert!(ls[0].contains("\"schema\":1"), "{}", ls[0]);
        assert!(ls[0].contains("\"jobs\":2"), "{}", ls[0]);
        let progress = ls.iter().find(|l| l.contains("\"event\":\"progress\"")).unwrap();
        assert!(progress.contains("\"label\":\"alpha\""), "{progress}");
        assert!(progress.contains("\"cycles\":1000"), "{progress}");
        let done = ls.iter().find(|l| l.contains("\"state\":\"done\"")).unwrap();
        assert!(done.contains("\"id\":0"), "{done}");
        assert!(done.contains("\"cycles\":1000"), "{done}");
        let failed = ls.iter().find(|l| l.contains("\"state\":\"failed\"")).unwrap();
        assert!(failed.contains("\\\"quoted\\\""), "{failed}");
        assert!(ls.last().unwrap().contains("\"event\":\"sweep_end\""));
        assert_eq!(p.state(0), JobState::Done);
        assert_eq!(p.state(1), JobState::Failed);
    }

    #[test]
    fn stall_is_flagged_when_beats_stop_advancing() {
        let buf = Buf::default();
        let p = SweepProgress::new(
            vec!["wedge".into()],
            1,
            Some(Box::new(buf.clone())),
            false,
            Duration::from_millis(10),
        );
        p.job_started(0);
        let hb = p.heartbeat(0);
        let base = hb.launch_started();
        hb.beat(base, 500, 10, 0);
        let mut prev = vec![(0u64, 0u64)];
        p.tick(&mut prev, Duration::from_millis(10)); // records beats=1
        p.tick(&mut prev, Duration::from_millis(10)); // beats unchanged
        let ls = lines(&buf);
        let ticks: Vec<_> = ls.iter().filter(|l| l.contains("\"event\":\"progress\"")).collect();
        assert!(ticks[0].contains("\"stalled\":false"), "{}", ticks[0]);
        assert!(ticks[1].contains("\"stalled\":true"), "{}", ticks[1]);
    }
}
