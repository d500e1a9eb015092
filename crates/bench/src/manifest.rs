//! Run manifests: a structured provenance record emitted next to every
//! benchmark artifact (`--manifest-out FILE`).
//!
//! A manifest answers "what exactly produced this table?" months later:
//! which binary with which arguments, on what host and toolchain, over
//! which workloads (content-hashed, not just named), under which
//! hardware configuration, with what result digest. Two runs of the same
//! build on the same inputs produce manifests that differ **only** in
//! `wall_ms` and `created_unix_ms`, for any `--jobs` setting — hashes
//! cover simulated state, never scheduling.
//!
//! All hashing is FNV-1a-64 over `Debug`-formatted canonical strings and
//! all JSON is emitted by hand, so manifests stay real (and stable)
//! under the offline serde stubs.

use std::fmt::{self, Write as _};
use std::path::Path;

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::SimStats;
use haccrg::prelude::RaceLog;
use haccrg_workloads::BenchInstance;

use crate::progress::esc_json;

/// Version stamped into every manifest.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Streaming FNV-1a-64 over anything `write!`-able — lets us hash a
/// kernel's full `Debug` form without materializing the string.
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Hash a workload instance: name, input description, and every
/// launch's kernel text, geometry and parameters. Captures the actual
/// program content, so a silently changed kernel changes the hash even
/// if the benchmark name stays the same.
pub fn workload_hash(inst: &BenchInstance) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "{}\x1f{}\x1f", inst.name, inst.inputs);
    for l in &inst.launches {
        let _ = write!(h, "grid={} block={} params={:?} kernel={:?}\x1f", l.grid, l.block, l.params, l.kernel);
    }
    h.finish()
}

/// Hash the *architectural* part of a GPU configuration. The execution
/// strategy (`cycle_skip`) is normalized away: the switch is
/// bit-identity-preserving, so runs that differ only in it must share a
/// `config_hash`.
pub fn config_hash(cfg: &GpuConfig) -> u64 {
    let mut canon = *cfg;
    canon.cycle_skip = true;
    let mut h = Fnv::new();
    let _ = write!(h, "{canon:?}");
    h.finish()
}

/// Digest of a run's simulated outcome: full statistics plus every
/// retained race record. Equal digests mean equal simulated behaviour
/// (the converse of the equivalence suite's bit-identity contract).
pub fn stats_digest(stats: &SimStats, races: &RaceLog) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "{stats:?}\x1f");
    for r in races.records() {
        let _ = write!(h, "{r:?}\x1f");
    }
    h.finish()
}

/// Content-hash every Table II benchmark as prepared at `scale` — the
/// workload list for suite-sweep bins (tables, figures, effectiveness).
/// Preparation is cheap next to simulation; each benchmark gets a fresh
/// GPU so hashes are position-independent.
pub fn suite_workloads(scale: haccrg_workloads::Scale) -> Vec<WorkloadRef> {
    haccrg_workloads::all_benchmarks()
        .iter()
        .map(|b| {
            let mut gpu = gpu_sim::prelude::Gpu::new(GpuConfig::quadro_fx5800());
            WorkloadRef::of(&b.prepare(&mut gpu, scale))
        })
        .collect()
}

/// Host / toolchain metadata captured at manifest creation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Environment {
    /// `HOSTNAME` (or "unknown" outside login shells).
    pub host: String,
    /// Compile-target OS.
    pub os: &'static str,
    /// Compile-target architecture.
    pub arch: &'static str,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// Available CPU parallelism on this host.
    pub cpus: usize,
}

impl Environment {
    /// Capture the current process's environment.
    pub fn capture() -> Self {
        Environment {
            host: std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".into()),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            rustc: env!("HACCRG_RUSTC_VERSION"),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Hand-rolled JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\",\"rustc\":\"{}\",\"cpus\":{}}}",
            esc_json(&self.host),
            esc_json(self.os),
            esc_json(self.arch),
            esc_json(self.rustc),
            self.cpus,
        )
    }
}

/// One workload covered by a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadRef {
    /// Table II benchmark name.
    pub name: String,
    /// Input description at the scale used.
    pub inputs: String,
    /// [`workload_hash`] over the prepared instance.
    pub workload_hash: u64,
}

impl WorkloadRef {
    /// Build a reference from a prepared instance.
    pub fn of(inst: &BenchInstance) -> Self {
        WorkloadRef {
            name: inst.name.to_string(),
            inputs: inst.inputs.clone(),
            workload_hash: workload_hash(inst),
        }
    }
}

/// The manifest itself. Construct with [`RunManifest::new`], fill in the
/// run-specific fields, then [`RunManifest::write`].
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u32,
    /// Producing binary (e.g. `runbench`).
    pub bin: String,
    /// Full argv after the binary name.
    pub argv: Vec<String>,
    /// Input scale label (`paper` / `repro` / `tiny`).
    pub scale: String,
    /// Sweep worker count used (`--jobs`; 0 for a binary that runs no
    /// sweeps).
    pub jobs: usize,
    /// Workload RNG seed (the suite pins per-benchmark seeds; 0 = those
    /// defaults).
    pub seed: u64,
    /// Host / toolchain metadata.
    pub environment: Environment,
    /// Workloads covered, in run order.
    pub workloads: Vec<WorkloadRef>,
    /// [`config_hash`] of the GPU configuration.
    pub config_hash: u64,
    /// [`stats_digest`] over the merged outcome (0 when a bin has no
    /// single merged result).
    pub stats_digest: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// Manifest creation time (Unix epoch, milliseconds).
    pub created_unix_ms: u64,
    /// Artifact files this run produced (reports, JSON, traces).
    pub artifacts: Vec<String>,
}

impl RunManifest {
    /// A manifest skeleton for `bin`, with the environment captured and
    /// every other field empty ([`crate::RunSetup::manifest`] fills in
    /// argv, scale, worker count and wall clock).
    pub fn new(bin: &str) -> Self {
        RunManifest {
            schema: MANIFEST_SCHEMA,
            bin: bin.to_string(),
            argv: Vec::new(),
            scale: String::new(),
            jobs: 0,
            seed: 0,
            environment: Environment::capture(),
            workloads: Vec::new(),
            config_hash: 0,
            stats_digest: 0,
            wall_ms: 0,
            created_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            artifacts: Vec::new(),
        }
    }

    /// Hand-rolled pretty JSON (stable key order; hashes as hex strings
    /// so they survive JSON readers that truncate 64-bit integers).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {},", self.schema);
        let _ = writeln!(s, "  \"bin\": \"{}\",", esc_json(&self.bin));
        let argv: Vec<String> = self.argv.iter().map(|a| format!("\"{}\"", esc_json(a))).collect();
        let _ = writeln!(s, "  \"argv\": [{}],", argv.join(", "));
        let _ = writeln!(s, "  \"scale\": \"{}\",", esc_json(&self.scale));
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"environment\": {},", self.environment.to_json());
        let _ = writeln!(s, "  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"inputs\": \"{}\", \"workload_hash\": \"{:016x}\"}}{}",
                esc_json(&w.name),
                esc_json(&w.inputs),
                w.workload_hash,
                if i + 1 < self.workloads.len() { "," } else { "" },
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"config_hash\": \"{:016x}\",", self.config_hash);
        let _ = writeln!(s, "  \"stats_digest\": \"{:016x}\",", self.stats_digest);
        let _ = writeln!(s, "  \"wall_ms\": {},", self.wall_ms);
        let _ = writeln!(s, "  \"created_unix_ms\": {},", self.created_unix_ms);
        let artifacts: Vec<String> =
            self.artifacts.iter().map(|a| format!("\"{}\"", esc_json(a))).collect();
        let _ = writeln!(s, "  \"artifacts\": [{}]", artifacts.join(", "));
        s.push_str("}\n");
        s
    }

    /// Write the manifest to `path` (logs a warning on failure instead
    /// of killing a finished run).
    pub fn write(&self, path: &Path) {
        if let Err(e) = std::fs::write(path, self.to_json()) {
            gpu_sim::log_warn!("cannot write manifest {}: {e}", path.display());
        } else {
            gpu_sim::log_info!("manifest written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;
    use haccrg_workloads::{Benchmark, Scale};

    fn prepared(scale: Scale) -> (Gpu, BenchInstance) {
        let mut gpu = Gpu::new(GpuConfig::quadro_fx5800());
        let inst = haccrg_workloads::scan::Scan::single_block().prepare(&mut gpu, scale);
        (gpu, inst)
    }

    #[test]
    fn workload_hash_tracks_content_not_identity() {
        let (_g1, a) = prepared(Scale::Tiny);
        let (_g2, b) = prepared(Scale::Tiny);
        assert_eq!(workload_hash(&a), workload_hash(&b), "same prep, same hash");
        let (_g3, c) = prepared(Scale::Repro);
        assert_ne!(workload_hash(&a), workload_hash(&c), "different inputs, different hash");
    }

    #[test]
    fn config_hash_ignores_execution_strategy() {
        let base = GpuConfig::quadro_fx5800();
        let mut dense = base;
        dense.cycle_skip = false;
        assert_eq!(config_hash(&base), config_hash(&dense));
        let mut arch = base;
        arch.num_sms += 1;
        assert_ne!(config_hash(&base), config_hash(&arch));
    }

    #[test]
    fn stats_digest_reflects_simulated_state() {
        let races = RaceLog::default();
        let a = SimStats::default();
        let mut b = SimStats::default();
        assert_eq!(stats_digest(&a, &races), stats_digest(&b, &races));
        b.cycles = 1;
        assert_ne!(stats_digest(&a, &races), stats_digest(&b, &races));
    }

    #[test]
    fn manifest_json_is_handrolled_and_complete() {
        let mut m = RunManifest::new("testbin");
        m.scale = "tiny".into();
        m.jobs = 4;
        m.config_hash = 0xdead_beef;
        m.workloads.push(WorkloadRef {
            name: "SCAN".into(),
            inputs: "512 elements".into(),
            workload_hash: 0x1234,
        });
        m.artifacts.push("out/table2.md".into());
        let j = m.to_json();
        assert!(j.contains("\"schema\": 1"), "{j}");
        assert!(j.contains("\"bin\": \"testbin\""), "{j}");
        assert!(j.contains("\"config_hash\": \"00000000deadbeef\""), "{j}");
        assert!(j.contains("\"workload_hash\": \"0000000000001234\""), "{j}");
        assert!(j.contains("\"artifacts\": [\"out/table2.md\"]"), "{j}");
        assert!(!m.environment.rustc.is_empty());
        // The manifest must be real JSON even offline: it never goes
        // through serde. Sanity-check the envelope the cheap way.
        assert!(j.trim_start().starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a-64 test vectors.
        let mut h = Fnv::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
