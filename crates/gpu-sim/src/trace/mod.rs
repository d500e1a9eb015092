//! Observability: structured event tracing, cycle-sampled metrics, and a
//! Chrome/Perfetto exporter for the simulator + RDU pipeline.
//!
//! Three pillars:
//!
//! 1. **Structured events** ([`SimEvent`]) — warp issue/stall/barrier,
//!    the memory-transaction lifecycle (coalesce → L1 → interconnect →
//!    L2 → DRAM), Fig. 3 shadow-state transitions, and race detections —
//!    delivered to a pluggable [`EventSink`] (the bounded
//!    [`RingRecorder`] in practice).
//! 2. **Cycle-sampled metrics** ([`MetricsSample`]) — per-SM / per-slice
//!    [`crate::stats::SimStats`] delta snapshots every N cycles, whose
//!    deltas sum exactly to the launch's final aggregate.
//! 3. **Exporters** — [`perfetto`] writes Chrome `trace-event` JSON
//!    loadable at <https://ui.perfetto.dev>; [`metrics_json`] serializes
//!    the metrics time series.
//!
//! The whole layer is **zero-cost when disabled**: the default
//! [`Tracer`] is off, [`Tracer::on`] is a single inlined boolean load,
//! and event construction sits behind that branch at every emission
//! site, so an untraced run performs no allocation or formatting and its
//! [`crate::stats::SimStats`] are bit-identical to an uninstrumented
//! build (enforced by `tests/observability.rs` here and, for every
//! Table II launch with a sink installed, by haccrg-bench's
//! `tests/observability.rs`).

pub mod event;
pub mod heartbeat;
pub mod logger;
pub mod metrics;
pub mod perfetto;
pub mod sink;

pub use event::{ReqTag, SimEvent, StallReason};
pub use heartbeat::{Heartbeat, HeartbeatSnapshot};
pub use logger::Level;
pub use metrics::{metrics_json, MetricsSample};
pub use sink::{EventSink, NullSink, RingRecorder};

pub(crate) use metrics::LaunchSampler;

/// The simulator's tracing front-end: owns the sink, the enable flag the
/// hot paths branch on, and the collected metrics samples.
pub struct Tracer {
    enabled: bool,
    sink: Box<dyn EventSink>,
    sample_every: u64,
    samples: Vec<MetricsSample>,
    launch_seq: u32,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("sample_every", &self.sample_every)
            .field("samples", &self.samples.len())
            .field("launch_seq", &self.launch_seq)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// The default tracer: no sink, no sampling, zero overhead.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            sink: Box::new(NullSink),
            sample_every: 0,
            samples: Vec::new(),
            launch_seq: 0,
        }
    }

    /// Install an event sink and enable event emission.
    pub fn install(&mut self, sink: Box<dyn EventSink>) {
        self.sink = sink;
        self.enabled = true;
    }

    /// Remove the sink and disable event emission (sampling, if
    /// configured, continues).
    pub fn clear_sink(&mut self) {
        self.sink = Box::new(NullSink);
        self.enabled = false;
    }

    /// Whether events are being emitted. Emission sites check this
    /// before constructing an event, so a disabled tracer costs one
    /// branch.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Forward one event to the sink (no-op when disabled; callers
    /// should gate construction on [`Self::on`]).
    #[inline]
    pub fn emit(&mut self, cycle: u64, ev: SimEvent) {
        if self.enabled {
            self.sink.event(cycle, &ev);
        }
    }

    /// Enable metrics sampling every `every` cycles (0 disables).
    pub fn set_sample_every(&mut self, every: u64) {
        self.sample_every = every;
    }

    /// The configured sampling interval (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether metrics sampling is active.
    pub fn sampling(&self) -> bool {
        self.sample_every > 0
    }

    /// Collected samples so far (all launches, in order).
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    pub(crate) fn push_sample(&mut self, s: MetricsSample) {
        self.samples.push(s);
    }

    /// Allocate the next launch sequence number.
    pub(crate) fn next_launch(&mut self) -> u32 {
        let id = self.launch_seq;
        self.launch_seq += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_swallows_events() {
        let mut t = Tracer::disabled();
        assert!(!t.on());
        t.emit(0, SimEvent::KernelEnd { launch: 0 });
        assert!(!t.sampling());
    }

    #[test]
    fn install_enables_and_clear_disables() {
        let rec = RingRecorder::shared(8);
        let mut t = Tracer::disabled();
        t.install(Box::new(rec.clone()));
        assert!(t.on());
        t.emit(3, SimEvent::KernelEnd { launch: 0 });
        t.clear_sink();
        assert!(!t.on());
        t.emit(4, SimEvent::KernelEnd { launch: 1 });
        assert_eq!(rec.borrow().len(), 1, "event after clear_sink dropped");
    }

    #[test]
    fn launch_sequence_increments() {
        let mut t = Tracer::disabled();
        assert_eq!(t.next_launch(), 0);
        assert_eq!(t.next_launch(), 1);
    }
}
