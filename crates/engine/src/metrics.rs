//! Per-superstep execution metrics.

use hourglass_metrics as hm;
use serde::{Deserialize, Serialize};

/// Supersteps executed (one increment per [`crate::BspEngine::step`]).
pub static M_SUPERSTEPS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_supersteps_total",
    help: "Supersteps executed.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Messages vertices sent: logical sends, counted before combining.
pub static M_MESSAGES: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_messages_total",
    help: "Messages sent between vertices (logical sends, before combining).",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Messages that crossed worker boundaries.
pub static M_REMOTE_MESSAGES: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_remote_messages_total",
    help: "Messages that crossed worker boundaries.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Vertices that executed `compute` in the most recent superstep.
pub static M_ACTIVE_VERTICES: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_active_vertices",
    help: "Vertices active in the most recent superstep.",
    kind: hm::MetricKind::Gauge,
    buckets: &[],
    nondeterministic: false,
};
/// Aggregate worker compute seconds (wall clock — nondeterministic).
pub static M_COMPUTE_SECONDS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_compute_seconds_total",
    help: "Aggregate worker compute seconds (wall clock).",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: true,
};
/// Message-delivery seconds (wall clock — nondeterministic).
pub static M_DELIVERY_SECONDS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_delivery_seconds_total",
    help: "Message delivery seconds (wall clock).",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: true,
};
/// Barrier-idle seconds lost to compute skew (wall clock).
pub static M_BARRIER_SECONDS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_engine_barrier_wait_seconds_total",
    help: "Worker seconds idle at superstep barriers (wall clock).",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: true,
};

/// Folds one superstep into the metrics registry. Logical counts go to
/// deterministic families; the wall-clock phase timings are flagged
/// nondeterministic. Called on the master thread by both engines, so the
/// fold order is the superstep order.
pub fn record_superstep(m: &SuperstepMetrics) {
    if !hm::enabled() {
        return;
    }
    hm::add(&M_SUPERSTEPS, &[], 1);
    hm::add(&M_MESSAGES, &[], m.messages);
    hm::add(&M_REMOTE_MESSAGES, &[], m.remote_messages);
    hm::set(&M_ACTIVE_VERTICES, &[], m.active_vertices as f64);
    hm::addf(&M_COMPUTE_SECONDS, &[], m.total_worker_seconds);
    hm::addf(&M_DELIVERY_SECONDS, &[], m.delivery_seconds);
    hm::addf(&M_BARRIER_SECONDS, &[], m.barrier_wait_seconds);
}

/// Metrics of one superstep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuperstepMetrics {
    /// Superstep number.
    pub superstep: usize,
    /// Vertices that executed `compute`.
    pub active_vertices: u64,
    /// Messages sent: logical sends, counted before combining (a combiner
    /// delivers fewer).
    pub messages: u64,
    /// Of those, sends addressed to a vertex on another worker.
    pub remote_messages: u64,
    /// Compute seconds of the slowest worker (the BSP barrier waits for
    /// it, so this is the superstep's contribution to wall time).
    pub max_worker_seconds: f64,
    /// Compute seconds summed over all workers (aggregate CPU).
    pub total_worker_seconds: f64,
    /// Seconds the superstep spent delivering messages after the barrier:
    /// every destination worker taking its mail from the senders' outboxes
    /// (preceded, for a program without a combiner, by the bucket
    /// transpose).
    pub delivery_seconds: f64,
    /// Seconds workers spent idle at the superstep barrier, summed over
    /// workers: `Σ_w (max_worker_seconds − compute_w)`. Separates compute
    /// skew from delivery cost in the `t_exec` calibration.
    pub barrier_wait_seconds: f64,
}

/// Metrics of a whole run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    steps: Vec<SuperstepMetrics>,
}

impl RunMetrics {
    /// Records one superstep.
    pub fn push(&mut self, m: SuperstepMetrics) {
        self.steps.push(m);
    }

    /// Per-superstep detail.
    pub fn steps(&self) -> &[SuperstepMetrics] {
        &self.steps
    }

    /// Total messages across supersteps.
    pub fn total_messages(&self) -> u64 {
        self.steps.iter().map(|s| s.messages).sum()
    }

    /// Total remote messages across supersteps.
    pub fn total_remote_messages(&self) -> u64 {
        self.steps.iter().map(|s| s.remote_messages).sum()
    }

    /// Fraction of message traffic that crossed workers (0 when no
    /// messages were sent).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            self.total_remote_messages() as f64 / total as f64
        }
    }

    /// Sum over supersteps of the slowest worker's compute seconds: the
    /// compute-phase lower bound on wall time. This is the measured
    /// quantity that calibrates `t_exec` in the provisioning cost model
    /// (a full-job execution-time estimate for the running configuration).
    pub fn critical_path_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.max_worker_seconds).sum()
    }

    /// Aggregate worker CPU seconds across supersteps.
    pub fn total_worker_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.total_worker_seconds).sum()
    }

    /// Total message-delivery seconds across supersteps.
    pub fn total_delivery_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.delivery_seconds).sum()
    }

    /// Total worker barrier-idle seconds across supersteps (aggregate
    /// CPU lost to compute skew).
    pub fn total_barrier_wait_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.barrier_wait_seconds).sum()
    }

    /// Drops every superstep at or past `superstep`. Called on checkpoint
    /// restore so a resumed run does not double-count the supersteps it is
    /// about to re-execute.
    pub fn truncate_to_superstep(&mut self, superstep: usize) {
        self.steps.retain(|s| s.superstep < superstep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(superstep: usize, messages: u64, remote: u64, secs: f64) -> SuperstepMetrics {
        SuperstepMetrics {
            superstep,
            active_vertices: 10,
            messages,
            remote_messages: remote,
            max_worker_seconds: secs,
            total_worker_seconds: secs * 4.0,
            delivery_seconds: secs * 0.5,
            barrier_wait_seconds: secs * 0.25,
        }
    }

    #[test]
    fn totals() {
        let mut m = RunMetrics::default();
        m.push(step(0, 100, 40, 0.5));
        m.push(step(1, 50, 10, 0.25));
        assert_eq!(m.total_messages(), 150);
        assert_eq!(m.total_remote_messages(), 50);
        assert!((m.remote_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.steps().len(), 2);
    }

    #[test]
    fn empty_run_fraction_zero() {
        assert_eq!(RunMetrics::default().remote_fraction(), 0.0);
    }

    #[test]
    fn timing_totals() {
        let mut m = RunMetrics::default();
        m.push(step(0, 1, 0, 0.5));
        m.push(step(1, 1, 0, 0.25));
        assert!((m.critical_path_seconds() - 0.75).abs() < 1e-12);
        assert!((m.total_worker_seconds() - 3.0).abs() < 1e-12);
        assert!((m.total_delivery_seconds() - 0.375).abs() < 1e-12);
        assert!((m.total_barrier_wait_seconds() - 0.1875).abs() < 1e-12);
    }

    #[test]
    fn truncate_drops_resumed_supersteps() {
        let mut m = RunMetrics::default();
        m.push(step(0, 10, 0, 0.1));
        m.push(step(1, 20, 0, 0.1));
        m.push(step(2, 30, 0, 0.1));
        m.truncate_to_superstep(1);
        assert_eq!(m.steps().len(), 1);
        assert_eq!(m.total_messages(), 10);
        m.truncate_to_superstep(0);
        assert!(m.steps().is_empty());
    }
}
