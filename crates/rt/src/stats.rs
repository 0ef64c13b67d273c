//! Per-flush accounting the batch service layer folds its telemetry
//! into, plus re-exports of the sample statistics that moved to
//! [`phi_trace::stats`] (kept here so `phi_rt::stats::Summary` callers
//! keep compiling).

use crate::service::FlushReason;

pub use phi_trace::stats::{geomean, percentile, Summary};

/// Telemetry of one batch pass through the service collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushRecord {
    /// What triggered the flush.
    pub reason: FlushReason,
    /// Live lanes in the batch (1..=width).
    pub occupancy: usize,
    /// Lane width of the batch engine (occupancy ≤ width).
    pub width: usize,
    /// Requests still queued after this batch was taken.
    pub queue_depth_after: usize,
    /// How long the oldest request in the batch waited, in seconds.
    pub oldest_wait: f64,
    /// Modeled single-thread KNC seconds the batch pass cost.
    pub modeled_seconds: f64,
    /// Host wall-clock seconds the batch pass took.
    pub wall_seconds: f64,
}

impl FlushRecord {
    /// Fraction of the batch's lanes that carried a live request. When
    /// the card pads the batch to a full-width pass (the RSA engine does
    /// above two live lanes) this is the efficiency of the flush; a
    /// sparser flush the engine runs as single ops pays no dead lanes.
    pub fn occupancy_fraction(&self) -> f64 {
        self.occupancy as f64 / self.width as f64
    }
}

/// Aggregated telemetry of a batch service's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// One record per executed batch, in flush order.
    pub flushes: Vec<FlushRecord>,
    /// Submissions bounced for backpressure (queue at high-water mark).
    pub rejected: u64,
    /// Requests whose flush was poisoned by a panicking card closure
    /// before they resolved: their tickets were dropped (waiters see
    /// `ServiceShutdown`) and no flush record counts them.
    pub poisoned_jobs: u64,
}

impl ServiceReport {
    /// Total completed operations (live lanes across all flushes).
    pub fn ops(&self) -> usize {
        self.flushes.iter().map(|f| f.occupancy).sum()
    }

    /// Number of executed batches.
    pub fn flush_count(&self) -> usize {
        self.flushes.len()
    }

    /// Number of flushes with the given trigger.
    pub fn flushes_by(&self, reason: FlushReason) -> usize {
        self.flushes.iter().filter(|f| f.reason == reason).count()
    }

    /// Mean live-lane fraction across flushes (0 when nothing flushed).
    pub fn mean_occupancy(&self) -> f64 {
        if self.flushes.is_empty() {
            return 0.0;
        }
        self.flushes
            .iter()
            .map(FlushRecord::occupancy_fraction)
            .sum::<f64>()
            / self.flushes.len() as f64
    }

    /// Total modeled single-thread KNC seconds spent in batch passes.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.flushes.iter().map(|f| f.modeled_seconds).sum()
    }

    /// Total host wall-clock seconds spent in batch passes.
    pub fn total_wall_seconds(&self) -> f64 {
        self.flushes.iter().map(|f| f.wall_seconds).sum()
    }

    /// Modeled throughput over the service's busy time, in operations per
    /// modeled second (0 when nothing flushed).
    pub fn modeled_throughput(&self) -> f64 {
        let t = self.total_modeled_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.ops() as f64 / t
        }
    }

    /// Fold another service's telemetry into this one — the per-card
    /// roll-up path of the fleet scheduler. Flush records concatenate
    /// (donor order preserved), counters add.
    pub fn merge(&mut self, other: &ServiceReport) {
        self.flushes.extend_from_slice(&other.flushes);
        self.rejected += other.rejected;
        self.poisoned_jobs += other.poisoned_jobs;
    }
}

/// Aggregated telemetry of one offload card's lifetime (or, merged, a
/// whole fleet's): the card-path flush records plus the degradation
/// ledger — faults survived, retries and requeues spent, and where each
/// request ultimately resolved (card, host fallback, or a typed error).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Card-path telemetry: one record per flush that completed at least
    /// one lane on the card (occupancy counts card-completed lanes only).
    pub service: ServiceReport,
    /// Injected faults observed at the flush boundary.
    pub faults_seen: u64,
    /// Card attempts retried after a fault (backoff ladder steps taken).
    pub retries: u64,
    /// Jobs put back on the queue by a deadline-cancelled flush.
    pub requeues: u64,
    /// Flushes cancelled because their modeled deadline budget ran out.
    pub deadline_cancellations: u64,
    /// Flushes sent straight to the host because the breaker was open.
    pub degraded_flushes: u64,
    /// Requests resolved on the host-scalar fallback path.
    pub host_fallback_ops: u64,
    /// Modeled single-thread seconds spent on the host fallback path.
    pub host_modeled_seconds: f64,
    /// Requests resolved with a typed offload error.
    pub errored_ops: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Times the breaker closed again after half-open probing.
    pub breaker_recoveries: u64,
    /// Breaker state observed after the most recent flush.
    pub breaker_state: phi_faults::BreakerState,
    /// The service's modeled virtual clock after the most recent flush
    /// (card attempts + fault penalties + backoff + host fallback time).
    pub modeled_virtual_seconds: f64,
    /// Card results checked by the verify-on-release hook before resolving.
    pub verified_ops: u64,
    /// Card results the verify hook rejected (dropped, never released).
    pub verify_failures: u64,
    /// Lanes re-run on the card after a verification rejection.
    pub verify_reruns: u64,
    /// Modeled single-thread seconds spent inside the verify hook — the
    /// integrity tax the E20 overhead gate bounds.
    pub verify_modeled_seconds: f64,
    /// Times a physical lane was quarantined (masked out of batches).
    pub lane_quarantines: u64,
    /// Times a quarantined lane passed probation and was readmitted.
    pub lane_readmissions: u64,
    /// Times the quarantined-lane count crossed the escalation threshold
    /// and was reported to the circuit breaker as a hard fault.
    pub integrity_escalations: u64,
    /// Physical lanes quarantined as of the most recent flush (summed
    /// across cards when merged).
    pub quarantined_lanes: u64,
}

impl Default for ResilienceReport {
    fn default() -> Self {
        ResilienceReport {
            service: ServiceReport::default(),
            faults_seen: 0,
            retries: 0,
            requeues: 0,
            deadline_cancellations: 0,
            degraded_flushes: 0,
            host_fallback_ops: 0,
            host_modeled_seconds: 0.0,
            errored_ops: 0,
            breaker_trips: 0,
            breaker_recoveries: 0,
            breaker_state: phi_faults::BreakerState::Closed,
            modeled_virtual_seconds: 0.0,
            verified_ops: 0,
            verify_failures: 0,
            verify_reruns: 0,
            verify_modeled_seconds: 0.0,
            lane_quarantines: 0,
            lane_readmissions: 0,
            integrity_escalations: 0,
            quarantined_lanes: 0,
        }
    }
}

impl ResilienceReport {
    /// Requests resolved anywhere: card lanes + host fallback + errors.
    pub fn resolved_ops(&self) -> u64 {
        self.service.ops() as u64 + self.host_fallback_ops + self.errored_ops
    }

    /// Total modeled single-thread seconds across card and host paths.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.service.total_modeled_seconds() + self.host_modeled_seconds
    }

    /// Completed (non-errored) operations per modeled virtual second —
    /// the throughput a client actually observes,
    /// including time lost to faults, backoff and degraded batches.
    pub fn effective_throughput(&self) -> f64 {
        let done = self.service.ops() as u64 + self.host_fallback_ops;
        if self.modeled_virtual_seconds == 0.0 {
            0.0
        } else {
            done as f64 / self.modeled_virtual_seconds
        }
    }

    /// Fraction of resolved requests that had to leave the card path.
    pub fn degradation_fraction(&self) -> f64 {
        let total = self.resolved_ops();
        if total == 0 {
            0.0
        } else {
            (self.host_fallback_ops + self.errored_ops) as f64 / total as f64
        }
    }

    /// Fold a per-card report into this aggregate — the fleet roll-up.
    ///
    /// Counters add and flush records concatenate. Two fields need
    /// cross-card semantics rather than a sum: `breaker_state` keeps the
    /// *worst* state across cards (Open > HalfOpen > Closed, so a fleet
    /// with one tripped card reads as degraded), and
    /// `modeled_virtual_seconds` keeps the *max* — cards run in parallel,
    /// so fleet virtual time is the slowest card's clock, which is also
    /// what makes [`ResilienceReport::effective_throughput`] of a merged
    /// report mean fleet ops over fleet wall time.
    pub fn merge(&mut self, other: &ResilienceReport) {
        fn severity(s: phi_faults::BreakerState) -> u8 {
            match s {
                phi_faults::BreakerState::Closed => 0,
                phi_faults::BreakerState::HalfOpen => 1,
                phi_faults::BreakerState::Open => 2,
            }
        }
        self.service.merge(&other.service);
        self.faults_seen += other.faults_seen;
        self.retries += other.retries;
        self.requeues += other.requeues;
        self.deadline_cancellations += other.deadline_cancellations;
        self.degraded_flushes += other.degraded_flushes;
        self.host_fallback_ops += other.host_fallback_ops;
        self.host_modeled_seconds += other.host_modeled_seconds;
        self.errored_ops += other.errored_ops;
        self.breaker_trips += other.breaker_trips;
        self.breaker_recoveries += other.breaker_recoveries;
        self.verified_ops += other.verified_ops;
        self.verify_failures += other.verify_failures;
        self.verify_reruns += other.verify_reruns;
        self.verify_modeled_seconds += other.verify_modeled_seconds;
        self.lane_quarantines += other.lane_quarantines;
        self.lane_readmissions += other.lane_readmissions;
        self.integrity_escalations += other.integrity_escalations;
        self.quarantined_lanes += other.quarantined_lanes;
        if severity(other.breaker_state) > severity(self.breaker_state) {
            self.breaker_state = other.breaker_state;
        }
        self.modeled_virtual_seconds = self
            .modeled_virtual_seconds
            .max(other.modeled_virtual_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(reason: FlushReason, occupancy: usize, modeled: f64) -> FlushRecord {
        FlushRecord {
            reason,
            occupancy,
            width: 16,
            queue_depth_after: 0,
            oldest_wait: 1e-3,
            modeled_seconds: modeled,
            wall_seconds: modeled / 100.0,
        }
    }

    #[test]
    fn service_report_aggregates() {
        let report = ServiceReport {
            flushes: vec![
                record(FlushReason::Full, 16, 2e-3),
                record(FlushReason::Deadline, 4, 2e-3),
                record(FlushReason::Drain, 2, 2e-3),
            ],
            rejected: 3,
            poisoned_jobs: 0,
        };
        assert_eq!(report.ops(), 22);
        assert_eq!(report.flush_count(), 3);
        assert_eq!(report.flushes_by(FlushReason::Full), 1);
        assert_eq!(report.flushes_by(FlushReason::Deadline), 1);
        let expected_occ = (1.0 + 0.25 + 0.125) / 3.0;
        assert!((report.mean_occupancy() - expected_occ).abs() < 1e-12);
        assert!((report.total_modeled_seconds() - 6e-3).abs() < 1e-15);
        assert!((report.modeled_throughput() - 22.0 / 6e-3).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = ServiceReport::default();
        assert_eq!(report.ops(), 0);
        assert_eq!(report.mean_occupancy(), 0.0);
        assert_eq!(report.modeled_throughput(), 0.0);
    }

    #[test]
    fn resilience_report_accounting() {
        let mut r = ResilienceReport {
            service: ServiceReport {
                flushes: vec![record(FlushReason::Full, 14, 4e-3)],
                rejected: 0,
                poisoned_jobs: 0,
            },
            ..ResilienceReport::default()
        };
        r.host_fallback_ops = 2;
        r.host_modeled_seconds = 1e-3;
        r.errored_ops = 1;
        r.modeled_virtual_seconds = 8e-3;
        assert_eq!(r.resolved_ops(), 17);
        assert!((r.total_modeled_seconds() - 5e-3).abs() < 1e-15);
        assert!((r.effective_throughput() - 16.0 / 8e-3).abs() < 1e-9);
        assert!((r.degradation_fraction() - 3.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_integrity_counters() {
        let mut a = ResilienceReport {
            verified_ops: 10,
            verify_failures: 2,
            verify_reruns: 1,
            verify_modeled_seconds: 1e-4,
            lane_quarantines: 1,
            lane_readmissions: 1,
            integrity_escalations: 0,
            quarantined_lanes: 0,
            ..ResilienceReport::default()
        };
        let b = ResilienceReport {
            verified_ops: 5,
            verify_failures: 1,
            verify_reruns: 1,
            verify_modeled_seconds: 2e-4,
            lane_quarantines: 2,
            lane_readmissions: 0,
            integrity_escalations: 1,
            quarantined_lanes: 2,
            ..ResilienceReport::default()
        };
        a.merge(&b);
        assert_eq!(a.verified_ops, 15);
        assert_eq!(a.verify_failures, 3);
        assert_eq!(a.verify_reruns, 2);
        assert!((a.verify_modeled_seconds - 3e-4).abs() < 1e-15);
        assert_eq!(a.lane_quarantines, 3);
        assert_eq!(a.lane_readmissions, 1);
        assert_eq!(a.integrity_escalations, 1);
        assert_eq!(a.quarantined_lanes, 2);
    }

    #[test]
    fn empty_resilience_report_is_well_defined() {
        let r = ResilienceReport::default();
        assert_eq!(r.resolved_ops(), 0);
        assert_eq!(r.effective_throughput(), 0.0);
        assert_eq!(r.degradation_fraction(), 0.0);
        assert_eq!(r.breaker_state, phi_faults::BreakerState::Closed);
    }

    #[test]
    fn reexported_summary_still_reachable_through_rt() {
        // The statistics machinery lives in phi-trace now; this pins the
        // compatibility path `phi_rt::stats::Summary`.
        let s = Summary::of(&[2.0, 4.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 2.0);
    }
}
