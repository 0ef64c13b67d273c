//! Edge-case coverage for `phi_rt::stats`: flush-occupancy bounds.

use phi_rt::service::FlushReason;
use phi_rt::FlushRecord;

fn flush(occupancy: usize, width: usize) -> FlushRecord {
    FlushRecord {
        reason: FlushReason::Deadline,
        occupancy,
        width,
        queue_depth_after: 0,
        oldest_wait: 0.0,
        modeled_seconds: 1e-3,
        wall_seconds: 1e-5,
    }
}

#[test]
fn occupancy_fraction_spans_the_unit_interval() {
    // Lowest legal occupancy: one live lane.
    let lo = flush(1, 16).occupancy_fraction();
    assert!(lo > 0.0 && lo <= 1.0);
    assert_eq!(lo, 1.0 / 16.0);
    // Full batch is exactly 1.
    assert_eq!(flush(16, 16).occupancy_fraction(), 1.0);
    // Degenerate width-1 service.
    assert_eq!(flush(1, 1).occupancy_fraction(), 1.0);
    // Every legal occupancy stays within (0, 1].
    for occ in 1..=16 {
        let f = flush(occ, 16).occupancy_fraction();
        assert!(f > 0.0 && f <= 1.0, "occ {occ} -> {f}");
    }
}
