//! Cycle-accounted spans with exclusive attribution.
//!
//! [`span`] opens a guard that, when dropped, charges the modeled KNC
//! issue cycles (from the thread-local [`phi_simd::count`] channel) and
//! host wall time elapsed inside it to a [`Scope`] row of a global
//! lock-free table. A thread-local child accumulator subtracts work
//! already charged to nested spans, so attribution is *exclusive*: the
//! per-scope exclusive totals of a trace sum to the cycles of its
//! outermost spans, never double-counting nesting.
//!
//! Tracing defaults to off. A disabled [`span`] call is one relaxed
//! atomic load and a branch — it takes no count snapshot, reads no
//! clock, and touches no shared state — and spans never call
//! [`phi_simd::count::record`], so modeled experiment numbers are
//! bit-identical whether tracing is enabled or not.

use crate::scope::{Scope, NUM_SCOPES};
use phi_simd::cost::CostModel;
use phi_simd::count::{self, OpCounts};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch; off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One row of the global span table. Cycle channels are stored as
/// integer *millicycles* (issue cycles × 1000, rounded) so concurrent
/// spans can aggregate with lock-free integer adds.
struct ScopeCell {
    entries: AtomicU64,
    exclusive_mcycles: AtomicU64,
    total_mcycles: AtomicU64,
    exclusive_wall_nanos: AtomicU64,
}

impl ScopeCell {
    const fn zero() -> ScopeCell {
        ScopeCell {
            entries: AtomicU64::new(0),
            exclusive_mcycles: AtomicU64::new(0),
            total_mcycles: AtomicU64::new(0),
            exclusive_wall_nanos: AtomicU64::new(0),
        }
    }
}

static CELLS: [ScopeCell; NUM_SCOPES] = [const { ScopeCell::zero() }; NUM_SCOPES];

thread_local! {
    /// Issue cycles and wall nanos already charged to spans nested
    /// inside the currently open one, on this thread.
    static CHILD_CYCLES: Cell<f64> = const { Cell::new(0.0) };
    static CHILD_NANOS: Cell<u64> = const { Cell::new(0) };
    /// Set inside [`unmeasured`]: spans opened on this thread are inert.
    static UNMEASURED: Cell<bool> = const { Cell::new(false) };
}

/// The frozen KNC cost model used to convert op counts to issue cycles.
fn model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(CostModel::knc)
}

/// Turn span recording on, process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn span recording off, process-wide.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span charging to `scope`; attribution happens when the
/// returned guard drops. When tracing is disabled this is a single
/// relaxed atomic load.
#[must_use = "a span charges its scope when the guard drops"]
pub fn span(scope: Scope) -> SpanGuard {
    if !is_enabled() || UNMEASURED.get() {
        return SpanGuard { active: None };
    }
    SpanGuard {
        active: Some(ActiveSpan {
            scope,
            entry_counts: count::snapshot(),
            entry_wall: Instant::now(),
            saved_child_cycles: CHILD_CYCLES.replace(0.0),
            saved_child_nanos: CHILD_NANOS.replace(0),
        }),
    }
}

struct ActiveSpan {
    scope: Scope,
    entry_counts: OpCounts,
    entry_wall: Instant,
    saved_child_cycles: f64,
    saved_child_nanos: u64,
}

/// RAII guard returned by [`span`]; charges its scope on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let delta = count::snapshot().since(&a.entry_counts);
        let total_cycles = model().issue_cycles(&delta);
        let total_nanos = a.entry_wall.elapsed().as_nanos() as u64;
        let excl_cycles = (total_cycles - CHILD_CYCLES.get()).max(0.0);
        let excl_nanos = total_nanos.saturating_sub(CHILD_NANOS.get());
        let cell = &CELLS[a.scope.index()];
        cell.entries.fetch_add(1, Ordering::Relaxed);
        cell.exclusive_mcycles
            .fetch_add((excl_cycles * 1000.0).round() as u64, Ordering::Relaxed);
        cell.total_mcycles
            .fetch_add((total_cycles * 1000.0).round() as u64, Ordering::Relaxed);
        cell.exclusive_wall_nanos
            .fetch_add(excl_nanos, Ordering::Relaxed);
        // Everything inside this span (itself included) is a child of
        // whatever span encloses it.
        CHILD_CYCLES.set(a.saved_child_cycles + total_cycles);
        CHILD_NANOS.set(a.saved_child_nanos + total_nanos);
    }
}

/// Run `f` off the books on this thread: the spans it opens charge
/// nothing, and [`count::isolated`] drops the ops it records, so neither
/// the trace nor an enclosing measurement sees its work. For fixtures
/// that are built once and cached, like a benchmark's RSA keys, whose
/// cost would otherwise land on whichever measurement asks first.
pub fn unmeasured<R>(f: impl FnOnce() -> R) -> R {
    let was = UNMEASURED.replace(true);
    let out = count::isolated(f);
    UNMEASURED.set(was);
    out
}

/// Aggregated numbers for one scope, as raw table units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Spans closed against this scope.
    pub entries: u64,
    /// Exclusive issue millicycles (nested-span work subtracted).
    pub exclusive_mcycles: u64,
    /// Inclusive issue millicycles.
    pub total_mcycles: u64,
    /// Exclusive host wall nanoseconds.
    pub exclusive_wall_nanos: u64,
}

impl SpanStats {
    /// Exclusive modeled issue cycles.
    pub fn exclusive_cycles(&self) -> f64 {
        self.exclusive_mcycles as f64 / 1000.0
    }

    /// Inclusive modeled issue cycles.
    pub fn total_cycles(&self) -> f64 {
        self.total_mcycles as f64 / 1000.0
    }

    /// Exclusive host wall seconds.
    pub fn exclusive_wall_seconds(&self) -> f64 {
        self.exclusive_wall_nanos as f64 / 1e9
    }
}

/// A point-in-time copy of the whole span table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    stats: [SpanStats; NUM_SCOPES],
}

impl TraceSnapshot {
    /// Numbers for one scope.
    pub fn get(&self, scope: Scope) -> SpanStats {
        self.stats[scope.index()]
    }

    /// Per-scope difference `self - earlier` (saturating), for
    /// pollution-free accounting of one region of a shared process.
    pub fn since(&self, earlier: &TraceSnapshot) -> TraceSnapshot {
        let mut out = TraceSnapshot::default();
        for i in 0..NUM_SCOPES {
            let (a, b) = (&self.stats[i], &earlier.stats[i]);
            out.stats[i] = SpanStats {
                entries: a.entries.saturating_sub(b.entries),
                exclusive_mcycles: a.exclusive_mcycles.saturating_sub(b.exclusive_mcycles),
                total_mcycles: a.total_mcycles.saturating_sub(b.total_mcycles),
                exclusive_wall_nanos: a
                    .exclusive_wall_nanos
                    .saturating_sub(b.exclusive_wall_nanos),
            };
        }
        out
    }

    /// Iterate `(scope, stats)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (Scope, SpanStats)> + '_ {
        Scope::ALL.into_iter().map(|s| (s, self.get(s)))
    }

    /// Sum of exclusive issue cycles across all scopes — the total work
    /// attributed by this trace.
    pub fn exclusive_cycles_total(&self) -> f64 {
        self.stats.iter().map(|s| s.exclusive_cycles()).sum()
    }

    /// Whether any span closed in this snapshot.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.entries == 0)
    }
}

/// Copy the current global span table.
pub fn snapshot() -> TraceSnapshot {
    let mut out = TraceSnapshot::default();
    for (slot, cell) in out.stats.iter_mut().zip(CELLS.iter()) {
        *slot = SpanStats {
            entries: cell.entries.load(Ordering::Relaxed),
            exclusive_mcycles: cell.exclusive_mcycles.load(Ordering::Relaxed),
            total_mcycles: cell.total_mcycles.load(Ordering::Relaxed),
            exclusive_wall_nanos: cell.exclusive_wall_nanos.load(Ordering::Relaxed),
        };
    }
    out
}

/// Zero the global span table. Does not touch open spans; callers
/// should reset between, not during, traced regions.
pub fn reset() {
    for cell in &CELLS {
        cell.entries.store(0, Ordering::Relaxed);
        cell.exclusive_mcycles.store(0, Ordering::Relaxed);
        cell.total_mcycles.store(0, Ordering::Relaxed);
        cell.exclusive_wall_nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing_and_costs_no_ops() {
        // Tests in this file never enable tracing (the enable/disable
        // lifecycle lives in the serialized integration tests), so the
        // guard must be inert.
        let before = snapshot();
        let ((), ops) = count::measure(|| {
            let _g = span(Scope::VMul);
            count::record(phi_simd::count::OpClass::VMul, 7);
        });
        assert_eq!(ops.get(phi_simd::count::OpClass::VMul), 7);
        let diff = snapshot().since(&before);
        assert_eq!(diff.get(Scope::VMul).entries, 0);
    }

    #[test]
    fn snapshot_since_saturates() {
        let mut a = TraceSnapshot::default();
        let mut b = TraceSnapshot::default();
        b.stats[0].entries = 5;
        a.stats[0].entries = 3;
        assert_eq!(a.since(&b).get(Scope::VMul).entries, 0);
        assert_eq!(b.since(&a).get(Scope::VMul).entries, 2);
        assert!(a.since(&b).is_empty());
    }

    #[test]
    fn span_stats_unit_conversions() {
        let s = SpanStats {
            entries: 1,
            exclusive_mcycles: 1_500,
            total_mcycles: 2_000,
            exclusive_wall_nanos: 2_000_000_000,
        };
        assert_eq!(s.exclusive_cycles(), 1.5);
        assert_eq!(s.total_cycles(), 2.0);
        assert_eq!(s.exclusive_wall_seconds(), 2.0);
    }
}
