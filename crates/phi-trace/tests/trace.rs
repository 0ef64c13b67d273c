//! Integration tests that flip the global tracing switch. They share
//! one lock so enable/disable and the global span table never race
//! between tests in this binary; unit tests elsewhere leave tracing
//! off.

use phi_simd::cost::CostModel;
use phi_simd::count::{self, OpClass};
use phi_trace::{span, Scope};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with tracing enabled and a clean table, returning the trace
/// accumulated inside.
fn traced(f: impl FnOnce()) -> phi_trace::TraceSnapshot {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phi_trace::reset();
    phi_trace::enable();
    let before = phi_trace::snapshot();
    f();
    let after = phi_trace::snapshot();
    phi_trace::disable();
    after.since(&before)
}

#[test]
fn exclusive_attribution_subtracts_nested_spans() {
    let model = CostModel::knc();
    let trace = traced(|| {
        let _outer = span(Scope::RsaPrivate);
        count::record(OpClass::SAlu, 100); // exclusive to rsa_private
        {
            let _inner = span(Scope::MontReduce);
            count::record(OpClass::VMul, 50);
        }
        {
            let _inner = span(Scope::MontReduce);
            count::record(OpClass::VMul, 30);
        }
        count::record(OpClass::SAlu, 20); // exclusive to rsa_private
    });

    let outer = trace.get(Scope::RsaPrivate);
    let inner = trace.get(Scope::MontReduce);
    assert_eq!(outer.entries, 1);
    assert_eq!(inner.entries, 2);

    let w_salu = model.weight(OpClass::SAlu);
    let w_vmul = model.weight(OpClass::VMul);
    let tol = 1e-2; // millicycle storage granularity
    assert!((outer.exclusive_cycles() - 120.0 * w_salu).abs() < tol);
    assert!((inner.exclusive_cycles() - 80.0 * w_vmul).abs() < tol);
    assert!((outer.total_cycles() - (120.0 * w_salu + 80.0 * w_vmul)).abs() < tol);

    // The invariant the bench report's 5% coverage check rests on:
    // exclusive cycles across all scopes sum to the outermost total.
    assert!((trace.exclusive_cycles_total() - outer.total_cycles()).abs() < tol);
}

#[test]
fn deep_nesting_never_double_counts() {
    let trace = traced(|| {
        let _a = span(Scope::Handshake);
        count::record(OpClass::SAlu, 10);
        let _b = span(Scope::RsaPrivate);
        count::record(OpClass::SAlu, 10);
        let _c = span(Scope::VExpWindow);
        count::record(OpClass::SAlu, 10);
        let _d = span(Scope::MontReduce);
        count::record(OpClass::SAlu, 10);
    });
    let model = CostModel::knc();
    let w = model.weight(OpClass::SAlu);
    let total = trace.get(Scope::Handshake).total_cycles();
    assert!((total - 40.0 * w).abs() < 1e-2, "{total}");
    assert!((trace.exclusive_cycles_total() - total).abs() < 1e-2);
    for scope in [
        Scope::Handshake,
        Scope::RsaPrivate,
        Scope::VExpWindow,
        Scope::MontReduce,
    ] {
        let s = trace.get(scope);
        assert_eq!(s.entries, 1, "{}", scope.name());
        assert!(
            (s.exclusive_cycles() - 10.0 * w).abs() < 1e-2,
            "{}",
            scope.name()
        );
    }
}

#[test]
fn sibling_spans_of_the_same_scope_accumulate() {
    let trace = traced(|| {
        for _ in 0..5 {
            let _g = span(Scope::VMul);
            count::record(OpClass::VMul, 4);
        }
    });
    let s = trace.get(Scope::VMul);
    assert_eq!(s.entries, 5);
    let w = CostModel::knc().weight(OpClass::VMul);
    assert!((s.exclusive_cycles() - 20.0 * w).abs() < 1e-2);
    assert_eq!(s.exclusive_cycles(), s.total_cycles());
}

#[test]
fn spans_record_no_ops_when_enabled() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phi_trace::reset();
    phi_trace::enable();
    let ((), ops) = count::measure(|| {
        let _a = span(Scope::Handshake);
        let _b = span(Scope::VMul);
    });
    phi_trace::disable();
    for class in OpClass::ALL {
        assert_eq!(ops.get(class), 0, "{class:?}");
    }
}

#[test]
fn multi_threaded_spans_aggregate_into_the_global_table() {
    let trace = traced(|| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span(Scope::PoolTask);
                    count::record(OpClass::VMul, 25);
                });
            }
        });
    });
    let s = trace.get(Scope::PoolTask);
    assert_eq!(s.entries, 4);
    let w = CostModel::knc().weight(OpClass::VMul);
    assert!((s.exclusive_cycles() - 100.0 * w).abs() < 1e-2);
}

#[test]
fn unmeasured_work_charges_neither_the_trace_nor_the_counters() {
    let mut ops = None;
    let trace = traced(|| {
        let _outer = span(Scope::RsaPrivate);
        let ((), d) = count::measure(|| {
            count::record(OpClass::SAlu, 10);
            phi_trace::unmeasured(|| {
                let _inner = span(Scope::MontReduce);
                count::record(OpClass::VMul, 500);
            });
        });
        ops = Some(d);
    });
    let ops = ops.unwrap();
    assert_eq!(ops.get(OpClass::SAlu), 10);
    assert_eq!(ops.get(OpClass::VMul), 0);
    assert_eq!(trace.get(Scope::MontReduce).entries, 0);
    let outer = trace.get(Scope::RsaPrivate);
    let w_salu = CostModel::knc().weight(OpClass::SAlu);
    assert!((outer.total_cycles() - 10.0 * w_salu).abs() < 1e-2);
    assert!((trace.exclusive_cycles_total() - outer.total_cycles()).abs() < 1e-2);
}
