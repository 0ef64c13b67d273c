//! Thread-local instruction counting.
//!
//! Every modeled vector operation (and, via [`record`], every scalar
//! operation the baseline libraries account for) increments a per-thread
//! counter for its [`OpClass`]. Counts are deterministic functions of the
//! algorithm and operand sizes, which makes the modeled-cycle channel of
//! the benchmark harness exactly reproducible.

use std::cell::RefCell;
use std::fmt;

/// Operation classes, chosen to match the KNC cost model's granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// 512-bit vector multiply / multiply-accumulate (one per issued op).
    VMul,
    /// 512-bit vector add/sub/logic/shift.
    VAlu,
    /// 512-bit permute / swizzle / align.
    VPerm,
    /// 512-bit vector load or store (register spill/fill, table gather row).
    VMem,
    /// Mask-register operation (kmov/kand-style) or masked blend.
    VMask,
    /// Scalar 64×64→128 multiply (the `mulq` the MPSS baseline leans on).
    SMul64,
    /// Scalar 32×32→64 multiply (the BN_LLONG half-word path of the
    /// default OpenSSL build).
    SMul32,
    /// Scalar ALU op: add/adc/sub/sbb/shift/logic.
    SAlu,
    /// Scalar load/store.
    SMem,
    /// Scalar divide (64/64); rare but very expensive on KNC.
    SDiv,
}

/// Number of distinct [`OpClass`] values.
pub const NUM_CLASSES: usize = 10;

impl OpClass {
    /// Dense index for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            OpClass::VMul => 0,
            OpClass::VAlu => 1,
            OpClass::VPerm => 2,
            OpClass::VMem => 3,
            OpClass::VMask => 4,
            OpClass::SMul64 => 5,
            OpClass::SMul32 => 6,
            OpClass::SAlu => 7,
            OpClass::SMem => 8,
            OpClass::SDiv => 9,
        }
    }

    /// All classes, in index order.
    pub const ALL: [OpClass; NUM_CLASSES] = [
        OpClass::VMul,
        OpClass::VAlu,
        OpClass::VPerm,
        OpClass::VMem,
        OpClass::VMask,
        OpClass::SMul64,
        OpClass::SMul32,
        OpClass::SAlu,
        OpClass::SMem,
        OpClass::SDiv,
    ];

    /// True for the 512-bit vector-pipe classes.
    pub const fn is_vector(self) -> bool {
        matches!(
            self,
            OpClass::VMul | OpClass::VAlu | OpClass::VPerm | OpClass::VMem | OpClass::VMask
        )
    }
}

/// A snapshot of per-class operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [u64; NUM_CLASSES],
}

impl OpCounts {
    /// An all-zero count set.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Count for one class.
    #[inline]
    pub fn get(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Set the count for one class (used by synthetic workloads in tests).
    pub fn set(&mut self, class: OpClass, value: u64) {
        self.counts[class.index()] = value;
    }

    /// Add another snapshot into this one.
    pub fn accumulate(&mut self, other: &OpCounts) {
        for i in 0..NUM_CLASSES {
            self.counts[i] += other.counts[i];
        }
    }

    /// Element-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        let mut out = OpCounts::zero();
        for i in 0..NUM_CLASSES {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Total 512-bit vector operations of any class.
    pub fn total_vector_ops(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_vector())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Total scalar operations of any class.
    pub fn total_scalar_ops(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| !c.is_vector())
            .map(|&c| self.get(c))
            .sum()
    }
}

impl fmt::Display for OpCounts {
    /// Lists the nonzero classes, e.g. `VMul=1520 VPerm=912 SAlu=1308`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for class in OpClass::ALL {
            let n = self.get(class);
            if n > 0 {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{class:?}={n}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(no ops)")?;
        }
        Ok(())
    }
}

thread_local! {
    static COUNTS: RefCell<OpCounts> = const { RefCell::new(OpCounts { counts: [0; NUM_CLASSES] }) };
    // Montgomery context constructions are tracked separately from the
    // OpClass table: they are a *setup* event (n', R^2 precomputation),
    // not a modeled steady-state instruction class, and folding them into
    // the cost model would skew cycle totals. The counter exists so tests
    // can assert that cached-context code paths build each context once.
    static CTX_SETUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Record `n` operations of the given class on the current thread.
#[inline]
pub fn record(class: OpClass, n: u64) {
    COUNTS.with(|c| {
        c.borrow_mut().counts[class.index()] += n;
    });
}

/// Current thread's counts.
pub fn snapshot() -> OpCounts {
    COUNTS.with(|c| *c.borrow())
}

/// Reset the current thread's counts to zero.
pub fn reset() {
    COUNTS.with(|c| *c.borrow_mut() = OpCounts::zero());
}

/// Run `f` and return its result together with the operations it recorded
/// on this thread (other threads' counts are untouched).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, OpCounts) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (out, after.since(&before))
}

/// Run `f` and keep none of what it records: this thread's op counts
/// and context-setup count are restored afterwards, so an enclosing
/// [`measure`] or [`measure_ctx_setups`] sees none of `f`'s work.
pub fn isolated<R>(f: impl FnOnce() -> R) -> R {
    let (counts, setups) = (snapshot(), ctx_setups());
    let out = f();
    COUNTS.with(|c| *c.borrow_mut() = counts);
    CTX_SETUPS.with(|c| c.set(setups));
    out
}

/// Record one Montgomery context construction on the current thread.
///
/// Called by every `MontCtx64` / `MontCtx32` / `VMontCtx` constructor.
/// Not part of [`OpCounts`]: context setup is a one-time precomputation
/// event, not a steady-state instruction class the cost model weighs.
#[inline]
pub fn record_ctx_setup() {
    CTX_SETUPS.with(|c| c.set(c.get() + 1));
}

/// Montgomery context constructions recorded on this thread so far.
pub fn ctx_setups() -> u64 {
    CTX_SETUPS.with(|c| c.get())
}

/// Run `f` and return its result together with the number of Montgomery
/// context constructions it performed on this thread.
pub fn measure_ctx_setups<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ctx_setups();
    let out = f();
    (out, ctx_setups() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        reset();
        record(OpClass::VMul, 5);
        record(OpClass::SAlu, 2);
        let s = snapshot();
        assert_eq!(s.get(OpClass::VMul), 5);
        assert_eq!(s.get(OpClass::SAlu), 2);
        assert_eq!(s.get(OpClass::VAlu), 0);
        reset();
        assert_eq!(snapshot(), OpCounts::zero());
    }

    #[test]
    fn measure_is_differential() {
        reset();
        record(OpClass::VMul, 100); // pre-existing noise
        let ((), d) = measure(|| {
            record(OpClass::VMul, 3);
            record(OpClass::VPerm, 1);
        });
        assert_eq!(d.get(OpClass::VMul), 3);
        assert_eq!(d.get(OpClass::VPerm), 1);
    }

    #[test]
    fn totals_split_vector_scalar() {
        let mut c = OpCounts::zero();
        c.set(OpClass::VMul, 4);
        c.set(OpClass::VMem, 6);
        c.set(OpClass::SMul64, 10);
        assert_eq!(c.total_vector_ops(), 10);
        assert_eq!(c.total_scalar_ops(), 10);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = OpCounts::zero();
        a.set(OpClass::SAlu, 1);
        let mut b = OpCounts::zero();
        b.set(OpClass::SAlu, 2);
        b.set(OpClass::SDiv, 7);
        a.accumulate(&b);
        assert_eq!(a.get(OpClass::SAlu), 3);
        assert_eq!(a.get(OpClass::SDiv), 7);
    }

    #[test]
    fn counts_are_thread_local() {
        reset();
        record(OpClass::VMul, 1);
        let handle = std::thread::spawn(|| {
            // Fresh thread starts at zero.
            assert_eq!(snapshot(), OpCounts::zero());
            record(OpClass::VMul, 42);
            snapshot().get(OpClass::VMul)
        });
        assert_eq!(handle.join().unwrap(), 42);
        assert_eq!(snapshot().get(OpClass::VMul), 1);
    }

    #[test]
    fn ctx_setups_are_differential_and_thread_local() {
        let base = ctx_setups();
        record_ctx_setup();
        record_ctx_setup();
        assert_eq!(ctx_setups(), base + 2);
        let ((), n) = measure_ctx_setups(record_ctx_setup);
        assert_eq!(n, 1);
        let handle = std::thread::spawn(|| {
            assert_eq!(ctx_setups(), 0);
            record_ctx_setup();
            ctx_setups()
        });
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn isolated_work_leaves_the_enclosing_measurement_untouched() {
        let ((n, setups), d) = measure(|| {
            record(OpClass::SAlu, 2);
            let n = measure_ctx_setups(|| {
                isolated(|| {
                    record(OpClass::VMul, 40);
                    record_ctx_setup();
                    7
                })
            });
            record(OpClass::SAlu, 3);
            n
        });
        assert_eq!((n, setups), (7, 0));
        assert_eq!(d.get(OpClass::SAlu), 5);
        assert_eq!(d.get(OpClass::VMul), 0);
    }

    #[test]
    fn display_lists_nonzero_classes() {
        let mut c = OpCounts::zero();
        assert_eq!(c.to_string(), "(no ops)");
        c.set(OpClass::VMul, 5);
        c.set(OpClass::SAlu, 2);
        assert_eq!(c.to_string(), "VMul=5 SAlu=2");
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; NUM_CLASSES];
        for c in OpClass::ALL {
            assert!(!seen[c.index()], "duplicate index");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
