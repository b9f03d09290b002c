//! Kernel profiling counters: thread-local, reset on tracer install,
//! harvested into the [`CounterSnapshot`] of the finished trace.
//!
//! The hooks here are *flush* points, not per-event calls: the
//! instrumented kernels accumulate counts in stack locals (free — a
//! register increment) and flush once per operation, so the disabled
//! cost is the flush call's single [`crate::enabled`] branch.

use std::cell::{Cell, RefCell};

use crate::tracer::enabled;

/// Point-in-time copy of the profiling counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// TGD trigger firings, total across all chases in the window.
    pub trigger_firings: u64,
    /// Trigger firings per TGD index (summed across chases; the vector
    /// is as long as the largest TGD index that fired, plus one).
    pub firings_per_tgd: Vec<u64>,
    /// Chase rounds run.
    pub chase_rounds: u64,
    /// Passes of the FD/EGD fixpoint loop.
    pub fd_passes: u64,
    /// Null/constant unifications applied by FDs.
    pub fd_unifications: u64,
    /// Iterations of the truncated-axiom saturation worklist.
    pub saturation_iters: u64,
    /// Posting-list probes performed by the homomorphism kernel
    /// (`matching_rows_into` / `first_matching_row` / `contains`).
    pub posting_probes: u64,
    /// Backtracks taken by the homomorphism kernel (bindings undone
    /// after a failed extension).
    pub backtracks: u64,
    /// Access retries performed by `ResilientBackend` (attempts beyond
    /// the first, across all accesses in the window).
    pub retry_attempts: u64,
    /// Simulated backoff accounted by those retries, in microseconds.
    pub retry_backoff_micros: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Accesses rejected while a breaker was open.
    pub breaker_rejections: u64,
    /// Cooperative aborts taken because the request deadline expired
    /// (decision stages, chase rounds, plan accesses, cache waits).
    pub deadline_expiries: u64,
    /// Binding-level accesses answered from an adaptive window's memo
    /// instead of calling the backend (short-circuited disjuncts'
    /// avoided accesses included).
    pub adaptive_skips: u64,
    /// Union disjuncts short-circuited entirely because an identical plan
    /// already ran in the same window.
    pub adaptive_short_circuits: u64,
}

#[derive(Default)]
struct Counters {
    trigger_firings: Cell<u64>,
    firings_per_tgd: RefCell<Vec<u64>>,
    chase_rounds: Cell<u64>,
    fd_passes: Cell<u64>,
    fd_unifications: Cell<u64>,
    saturation_iters: Cell<u64>,
    posting_probes: Cell<u64>,
    backtracks: Cell<u64>,
    retry_attempts: Cell<u64>,
    retry_backoff_micros: Cell<u64>,
    breaker_opens: Cell<u64>,
    breaker_rejections: Cell<u64>,
    deadline_expiries: Cell<u64>,
    adaptive_skips: Cell<u64>,
    adaptive_short_circuits: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            trigger_firings: Cell::new(0),
            firings_per_tgd: RefCell::new(Vec::new()),
            chase_rounds: Cell::new(0),
            fd_passes: Cell::new(0),
            fd_unifications: Cell::new(0),
            saturation_iters: Cell::new(0),
            posting_probes: Cell::new(0),
            backtracks: Cell::new(0),
            retry_attempts: Cell::new(0),
            retry_backoff_micros: Cell::new(0),
            breaker_opens: Cell::new(0),
            breaker_rejections: Cell::new(0),
            deadline_expiries: Cell::new(0),
            adaptive_skips: Cell::new(0),
            adaptive_short_circuits: Cell::new(0),
        }
    };
}

/// Zeroes this thread's counters (called by [`crate::install`]).
pub(crate) fn reset() {
    COUNTERS.with(|c| {
        c.trigger_firings.set(0);
        c.firings_per_tgd.borrow_mut().clear();
        c.chase_rounds.set(0);
        c.fd_passes.set(0);
        c.fd_unifications.set(0);
        c.saturation_iters.set(0);
        c.posting_probes.set(0);
        c.backtracks.set(0);
        c.retry_attempts.set(0);
        c.retry_backoff_micros.set(0);
        c.breaker_opens.set(0);
        c.breaker_rejections.set(0);
        c.deadline_expiries.set(0);
        c.adaptive_skips.set(0);
        c.adaptive_short_circuits.set(0);
    });
}

/// Copies this thread's counters (called by [`crate::uninstall`]).
pub(crate) fn snapshot() -> CounterSnapshot {
    COUNTERS.with(|c| CounterSnapshot {
        trigger_firings: c.trigger_firings.get(),
        firings_per_tgd: c.firings_per_tgd.borrow().clone(),
        chase_rounds: c.chase_rounds.get(),
        fd_passes: c.fd_passes.get(),
        fd_unifications: c.fd_unifications.get(),
        saturation_iters: c.saturation_iters.get(),
        posting_probes: c.posting_probes.get(),
        backtracks: c.backtracks.get(),
        retry_attempts: c.retry_attempts.get(),
        retry_backoff_micros: c.retry_backoff_micros.get(),
        breaker_opens: c.breaker_opens.get(),
        breaker_rejections: c.breaker_rejections.get(),
        deadline_expiries: c.deadline_expiries.get(),
        adaptive_skips: c.adaptive_skips.get(),
        adaptive_short_circuits: c.adaptive_short_circuits.get(),
    })
}

macro_rules! add {
    ($field:ident, $n:expr) => {
        COUNTERS.with(|c| c.$field.set(c.$field.get() + $n))
    };
}

/// Flushes posting-list probe and backtrack counts batched by one
/// homomorphism-kernel run.
#[inline]
pub fn flush_kernel(probes: u64, backtracks: u64) {
    if !enabled() || (probes == 0 && backtracks == 0) {
        return;
    }
    add!(posting_probes, probes);
    add!(backtracks, backtracks);
}

/// Flushes per-TGD trigger-firing counts batched by one chase run
/// (`per_tgd[i]` = firings of TGD `i`).
#[inline]
pub fn flush_firings(per_tgd: &[u64]) {
    if !enabled() || per_tgd.is_empty() {
        return;
    }
    let total: u64 = per_tgd.iter().sum();
    add!(trigger_firings, total);
    COUNTERS.with(|c| {
        let mut v = c.firings_per_tgd.borrow_mut();
        if v.len() < per_tgd.len() {
            v.resize(per_tgd.len(), 0);
        }
        for (slot, n) in v.iter_mut().zip(per_tgd) {
            *slot += n;
        }
    });
}

/// Records one trigger firing of TGD `index`. Firings are rare relative
/// to kernel probes (each one inserts head facts), so a per-event hook —
/// one branch when disabled — is cheap enough here.
#[inline]
pub fn add_firing(index: usize) {
    if !enabled() {
        return;
    }
    add!(trigger_firings, 1);
    COUNTERS.with(|c| {
        let mut v = c.firings_per_tgd.borrow_mut();
        if v.len() <= index {
            v.resize(index + 1, 0);
        }
        v[index] += 1;
    });
}

/// Adds completed chase rounds.
#[inline]
pub fn add_chase_rounds(n: u64) {
    if !enabled() {
        return;
    }
    add!(chase_rounds, n);
}

/// Adds FD-fixpoint passes and the unifications they applied.
#[inline]
pub fn add_fd_fixpoint(passes: u64, unifications: u64) {
    if !enabled() {
        return;
    }
    add!(fd_passes, passes);
    add!(fd_unifications, unifications);
}

/// Adds saturation worklist iterations.
#[inline]
pub fn add_saturation_iters(n: u64) {
    if !enabled() {
        return;
    }
    add!(saturation_iters, n);
}

/// Flushes retry attempts and the simulated backoff they accounted,
/// batched by one `ResilientBackend` request window.
#[inline]
pub fn add_retries(attempts: u64, backoff_micros: u64) {
    if !enabled() || attempts == 0 {
        return;
    }
    add!(retry_attempts, attempts);
    add!(retry_backoff_micros, backoff_micros);
}

/// Flushes circuit-breaker activity (transitions into `Open`, calls
/// rejected while open) batched by one request window.
#[inline]
pub fn add_breaker(opens: u64, rejections: u64) {
    if !enabled() || (opens == 0 && rejections == 0) {
        return;
    }
    add!(breaker_opens, opens);
    add!(breaker_rejections, rejections);
}

/// Flushes adaptive-execution activity (memo-served accesses,
/// short-circuited union disjuncts) batched by one plan run.
#[inline]
pub fn add_adaptive(skips: u64, short_circuits: u64) {
    if !enabled() || (skips == 0 && short_circuits == 0) {
        return;
    }
    add!(adaptive_skips, skips);
    add!(adaptive_short_circuits, short_circuits);
}

/// Records one cooperative deadline abort.
#[inline]
pub fn add_deadline_expiry() {
    if !enabled() {
        return;
    }
    add!(deadline_expiries, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{install, uninstall, Tracer};

    #[test]
    fn counters_are_inert_when_disabled_and_reset_on_install() {
        flush_kernel(100, 50); // disabled: ignored
        install(Tracer::new());
        flush_kernel(3, 1);
        flush_kernel(2, 0);
        flush_firings(&[1, 0, 4]);
        flush_firings(&[0, 2]);
        add_chase_rounds(2);
        add_fd_fixpoint(3, 5);
        add_saturation_iters(9);
        let trace = uninstall().unwrap();
        let c = &trace.counters;
        assert_eq!(c.posting_probes, 5);
        assert_eq!(c.backtracks, 1);
        assert_eq!(c.trigger_firings, 7);
        assert_eq!(c.firings_per_tgd, vec![1, 2, 4]);
        assert_eq!(c.chase_rounds, 2);
        assert_eq!(c.fd_passes, 3);
        assert_eq!(c.fd_unifications, 5);
        assert_eq!(c.saturation_iters, 9);
        // A fresh install starts from zero.
        install(Tracer::new());
        let trace = uninstall().unwrap();
        assert_eq!(trace.counters, CounterSnapshot::default());
    }
}
