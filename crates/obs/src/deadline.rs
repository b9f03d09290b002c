//! Cooperative per-request deadlines, propagated like the tracer: a
//! thread-local armed at `QueryService::submit` entry and consulted by
//! long-running work (the decision stages ahead of the chase, chase
//! rounds, plan commands and their accesses, cache waiters) via one cheap
//! check.
//!
//! The deadline is deliberately **not** part of any fingerprint — like
//! the trace flag it describes how hard to try, not what to compute —
//! so armed and unarmed runs of the same request share cache entries.
//!
//! ## Cost model
//!
//! [`deadline_expired`] is a single thread-local load plus branch when
//! no deadline is armed — the same one-branch guarantee as the tracing
//! hooks. When armed it additionally reads the monotonic clock, which
//! is why callers check once per chase round / per plan command and
//! access rather than per tuple.
//!
//! ## Threading model
//!
//! Deadlines are thread-local and per-request, exactly like
//! [`crate::Tracer`]: `rbqa-service` runs each request on one thread,
//! and batch workers arm their own deadline inside `submit`. Arming is
//! scoped by an RAII [`DeadlineGuard`] that restores the previous value
//! on drop, so nested arms (an inner call with a tighter budget) compose.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Arms a deadline `budget` from now on the current thread and returns
/// the guard that disarms it (restoring any previously armed deadline)
/// on drop. If a *tighter* deadline is already armed, the existing one
/// is kept — an outer timeout can only shrink, never extend, inner work.
/// A budget that reaches past the monotonic clock's range (such as
/// `Duration::MAX`) can never expire, so it arms no deadline of its own.
pub fn arm_deadline(budget: Duration) -> DeadlineGuard {
    let proposed = Instant::now().checked_add(budget);
    DEADLINE.with(|d| {
        let prev = d.get();
        let effective = match (prev, proposed) {
            (Some(existing), Some(proposed)) => Some(existing.min(proposed)),
            (existing, proposed) => existing.or(proposed),
        };
        d.set(effective);
        DeadlineGuard { prev }
    })
}

/// Is a deadline armed on this thread?
pub fn deadline_armed() -> bool {
    DEADLINE.with(|d| d.get().is_some())
}

/// Has the armed deadline passed? `false` when none is armed, at the
/// cost of one thread-local load and branch.
#[inline]
pub fn deadline_expired() -> bool {
    DEADLINE.with(|d| match d.get() {
        None => false,
        Some(expires) => Instant::now() >= expires,
    })
}

/// Time left before the armed deadline (`None` when unarmed, zero when
/// already expired). Cache waiters use this to bound their condvar
/// waits so an in-flight compute without a deadline cannot starve a
/// waiter that has one.
pub fn deadline_remaining() -> Option<Duration> {
    DEADLINE.with(|d| {
        d.get()
            .map(|expires| expires.saturating_duration_since(Instant::now()))
    })
}

/// RAII scope for [`arm_deadline`]: restores the previously armed
/// deadline (usually `None`) when dropped, on every exit path.
#[must_use = "dropping the guard immediately disarms the deadline"]
pub struct DeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        DEADLINE.with(|d| d.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_thread_never_expires() {
        assert!(!deadline_armed());
        assert!(!deadline_expired());
        assert_eq!(deadline_remaining(), None);
    }

    #[test]
    fn armed_deadline_expires_and_disarms_on_drop() {
        {
            let _guard = arm_deadline(Duration::from_secs(3600));
            assert!(deadline_armed());
            assert!(!deadline_expired());
            assert!(deadline_remaining().unwrap() > Duration::from_secs(3500));
        }
        assert!(!deadline_armed());

        {
            let _guard = arm_deadline(Duration::ZERO);
            assert!(deadline_expired());
            assert_eq!(deadline_remaining(), Some(Duration::ZERO));
        }
        assert!(!deadline_expired());
    }

    #[test]
    fn deadline_beyond_the_clock_range_is_no_deadline() {
        {
            let _guard = arm_deadline(Duration::MAX);
            assert!(!deadline_armed());
            assert!(!deadline_expired());
            assert_eq!(deadline_remaining(), None);
        }
        // Under a finite outer deadline the unbounded inner arm keeps it.
        let _outer = arm_deadline(Duration::ZERO);
        {
            let _inner = arm_deadline(Duration::MAX);
            assert!(deadline_expired());
        }
        assert!(deadline_expired());
    }

    #[test]
    fn nested_arm_keeps_the_tighter_deadline() {
        let _outer = arm_deadline(Duration::ZERO);
        assert!(deadline_expired());
        {
            // An inner, looser budget must not extend the outer deadline.
            let _inner = arm_deadline(Duration::from_secs(3600));
            assert!(deadline_expired());
        }
        assert!(deadline_expired());
    }

    #[test]
    fn nested_arm_can_tighten_and_restores_outer() {
        let _outer = arm_deadline(Duration::from_secs(3600));
        assert!(!deadline_expired());
        {
            let _inner = arm_deadline(Duration::ZERO);
            assert!(deadline_expired());
        }
        assert!(!deadline_expired());
        assert!(deadline_armed());
    }
}
