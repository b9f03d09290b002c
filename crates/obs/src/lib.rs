//! # rbqa-obs
//!
//! The observability layer of the workspace: per-request **tracing**
//! (nestable spans over a monotonic clock), **profiling counters** for the
//! chase and homomorphism kernels, log-scale latency **histograms** with
//! quantile estimation, **exporters** (a JSON trace dump and a
//! Chrome-`trace_event` writer loadable in `about:tracing`/Perfetto),
//! and **server counters** ([`ServerStats`]: connection/queue gauges and
//! request-latency histograms for the network tier).
//!
//! ## The one-branch no-op guarantee
//!
//! Every hook in this crate — [`span`], [`phase_span`], and the counter
//! functions in [`counters`] — starts with a single load of a
//! const-initialised thread-local flag ([`enabled`]). When no tracer is
//! installed the hook returns immediately: no clock read, no allocation,
//! no atomic. The instrumented kernels additionally batch their counts in
//! stack locals and flush once per operation, so the disabled cost in the
//! hottest loops is one register increment. `trace_report` measures and
//! CI enforces the resulting end-to-end overhead bound (< 2% on uncached
//! Decide; see EXPERIMENTS.md).
//!
//! ## Threading model
//!
//! Tracers are **thread-local** and per-request: `rbqa-service` serves
//! each request on exactly one thread (batch workers are independent
//! threads with independent requests), so a request's trace never needs
//! cross-thread synchronisation. [`install`] arms the current thread,
//! [`uninstall`] disarms it and returns the finished [`Trace`].
//! [`Histogram`] is the one shared-state piece and is all relaxed
//! atomics.
//!
//! ## Phase attribution
//!
//! Spans may be tagged with a [`Phase`] (`Chase`, `FdFixpoint`,
//! `Saturation`, `Containment`). The tracer attributes wall time
//! **exclusively**: entering a phase-tagged span stops the clock of the
//! enclosing phase, so nested phases (an FD fixpoint inside a chase
//! round) never double-count. The per-phase totals answer ROADMAP open
//! item 3's question directly — see `BENCH_profile.json`.

pub mod counters;
pub mod deadline;
pub mod export;
pub mod hist;
pub mod json;
pub mod server;
pub mod tracer;

pub use counters::CounterSnapshot;
pub use deadline::{
    arm_deadline, deadline_armed, deadline_expired, deadline_remaining, DeadlineGuard,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use server::{Gauge, ServerStats, ServerStatsSnapshot};
pub use tracer::{
    enabled, install, phase_span, span, uninstall, Phase, SpanGuard, SpanRecord, Trace, Tracer,
    N_PHASES,
};
