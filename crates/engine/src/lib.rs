//! # rbqa-engine
//!
//! The simulated web-service layer and the empirical validation harness.
//!
//! The paper's motivating setting is real, rate-limited web services (ChEBI,
//! IMDb, social-network APIs). This crate substitutes a **simulated**
//! service stack so that every code path — accesses through result-bounded
//! methods, access selections, plan execution, completeness of answers — can
//! be exercised without a network (see DESIGN.md, substitution table):
//!
//! * [`dataset`] — synthetic instance generators (the university directory
//!   of Example 1.1, a movie catalogue, random instances repaired to satisfy
//!   a constraint set via the chase);
//! * [`service`] — a web-service simulator wrapping an instance behind the
//!   schema's access methods through pluggable
//!   [`rbqa_access::AccessBackend`]s (in-memory, simulated-remote,
//!   sharded), with per-method call accounting and hard call budgets;
//! * [`validation`] — the empirical plan validation harness: execute a plan
//!   under many access selections **and backends** over instances
//!   satisfying the constraints and compare its output with the query's
//!   answer.

pub mod dataset;
pub mod service;
pub mod validation;

pub use dataset::{movie_instance, random_instance_satisfying, university_instance};
pub use service::{
    AdaptiveMode, BackendSpec, ExecOptions, PlanMetrics, ServiceSimulator, MAX_LATENCY_MICROS,
    MAX_SHARDS,
};
pub use validation::{validate_plan, ValidationReport};
