//! # rbqa-access
//!
//! The query-and-access model of the paper (Section 2): schemas with access
//! methods, result bounds, access selections, accessible parts, and monotone
//! plans.
//!
//! * [`method::AccessMethod`] — an access method on a relation with input
//!   positions and an optional result bound (or result *lower* bound after
//!   `ElimUB`, Proposition 3.3);
//! * [`schema::Schema`] — a relational signature, integrity constraints and
//!   a set of access methods;
//! * [`selection`] — *access selections*: the non-deterministic choice of
//!   which valid output a result-bounded access returns, with deterministic,
//!   random and adversarial implementations (all idempotent, as in the
//!   paper's semantics);
//! * [`accessible`] — the accessible-part fixpoint `AccPart(σ, I)`
//!   (Section 3);
//! * [`backend`] — pluggable data-source backends ([`AccessBackend`]):
//!   in-memory, simulated-remote (latency/faults), sharded, and
//!   recording/replay, with per-call accounting and a structured
//!   [`AccessError`] taxonomy;
//! * [`resilience`] — retry/backoff policies with deterministic seeded
//!   jitter and per-method circuit breakers ([`ResilientBackend`]),
//!   layered over any backend;
//! * [`plan`] — monotone plans: middleware commands over a monotone
//!   relational algebra and access commands, with their execution semantics
//!   relative to an access backend (the in-memory backend reproduces the
//!   paper's access-selection semantics exactly).

pub mod accessible;
pub mod backend;
pub mod method;
pub mod plan;
pub mod resilience;
pub mod schema;
pub mod selection;

pub use accessible::accessible_part;
pub use backend::{
    AccessBackend, AccessError, AccessResponse, AccessTrace, BudgetedBackend, InstanceBackend,
    RecordingBackend, RemoteProfile, ReplayBackend, ShardedBackend, SimulatedRemoteBackend,
};
pub use method::{AccessMethod, ResultBound};
pub use plan::{execute_with_backend, Command, Condition, Plan, PlanBuilder, RaExpr, TempTable};
pub use resilience::{BreakerPolicy, ResilienceStats, ResilientBackend, RetryPolicy};
pub use schema::Schema;
pub use selection::{
    AccessSelection, AdversarialSelection, GreedySelection, RandomSelection, TruncatingSelection,
};
