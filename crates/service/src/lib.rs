//! # rbqa-service
//!
//! A thread-safe, in-process query-answering daemon over the `rbqa`
//! stack (DESIGN.md §6). The library layers below decide monotone
//! answerability one call at a time; this crate turns them into a
//! *service* suitable for heavy traffic over many schemas:
//!
//! * [`catalog`] — a **catalog registry**: clients register named
//!   (schema, constraints) bundles once and refer to them by
//!   [`CatalogId`] afterwards; a catalog may carry a dataset behind a
//!   [`rbqa_engine::ServiceSimulator`] for `Execute` requests;
//! * [`fingerprint`] — **canonical fingerprints**: a 128-bit stable hash
//!   of (schema, constraints, query, result bounds, options) that is
//!   invariant under variable renaming and atom reordering (built on
//!   [`rbqa_logic::canonical`]), so α-equivalent requests are one cache
//!   key;
//! * [`cache`] — a **sharded, single-flight decision cache** with
//!   size-weighted LRU eviction against a byte budget: repeated requests
//!   skip the chase entirely, concurrent identical misses run the
//!   decision pipeline exactly once, and occupancy provably never
//!   exceeds the configured bytes;
//! * [`snapshot`] — **cache persistence**: a CRC-framed, versioned,
//!   corruption-tolerant snapshot log written on graceful shutdown and
//!   compacted on load, so restarts start warm instead of re-chasing;
//! * [`request`] / [`service`] — the **request API**:
//!   [`AnswerRequest`] → [`AnswerResponse`] in `Decide`, `Synthesize`
//!   and `Execute` modes, plus [`QueryService::submit_batch`] fanning a
//!   batch across scoped worker threads with deterministic result
//!   ordering;
//! * [`metrics`] — **service metrics** (cache hits/misses, chase
//!   invocations saved, per-mode latencies) complementing the
//!   per-execution [`rbqa_engine::PlanMetrics`];
//! * [`batch`] / [`export`] — the **deferred-result machinery** behind
//!   the network tier: [`BatchRegistry`] materialises `mode batch`
//!   requests on background workers behind poll-able query ids, and
//!   [`ExportStore`] persists large result sets to a file-backed object
//!   store referenced by `output_location` handles.
//!
//! The cacheability argument: an answerability verdict (and its
//! synthesised plan) is a pure function of the schema, the constraints,
//! the query and the decision options — the paper's decision procedures
//! consult no instance data. Fingerprinting that tuple canonically
//! therefore lets one chase serve arbitrarily many requests, in the
//! spirit of the runtime/static split of Benedikt–Gottlob–Senellart's
//! "Determining Relevance of Accesses at Runtime".

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod export;
pub mod fingerprint;
pub mod metrics;
pub mod request;
pub mod service;
pub mod snapshot;

pub use batch::{BatchRegistry, BatchState, BatchStats, BatchView};
pub use cache::{CacheOutcome, CacheStatsSnapshot, ShardedCache};
pub use catalog::{CatalogEntry, CatalogId, CatalogRegistry};
pub use export::{ExportHandle, ExportStore};
pub use fingerprint::{request_fingerprint, schema_fingerprint, Fingerprint};
// Execution options are part of the request vocabulary; re-export them so
// API layers need not depend on `rbqa-engine` directly.
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use rbqa_access::{BreakerPolicy, RetryPolicy};
pub use rbqa_engine::{AdaptiveMode, BackendSpec, ExecOptions, MAX_LATENCY_MICROS, MAX_SHARDS};
pub use request::{AnswerRequest, AnswerResponse, DisjunctFailure, RequestMode, ServiceError};
pub use service::{
    rebase_constants, rebase_cq_constants, CachedDecision, QueryService, ServiceConfig,
};
pub use snapshot::{SnapshotStats, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
