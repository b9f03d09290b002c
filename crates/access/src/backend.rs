//! Pluggable data-source backends behind plan execution.
//!
//! The paper's premise is that plans are the **only** way to see the data:
//! access methods are opaque interfaces with result bounds. [`AccessBackend`]
//! makes that interface a first-class object — one `access` call per
//! (method, binding) pair, returning the selected tuples plus per-call
//! accounting — so the executor ([`crate::plan::exec::execute_with_backend`])
//! no longer cares whether the tuples come from a local columnar
//! [`Instance`], a simulated flaky remote service, or a sharded federation:
//!
//! * [`InstanceBackend`] — the in-memory store plus an
//!   [`AccessSelection`]: exactly the pre-refactor execution semantics;
//! * [`SimulatedRemoteBackend`] — wraps any backend with deterministic
//!   seeded latency and fault injection (it never retries: re-driving a
//!   failed access is [`crate::ResilientBackend`]'s job alone);
//! * [`ShardedBackend`] — N shard views of one borrowed instance (row `r`
//!   lives on shard `r % N`): every access fans out to all views, and the
//!   method's [`crate::ResultBound`] is re-applied to the merged output;
//! * [`RecordingBackend`] — wraps any backend and captures an
//!   [`AccessTrace`] that can be replayed later ([`ReplayBackend`]) without
//!   the original data source;
//! * [`BudgetedBackend`] — a thin wrapper enforcing a total call quota on
//!   any backend, as a hard [`AccessError::BudgetExhausted`]
//!   (`ExecOptions::call_budget` is built on it; it is the only quota).
//!
//! A *window* (for quotas) is the lifetime of the backend value; the
//! service constructs one backend per Execute request, shared by all its
//! disjunct plans, so quotas are per request.

use rbqa_common::{Instance, RelationId, Value};
use rustc_hash::FxHashMap;

use crate::method::AccessMethod;
use crate::selection::{bounded_size, AccessSelection};

/// The outcome of one access: the selected tuples plus per-call accounting.
///
/// Tuples are full rows of the accessed relation (the executor projects
/// them through the access command's output map).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResponse {
    /// The tuples the service chose to return (a valid output for the
    /// method's result bound).
    pub tuples: Vec<Vec<Value>>,
    /// How many tuples of the underlying data matched the binding.
    pub tuples_matched: usize,
    /// Whether the result bound dropped matching tuples
    /// (`tuples.len() < tuples_matched`).
    pub truncated: bool,
    /// Simulated service latency attributed to this call, in microseconds
    /// (0 for purely local backends).
    pub latency_micros: u64,
}

impl AccessResponse {
    /// Builds a response from the selected tuples and the matched count,
    /// deriving the `truncated` flag.
    pub fn new(tuples: Vec<Vec<Value>>, tuples_matched: usize) -> Self {
        let truncated = tuples.len() < tuples_matched;
        AccessResponse {
            tuples,
            tuples_matched,
            truncated,
            latency_micros: 0,
        }
    }

    /// Number of tuples returned.
    pub fn tuples_returned(&self) -> usize {
        self.tuples.len()
    }
}

/// Structured failure taxonomy of a backend access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The backend does not serve this access method.
    UnknownMethod(String),
    /// A call quota was exhausted: this access (call number `calls` in the
    /// window) exceeded the budget of `budget` calls.
    BudgetExhausted {
        /// The quota in force.
        budget: usize,
        /// The 1-based number of the call that violated it.
        calls: usize,
    },
    /// The backend (or the simulated service behind it) failed to answer.
    Unavailable {
        /// Whether retrying the same access may succeed.
        retryable: bool,
        /// Human-readable context (not part of the stable contract).
        detail: String,
    },
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::UnknownMethod(name) => {
                write!(f, "backend does not serve access method `{name}`")
            }
            AccessError::BudgetExhausted { budget, calls } => {
                write!(
                    f,
                    "call budget exhausted: call {calls} exceeds budget {budget}"
                )
            }
            AccessError::Unavailable { retryable, detail } => write!(
                f,
                "backend unavailable ({}): {detail}",
                if *retryable { "retryable" } else { "permanent" }
            ),
        }
    }
}

impl std::error::Error for AccessError {}

impl AccessError {
    /// Whether retrying the failed access may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            AccessError::Unavailable {
                retryable: true,
                ..
            }
        )
    }
}

/// A pluggable data source: performs one access per call.
///
/// `binding` pairs each input position of `method` (sorted ascending) with
/// the value bound to it. Implementations must return a *valid* output for
/// the method's result bound — a subset of the matching tuples whose size
/// lies in [`crate::ResultBound::valid_output_sizes`] — and must be
/// idempotent per (method, binding) within a window, matching the paper's
/// access-selection semantics.
pub trait AccessBackend {
    /// Performs one access.
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError>;

    /// A short human-readable label for reports and error messages.
    fn label(&self) -> &str {
        "backend"
    }
}

impl<B: AccessBackend + ?Sized> AccessBackend for &mut B {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        (**self).access(method, binding)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

impl<B: AccessBackend + ?Sized> AccessBackend for Box<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        (**self).access(method, binding)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// Which valid output an [`InstanceBackend`] returns.
enum Pick<'a> {
    /// The `min(k, |M|)` smallest matching tuples in sorted order — the
    /// output of [`crate::TruncatingSelection`] — picked over row ids so
    /// that only the returned rows are copied ([`smallest_rows`]).
    Smallest,
    /// Any [`AccessSelection`], handed a copy of every matching tuple.
    Selection(Box<dyn AccessSelection + 'a>),
}

/// The in-memory backend: an [`Instance`] plus the choice of which valid
/// output each (result-bounded) access returns.
///
/// This is the `(&Instance, &mut dyn AccessSelection)` pair of the
/// pre-refactor executor, packaged as a backend; the free function
/// [`crate::plan::execute`] still takes that pair and wraps it here.
pub struct InstanceBackend<'a> {
    instance: &'a Instance,
    pick: Pick<'a>,
    row_ids: Vec<u32>,
}

impl<'a> InstanceBackend<'a> {
    /// A backend over a borrowed instance and selection.
    pub fn new(instance: &'a Instance, selection: &'a mut dyn AccessSelection) -> Self {
        Self::with_selection(instance, Box::new(selection))
    }

    /// A backend over a borrowed instance with an owned (boxed) selection.
    pub fn with_selection(
        instance: &'a Instance,
        selection: Box<dyn AccessSelection + 'a>,
    ) -> Self {
        InstanceBackend {
            instance,
            pick: Pick::Selection(selection),
            row_ids: Vec::new(),
        }
    }

    /// A deterministic backend over a borrowed instance: each access
    /// returns what a [`crate::TruncatingSelection`] would (the
    /// `min(k, |M|)` smallest matching tuples, sorted), copying only
    /// those rows.
    pub fn truncating(instance: &'a Instance) -> Self {
        InstanceBackend {
            instance,
            pick: Pick::Smallest,
            row_ids: Vec::new(),
        }
    }

    /// The instance served by this backend.
    pub fn instance(&self) -> &Instance {
        self.instance
    }
}

impl std::fmt::Debug for InstanceBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceBackend")
            .field("facts", &self.instance.len())
            .finish_non_exhaustive()
    }
}

impl AccessBackend for InstanceBackend<'_> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let (instance, relation) = (self.instance, method.relation());
        self.row_ids.clear();
        instance.matching_rows_into(relation, binding, &mut self.row_ids);
        let matched = self.row_ids.len();
        let selected = match &mut self.pick {
            Pick::Smallest => {
                let k = bounded_size(method, matched);
                let rows = smallest_rows(instance, relation, &mut self.row_ids, k);
                rows.sort_unstable_by(tuple_order(instance, relation));
                copy_rows(instance, relation, rows)
            }
            Pick::Selection(selection) => {
                let matching = copy_rows(instance, relation, &self.row_ids);
                selection.select(method, binding, &matching)
            }
        };
        Ok(AccessResponse::new(selected, matched))
    }

    fn label(&self) -> &str {
        "instance"
    }
}

/// The order of tuples, applied to row ids of `relation`.
fn tuple_order(
    instance: &Instance,
    relation: RelationId,
) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
    move |a, b| instance.row(relation, *a).cmp(instance.row(relation, *b))
}

/// Reorders `rows` (row ids of `relation`) so that its first `k` entries
/// are the ids of the `k` smallest tuples, in no particular order, and
/// returns them: `O(|rows|)` tuple comparisons, nothing copied.
fn smallest_rows<'r>(
    instance: &Instance,
    relation: RelationId,
    rows: &'r mut [u32],
    k: usize,
) -> &'r mut [u32] {
    let k = k.min(rows.len());
    if 0 < k && k < rows.len() {
        rows.select_nth_unstable_by(k - 1, tuple_order(instance, relation));
    }
    &mut rows[..k]
}

/// Copies the tuples at `rows` of `relation` out of the instance.
fn copy_rows(instance: &Instance, relation: RelationId, rows: &[u32]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|&id| instance.row(relation, id).to_vec())
        .collect()
}

/// Configuration of a [`SimulatedRemoteBackend`]: deterministic seeded
/// latency and faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteProfile {
    /// Seed of the deterministic latency/fault draws. Draws are keyed by
    /// `(seed, method, binding, attempt)` — not by call order — so
    /// repeating an access reproduces its outcome exactly (the
    /// idempotence the [`AccessBackend`] contract requires), and two
    /// backends built from the same profile behave identically.
    pub seed: u64,
    /// Fixed per-call latency, microseconds.
    pub base_latency_micros: u64,
    /// Uniform jitter added on top, `[0, jitter_micros)` microseconds.
    pub jitter_micros: u64,
    /// Additional latency per returned tuple, microseconds.
    pub per_tuple_latency_micros: u64,
    /// Percentage (0–100) of calls that fault. Each call makes exactly
    /// one fault draw, and a faulted call surfaces an
    /// [`AccessError::Unavailable`] at once, whose `detail` names the
    /// access's fault key. With `transient_faults` off the error is
    /// **non-retryable**: the draw is attempt 0 of a deterministic
    /// sequence, so repeating the identical access (or request) replays
    /// the identical fault.
    pub fault_rate_pct: u8,
    /// Make faults **transient**: the error is marked `retryable: true`
    /// and the backend advances a per-access attempt cursor, so a later
    /// identical access continues the deterministic draw sequence instead
    /// of replaying the same fault forever. This is what lets an outer
    /// [`crate::resilience::ResilientBackend`] actually clear faults (and
    /// charge every retry to the call budget beneath it); it stays off by
    /// default because it deliberately relaxes strict per-access
    /// idempotence (outcomes still replay exactly for the same seed and
    /// call sequence).
    pub transient_faults: bool,
}

impl Default for RemoteProfile {
    fn default() -> Self {
        RemoteProfile {
            seed: 0,
            base_latency_micros: 150,
            jitter_micros: 50,
            per_tuple_latency_micros: 2,
            fault_rate_pct: 0,
            transient_faults: false,
        }
    }
}

/// One SplitMix64 scramble of a 64-bit state: the deterministic draw
/// primitive behind latency jitter, fault injection and retry-backoff
/// jitter (kept in-crate so backend behaviour is reproducible
/// bit-for-bit from the profile seed alone).
pub(crate) fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a method name and binding: the access key the remote
/// backend's draws (and the resilience layer's backoff jitter) are
/// derived from.
pub(crate) fn access_key_hash(method: &str, binding: &[(usize, Value)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in method.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut feed = |b: u64| {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (pos, value) in binding {
        feed(*pos as u64);
        match value {
            Value::Const(c) => {
                feed(0);
                feed(c.index() as u64);
            }
            Value::Null(n) => {
                feed(1);
                feed(n.raw());
            }
        }
    }
    h
}

/// A simulated remote service: any inner backend wrapped with
/// deterministic seeded latency and fault injection. Each call makes one
/// fault draw, and a faulted call surfaces its error at once without
/// touching the inner backend. It neither retries nor keeps a quota:
/// wrap it in a [`crate::ResilientBackend`] for retries and a
/// [`BudgetedBackend`] for a quota, so that every attempt is a counted
/// call.
///
/// Latency is *accounted*, not slept: each successful access reports
/// `base + jitter + per_tuple * returned` microseconds in its
/// [`AccessResponse::latency_micros`], so tests and benches stay fast
/// while the metrics look like a network was involved. All draws are
/// keyed by `(seed, method, binding, attempt)` rather than by call
/// order, so repeating an access — within a plan, across the disjunct
/// plans of one union request, or across windows — reproduces its
/// latency and fault outcome exactly.
#[derive(Debug)]
pub struct SimulatedRemoteBackend<B> {
    inner: B,
    profile: RemoteProfile,
    /// With `transient_faults`: per-access-key next attempt number, so a
    /// repeated access continues the draw sequence rather than replaying
    /// the surfaced fault.
    fault_cursor: FxHashMap<u64, u64>,
}

impl<B: AccessBackend> SimulatedRemoteBackend<B> {
    /// Wraps `inner` with the given profile.
    pub fn new(inner: B, profile: RemoteProfile) -> Self {
        SimulatedRemoteBackend {
            inner,
            profile,
            fault_cursor: FxHashMap::default(),
        }
    }

    /// A deterministic draw in `[0, bound)` for the given access key,
    /// attempt number and purpose salt.
    fn draw(&self, key: u64, attempt: u64, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix(self.profile.seed ^ key.rotate_left(17) ^ splitmix(attempt ^ salt)) % bound
    }
}

const SALT_FAULT: u64 = 0x5EED_CAFE_F00D_D00D;
const SALT_JITTER: u64 = 0x1A7E_0C15_7EA5_ED00;

impl<B: AccessBackend> AccessBackend for SimulatedRemoteBackend<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let key = access_key_hash(method.name(), binding);
        // Transient mode draws at the attempt cursor that the last fault
        // on this access advanced; otherwise every call draws attempt 0
        // (strict idempotence).
        let attempt = if self.profile.transient_faults {
            self.fault_cursor.get(&key).copied().unwrap_or(0)
        } else {
            0
        };
        let faulted = self.profile.fault_rate_pct > 0
            && self.draw(key, attempt, SALT_FAULT, 100) < self.profile.fault_rate_pct as u64;
        if faulted {
            if self.profile.transient_faults {
                // The next identical access draws the next attempt: an
                // outer retry may clear the fault.
                self.fault_cursor.insert(key, attempt + 1);
                return Err(AccessError::Unavailable {
                    retryable: true,
                    detail: format!(
                        "simulated transient fault on `{}` at attempt {attempt} \
                         (fault key {key:#018x})",
                        method.name(),
                    ),
                });
            }
            return Err(AccessError::Unavailable {
                retryable: false,
                detail: format!(
                    "simulated fault on `{}` (fault key {key:#018x}, \
                     deterministic for this seed/access)",
                    method.name(),
                ),
            });
        }
        let mut response = self.inner.access(method, binding)?;
        response.latency_micros += self.profile.base_latency_micros
            + self.draw(key, attempt, SALT_JITTER, self.profile.jitter_micros)
            + self.profile.per_tuple_latency_micros * response.tuples.len() as u64;
        Ok(response)
    }

    fn label(&self) -> &str {
        "simulated-remote"
    }
}

/// A horizontally sharded backend: N shard views of one borrowed
/// instance, row `r` of every relation living on shard `r % N`. Every
/// access fans out to all shards; each shard answers like
/// [`InstanceBackend::truncating`] over its own rows, and the merged
/// output is sorted with the method's result bound re-applied.
///
/// Each shard applies the bound to *its* rows, so the merge can hold up
/// to `N·k` tuples for an exact bound of `k`; cutting the sorted merge
/// back to `k` yields the `k` smallest matching tuples overall, whatever
/// the shard assignment: a shard holding one of them returns it, because
/// fewer than `k` of its own rows are smaller. Under a lower-only bound
/// the merge is returned whole, so the output depends on which shard
/// holds which row (and is still valid). Fan-out is required because no
/// single shard key serves every method: methods on the same relation
/// disagree on input positions.
///
/// The views copy nothing: an access computes the matching row ids once,
/// deals them to the shards, selects each shard's `k` smallest over row
/// ids, and copies only the rows of the merged response.
/// `tuples_matched` is the sum over the shards (the assignment is
/// disjoint), and the latency is 0 as for any in-memory backend.
#[derive(Debug)]
pub struct ShardedBackend<'a> {
    instance: &'a Instance,
    /// Per-shard scratch: the matching row ids dealt to each shard.
    shards: Vec<Vec<u32>>,
    row_ids: Vec<u32>,
}

impl<'a> ShardedBackend<'a> {
    /// Splits `instance` into `shards` row-assigned views; `shards` must
    /// be at least 1.
    pub fn over_instance(instance: &'a Instance, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded backend needs >= 1 shard");
        ShardedBackend {
            instance,
            shards: vec![Vec::new(); shards],
            row_ids: Vec::new(),
        }
    }
}

impl AccessBackend for ShardedBackend<'_> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let (instance, relation) = (self.instance, method.relation());
        self.row_ids.clear();
        instance.matching_rows_into(relation, binding, &mut self.row_ids);
        let matched = self.row_ids.len();
        let n = self.shards.len();
        for shard in &mut self.shards {
            shard.clear();
        }
        for &row in &self.row_ids {
            self.shards[row as usize % n].push(row);
        }
        // Each shard's answer, as row ids; `row_ids` is free scratch now.
        self.row_ids.clear();
        for shard in &mut self.shards {
            let k = bounded_size(method, shard.len());
            let picked = smallest_rows(instance, relation, shard, k);
            self.row_ids.extend_from_slice(picked);
        }
        let keep = match method.result_bound() {
            Some(rb) if !rb.lower_only => rb.limit,
            _ => self.row_ids.len(),
        };
        let merged = smallest_rows(instance, relation, &mut self.row_ids, keep);
        merged.sort_unstable_by(tuple_order(instance, relation));
        Ok(AccessResponse::new(
            copy_rows(instance, relation, merged),
            matched,
        ))
    }

    fn label(&self) -> &str {
        "sharded"
    }
}

/// One recorded access: the request and the response the wrapped backend
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Name of the accessed method.
    pub method: String,
    /// The binding (input position, value) pairs, as passed in.
    pub binding: Vec<(usize, Value)>,
    /// The response that was returned.
    pub response: AccessResponse,
}

/// An ordered trace of successful accesses, captured by
/// [`RecordingBackend`] and replayable through [`ReplayBackend`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    /// The records, in call order.
    pub records: Vec<AccessRecord>,
}

impl AccessTrace {
    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total tuples returned across the trace.
    pub fn tuples_returned(&self) -> usize {
        self.records.iter().map(|r| r.response.tuples.len()).sum()
    }

    /// Builds a backend replaying this trace (first occurrence wins for
    /// repeated (method, binding) pairs, matching idempotent selections).
    pub fn replayer(&self) -> ReplayBackend {
        let mut map = FxHashMap::default();
        let mut methods = rustc_hash::FxHashSet::default();
        for record in &self.records {
            methods.insert(record.method.clone());
            map.entry((record.method.clone(), record.binding.clone()))
                .or_insert_with(|| record.response.clone());
        }
        ReplayBackend { map, methods }
    }
}

/// A backend decorator that records every successful access into an
/// [`AccessTrace`] (errors pass through unrecorded).
#[derive(Debug)]
pub struct RecordingBackend<B> {
    inner: B,
    trace: AccessTrace,
}

impl<B: AccessBackend> RecordingBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        RecordingBackend {
            inner,
            trace: AccessTrace::default(),
        }
    }

    /// The trace captured so far.
    pub fn trace(&self) -> &AccessTrace {
        &self.trace
    }

    /// Consumes the decorator, returning the captured trace.
    pub fn into_trace(self) -> AccessTrace {
        self.trace
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: AccessBackend> AccessBackend for RecordingBackend<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        let response = self.inner.access(method, binding)?;
        self.trace.records.push(AccessRecord {
            method: method.name().to_owned(),
            binding: binding.to_vec(),
            response: response.clone(),
        });
        Ok(response)
    }

    fn label(&self) -> &str {
        "recording"
    }
}

/// Replays an [`AccessTrace`]: every access is answered from the recorded
/// responses, without touching the original data source. Accesses the
/// trace never saw fail — [`AccessError::UnknownMethod`] when the method
/// was never recorded, a non-retryable [`AccessError::Unavailable`] when
/// the method is known but the binding is not.
#[derive(Debug)]
pub struct ReplayBackend {
    map: FxHashMap<(String, Vec<(usize, Value)>), AccessResponse>,
    methods: rustc_hash::FxHashSet<String>,
}

impl AccessBackend for ReplayBackend {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        if let Some(response) = self.map.get(&(method.name().to_owned(), binding.to_vec())) {
            return Ok(response.clone());
        }
        if self.methods.contains(method.name()) {
            Err(AccessError::Unavailable {
                retryable: false,
                detail: format!("binding not present in the trace for `{}`", method.name()),
            })
        } else {
            Err(AccessError::UnknownMethod(method.name().to_owned()))
        }
    }

    fn label(&self) -> &str {
        "replay"
    }
}

/// A decorator enforcing a hard total call quota on any backend: call
/// `budget + 1` fails with [`AccessError::BudgetExhausted`]. The
/// request's `call_budget` option is built on it.
#[derive(Debug)]
pub struct BudgetedBackend<B> {
    inner: B,
    budget: usize,
    calls: usize,
}

impl<B: AccessBackend> BudgetedBackend<B> {
    /// Wraps `inner` with a quota of `budget` calls.
    pub fn new(inner: B, budget: usize) -> Self {
        BudgetedBackend {
            inner,
            budget,
            calls: 0,
        }
    }

    /// Calls performed so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: AccessBackend> AccessBackend for BudgetedBackend<B> {
    fn access(
        &mut self,
        method: &AccessMethod,
        binding: &[(usize, Value)],
    ) -> Result<AccessResponse, AccessError> {
        self.calls += 1;
        if self.calls > self.budget {
            return Err(AccessError::BudgetExhausted {
                budget: self.budget,
                calls: self.calls,
            });
        }
        self.inner.access(method, binding)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ResultBound;
    use crate::TruncatingSelection;
    use rbqa_common::{Signature, ValueFactory};

    fn setup(bound: Option<usize>) -> (AccessMethod, Instance, ValueFactory) {
        let mut sig = Signature::new();
        let rel = sig.add_relation("R", 2).unwrap();
        let method = match bound {
            None => AccessMethod::unbounded("m", rel, &[0]),
            Some(k) => AccessMethod::bounded("m", rel, &[0], k),
        };
        let mut vf = ValueFactory::new();
        let mut inst = Instance::new(sig);
        let a = vf.constant("a");
        for i in 0..6 {
            let v = vf.constant(&format!("v{i}"));
            inst.insert(rel, vec![a, v]).unwrap();
        }
        (method, inst, vf)
    }

    #[test]
    fn instance_backend_matches_selection_semantics() {
        let (method, inst, mut vf) = setup(Some(3));
        let a = vf.constant("a");
        let mut backend = InstanceBackend::truncating(&inst);
        let response = backend.access(&method, &[(0, a)]).unwrap();
        assert_eq!(response.tuples.len(), 3);
        assert_eq!(response.tuples_matched, 6);
        assert!(response.truncated);
        assert_eq!(response.latency_micros, 0);
        // A binding with no matches.
        let b = vf.constant("b");
        let empty = backend.access(&method, &[(0, b)]).unwrap();
        assert!(empty.tuples.is_empty());
        assert!(!empty.truncated);
    }

    #[test]
    fn remote_backend_accounts_latency_deterministically() {
        let (method, inst, mut vf) = setup(None);
        let a = vf.constant("a");
        let profile = RemoteProfile {
            seed: 7,
            ..RemoteProfile::default()
        };
        let run = |inst: &Instance| {
            let mut backend =
                SimulatedRemoteBackend::new(InstanceBackend::truncating(inst), profile);
            backend.access(&method, &[(0, a)]).unwrap().latency_micros
        };
        let l1 = run(&inst);
        let l2 = run(&inst);
        assert_eq!(l1, l2, "same seed, same latency stream");
        assert!(l1 >= profile.base_latency_micros + 6 * profile.per_tuple_latency_micros);
    }

    #[test]
    fn remote_backend_surfaces_each_fault_at_once() {
        let (method, inst, mut vf) = setup(None);
        let a = vf.constant("a");
        // 100% faults: the one draw faults and the error surfaces as
        // permanent (the draw is deterministic — repeating the identical
        // access replays the identical fault) without an inner call.
        let flaky = RemoteProfile {
            fault_rate_pct: 100,
            ..RemoteProfile::default()
        };
        let mut counted = BudgetedBackend::new(InstanceBackend::truncating(&inst), usize::MAX);
        let mut backend = SimulatedRemoteBackend::new(&mut counted, flaky);
        let err = backend.access(&method, &[(0, a)]).unwrap_err();
        assert!(!err.is_retryable());
        let AccessError::Unavailable { detail, .. } = &err else {
            panic!("expected Unavailable, got {err:?}");
        };
        assert!(detail.contains("fault key 0x"), "detail: {detail}");
        assert_eq!(backend.access(&method, &[(0, a)]).unwrap_err(), err);
        // A fault-free remote calls its inner backend exactly once per
        // access.
        let mut calm = SimulatedRemoteBackend::new(&mut counted, RemoteProfile::default());
        assert!(calm.access(&method, &[(0, a)]).is_ok());
        assert_eq!(counted.calls(), 1, "faults never reach the inner backend");
    }

    #[test]
    fn transient_faults_are_retryable_and_advance_the_cursor() {
        let (method, inst, mut vf) = setup(None);
        let a = vf.constant("a");
        let profile = RemoteProfile {
            seed: 3,
            fault_rate_pct: 50,
            transient_faults: true,
            ..RemoteProfile::default()
        };
        let mut backend = SimulatedRemoteBackend::new(InstanceBackend::truncating(&inst), profile);
        // Drive the same access repeatedly: every surfaced fault must be
        // retryable, the attempt cursor must advance (a 50% rate cannot
        // fault forever within 64 draws), and the whole sequence must
        // replay identically on a fresh backend with the same profile.
        let drive = |backend: &mut SimulatedRemoteBackend<InstanceBackend<'_>>| {
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                match backend.access(&method, &[(0, a)]) {
                    Ok(_) => {
                        outcomes.push(true);
                        break;
                    }
                    Err(err) => {
                        assert!(err.is_retryable(), "transient faults must be retryable");
                        outcomes.push(false);
                    }
                }
            }
            outcomes
        };
        let first = drive(&mut backend);
        assert_eq!(first.last(), Some(&true), "the fault must eventually clear");
        assert!(first.len() > 1, "seed 3 faults on the first attempt");
        let mut fresh = SimulatedRemoteBackend::new(InstanceBackend::truncating(&inst), profile);
        assert_eq!(
            drive(&mut fresh),
            first,
            "transient mode stays deterministic"
        );
    }

    #[test]
    fn remote_fault_outcomes_are_idempotent_per_access() {
        // Faults are keyed by (seed, method, binding, attempt), not call
        // order: repeating the same access — in any interleaving — always
        // reproduces its outcome, and outcomes vary across bindings.
        let (method, inst, mut vf) = setup(None);
        let bindings: Vec<_> = (0..8).map(|i| vf.constant(&format!("v{i}"))).collect();
        let profile = RemoteProfile {
            seed: 3,
            fault_rate_pct: 50,
            ..RemoteProfile::default()
        };
        let mut backend = SimulatedRemoteBackend::new(InstanceBackend::truncating(&inst), profile);
        let first: Vec<bool> = bindings
            .iter()
            .map(|&b| backend.access(&method, &[(0, b)]).is_ok())
            .collect();
        // Replay in reverse order on the same backend: identical outcomes.
        let mut replay: Vec<bool> = bindings
            .iter()
            .rev()
            .map(|&b| backend.access(&method, &[(0, b)]).is_ok())
            .collect();
        replay.reverse();
        assert_eq!(first, replay);
        assert!(
            first.iter().any(|&ok| ok) && first.iter().any(|&ok| !ok),
            "a 50% rate over 8 bindings should mix outcomes: {first:?}"
        );
    }

    #[test]
    fn sharded_backend_reapplies_the_bound_to_the_merge() {
        let (method, inst, mut vf) = setup(Some(3));
        let a = vf.constant("a");
        for shards in 1..=4 {
            let mut sharded = ShardedBackend::over_instance(&inst, shards);
            let response = sharded.access(&method, &[(0, a)]).unwrap();
            assert_eq!(response.tuples.len(), 3, "{shards} shards");
            assert_eq!(response.tuples_matched, 6);
            assert!(response.truncated);
        }
    }

    /// R/2 with 9 rows under the key `a`, inserted out of tuple order so
    /// that row ids and sorted positions disagree.
    fn shuffled_rows() -> (Instance, Value) {
        let mut sig = Signature::new();
        let rel = sig.add_relation("R", 2).unwrap();
        let mut vf = ValueFactory::new();
        let a = vf.constant("a");
        let values: Vec<Value> = (0..9).map(|i| vf.constant(&format!("v{i}"))).collect();
        let mut inst = Instance::new(sig);
        for i in [4, 7, 0, 8, 2, 5, 1, 6, 3] {
            inst.insert(rel, vec![a, values[i]]).unwrap();
        }
        (inst, a)
    }

    #[test]
    fn row_picks_return_what_the_truncating_selection_returns() {
        let (inst, a) = shuffled_rows();
        let rel = inst.signature().require("R").unwrap();
        let bounds = [
            None,
            Some(ResultBound::exact(0)),
            Some(ResultBound::exact(1)),
            Some(ResultBound::exact(4)),
            Some(ResultBound::exact(20)),
            Some(ResultBound::lower(3)),
        ];
        for bound in bounds {
            let method = AccessMethod::unbounded("m", rel, &[0]).with_result_bound(bound);
            let reference =
                InstanceBackend::with_selection(&inst, Box::new(TruncatingSelection::new()))
                    .access(&method, &[(0, a)])
                    .unwrap();
            let picked = InstanceBackend::truncating(&inst)
                .access(&method, &[(0, a)])
                .unwrap();
            assert_eq!(picked, reference, "{bound:?}");
            if bound.is_some_and(|rb| rb.lower_only) {
                continue;
            }
            // Exact or absent bounds: every shard count agrees with the
            // unsharded pick.
            for shards in 1..=5 {
                let sharded = ShardedBackend::over_instance(&inst, shards)
                    .access(&method, &[(0, a)])
                    .unwrap();
                assert_eq!(sharded, reference, "{bound:?}, {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_lower_bounds_return_a_valid_merge() {
        let (inst, a) = shuffled_rows();
        let rel = inst.signature().require("R").unwrap();
        let method =
            AccessMethod::unbounded("m", rel, &[0]).with_result_bound(Some(ResultBound::lower(2)));
        let matching: Vec<Vec<Value>> = inst.tuples(rel).map(<[Value]>::to_vec).collect();
        for shards in 1..=5 {
            let response = ShardedBackend::over_instance(&inst, shards)
                .access(&method, &[(0, a)])
                .unwrap();
            // Each of the non-empty shards returns its 2 smallest rows and
            // the merge keeps them all.
            assert_eq!(
                response.tuples.len(),
                (2 * shards).min(9),
                "{shards} shards"
            );
            assert!(response.tuples.is_sorted());
            assert!(crate::selection::is_valid_output(
                &method,
                &matching,
                &response.tuples
            ));
        }
    }

    #[test]
    fn recording_and_replay_round_trip() {
        let (method, inst, mut vf) = setup(Some(2));
        let a = vf.constant("a");
        let mut recording = RecordingBackend::new(InstanceBackend::truncating(&inst));
        let live = recording.access(&method, &[(0, a)]).unwrap();
        let trace = recording.into_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.tuples_returned(), 2);

        let mut replay = trace.replayer();
        assert_eq!(replay.access(&method, &[(0, a)]).unwrap(), live);
        // Unseen binding on a known method: permanent unavailability.
        let b = vf.constant("b");
        let err = replay.access(&method, &[(0, b)]).unwrap_err();
        assert!(matches!(
            err,
            AccessError::Unavailable {
                retryable: false,
                ..
            }
        ));
        // Unknown method.
        let other = AccessMethod::unbounded("other", method.relation(), &[]);
        assert_eq!(
            replay.access(&other, &[]).unwrap_err(),
            AccessError::UnknownMethod("other".to_owned())
        );
    }

    #[test]
    fn budgeted_backend_fails_on_the_over_quota_call() {
        let (method, inst, mut vf) = setup(None);
        let a = vf.constant("a");
        let mut backend = BudgetedBackend::new(InstanceBackend::truncating(&inst), 1);
        assert!(backend.access(&method, &[(0, a)]).is_ok());
        let err = backend.access(&method, &[(0, a)]).unwrap_err();
        assert_eq!(
            err,
            AccessError::BudgetExhausted {
                budget: 1,
                calls: 2
            }
        );
        assert_eq!(backend.calls(), 2);
        assert!(err.to_string().contains("budget"));
    }
}
