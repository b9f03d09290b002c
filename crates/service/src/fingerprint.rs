//! Canonical request fingerprints.
//!
//! A fingerprint is a 128-bit hash of the *semantic content* of an
//! answerability request: the schema (signature, constraints, access
//! methods with their result bounds), the query in canonical α-invariant
//! form (see [`rbqa_logic::canonical`]), and the decision options. Two
//! requests that differ only by variable names, atom order, or the
//! [`rbqa_common::ValueFactory`] that interned their constants produce the
//! same fingerprint and therefore share one cache entry.
//!
//! Hashing is a hand-rolled FNV-1a/128 over the canonical encoding —
//! deterministic across processes and platforms (no `RandomState`, no
//! pointer identity), so fingerprints could be persisted or shipped
//! between nodes.

use rbqa_access::Schema;
use rbqa_common::Value;
use rbqa_core::{AnswerabilityOptions, AxiomStyle};
use rbqa_engine::ExecOptions;
use rbqa_logic::canonical::{canonical_atoms_code, canonical_ucq_code, TaggedAtom};
use rbqa_logic::UnionOfConjunctiveQueries;

/// A 128-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Incremental FNV-1a/128 hasher over byte strings.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u128,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        FingerprintHasher { state: FNV_OFFSET }
    }
}

impl FingerprintHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a string with a terminator so fields cannot run together.
    pub fn field(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xff])
    }

    /// Finalises the fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Canonical code of a schema: relations (in declaration order — relation
/// ids are load-bearing for queries), access methods sorted by name, and
/// constraints as sorted canonical atom codes. `resolve` maps constants
/// occurring in constraints to stable strings.
pub fn schema_code(schema: &Schema, resolve: &dyn Fn(Value) -> String) -> String {
    let sig = schema.signature();
    let mut out = String::new();
    out.push_str("relations:");
    for (_, rel) in sig.iter() {
        out.push_str(&format!("{}/{};", rel.name(), rel.arity()));
    }
    out.push_str("|methods:");
    let mut methods: Vec<String> = schema
        .methods()
        .iter()
        .map(|m| {
            let bound = match m.result_bound() {
                None => "inf".to_owned(),
                Some(rb) => format!("{}{}", if rb.lower_only { ">=" } else { "<=" }, rb.limit),
            };
            format!(
                "{}@{}({:?})[{}];",
                m.name(),
                sig.name(m.relation()),
                m.input_positions_vec(),
                bound
            )
        })
        .collect();
    methods.sort();
    for m in methods {
        out.push_str(&m);
    }
    out.push_str("|constraints:");
    let mut codes: Vec<String> = Vec::new();
    for tgd in schema.constraints().tgds() {
        // Body atoms tag 0, head atoms tag 1; no free variables — any
        // consistent renaming of a dependency is the same dependency.
        let atoms: Vec<TaggedAtom<'_>> = tgd
            .body()
            .iter()
            .map(|a| (0u32, a))
            .chain(tgd.head().iter().map(|a| (1u32, a)))
            .collect();
        codes.push(format!(
            "tgd:{}",
            canonical_atoms_code(&atoms, &[], sig, resolve)
        ));
    }
    for fd in schema.constraints().fds() {
        codes.push(format!(
            "fd:{}:{:?}->{}",
            sig.name(fd.relation()),
            fd.determiners(),
            fd.determined()
        ));
    }
    codes.sort();
    for c in codes {
        out.push_str(&c);
        out.push(';');
    }
    out
}

/// Canonical code of the execution options: the backend and the
/// per-request call budget. Part of the fingerprint of `Execute`
/// requests (callers pass [`crate::AnswerRequest::effective_exec`],
/// which normalises other modes to the default) because the fingerprint
/// is the *identity* of a request over the wire: two executes naming
/// different backends are different requests — on result-bounded methods
/// different backends legitimately return different valid outputs, and
/// their accounting (latency, quotas) always differs. The cost is that
/// each backend/budget variant of one query runs the decision pipeline
/// once; the decision itself is exec-independent, so a future
/// optimisation could split the decision key from the request identity.
pub fn exec_options_code(exec: &ExecOptions) -> String {
    exec.code()
}

/// Canonical code of the decision options (everything that can change the
/// cached outcome: the budget, a forced axiom style, and plan synthesis
/// parameters).
///
/// The `engine:seminaive` segment is a constant. It names the only chase
/// engine a request can run, and it stays in the code because fingerprints
/// are persisted in snapshot files and pinned by
/// `fixtures/chaos/faults.expected`: dropping it would re-key every
/// persisted decision.
pub fn options_code(options: &AnswerabilityOptions) -> String {
    let style = match options.axiom_style_override {
        None => "auto".to_owned(),
        Some(AxiomStyle::Simplified) => "simplified".to_owned(),
        Some(AxiomStyle::SeparabilityRewriting) => "separability".to_owned(),
        Some(AxiomStyle::NaiveCardinality { cap }) => format!("naive:{cap}"),
    };
    format!(
        "budget:{}/{}/{}/{}|engine:seminaive|style:{}|plan:{}/{}",
        options.budget.max_facts,
        options.budget.max_rounds,
        options.budget.max_depth,
        options.budget.max_nulls,
        style,
        options.synthesize_plan,
        options.crawl_rounds,
    )
}

/// Fingerprint of a full request against an already-fingerprinted catalog.
///
/// `schema_fingerprint` is computed once at catalog registration; only the
/// query must be canonicalised per request (and the cache makes even that
/// cost rare in steady state: the fingerprint is the key, so it is paid
/// once per *distinct* request shape, not once per chase). The query is a
/// union of CQs; its canonical code is invariant under disjunct
/// reordering, duplicate disjuncts, and α-renaming within any disjunct
/// (see [`rbqa_logic::canonical::canonical_ucq_code`]), so α-equivalent
/// unions share one cache entry.
pub fn request_fingerprint(
    schema_fingerprint: Fingerprint,
    query: &UnionOfConjunctiveQueries,
    signature: &rbqa_common::Signature,
    resolve: &dyn Fn(Value) -> String,
    options: &AnswerabilityOptions,
    exec: &ExecOptions,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.field(&format!("{:032x}", schema_fingerprint.0));
    h.field(&canonical_ucq_code(query, signature, resolve));
    h.field(&options_code(options));
    h.field(&exec_options_code(exec));
    h.finish()
}

/// Fingerprint of a schema (see [`schema_code`]).
pub fn schema_fingerprint(schema: &Schema, resolve: &dyn Fn(Value) -> String) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.field(&schema_code(schema, resolve));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_access::AccessMethod;
    use rbqa_common::{Signature, ValueFactory};
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::ConstraintSet;
    use rbqa_logic::parser::parse_cq;

    fn university(bound: Option<usize>) -> Schema {
        let mut sig = Signature::new();
        let prof = sig.add_relation("Prof", 3).unwrap();
        let udir = sig.add_relation("Udirectory", 3).unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push_tgd(inclusion_dependency(&sig, prof, &[0], udir, &[0]));
        let mut schema = Schema::with_parts(sig, constraints, vec![]).unwrap();
        schema
            .add_method(AccessMethod::unbounded("pr", prof, &[0]))
            .unwrap();
        let ud = match bound {
            None => AccessMethod::unbounded("ud", udir, &[]),
            Some(k) => AccessMethod::bounded("ud", udir, &[], k),
        };
        schema.add_method(ud).unwrap();
        schema
    }

    #[test]
    fn schema_fingerprint_is_stable_and_sensitive() {
        let resolve = |v: Value| format!("{v}");
        let a = schema_fingerprint(&university(Some(100)), &resolve);
        let b = schema_fingerprint(&university(Some(100)), &resolve);
        assert_eq!(a, b);
        // A different result bound is a different schema.
        let c = schema_fingerprint(&university(Some(10)), &resolve);
        assert_ne!(a, c);
        // No bound differs from any bound.
        let d = schema_fingerprint(&university(None), &resolve);
        assert_ne!(a, d);
    }

    #[test]
    fn alpha_equivalent_requests_collide() {
        let schema = university(Some(100));
        let sfp = schema_fingerprint(&schema, &|v| format!("{v}"));
        let opts = AnswerabilityOptions::default();

        let mut vf1 = ValueFactory::new();
        let mut sig1 = schema.signature().clone();
        let q1 = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig1, &mut vf1).unwrap();
        let r1 = {
            let vf = vf1.clone();
            move |v: Value| vf.display(v)
        };

        // Different factory (ids shifted by padding), renamed variables.
        let mut vf2 = ValueFactory::new();
        vf2.constant("padding");
        let mut sig2 = schema.signature().clone();
        let q2 = parse_cq("Q(name) :- Prof(pid, name, '10000')", &mut sig2, &mut vf2).unwrap();
        let r2 = {
            let vf = vf2.clone();
            move |v: Value| vf.display(v)
        };

        let f1 = request_fingerprint(
            sfp,
            &UnionOfConjunctiveQueries::single(q1),
            schema.signature(),
            &r1,
            &opts,
            &ExecOptions::default(),
        );
        let f2 = request_fingerprint(
            sfp,
            &UnionOfConjunctiveQueries::single(q2),
            schema.signature(),
            &r2,
            &opts,
            &ExecOptions::default(),
        );
        assert_eq!(f1, f2);
    }

    #[test]
    fn union_fingerprints_are_disjunct_order_invariant() {
        let schema = university(Some(100));
        let sfp = schema_fingerprint(&schema, &|v| format!("{v}"));
        let opts = AnswerabilityOptions::default();

        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let a = parse_cq("Q(n) :- Prof(i, n, '10000')", &mut sig, &mut vf).unwrap();
        let b = parse_cq("Q(a) :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        // The same disjuncts, α-renamed and in the other order.
        let a2 = parse_cq("Q(nm) :- Prof(pid, nm, '10000')", &mut sig, &mut vf).unwrap();
        let b2 = parse_cq("Q(ad) :- Udirectory(row, ad, ph)", &mut sig, &mut vf).unwrap();
        let resolve = {
            let vf = vf.clone();
            move |v: Value| vf.display(v)
        };
        let f1 = request_fingerprint(
            sfp,
            &UnionOfConjunctiveQueries::from_disjuncts(vec![a.clone(), b.clone()]),
            schema.signature(),
            &resolve,
            &opts,
            &ExecOptions::default(),
        );
        let f2 = request_fingerprint(
            sfp,
            &UnionOfConjunctiveQueries::from_disjuncts(vec![b2, a2]),
            schema.signature(),
            &resolve,
            &opts,
            &ExecOptions::default(),
        );
        assert_eq!(f1, f2, "α-renamed, permuted unions share a fingerprint");
        let single = request_fingerprint(
            sfp,
            &UnionOfConjunctiveQueries::single(a),
            schema.signature(),
            &resolve,
            &opts,
            &ExecOptions::default(),
        );
        assert_ne!(f1, single);
    }

    #[test]
    fn options_change_the_fingerprint() {
        let schema = university(Some(100));
        let sfp = schema_fingerprint(&schema, &|v| format!("{v}"));
        let mut vf = ValueFactory::new();
        let mut sig = schema.signature().clone();
        let q = parse_cq("Q() :- Udirectory(i, a, p)", &mut sig, &mut vf).unwrap();
        let resolve = {
            let vf = vf.clone();
            move |v: Value| vf.display(v)
        };
        let plain = AnswerabilityOptions::default();
        let with_plan = AnswerabilityOptions {
            synthesize_plan: true,
            ..Default::default()
        };
        let union = UnionOfConjunctiveQueries::single(q);
        let exec = ExecOptions::default();
        let f1 = request_fingerprint(sfp, &union, schema.signature(), &resolve, &plain, &exec);
        let f2 = request_fingerprint(sfp, &union, schema.signature(), &resolve, &with_plan, &exec);
        assert_ne!(f1, f2);
        // Backend/budget choices separate cache entries too.
        let sharded = ExecOptions {
            backend: rbqa_engine::BackendSpec::Sharded { shards: 2 },
            ..ExecOptions::default()
        };
        let budgeted = ExecOptions {
            call_budget: Some(50),
            ..ExecOptions::default()
        };
        let f3 = request_fingerprint(sfp, &union, schema.signature(), &resolve, &plain, &sharded);
        let f4 = request_fingerprint(sfp, &union, schema.signature(), &resolve, &plain, &budgeted);
        assert_ne!(f1, f3);
        assert_ne!(f1, f4);
        assert_ne!(f3, f4);
    }

    #[test]
    fn display_renders_hex() {
        let fp = Fingerprint(0xabcd);
        assert_eq!(fp.to_string().len(), 32);
        assert!(fp.to_string().ends_with("abcd"));
    }
}
