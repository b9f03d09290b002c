//! Dependency implication: FD closure (`DetBy`), UID closure, and the finite
//! closure of UIDs + FDs.
//!
//! * [`fd_closure`] computes the set of positions determined by a set of
//!   positions under a set of FDs — the paper's `DetBy(R, P)` used by the FD
//!   simplification (Section 4).
//! * [`uid_closure`] closes a set of unary inclusion dependencies under
//!   reflexivity and transitivity.
//! * [`finite_closure`] computes the finite closure `Σ*` of a set of UIDs and
//!   FDs in the style of Cosmadakis, Kanellakis and Vardi: on top of
//!   the unrestricted closure it applies the *cycle rule* — every UID or
//!   unary FD edge lying on a cycle of the combined (UID ∪ unary-FD)
//!   cardinality graph gets its reverse added. This is the ingredient of
//!   Theorem 7.4 / Corollary 7.3 that reduces finite monotone answerability
//!   to unrestricted monotone answerability for UIDs + FDs.

use rbqa_common::{RelationId, Signature};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

use crate::constraints::tgd::inclusion_dependency;
use crate::constraints::{Fd, Tgd};

/// A unary inclusion dependency at the position level: the values at
/// `from.1` in relation `from.0` all appear at position `to.1` of relation
/// `to.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid {
    /// Source (relation, position).
    pub from: (RelationId, usize),
    /// Target (relation, position).
    pub to: (RelationId, usize),
}

impl Uid {
    /// Creates a UID from source to target position.
    pub fn new(from: (RelationId, usize), to: (RelationId, usize)) -> Self {
        Uid { from, to }
    }

    /// Whether the UID is trivial (`from == to`).
    pub fn is_trivial(&self) -> bool {
        self.from == self.to
    }

    /// The reverse UID.
    pub fn reversed(&self) -> Uid {
        Uid {
            from: self.to,
            to: self.from,
        }
    }

    /// Extracts the position-level UID from a [`Tgd`] that is a UID.
    /// Returns `None` if the TGD is not a UID.
    pub fn from_tgd(tgd: &Tgd) -> Option<Uid> {
        if !tgd.is_uid() {
            return None;
        }
        let map = tgd.id_position_map()?;
        let (bpos, hpos) = map[0];
        Some(Uid {
            from: (tgd.body()[0].relation(), bpos),
            to: (tgd.head()[0].relation(), hpos),
        })
    }

    /// Converts the UID back into a [`Tgd`] over `sig`.
    pub fn to_tgd(&self, sig: &Signature) -> Tgd {
        inclusion_dependency(sig, self.from.0, &[self.from.1], self.to.0, &[self.to.1])
    }
}

/// Computes the closure of the position set `start` of relation `relation`
/// under the FDs of `fds` that apply to this relation: the paper's
/// `DetBy(R, P)`. Always contains `start`.
pub fn fd_closure(fds: &[Fd], relation: RelationId, start: &BTreeSet<usize>) -> BTreeSet<usize> {
    let relevant: Vec<&Fd> = fds.iter().filter(|f| f.relation() == relation).collect();
    let mut closure = start.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for fd in &relevant {
            if !closure.contains(&fd.determined())
                && fd.determiners().iter().all(|p| closure.contains(p))
            {
                closure.insert(fd.determined());
                changed = true;
            }
        }
    }
    closure
}

/// Whether `fds` imply the FD `candidate` (standard Armstrong-style test via
/// attribute closure).
pub fn implies_fd(fds: &[Fd], candidate: &Fd) -> bool {
    let closure = fd_closure(fds, candidate.relation(), candidate.determiners());
    closure.contains(&candidate.determined())
}

/// `DetBy(R, P)` for the paper's FD simplification: positions of `relation`
/// determined by the positions `input_positions` under `fds`.
pub fn det_by(fds: &[Fd], relation: RelationId, input_positions: &[usize]) -> BTreeSet<usize> {
    let start: BTreeSet<usize> = input_positions.iter().copied().collect();
    fd_closure(fds, relation, &start)
}

/// Closes `uids` under reflexivity (restricted to mentioned positions) and
/// transitivity. The result contains no trivial UIDs.
pub fn uid_closure(uids: &[Uid]) -> Vec<Uid> {
    let mut set: FxHashSet<Uid> = uids.iter().copied().filter(|u| !u.is_trivial()).collect();
    loop {
        let mut new: Vec<Uid> = Vec::new();
        for a in &set {
            for b in &set {
                if a.to == b.from {
                    let c = Uid::new(a.from, b.to);
                    if !c.is_trivial() && !set.contains(&c) {
                        new.push(c);
                    }
                }
            }
        }
        if new.is_empty() {
            break;
        }
        set.extend(new);
    }
    let mut out: Vec<Uid> = set.into_iter().collect();
    out.sort();
    out
}

/// Whether `uids` imply `candidate` under unrestricted semantics
/// (reflexivity + transitivity).
pub fn implies_uid(uids: &[Uid], candidate: &Uid) -> bool {
    if candidate.is_trivial() {
        return true;
    }
    uid_closure(uids).contains(candidate)
}

/// The finite closure of a set of UIDs and FDs: the UIDs and FDs implied
/// over *finite* instances.
///
/// Implemented as a fixpoint of three rules:
/// 1. UID transitivity (unrestricted implication for UIDs);
/// 2. FD implication is left implicit (checked via [`implies_fd`] /
///    [`fd_closure`] on demand) except that unary FDs participate in rule 3;
/// 3. the *cycle rule*: build the directed graph whose nodes are positions
///    `(R, i)`, with an edge `X → Y` for every (derived) UID `X ⊆ Y` and an
///    edge `(R, b) → (R, a)` for every implied unary FD `{a} → b`. Every
///    edge points from a position with at most as many distinct values to
///    one with at least as many: `X ⊆ Y` gives `|X| ≤ |Y|`, and `a → b`
///    gives `|b| ≤ |a|`. On a finite instance all positions of a cycle
///    therefore hold equally many values, so a UID inside a strongly
///    connected component is an equality and a unary FD inside one is a
///    bijection: each gets its reverse added (as a UID, resp. unary FD).
///
/// Iterating 1–3 to fixpoint yields the closure of Cosmadakis–Kanellakis–
/// Vardi for unary inclusion dependencies and functional dependencies.
pub fn finite_closure(sig: &Signature, uids: &[Uid], fds: &[Fd]) -> (Vec<Uid>, Vec<Fd>) {
    let mut cur_uids: FxHashSet<Uid> = uids.iter().copied().filter(|u| !u.is_trivial()).collect();
    let mut cur_fds: FxHashSet<Fd> = fds.iter().cloned().collect();

    loop {
        let before_uids = cur_uids.len();
        let before_fds = cur_fds.len();

        // Rule 1: UID transitivity.
        let closed = uid_closure(&cur_uids.iter().copied().collect::<Vec<_>>());
        cur_uids.extend(closed);

        // Rule 3: cycle rule on the combined graph.
        let fd_vec: Vec<Fd> = cur_fds.iter().cloned().collect();
        let unary_fd_edges = implied_unary_fd_edges(sig, &fd_vec);
        let sccs = combined_sccs(sig, &cur_uids, &unary_fd_edges);

        // Reverse UID edges inside an SCC.
        let mut to_add_uids: Vec<Uid> = Vec::new();
        for uid in &cur_uids {
            if let (Some(a), Some(b)) = (sccs.get(&uid.from), sccs.get(&uid.to)) {
                if a == b {
                    let rev = uid.reversed();
                    if !rev.is_trivial() && !cur_uids.contains(&rev) {
                        to_add_uids.push(rev);
                    }
                }
            }
        }
        // Reverse unary FD edges inside an SCC.
        let mut to_add_fds: Vec<Fd> = Vec::new();
        for &(rel, a, b) in &unary_fd_edges {
            let from = (rel, a);
            let to = (rel, b);
            if let (Some(x), Some(y)) = (sccs.get(&from), sccs.get(&to)) {
                if x == y {
                    let rev = Fd::new(rel, vec![b], a);
                    if !rev.is_trivial() && !implies_fd(&fd_vec, &rev) {
                        to_add_fds.push(rev);
                    }
                }
            }
        }

        cur_uids.extend(to_add_uids);
        cur_fds.extend(to_add_fds);

        if cur_uids.len() == before_uids && cur_fds.len() == before_fds {
            break;
        }
    }

    let mut uids_out: Vec<Uid> = cur_uids.into_iter().collect();
    uids_out.sort();
    let mut fds_out: Vec<Fd> = cur_fds.into_iter().collect();
    fds_out.sort_by_key(|f| (f.relation(), f.determined(), f.determiners().clone()));
    (uids_out, fds_out)
}

/// All unary FD edges `(relation, a, b)` such that the FDs imply `{a} → b`
/// with `a ≠ b`, restricted to positions of relations that appear in `fds`.
fn implied_unary_fd_edges(sig: &Signature, fds: &[Fd]) -> Vec<(RelationId, usize, usize)> {
    let mut relations: Vec<RelationId> = fds.iter().map(|f| f.relation()).collect();
    relations.sort();
    relations.dedup();
    let mut out = Vec::new();
    for rel in relations {
        let arity = sig.arity(rel);
        for a in 0..arity {
            let closure = fd_closure(fds, rel, &BTreeSet::from([a]));
            for b in closure {
                if b != a {
                    out.push((rel, a, b));
                }
            }
        }
    }
    out
}

/// Strongly connected components of the combined UID ∪ unary-FD
/// cardinality graph of [`finite_closure`], returned as a map from position
/// to SCC index.
fn combined_sccs(
    sig: &Signature,
    uids: &FxHashSet<Uid>,
    unary_fd_edges: &[(RelationId, usize, usize)],
) -> FxHashMap<(RelationId, usize), usize> {
    // Collect nodes.
    let mut nodes: Vec<(RelationId, usize)> = Vec::new();
    for (rid, rel) in sig.iter() {
        for p in rel.positions() {
            nodes.push((rid, p));
        }
    }
    let index_of: FxHashMap<(RelationId, usize), usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for uid in uids {
        if let (Some(&a), Some(&b)) = (index_of.get(&uid.from), index_of.get(&uid.to)) {
            adj[a].push(b);
        }
    }
    // `{a} → b` gives `|b| ≤ |a|`: the edge runs from the determined
    // position to its determinant, as a UID's runs from its smaller side.
    for &(rel, a, b) in unary_fd_edges {
        if let (Some(&x), Some(&y)) = (index_of.get(&(rel, a)), index_of.get(&(rel, b))) {
            adj[y].push(x);
        }
    }

    // Tarjan's SCC algorithm (iterative-friendly sizes here, recursion ok).
    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        comp: Vec<Option<usize>>,
        comp_count: usize,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.counter);
            self.low[v] = self.counter;
            self.counter += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for i in 0..self.adj[v].len() {
                let w = self.adj[v][i];
                if self.index[w].is_none() {
                    self.visit(w);
                    self.low[v] = self.low[v].min(self.low[w]);
                } else if self.on_stack[w] {
                    self.low[v] = self.low[v].min(self.index[w].unwrap());
                }
            }
            if Some(self.low[v]) == self.index[v] {
                loop {
                    let w = self.stack.pop().unwrap();
                    self.on_stack[w] = false;
                    self.comp[w] = Some(self.comp_count);
                    if w == v {
                        break;
                    }
                }
                self.comp_count += 1;
            }
        }
    }
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        comp: vec![None; n],
        comp_count: 0,
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| (node, t.comp[i].unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> (Signature, RelationId, RelationId) {
        let mut s = Signature::new();
        let r = s.add_relation("R", 3).unwrap();
        let t = s.add_relation("T", 2).unwrap();
        (s, r, t)
    }

    #[test]
    fn fd_closure_basic() {
        let (_s, r, _t) = sig();
        let fds = vec![Fd::new(r, vec![0], 1), Fd::new(r, vec![1], 2)];
        let closure = fd_closure(&fds, r, &BTreeSet::from([0]));
        assert_eq!(closure, BTreeSet::from([0, 1, 2]));
        assert!(implies_fd(&fds, &Fd::new(r, vec![0], 2)));
        assert!(!implies_fd(&fds, &Fd::new(r, vec![2], 0)));
    }

    #[test]
    fn det_by_matches_paper_example() {
        // Example 1.5 / 4.4: Udirectory(id, address, phone) with id -> address.
        let mut s = Signature::new();
        let udir = s.add_relation("Udirectory", 3).unwrap();
        let fds = vec![Fd::new(udir, vec![0], 1)];
        let d = det_by(&fds, udir, &[0]);
        assert_eq!(d, BTreeSet::from([0, 1]));
    }

    #[test]
    fn fd_closure_ignores_other_relations() {
        let (_s, r, t) = sig();
        let fds = vec![Fd::new(t, vec![0], 1)];
        let closure = fd_closure(&fds, r, &BTreeSet::from([0]));
        assert_eq!(closure, BTreeSet::from([0]));
    }

    #[test]
    fn uid_closure_transitivity() {
        let (_s, r, t) = sig();
        let u1 = Uid::new((r, 0), (t, 0));
        let u2 = Uid::new((t, 0), (t, 1));
        let closed = uid_closure(&[u1, u2]);
        assert!(closed.contains(&Uid::new((r, 0), (t, 1))));
        assert!(implies_uid(&[u1, u2], &Uid::new((r, 0), (t, 1))));
        assert!(!implies_uid(&[u1, u2], &Uid::new((t, 1), (r, 0))));
        // Trivial UIDs are always implied.
        assert!(implies_uid(&[], &Uid::new((r, 0), (r, 0))));
    }

    #[test]
    fn uid_tgd_round_trip() {
        let (s, r, t) = sig();
        let uid = Uid::new((r, 1), (t, 0));
        let tgd = uid.to_tgd(&s);
        assert!(tgd.is_uid());
        assert_eq!(Uid::from_tgd(&tgd), Some(uid));
    }

    #[test]
    fn finite_closure_adds_nothing_without_cycles() {
        let (s, r, t) = sig();
        let uids = vec![Uid::new((r, 0), (t, 0))];
        let fds = vec![Fd::new(r, vec![0], 1)];
        let (cu, cf) = finite_closure(&s, &uids, &fds);
        assert_eq!(cu, uids);
        assert_eq!(cf.len(), 1);
    }

    #[test]
    fn finite_closure_reverses_uid_cycle() {
        // R[0] ⊆ R[1] gives |R[0]| ≤ |R[1]| and FD R: 0 -> 1 gives
        // |R[1]| ≤ |R[0]|: on a finite instance the columns hold the same
        // values and 0 -> 1 is a bijection, so both reverses follow.
        let (s, r, t) = sig();
        let uids = vec![Uid::new((r, 0), (r, 1))];
        let fds = vec![Fd::new(r, vec![0], 1)];
        let (cu, cf) = finite_closure(&s, &uids, &fds);
        assert_eq!(cu, vec![Uid::new((r, 0), (r, 1)), Uid::new((r, 1), (r, 0))]);
        assert!(cf.contains(&Fd::new(r, vec![1], 0)));
        assert_eq!(cf.len(), 2);

        // T[0] ⊆ R[0], R[1] ⊆ T[0] and R: 0 -> 1 only give
        // |R[1]| ≤ |T[0]| ≤ |R[0]|, which is no cycle. The finite instance
        // R = {(a, a, _), (b, a, _)}, T = {(a, _)} satisfies them and
        // refutes R[0] ⊆ T[0] and R: 1 -> 0, so only the transitive
        // R[1] ⊆ R[0] is added.
        let uids = vec![Uid::new((t, 0), (r, 0)), Uid::new((r, 1), (t, 0))];
        let (cu, cf) = finite_closure(&s, &uids, &fds);
        let mut expected = uids.clone();
        expected.push(Uid::new((r, 1), (r, 0)));
        expected.sort();
        assert_eq!(cu, expected);
        assert_eq!(cf, fds);
    }

    #[test]
    fn finite_closure_is_idempotent() {
        let (s, r, t) = sig();
        let uids = vec![Uid::new((t, 0), (r, 0)), Uid::new((r, 1), (t, 0))];
        let fds = vec![Fd::new(r, vec![0], 1)];
        let (cu, cf) = finite_closure(&s, &uids, &fds);
        let (cu2, cf2) = finite_closure(&s, &cu, &cf);
        assert_eq!(cu, cu2);
        assert_eq!(cf.len(), cf2.len());
    }
}
