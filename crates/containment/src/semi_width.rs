//! Position graphs, width and semi-width of sets of linear dependencies.
//!
//! The *basic position graph* of a set of IDs (or linear TGDs) has one node
//! per relation position and an edge from position `i` of `T` to position
//! `j` of `U` whenever some dependency exports a variable from `i` in its
//! body atom to `j` in its head atom. A set has *semi-width* bounded by `w`
//! when it splits into `Σ1 ∪ Σ2` with `Σ1` of width at most `w` and the
//! position graph of `Σ2` acyclic (paper, Section 5). Semi-width is the
//! measure under which the Johnson–Klug NP bound generalises
//! (Proposition 5.6 / E.8).
//!
//! The semi-width queries compute each dependency's width and edges once;
//! each candidate width is then one Kahn pass over the edges of the wider
//! dependencies, with no dependency cloned and no graph rebuilt.

use rbqa_common::RelationId;
use rbqa_logic::Tgd;

/// A position node `(relation, position)`.
pub type PosNode = (RelationId, usize);

/// Calls `edge` for each position-graph edge of `tgd`: a body position and
/// a head position holding the same variable. Only exported variables
/// occur on both sides.
fn for_each_edge(tgd: &Tgd, mut edge: impl FnMut(PosNode, PosNode)) {
    for body_atom in tgd.body() {
        for (bpos, &term) in body_atom.args().iter().enumerate() {
            if !term.is_var() {
                continue;
            }
            for head_atom in tgd.head() {
                for (hpos, &t) in head_atom.args().iter().enumerate() {
                    if t == term {
                        edge((body_atom.relation(), bpos), (head_atom.relation(), hpos));
                    }
                }
            }
        }
    }
}

/// The basic position graph of a set of linear dependencies: edges from
/// body positions to head positions of exported variables.
pub fn position_graph(tgds: &[Tgd]) -> Vec<(PosNode, PosNode)> {
    let mut edges = Vec::new();
    for tgd in tgds {
        for_each_edge(tgd, |from, to| edges.push((from, to)));
    }
    edges
}

/// Whether the position graph of `tgds` is acyclic.
pub fn position_graph_is_acyclic(tgds: &[Tgd]) -> bool {
    // An edge needs an exported variable, so every edge comes from a
    // dependency of width at least 1.
    WidthGraph::new(tgds).wider_part_is_acyclic(0)
}

/// The maximum number of exported variables over `tgds` (their width).
pub fn max_width(tgds: &[Tgd]) -> usize {
    tgds.iter().map(|t| t.width()).max().unwrap_or(0)
}

/// A decomposition certifying bounded semi-width: indices of the dependencies
/// assigned to the bounded-width part `Σ1` and to the acyclic part `Σ2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiWidthDecomposition {
    /// Indices (into the input slice) of dependencies with width ≤ w.
    pub bounded_part: Vec<usize>,
    /// Indices of the remaining dependencies, whose position graph is
    /// acyclic.
    pub acyclic_part: Vec<usize>,
    /// The width bound used.
    pub width: usize,
}

/// The widths and position-graph edges of a set of dependencies, computed
/// once.
struct WidthGraph {
    /// `widths[i]` is the width of dependency `i`.
    widths: Vec<usize>,
    /// `(width, from, to)`: an edge between dense node indices (`(R, p)`
    /// is `first[R] + p`) and the width of the dependency it comes from.
    edges: Vec<(usize, usize, usize)>,
    nodes: usize,
}

impl WidthGraph {
    fn new(tgds: &[Tgd]) -> WidthGraph {
        // Each relation gets as many nodes as its widest atom has positions.
        let mut arity: Vec<usize> = Vec::new();
        for atom in tgds.iter().flat_map(|t| t.body().iter().chain(t.head())) {
            let r = atom.relation().index();
            if arity.len() <= r {
                arity.resize(r + 1, 0);
            }
            arity[r] = arity[r].max(atom.arity());
        }
        let mut first = Vec::with_capacity(arity.len());
        let mut nodes = 0;
        for a in arity {
            first.push(nodes);
            nodes += a;
        }
        let node = |(r, p): PosNode| first[r.index()] + p;
        let widths: Vec<usize> = tgds.iter().map(|t| t.width()).collect();
        let mut edges = Vec::new();
        for (tgd, &width) in tgds.iter().zip(&widths) {
            for_each_edge(tgd, |from, to| edges.push((width, node(from), node(to))));
        }
        WidthGraph {
            widths,
            edges,
            nodes,
        }
    }

    /// Whether the position graph of the dependencies wider than `w` is
    /// acyclic: Kahn's algorithm over their edges in adjacency-array form.
    fn wider_part_is_acyclic(&self, w: usize) -> bool {
        let n = self.nodes;
        let kept = || self.edges.iter().filter(move |e| e.0 > w);
        let mut indegree = vec![0usize; n];
        // Out-edge counts, then offsets: `v`'s out-edges are
        // `targets[start[v]..start[v + 1]]`.
        let mut start = vec![0usize; n + 1];
        for &(_, a, b) in kept() {
            start[a + 1] += 1;
            indegree[b] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut targets = vec![0usize; start[n]];
        for &(_, a, b) in kept() {
            targets[next[a]] = b;
            next[a] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut removed = 0;
        while let Some(v) = ready.pop() {
            removed += 1;
            for &u in &targets[start[v]..start[v + 1]] {
                indegree[u] -= 1;
                if indegree[u] == 0 {
                    ready.push(u);
                }
            }
        }
        removed == n
    }

    /// The greedy split at width `w`, when the wider part is acyclic.
    fn decomposition(&self, w: usize) -> Option<SemiWidthDecomposition> {
        if !self.wider_part_is_acyclic(w) {
            return None;
        }
        let (acyclic_part, bounded_part) =
            (0..self.widths.len()).partition(|&i| self.widths[i] > w);
        Some(SemiWidthDecomposition {
            bounded_part,
            acyclic_part,
            width: w,
        })
    }
}

/// Attempts to certify that `tgds` have semi-width at most `w`, using the
/// natural greedy decomposition: `Σ1` is every dependency of width ≤ w and
/// `Σ2` is the rest, which must then have an acyclic position graph.
///
/// Returns `None` when the greedy split fails (the set may still have
/// bounded semi-width under a cleverer split; the greedy split is the one
/// used by the paper's constructions, where the wide dependencies are the
/// transfer axioms, which are acyclic by design).
pub fn semi_width_decomposition(tgds: &[Tgd], w: usize) -> Option<SemiWidthDecomposition> {
    WidthGraph::new(tgds).decomposition(w)
}

/// The greedy decomposition at the smallest `w` for which it succeeds. One
/// always does: at the maximal width of `tgds` every dependency is in the
/// bounded part and the acyclic part is empty.
pub fn smallest_semi_width_decomposition(tgds: &[Tgd]) -> SemiWidthDecomposition {
    let graph = WidthGraph::new(tgds);
    let cap = graph.widths.iter().copied().max().unwrap_or(0);
    (0..cap)
        .find_map(|w| graph.decomposition(w))
        .unwrap_or_else(|| SemiWidthDecomposition {
            bounded_part: (0..tgds.len()).collect(),
            acyclic_part: Vec::new(),
            width: cap,
        })
}

/// The smallest `w` for which [`semi_width_decomposition`] succeeds (at most
/// the maximal width of the input).
pub fn semi_width(tgds: &[Tgd]) -> usize {
    smallest_semi_width_decomposition(tgds).width
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;
    use rbqa_logic::constraints::tgd::inclusion_dependency;
    use rbqa_logic::constraints::TgdBuilder;
    use rbqa_logic::Term;

    fn sig() -> (Signature, RelationId, RelationId, RelationId) {
        let mut s = Signature::new();
        let r = s.add_relation("R", 2).unwrap();
        let t = s.add_relation("T", 2).unwrap();
        let u = s.add_relation("U", 3).unwrap();
        (s, r, t, u)
    }

    #[test]
    fn position_graph_edges() {
        let (sig, r, t, _u) = sig();
        let id = inclusion_dependency(&sig, r, &[0, 1], t, &[1, 0]);
        let edges = position_graph(&[id]);
        assert!(edges.contains(&((r, 0), (t, 1))));
        assert!(edges.contains(&((r, 1), (t, 0))));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn acyclic_detection() {
        let (sig, r, t, u) = sig();
        let id1 = inclusion_dependency(&sig, r, &[0], t, &[0]);
        let id2 = inclusion_dependency(&sig, t, &[0], u, &[0]);
        assert!(position_graph_is_acyclic(&[id1.clone(), id2.clone()]));
        let back = inclusion_dependency(&sig, u, &[0], r, &[0]);
        assert!(!position_graph_is_acyclic(&[id1, id2, back]));
    }

    #[test]
    fn width_and_semi_width() {
        let (sig, r, t, u) = sig();
        // Width-1 cyclic UIDs plus one width-2 acyclic ID.
        let uid1 = inclusion_dependency(&sig, r, &[0], t, &[0]);
        let uid2 = inclusion_dependency(&sig, t, &[0], r, &[0]);
        let wide = inclusion_dependency(&sig, r, &[0, 1], u, &[0, 1]);
        let set = vec![uid1, uid2, wide];
        assert_eq!(max_width(&set), 2);
        // Semi-width 1: the width-2 ID goes to the acyclic part.
        let decomposition = semi_width_decomposition(&set, 1).unwrap();
        assert_eq!(decomposition.bounded_part.len(), 2);
        assert_eq!(decomposition.acyclic_part, vec![2]);
        assert_eq!(semi_width(&set), 1);
    }

    #[test]
    fn cyclic_wide_ids_have_no_small_semi_width() {
        let (sig, _r, _t, u) = sig();
        let mut s2 = sig.clone();
        let v = s2.add_relation("V", 3).unwrap();
        let wide1 = inclusion_dependency(&s2, u, &[0, 1], v, &[0, 1]);
        let wide2 = inclusion_dependency(&s2, v, &[0, 1], u, &[0, 1]);
        let set = vec![wide1, wide2];
        assert!(semi_width_decomposition(&set, 1).is_none());
        assert_eq!(semi_width(&set), 2);
    }

    #[test]
    fn empty_set_has_semi_width_zero() {
        assert_eq!(semi_width(&[]), 0);
        assert!(position_graph_is_acyclic(&[]));
    }

    #[test]
    fn shared_constants_draw_no_edges() {
        // R(x, 'c') -> R('c', x): only x travels, so the one edge
        // (R, 0) -> (R, 1) makes no cycle.
        let (_sig, r, _t, _u) = sig();
        let c = Term::Const(rbqa_common::ValueFactory::new().constant("c"));
        let mut b = TgdBuilder::new();
        let x = Term::Var(b.var("x"));
        b.body_atom(r, vec![x, c]);
        b.head_atom(r, vec![c, x]);
        let set = [b.build()];
        assert_eq!(position_graph(&set), vec![((r, 0), (r, 1))]);
        assert!(position_graph_is_acyclic(&set));
        assert_eq!(semi_width(&set), 0);
    }
}
