//! Derivation records of a chase run: the proof behind every derived fact.
//!
//! A chase proof of `Q ⊆_Σ Q'` is the sequence of trigger firings that
//! derives a match of `Q'` from the start instance. [`ProofLog`] records,
//! for one run of [`crate::chase_with_proof`], the TGD and the body
//! assignment of every firing, and for every derived fact the firing that
//! first inserted it. Facts of the start instance have no firing. A caller
//! walks a fact's derivation back through [`ProofLog::creator`]: the body
//! atoms of the creating TGD, instantiated with [`Firing::assignment`], are
//! the facts the firing used.
//!
//! Assignments live in one flat arena (no allocation per firing), and the
//! fact → firing map is one `u32` per derived row. Row ids are those of the
//! chased instance, which are stable as long as the FD fixpoint merges no
//! values: after a merge (`ChaseStats::fd_unifications > 0`) rows are
//! rewritten and the log no longer describes the instance.

use rbqa_common::{RelationId, Value};
use rbqa_logic::VarId;

/// One recorded firing: the TGD that fired and the body assignment it
/// fired on, sorted by variable.
#[derive(Debug, Clone, Copy)]
pub struct Firing<'a> {
    /// Index of the TGD in the chased constraint set.
    pub tgd_index: usize,
    /// The trigger's body homomorphism, sorted by variable.
    pub assignment: &'a [(VarId, Value)],
}

/// The derivation log of one chase run (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ProofLog {
    /// Per firing: its TGD index and the end of its assignment in `arena`
    /// (the start is the previous firing's end).
    firings: Vec<(u32, u32)>,
    /// Every firing's assignment, back to back.
    arena: Vec<(VarId, Value)>,
    /// Per relation index, per row: the creating firing plus one; 0 (or a
    /// row past the end) is a fact the run did not derive.
    creators: Vec<Vec<u32>>,
}

impl ProofLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded firings.
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// Whether no firing was recorded.
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// Records a firing and returns its id, to be passed to
    /// [`ProofLog::record`] for each head fact it inserts.
    pub(crate) fn push_firing(&mut self, tgd_index: usize, assignment: &[(VarId, Value)]) -> u32 {
        self.arena.extend_from_slice(assignment);
        let id = u32::try_from(self.firings.len()).expect("firing count fits in u32");
        let end = u32::try_from(self.arena.len()).expect("proof arena fits in u32");
        self.firings.push((
            u32::try_from(tgd_index).expect("TGD index fits in u32"),
            end,
        ));
        id
    }

    /// Records that `firing` inserted row `row` of `relation`.
    pub(crate) fn record(&mut self, relation: RelationId, row: u32, firing: u32) {
        if relation.index() >= self.creators.len() {
            self.creators.resize_with(relation.index() + 1, Vec::new);
        }
        let rows = &mut self.creators[relation.index()];
        let row = row as usize;
        if row >= rows.len() {
            rows.resize(row + 1, 0);
        }
        rows[row] = firing + 1;
    }

    /// The firing that first inserted row `row` of `relation`, or `None`
    /// for a fact of the start instance.
    pub fn creator(&self, relation: RelationId, row: u32) -> Option<Firing<'_>> {
        let id = *self.creators.get(relation.index())?.get(row as usize)?;
        let index = id.checked_sub(1)? as usize;
        let (tgd, end) = self.firings[index];
        let start = match index {
            0 => 0,
            _ => self.firings[index - 1].1 as usize,
        };
        Some(Firing {
            tgd_index: tgd as usize,
            assignment: &self.arena[start..end as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::ValueFactory;

    #[test]
    fn creators_resolve_to_their_firings() {
        let mut vf = ValueFactory::new();
        let (a, b) = (vf.constant("a"), vf.constant("b"));
        let (r, s) = (RelationId::from_index(0), RelationId::from_index(2));
        let mut log = ProofLog::new();
        let first = log.push_firing(3, &[(VarId::from_index(0), a)]);
        log.record(s, 1, first);
        let second = log.push_firing(5, &[(VarId::from_index(0), b), (VarId::from_index(1), a)]);
        log.record(r, 4, second);
        log.record(s, 2, second);

        assert_eq!(log.len(), 2);
        let f = log.creator(s, 1).unwrap();
        assert_eq!(
            (f.tgd_index, f.assignment),
            (3, &[(VarId::from_index(0), a)][..])
        );
        let f = log.creator(r, 4).unwrap();
        assert_eq!(f.tgd_index, 5);
        assert_eq!(f.assignment.len(), 2);
        assert_eq!(log.creator(s, 2).unwrap().tgd_index, 5);
        // Start facts, and rows or relations never recorded, have none.
        assert!(log.creator(s, 0).is_none());
        assert!(log.creator(r, 0).is_none());
        assert!(log.creator(r, 9).is_none());
        assert!(log.creator(RelationId::from_index(7), 0).is_none());
    }
}
