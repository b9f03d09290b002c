//! A decision whose request deadline has expired stops at the next
//! pipeline stage. The stages that run ahead of the chase (the
//! linearization or AMonDet build, the completeness bound, the chase
//! setup) check the deadline too, so a timed-out decide does not finish
//! the pre-chase work before noticing at its first chase round.

use std::time::Duration;

use rbqa::core::{
    decide_monotone_answerability_union, Answerability, AnswerabilityOptions,
    UnionAnswerabilityResult,
};
use rbqa::logic::UnionOfConjunctiveQueries;
use rbqa::obs::{CounterSnapshot, Tracer};
use rbqa::workloads::scenarios;

/// Decides `disjuncts` copies of the university salary query (IDs only,
/// with a result-bounded directory) under a tracer, with an already
/// expired deadline or none.
fn traced_decide(disjuncts: usize, expired: bool) -> (UnionAnswerabilityResult, CounterSnapshot) {
    let mut scenario = scenarios::university(Some(100));
    let query = scenario.query("Q1_salary_names").unwrap().clone();
    let union = UnionOfConjunctiveQueries::from_disjuncts(vec![query; disjuncts]);
    let _deadline = expired.then(|| rbqa::obs::arm_deadline(Duration::ZERO));
    rbqa::obs::install(Tracer::new());
    let result = decide_monotone_answerability_union(
        &scenario.schema,
        &union,
        &mut scenario.values,
        &AnswerabilityOptions::default(),
    );
    let trace = rbqa::obs::uninstall().expect("the tracer was installed");
    (result, trace.counters)
}

#[test]
fn an_expired_deadline_stops_an_id_decide_before_the_linearization() {
    // One disjunct takes the per-CQ pipeline alone; two add the union
    // rescue, since the salary query is not answerable under the bound
    // (Example 1.3).
    for disjuncts in [1, 2] {
        let (fresh, work) = traced_decide(disjuncts, false);
        assert!(
            fresh.complete,
            "{disjuncts}: the undisturbed decide certifies"
        );
        assert!(
            work.saturation_iters > 0,
            "{disjuncts}: it builds a linearization"
        );
        assert!(work.chase_rounds > 0, "{disjuncts}: and chases");

        let (stopped, work) = traced_decide(disjuncts, true);
        assert_eq!(stopped.answerability, Answerability::Unknown, "{disjuncts}");
        assert!(
            !stopped.complete,
            "{disjuncts}: a stopped decide is uncertified"
        );
        assert_eq!(stopped.total_chase_rounds(), 0, "{disjuncts}");
        assert_eq!(
            work.saturation_iters, 0,
            "{disjuncts}: no linearization built"
        );
        assert_eq!(work.chase_rounds, 0, "{disjuncts}: no chase round run");
        assert!(
            work.deadline_expiries > 0,
            "{disjuncts}: the stop is counted"
        );
        assert!(
            stopped.disjuncts.iter().all(|d| d.plan.is_none()),
            "{disjuncts}: no plan from a stopped decide"
        );
    }
}
