//! Named experiment suites: one per Table-1 row and one per derived figure.
//!
//! Each suite records which part of the paper it regenerates, which
//! constraint class it exercises, and the parameter sweeps used by the
//! corresponding benchmark target (see DESIGN.md §4 and EXPERIMENTS.md).

use crate::random::{RandomClass, RandomSchemaConfig};

/// A named experiment suite.
#[derive(Debug, Clone)]
pub struct ExperimentSuite {
    /// Experiment id, matching DESIGN.md §4 (e.g. `T1-row-IDs`).
    pub id: &'static str,
    /// The paper artefact being regenerated (table row / claim).
    pub paper_reference: &'static str,
    /// The benchmark or report target that runs it.
    pub bench_target: &'static str,
    /// Workload configurations swept by the experiment (when it is driven by
    /// the random generator; scenario-driven experiments leave this empty).
    pub workloads: Vec<RandomSchemaConfig>,
    /// Result bounds swept by the experiment.
    pub result_bounds: Vec<usize>,
}

/// The experiment suites of the reproduction, in the order of DESIGN.md §4.
pub fn experiment_suites() -> Vec<ExperimentSuite> {
    vec![
        ExperimentSuite {
            id: "T1-row-IDs",
            paper_reference: "Table 1, IDs: existence-check simplifiable, EXPTIME-complete",
            bench_target: "table1_ids",
            workloads: (2..=6)
                .map(|relations| RandomSchemaConfig {
                    relations,
                    dependencies: relations,
                    class: RandomClass::Ids { width: 2 },
                    ..Default::default()
                })
                .collect(),
            result_bounds: vec![1, 10, 100, 1000],
        },
        ExperimentSuite {
            id: "T1-row-BWIDs",
            paper_reference:
                "Table 1, bounded-width IDs: existence-check simplifiable, NP-complete",
            bench_target: "table1_bounded_width_ids",
            workloads: (2..=8)
                .map(|relations| RandomSchemaConfig {
                    relations,
                    dependencies: relations,
                    class: RandomClass::Ids { width: 1 },
                    ..Default::default()
                })
                .collect(),
            result_bounds: vec![1, 100],
        },
        ExperimentSuite {
            id: "T1-row-FDs",
            paper_reference: "Table 1, FDs: FD simplifiable, NP-complete",
            bench_target: "table1_fds",
            workloads: (2..=8)
                .map(|relations| RandomSchemaConfig {
                    relations,
                    dependencies: 2 * relations,
                    class: RandomClass::Fds,
                    ..Default::default()
                })
                .collect(),
            result_bounds: vec![1, 100],
        },
        ExperimentSuite {
            id: "T1-row-UIDFD",
            paper_reference: "Table 1, UIDs + FDs: choice simplifiable, NP-hard / in EXPTIME",
            bench_target: "table1_uids_fds",
            workloads: (2..=6)
                .map(|relations| RandomSchemaConfig {
                    relations,
                    dependencies: 2 * relations,
                    class: RandomClass::UidsAndFds,
                    ..Default::default()
                })
                .collect(),
            result_bounds: vec![1, 100],
        },
        ExperimentSuite {
            id: "T1-row-FGTGD",
            paper_reference:
                "Table 1, frontier-guarded TGDs: choice simplifiable, 2EXPTIME-complete",
            bench_target: "table1_fgtgds",
            workloads: Vec::new(), // scenario-driven (Example 6.1 family)
            result_bounds: vec![1, 5, 50],
        },
        ExperimentSuite {
            id: "T1-row-FO",
            paper_reference: "Table 1, equality-free FO: choice simplifiable, undecidable",
            bench_target: "table1_report",
            workloads: Vec::new(),
            result_bounds: vec![5],
        },
        ExperimentSuite {
            id: "FIG-bound-sweep",
            paper_reference: "Sections 4/6: the value of the result bound never matters",
            bench_target: "fig_result_bound_sweep",
            workloads: vec![RandomSchemaConfig::default()],
            result_bounds: vec![1, 2, 5, 10, 100, 1000, 5000],
        },
        ExperimentSuite {
            id: "FIG-ablation-naive",
            paper_reference: "Example 3.5 vs Section 4: naive cardinality axioms blow up",
            bench_target: "fig_simplification_ablation",
            workloads: vec![RandomSchemaConfig::default()],
            result_bounds: vec![1, 5, 10, 25, 50],
        },
        ExperimentSuite {
            id: "FIG-scaling",
            paper_reference: "Complexity shape: NP for FDs / bounded-width IDs vs EXPTIME for IDs",
            bench_target: "fig_scaling",
            workloads: (2..=10)
                .map(|relations| RandomSchemaConfig {
                    relations,
                    dependencies: relations,
                    class: RandomClass::Ids { width: 1 },
                    ..Default::default()
                })
                .collect(),
            result_bounds: vec![100],
        },
        ExperimentSuite {
            id: "FIG-plan-exec",
            paper_reference: "Section 1 motivation: complete answers from result-bounded services",
            bench_target: "plan_exec_report",
            workloads: Vec::new(), // scenario-driven (university / movies)
            result_bounds: vec![10, 100, 1000],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table_rows_and_figures_have_suites() {
        let suites = experiment_suites();
        let ids: Vec<&str> = suites.iter().map(|s| s.id).collect();
        for expected in [
            "T1-row-IDs",
            "T1-row-BWIDs",
            "T1-row-FDs",
            "T1-row-UIDFD",
            "T1-row-FGTGD",
            "T1-row-FO",
            "FIG-bound-sweep",
            "FIG-ablation-naive",
            "FIG-scaling",
            "FIG-plan-exec",
        ] {
            assert!(ids.contains(&expected), "missing suite {expected}");
        }
    }

    #[test]
    fn suites_reference_paper_and_bench_targets() {
        for suite in experiment_suites() {
            assert!(!suite.paper_reference.is_empty());
            assert!(!suite.bench_target.is_empty());
            assert!(!suite.result_bounds.is_empty());
        }
    }

    #[test]
    fn workload_driven_suites_sweep_growing_sizes() {
        let suites = experiment_suites();
        let ids_suite = suites.iter().find(|s| s.id == "T1-row-IDs").unwrap();
        assert!(ids_suite.workloads.len() >= 3);
        let sizes: Vec<usize> = ids_suite.workloads.iter().map(|w| w.relations).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn suite_configs_generate_valid_workloads() {
        for suite in experiment_suites() {
            for (i, config) in suite.workloads.iter().enumerate().take(2) {
                let workload = config.generate(i as u64);
                assert!(!workload.schema.methods().is_empty());
            }
        }
    }
}
