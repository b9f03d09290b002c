//! # rbqa-workloads
//!
//! Ready-made schemas, queries and randomised workload generators for the
//! examples, integration tests and benchmarks.
//!
//! * [`scenarios`] — the paper's running examples as ready-to-use schemas:
//!   the university directory of Example 1.1 (with or without result
//!   bounds), the FD variant of Example 1.5, the TGD schema of Example 6.1,
//!   and web-service-flavoured schemas (a biological-entities service and a
//!   movie catalogue) modelled on the motivating ChEBI / IMDb examples;
//! * [`random`] — random schema/query generators per constraint class
//!   (parameterised by number of relations, arity, number of dependencies,
//!   ID width, number of methods and result bounds), used by the report
//!   binaries, the simplification-soundness tests and perfbench's decide
//!   workloads.

pub mod random;
pub mod scenarios;

pub use random::{RandomSchemaConfig, RandomWorkload};
pub use scenarios::Scenario;
