//! Re-export of the adaptive entry point of `rbqa-access`. Its one user is
//! the benchmark package (`perfbench/`), which depends on this crate by
//! path; everything else imports from `rbqa_access::plan` directly.

pub use rbqa_access::plan::{execute_plan_adaptive, AdaptiveWindow};
