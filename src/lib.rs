//! Umbrella crate for the `rbqa` workspace.
//!
//! Re-exports the public API of all member crates so that examples, tests
//! and downstream users can depend on a single crate. New code should go
//! through the [`prelude`]: the sanctioned entry point is the validating
//! request builder of [`rbqa_api`] (`service.request(catalog)...`), not
//! hand-assembled request structs.

pub use rbqa_access as access;
pub use rbqa_api as api;
pub use rbqa_chase as chase;
pub use rbqa_common as common;
pub use rbqa_containment as containment;
pub use rbqa_core as core;
pub use rbqa_engine as engine;
pub use rbqa_logic as logic;
pub use rbqa_net as net;
pub use rbqa_obs as obs;
pub use rbqa_service as service;
pub use rbqa_workloads as workloads;

/// Everything a service client needs: schema construction, the query DSL,
/// the query service, and the validating request builder with its
/// structured errors.
pub mod prelude {
    pub use rbqa_access::{AccessBackend, AccessError, AccessMethod, Schema};
    pub use rbqa_api::{
        ApiError, ApiErrorCode, RequestBuilder, ServiceApi, WireServer, DISJUNCT_SEPARATOR,
    };
    pub use rbqa_chase::Budget;
    pub use rbqa_common::{Signature, ValueFactory};
    pub use rbqa_core::{Answerability, AnswerabilityOptions};
    pub use rbqa_logic::parser::{parse_cq, parse_fd, parse_tgd};
    pub use rbqa_logic::{ConjunctiveQuery, CqBuilder, UnionOfConjunctiveQueries};
    pub use rbqa_net::{NetServer, ServerConfig, ServerHandle};
    pub use rbqa_service::{
        AnswerRequest, AnswerResponse, BackendSpec, CatalogId, ExecOptions, QueryService,
        RequestMode, ServiceError,
    };
}
