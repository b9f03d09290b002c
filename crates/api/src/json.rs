//! The JSON writer of the wire layer: a re-export of the workspace's one
//! writer, [`rbqa_obs::json`], which sits below this crate so the trace
//! exporters can use it too.

pub use rbqa_obs::json::{json_array, json_escape, json_string, JsonObject};
