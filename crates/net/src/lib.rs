//! # rbqa-net
//!
//! The network tier: a concurrent TCP server speaking the `rbqa/1` line
//! protocol over real sockets (ROADMAP item 1). The protocol itself
//! lives in `rbqa-api` ([`rbqa_api::wire`]); this crate owns everything
//! a *deployment* needs around it:
//!
//! * **Listener + worker pool** ([`NetServer`]): a non-blocking accept
//!   loop feeding a bounded hand-off queue drained by a fixed pool of
//!   scoped worker threads. When the queue is full, admission control
//!   refuses the connection with a `SERVER_BUSY` error line instead of
//!   letting latency collapse for everyone already admitted.
//! * **Per-connection sessions**: each connection gets one
//!   [`rbqa_api::WireServer`] session with a private catalog namespace —
//!   directives register once, many requests follow, and identical
//!   streams from independent clients still coalesce in the shared
//!   decision cache (fingerprints hash catalog content, not names).
//! * **Timeouts and reaping**: `option net.timeout` arms a cooperative
//!   per-request deadline (`REQUEST_TIMEOUT`), and connections idle past
//!   [`ServerConfig::idle_timeout`] are reaped.
//! * **Graceful shutdown**: the accept loop stops, workers finish the
//!   request in flight, the batch materializer drains its queue, and
//!   [`NetServer::run`] returns the final [`rbqa_obs::ServerStatsSnapshot`].
//! * **The result split**: sessions are wired to the service's
//!   [`rbqa_service::ExportStore`] and [`rbqa_service::BatchRegistry`],
//!   so over-limit results export to `output_location` files and
//!   `option mode batch` requests materialise in the background behind
//!   poll-able `query_id`s.
//!
//! The `rbqa-serve` binary fronts both this server (`--listen ADDR`) and
//! the offline replay mode; `rbqa-client` drives a listening server from
//! scripts.

pub mod config;
pub mod server;

pub use config::ServerConfig;
pub use server::{NetServer, ServerHandle};
