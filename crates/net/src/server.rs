//! The concurrent TCP server: accept loop, worker pool, sessions.
//!
//! ## Threading model
//!
//! [`NetServer::run`] parks the calling thread in the accept loop and
//! spawns [`ServerConfig::workers`] scoped worker threads. Accepted
//! connections go through admission control into a bounded hand-off
//! queue; each worker claims one connection at a time and runs its whole
//! session to completion. There is no async runtime — the paper's
//! workloads are decision-procedure bound, not connection-count bound,
//! and a fixed pool keeps the concurrency ceiling explicit.
//!
//! ## Session loop
//!
//! Sockets are read with a short timeout so every worker periodically
//! re-checks the shutdown flag and the idle deadline. Bytes accumulate
//! until a `\n` completes a frame; each frame is dispatched to the
//! connection's [`WireServer`] session and the response line is written
//! back immediately. Malformed frames (invalid UTF-8, oversized lines)
//! get structured `PROTOCOL_ERROR` responses — invalid UTF-8 resyncs at
//! the next newline, an oversized line closes the connection because no
//! frame boundary can be trusted inside it.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or the `shutdown` wire verb, when
//! enabled) flips one flag. The accept loop stops admitting, workers
//! finish the frame in flight, flush, and close; the batch materializer
//! drains everything already enqueued; then `run` returns the final
//! stats snapshot.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rbqa_api::{error_to_json, ApiError, ApiErrorCode, WireServer};
use rbqa_obs::{ServerStats, ServerStatsSnapshot};
use rbqa_service::{BatchRegistry, ExportStore, QueryService, SnapshotStats};

use crate::config::ServerConfig;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Socket read timeout; bounds how stale a worker's view of the
/// shutdown flag and idle deadline can get.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long a worker waits on the hand-off queue before re-checking the
/// shutdown flag.
const CLAIM_POLL: Duration = Duration::from_millis(100);

/// What a processed frame means for the rest of the connection.
enum FrameOutcome {
    /// Keep reading frames.
    Continue,
    /// Close the connection cleanly (shutdown verb, unrecoverable frame).
    Close,
    /// The peer is gone mid-stream (write failed); count an abort.
    Abort,
}

/// State shared between the accept loop, the workers, and [`ServerHandle`].
struct Shared {
    config: ServerConfig,
    service: Arc<QueryService>,
    batch: Arc<BatchRegistry>,
    exports: Option<Arc<ExportStore>>,
    stats: Arc<ServerStats>,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// Accepted connections waiting for a worker (bounded by
    /// `config.accept_queue`).
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl Shared {
    /// Admission control: queue the connection for a worker, or refuse
    /// it with a single `SERVER_BUSY` line when the queue is full.
    fn admit(&self, mut conn: TcpStream) {
        {
            let mut queue = self.queue.lock().unwrap();
            if queue.len() < self.config.accept_queue {
                queue.push_back(conn);
                self.stats.accept_queue_depth.inc();
                drop(queue);
                self.ready.notify_one();
                return;
            }
        }
        self.stats.accepts_rejected.fetch_add(1, Ordering::Relaxed);
        let busy = error_to_json(&ApiError::new(
            ApiErrorCode::ServerBusy,
            format!(
                "accept queue full ({} waiting); retry later",
                self.config.accept_queue
            ),
        ));
        let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
        let _ = write_line(&mut conn, busy);
        // Dropping the stream closes it.
    }

    /// Worker body: claim connections until shutdown, serving each to
    /// completion.
    fn worker_loop(&self) {
        loop {
            let conn = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(conn) = queue.pop_front() {
                        self.stats.accept_queue_depth.dec();
                        break Some(conn);
                    }
                    if self.shutdown.load(Ordering::Relaxed) {
                        break None;
                    }
                    queue = self.ready.wait_timeout(queue, CLAIM_POLL).unwrap().0;
                }
            };
            let Some(conn) = conn else { return };
            self.serve_connection(conn);
        }
    }

    fn serve_connection(&self, conn: TcpStream) {
        self.stats.connections_total.fetch_add(1, Ordering::Relaxed);
        self.stats.connections_open.inc();
        if !self.session_loop(conn) {
            self.stats
                .aborted_connections
                .fetch_add(1, Ordering::Relaxed);
        }
        self.stats.connections_open.dec();
    }

    /// One full session. Returns `true` for a clean close (EOF, reaped,
    /// shutdown, deliberate protocol close), `false` for an abort.
    fn session_loop(&self, mut conn: TcpStream) -> bool {
        let namespace = format!("conn{}", self.conn_seq.fetch_add(1, Ordering::Relaxed) + 1);
        let mut session = WireServer::with_shared_service(Arc::clone(&self.service))
            .with_namespace(namespace)
            .with_inline_limits(self.config.inline_row_limit, self.config.inline_byte_limit)
            .with_batch(Arc::clone(&self.batch));
        if let Some(exports) = &self.exports {
            session = session.with_exports(Arc::clone(exports));
        }

        let _ = conn.set_nodelay(true);
        if conn.set_read_timeout(Some(READ_POLL)).is_err() {
            return false;
        }
        let mut writer = match conn.try_clone() {
            Ok(clone) => clone,
            Err(_) => return false,
        };

        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut last_activity = Instant::now();
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    // EOF. A trailing unterminated line still counts as a
                    // frame (matches offline replay of files without a
                    // final newline).
                    if !buf.is_empty() {
                        let line = std::mem::take(&mut buf);
                        match self.handle_frame(&mut session, &line, &mut writer) {
                            FrameOutcome::Abort => return false,
                            FrameOutcome::Continue | FrameOutcome::Close => {}
                        }
                    }
                    return true;
                }
                Ok(n) => {
                    last_activity = Instant::now();
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let mut line: Vec<u8> = buf.drain(..=pos).collect();
                        line.pop(); // the '\n'
                        match self.handle_frame(&mut session, &line, &mut writer) {
                            FrameOutcome::Continue => {}
                            FrameOutcome::Close => return true,
                            FrameOutcome::Abort => return false,
                        }
                        if self.shutdown.load(Ordering::Relaxed) {
                            return true;
                        }
                    }
                    if buf.len() > self.config.max_line_bytes {
                        // No newline within the frame budget: the stream
                        // cannot be resynced, so answer once and close.
                        self.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                        let err = error_to_json(&ApiError::new(
                            ApiErrorCode::ProtocolError,
                            format!(
                                "request line exceeds {} bytes; closing connection",
                                self.config.max_line_bytes
                            ),
                        ));
                        let _ = write_line(&mut writer, err);
                        return true;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::Relaxed) {
                        return true;
                    }
                    if last_activity.elapsed() >= self.config.idle_timeout {
                        self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Dispatches one frame and writes the response (if any).
    fn handle_frame(
        &self,
        session: &mut WireServer,
        raw: &[u8],
        writer: &mut TcpStream,
    ) -> FrameOutcome {
        let raw = match raw.last() {
            Some(b'\r') => &raw[..raw.len() - 1],
            _ => raw,
        };
        let line = match std::str::from_utf8(raw) {
            Ok(line) => line,
            Err(_) => {
                // A bad frame is still newline-delimited, so the stream
                // resyncs on the next line.
                self.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let err = error_to_json(&ApiError::new(
                    ApiErrorCode::ProtocolError,
                    "request line is not valid UTF-8",
                ));
                self.stats.record_response(0, true, false);
                return match write_line(writer, err) {
                    Ok(()) => FrameOutcome::Continue,
                    Err(_) => FrameOutcome::Abort,
                };
            }
        };

        // The shutdown verb belongs to the transport, not the protocol
        // session: it stops the whole server, so the listener decides.
        if line.trim() == "shutdown" {
            let started = Instant::now();
            let (response, outcome) = if self.config.allow_remote_shutdown {
                self.shutdown.store(true, Ordering::Relaxed);
                self.ready.notify_all();
                (
                    "{\"v\":1,\"status\":\"ok\",\"shutting_down\":true}".to_string(),
                    FrameOutcome::Close,
                )
            } else {
                (
                    error_to_json(&ApiError::new(
                        ApiErrorCode::ProtocolError,
                        "remote shutdown is not enabled \
                         (start rbqa-serve with --allow-remote-shutdown)",
                    )),
                    FrameOutcome::Continue,
                )
            };
            let error = matches!(outcome, FrameOutcome::Continue);
            self.stats
                .record_response(started.elapsed().as_micros() as u64, error, false);
            return match write_line(writer, response) {
                Ok(()) => outcome,
                Err(_) => FrameOutcome::Abort,
            };
        }

        let started = Instant::now();
        let Some(response) = session.handle_line(line) else {
            return FrameOutcome::Continue; // silent directive
        };
        let error = response.contains("\"status\":\"error\"");
        let timeout = error && response.contains("\"code\":\"REQUEST_TIMEOUT\"");
        self.stats
            .record_response(started.elapsed().as_micros() as u64, error, timeout);
        match write_line(writer, response) {
            Ok(()) => FrameOutcome::Continue,
            Err(_) => FrameOutcome::Abort,
        }
    }
}

/// Writes one response frame. The line and its newline go out in a
/// single write: on a `TCP_NODELAY` socket two writes are two segments,
/// and a client blocked on the line wakes once for each.
fn write_line(writer: &mut TcpStream, line: String) -> std::io::Result<()> {
    let mut frame = line.into_bytes();
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// A bound-but-not-yet-running server. [`NetServer::run`] blocks the
/// caller; [`NetServer::spawn`] runs it on a background thread and
/// returns a [`ServerHandle`].
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    warm_start: Option<SnapshotStats>,
}

impl NetServer {
    /// Binds the listener and wires up the shared state: the batch
    /// materializer and, when configured, the export store, the cache
    /// byte budget, and a warm-loaded cache snapshot. A missing or
    /// damaged snapshot file is a cold start, never a bind failure.
    pub fn bind(config: ServerConfig, service: Arc<QueryService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if config.cache_bytes.is_some() {
            service.set_cache_budget(config.cache_bytes);
        }
        let mut warm_start = None;
        if let Some(path) = &config.cache_snapshot {
            // Snapshots are an optimisation: any failure to read one
            // (absent file, torn write, wrong version) degrades to a
            // cold start instead of refusing to serve.
            warm_start = service.load_snapshot(path).ok();
        }
        let exports = match &config.export_dir {
            Some(dir) => Some(Arc::new(ExportStore::create(dir)?)),
            None => None,
        };
        let batch = Arc::new(BatchRegistry::new(
            Arc::clone(&service),
            config.batch_workers.max(1),
        ));
        let shared = Arc::new(Shared {
            config,
            service,
            batch,
            exports,
            stats: Arc::new(ServerStats::new()),
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        Ok(NetServer {
            listener,
            addr,
            shared,
            warm_start,
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stats of the snapshot warm-loaded at bind time, when
    /// [`ServerConfig::cache_snapshot`] pointed at a readable file.
    pub fn warm_start(&self) -> Option<SnapshotStats> {
        self.warm_start
    }

    /// The shared export store, when one is configured.
    pub fn exports(&self) -> Option<Arc<ExportStore>> {
        self.shared.exports.clone()
    }

    /// Runs the server on the calling thread until shutdown, then
    /// returns the final stats. Workers finish the frame in flight and
    /// the batch materializer drains everything already enqueued before
    /// this returns.
    pub fn run(self) -> std::io::Result<ServerStatsSnapshot> {
        let shared = self.shared;
        let listener = self.listener;
        thread::scope(|scope| {
            for i in 0..shared.config.workers.max(1) {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rbqa-worker-{i}"))
                    .spawn_scoped(scope, move || shared.worker_loop())
                    .expect("spawn worker thread");
            }
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((conn, _peer)) => shared.admit(conn),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Transient accept errors (EMFILE, aborted handshake):
                    // back off instead of dying.
                    Err(_) => thread::sleep(READ_POLL),
                }
            }
            // Wake workers parked on an empty queue so they observe the
            // flag and exit; scope join waits for in-flight sessions.
            shared.ready.notify_all();
        });
        shared.batch.shutdown();
        // Persist the cache after the batch drain: materialised batch
        // decisions are resident by now, so they restart warm too. A
        // failed write only costs the next process its warm start.
        if let Some(path) = &shared.config.cache_snapshot {
            let _ = shared.service.save_snapshot(path);
        }
        Ok(shared.stats.snapshot())
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("rbqa-accept".to_string())
            .spawn(move || self.run())
            .expect("spawn accept thread");
        ServerHandle { addr, shared, join }
    }
}

/// Control handle for a server started with [`NetServer::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: thread::JoinHandle<std::io::Result<ServerStatsSnapshot>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live stats snapshot (the final one is returned by
    /// [`ServerHandle::join`]).
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The service this server fronts (shared with every session).
    pub fn service(&self) -> Arc<QueryService> {
        Arc::clone(&self.shared.service)
    }

    /// Signals shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.ready.notify_all();
    }

    /// Waits for the server to stop and returns its final stats.
    pub fn join(self) -> std::io::Result<ServerStatsSnapshot> {
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> std::io::Result<ServerStatsSnapshot> {
        self.shutdown();
        self.join()
    }
}
