//! End-to-end tests for the TCP server: parity with offline replay,
//! concurrency and cache sharing, batch mode, exports, malformed frames,
//! timeouts, admission control, reaping, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rbqa_api::{WireClient, WireServer};
use rbqa_net::{NetServer, ServerConfig, ServerHandle};
use rbqa_service::QueryService;

// ---- helpers -----------------------------------------------------------

fn fixture() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/requests.rbqa");
    std::fs::read_to_string(&path).expect("read fixtures/requests.rbqa")
}

fn spawn_server(mutate: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        // Tests should never hang for minutes on a bug.
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    mutate(&mut config);
    NetServer::bind(config, Arc::new(QueryService::new()))
        .expect("bind ephemeral port")
        .spawn()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbqa-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Byte offset one past the end of the JSON value starting at `start`
/// (which must point at `{` or `[`), honoring strings and escapes.
fn value_end(s: &str, start: usize) -> usize {
    let bytes = s.as_bytes();
    let (open, close) = match bytes[start] {
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        other => panic!("value_end at non-container byte {other}"),
    };
    let (mut depth, mut in_str, mut escape) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_str {
            if escape {
                escape = false;
            } else if b == b'\\' {
                escape = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        if b == b'"' {
            in_str = true;
        } else if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    panic!("unterminated JSON value in {s}");
}

/// Removes the volatile `"trace":{...}` block (wall-clock timings).
fn strip_trace(line: &str) -> String {
    let Some(pos) = line.find(",\"trace\":{") else {
        return line.to_string();
    };
    let start = pos + ",\"trace\":".len();
    let end = value_end(line, start);
    format!("{}{}", &line[..pos], &line[end..])
}

/// Zeroes the digit run after each occurrence of `key` (e.g. `"micros":`).
fn zero_after(line: &str, key: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(pos) = rest.find(key) {
        let after = pos + key.len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Canonicalizes a response line for byte comparison: drops the trace
/// block and zeroes wall-clock timings. Deterministic fields (rows,
/// plans, codes, simulated latency) are kept verbatim.
fn scrub(line: &str) -> String {
    let line = strip_trace(line);
    let line = zero_after(&line, "\"micros\":");
    zero_after(&line, "\"wall_micros\":")
}

/// Additionally hides `cache_hit`, which depends on arrival order when
/// several clients race.
fn scrub_cache(line: &str) -> String {
    scrub(line)
        .replace("\"cache_hit\":true", "\"cache_hit\":_")
        .replace("\"cache_hit\":false", "\"cache_hit\":_")
}

fn u64_field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let pos = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no `{key}` in {line}"));
    let digits: String = line[pos + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

fn str_field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let pos = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no `{key}` in {line}"));
    let rest = &line[pos + pat.len()..];
    rest[..rest.find('"').expect("unterminated string field")].to_string()
}

/// The `"rows":[...]` slice of a response, brackets included.
fn rows_field(line: &str) -> &str {
    let pos = line
        .find("\"rows\":[")
        .unwrap_or_else(|| panic!("no rows in {line}"));
    let start = pos + "\"rows\":".len();
    &line[start..value_end(line, start)]
}

/// The university catalog with data (fixture's `uni-open`), as directives
/// for an interactive session.
const SETUP: &[&str] = &[
    "rbqa/1",
    "catalog uni-open",
    "relation Prof/3",
    "relation Udirectory/3",
    "constraint Prof(i, n, s) -> Udirectory(i, a, p)",
    "method pr Prof in=1",
    "method ud Udirectory in=",
    "fact Prof('7', 'ada', '10000')",
    "fact Prof('8', 'alan', '20000')",
    "fact Udirectory('7', 'mainst', '555-0100')",
    "fact Udirectory('8', 'sidest', '555-0199')",
];

fn setup_session(client: &mut WireClient) {
    for line in SETUP {
        client.send_line(line).expect("setup write");
    }
    let pending = client.sync().expect("setup sync");
    assert!(pending.is_empty(), "setup directives failed: {pending:?}");
}

// ---- parity ------------------------------------------------------------

#[test]
fn tcp_replay_matches_offline_replay_byte_for_byte() {
    let doc = fixture();
    let offline: Vec<String> = WireServer::new()
        .handle_stream(&doc)
        .iter()
        .map(|l| scrub(l))
        .collect();
    assert!(!offline.is_empty());

    let server = spawn_server(|_| {});
    let client = WireClient::connect(server.addr()).expect("connect");
    let over_tcp: Vec<String> = client
        .replay(&doc)
        .expect("tcp replay")
        .iter()
        .map(|l| scrub(l))
        .collect();

    assert_eq!(
        over_tcp, offline,
        "TCP responses diverge from offline replay"
    );
    // The fixture deliberately includes exactly one failing request (the
    // starved call budget).
    let errors = over_tcp
        .iter()
        .filter(|l| l.contains("\"status\":\"error\""))
        .count();
    assert_eq!(errors, 1);

    let stats = server.shutdown_and_join().expect("server stops cleanly");
    assert_eq!(stats.connections_total, 1);
    assert_eq!(stats.requests_total as usize, offline.len());
    assert_eq!(stats.error_responses, 1);
    assert_eq!(stats.connections_open, 0);
    assert_eq!(stats.aborted_connections, 0);
}

#[test]
fn concurrent_clients_get_identical_answers_and_share_the_decision_cache() {
    let doc = fixture();
    let mut offline_server = WireServer::new();
    let offline: Vec<String> = offline_server
        .handle_stream(&doc)
        .iter()
        .map(|l| scrub_cache(l))
        .collect();
    let offline_decisions = offline_server.service().metrics().decisions_computed;

    let server = spawn_server(|_| {});
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let doc = doc.clone();
            std::thread::spawn(move || {
                WireClient::connect(addr)
                    .expect("connect")
                    .replay(&doc)
                    .expect("replay")
            })
        })
        .collect();
    for client in clients {
        let responses: Vec<String> = client
            .join()
            .expect("client thread")
            .iter()
            .map(|l| scrub_cache(l))
            .collect();
        assert_eq!(
            responses, offline,
            "a concurrent client saw different answers"
        );
    }

    // Catalogs live in per-connection namespaces but fingerprints hash
    // content, so four identical replays coalesce onto one set of
    // decisions.
    let decisions = server.service().metrics().decisions_computed;
    assert_eq!(
        decisions, offline_decisions,
        "concurrent sessions failed to share the decision cache"
    );

    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.connections_total, 4);
    assert_eq!(stats.requests_total as usize, 4 * offline.len());
    assert_eq!(stats.error_responses, 4);
    assert_eq!(stats.aborted_connections, 0);
}

// ---- batch mode --------------------------------------------------------

#[test]
fn batch_requests_poll_to_done_over_tcp() {
    let server = spawn_server(|_| {});
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);

    let query = "execute uni-open Q(n) :- Prof(i, n, '10000')";
    let reference = client.request(query).expect("interactive reference");
    assert!(reference.contains("\"status\":\"ok\""), "{reference}");

    client.send_line("option mode batch").expect("option");
    let ack = client.request(query).expect("batch ack");
    assert!(ack.contains("\"state\":\"queued\""), "{ack}");
    let id = u64_field(&ack, "query_id");

    let done = client
        .poll_until_finished(id, Duration::from_secs(10))
        .expect("poll to completion");
    assert!(done.contains("\"state\":\"done\""), "{done}");

    let fetched = client.request(&format!("fetch {id}")).expect("fetch");
    assert!(fetched.contains("\"state\":\"done\""), "{fetched}");
    assert_eq!(u64_field(&fetched, "query_id"), id);
    assert_eq!(
        rows_field(&fetched),
        rows_field(&reference),
        "batch rows diverge from the interactive answer"
    );

    server.shutdown_and_join().expect("clean stop");
}

// ---- exports -----------------------------------------------------------

#[test]
fn over_limit_results_export_to_an_output_location() {
    let dir = temp_dir("exports");
    let server = spawn_server(|c| {
        c.export_dir = Some(dir.clone());
        c.inline_row_limit = Some(1);
    });
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);

    // Two rows > inline_row_limit: the body must move to a file.
    let big = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000') || Q(n) :- Prof(i, n, '20000')")
        .expect("big execute");
    assert!(big.contains("\"status\":\"ok\""), "{big}");
    assert!(
        !big.contains("\"rows\":["),
        "rows should not be inline: {big}"
    );
    assert_eq!(u64_field(&big, "row_count"), 2);
    let location = str_field(&big, "output_location");
    let exported = std::fs::read_to_string(&location).expect("read export file");
    assert!(exported.contains("\"kind\":\"export\""), "{exported}");
    assert!(
        exported.contains("ada") && exported.contains("alan"),
        "{exported}"
    );

    // One row fits: stays inline, no second export file.
    let small = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("small execute");
    assert!(small.contains("\"rows\":[[\"ada\"]]"), "{small}");
    assert!(!small.contains("output_location"), "{small}");

    server.shutdown_and_join().expect("clean stop");
    let files = std::fs::read_dir(&dir).expect("export dir").count();
    assert_eq!(files, 1, "exactly one export expected");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- malformed frames and disconnects ----------------------------------

#[test]
fn invalid_utf8_resyncs_and_oversized_lines_close_the_connection() {
    let server = spawn_server(|c| c.max_line_bytes = 256);

    // Invalid UTF-8: one structured error, then the stream recovers.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"rbqa/1\n").expect("write header");
    raw.write_all(b"\xff\xfe garbage \xff\n")
        .expect("write garbage");
    raw.write_all(b"ping\n").expect("write ping");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(line.contains("\"code\":\"PROTOCOL_ERROR\""), "{line}");
    assert!(line.contains("UTF-8"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("pong line");
    assert!(line.contains("\"pong\":true"), "resync failed: {line}");

    // An unbounded line: one error, then the server hangs up.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&[b'a'; 4096]).expect("write oversized");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(line.contains("\"code\":\"PROTOCOL_ERROR\""), "{line}");
    assert!(line.contains("exceeds 256 bytes"), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("eof"),
        0,
        "expected close"
    );

    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.malformed_frames, 2);
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let server = spawn_server(|_| {});

    // Half a request line, then vanish without reading the response.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(b"rbqa/1\nexecute nowhere Q(x) :- ")
            .expect("write");
    } // dropped: RST or EOF mid-request

    // The pool must still serve fresh connections.
    let mut client = WireClient::connect(server.addr()).expect("connect after abort");
    setup_session(&mut client);
    let response = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("request after abort");
    assert!(response.contains("\"rows\":[[\"ada\"]]"), "{response}");
    drop(client);

    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.connections_open, 0, "{stats:?}");
}

// ---- timeouts ----------------------------------------------------------

#[test]
fn net_timeout_fires_over_tcp_and_disarms() {
    let server = spawn_server(|_| {});
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);

    client.send_line("option net.timeout 0").expect("option");
    let timed_out = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("request");
    assert!(
        timed_out.contains("\"code\":\"REQUEST_TIMEOUT\""),
        "{timed_out}"
    );

    client.send_line("option net.timeout none").expect("option");
    let ok = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("request");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    // The timed-out attempt was aborted in flight and cached nothing:
    // the slot was vacated (never poisoned), so this recomputed…
    assert!(ok.contains("\"cache_hit\":false"), "{ok}");
    // …and the next ask is the warm hit.
    let warm = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("request");
    assert!(warm.contains("\"cache_hit\":true"), "{warm}");

    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.request_timeouts, 1);
}

// ---- idle reaping ------------------------------------------------------

#[test]
fn idle_connections_are_reaped() {
    let server = spawn_server(|c| c.idle_timeout = Duration::from_millis(200));
    let mut client = WireClient::connect(server.addr()).expect("connect");
    client.send_line("rbqa/1").expect("version header");
    let pending = client.sync().expect("ping works while fresh");
    assert!(pending.is_empty());

    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(
        client.read_line().expect("reaped connection reads EOF"),
        None,
        "idle connection was not closed"
    );

    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.idle_reaped, 1);
    assert_eq!(stats.connections_open, 0);
}

// ---- admission control -------------------------------------------------

#[test]
fn admission_control_refuses_with_server_busy_when_saturated() {
    let server = spawn_server(|c| {
        c.workers = 1;
        c.accept_queue = 1;
    });

    // Occupy the single worker, then fill the one queue slot.
    let held = WireClient::connect(server.addr()).expect("connect #1");
    std::thread::sleep(Duration::from_millis(200)); // worker claims #1
    let _queued = TcpStream::connect(server.addr()).expect("connect #2");
    std::thread::sleep(Duration::from_millis(200)); // #2 sits in the queue

    let mut refused = TcpStream::connect(server.addr()).expect("connect #3");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut line = String::new();
    BufReader::new(&mut refused)
        .read_line(&mut line)
        .expect("busy line");
    assert!(line.contains("\"code\":\"SERVER_BUSY\""), "{line}");

    drop(held);
    let stats = server.shutdown_and_join().expect("clean stop");
    assert_eq!(stats.accepts_rejected, 1);
}

// ---- shutdown ----------------------------------------------------------

#[test]
fn remote_shutdown_verb_stops_the_server_when_enabled() {
    // Disabled by default: the verb is refused.
    let server = spawn_server(|_| {});
    let mut client = WireClient::connect(server.addr()).expect("connect");
    let refused = client.request("shutdown").expect("refusal");
    assert!(refused.contains("\"code\":\"PROTOCOL_ERROR\""), "{refused}");
    assert!(refused.contains("--allow-remote-shutdown"), "{refused}");
    drop(client);
    server.shutdown_and_join().expect("clean stop");

    // Enabled: the verb acknowledges, drains, and run() returns.
    let server = spawn_server(|c| c.allow_remote_shutdown = true);
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);
    let answer = client
        .request("execute uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("request");
    assert!(answer.contains("\"status\":\"ok\""), "{answer}");
    let bye = client.request("shutdown").expect("shutdown ack");
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");

    let stats = server.join().expect("run() returned after the verb");
    assert!(stats.requests_total >= 3, "{stats:?}");
    assert_eq!(stats.connections_open, 0);
}

// ---- streaming reads (socket-level framing) ----------------------------

#[test]
fn frames_split_across_tcp_segments_reassemble() {
    let server = spawn_server(|_| {});
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    // Dribble a ping one byte at a time; the session must buffer until
    // the newline completes the frame.
    for &b in b"rbqa/1\npi" {
        raw.write_all(&[b]).expect("write byte");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
    }
    raw.write_all(b"ng\n").expect("write tail");
    let mut line = String::new();
    let mut reader = BufReader::new(raw);
    reader.read_line(&mut line).expect("pong");
    assert!(line.contains("\"pong\":true"), "{line}");
    drop(reader);
    server.shutdown_and_join().expect("clean stop");
}

#[test]
fn each_response_line_arrives_in_one_read() {
    // A response and its newline leave the server in one write, so a
    // client blocked in `read` wakes once per response and gets all of
    // it; a newline written apart arrives as a segment of its own.
    let server = spawn_server(|_| {});
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw.write_all(b"rbqa/1\n").expect("write header");
    let mut buf = [0u8; 256];
    for _ in 0..1000 {
        raw.write_all(b"ping\n").expect("write ping");
        let n = raw.read(&mut buf).expect("read");
        let got = std::str::from_utf8(&buf[..n]).expect("utf-8");
        assert!(
            got.ends_with('\n') && got.contains("\"pong\":true"),
            "one read returned {got:?}"
        );
    }
    drop(raw);
    server.shutdown_and_join().expect("clean stop");
}

// ---- cache discipline --------------------------------------------------

#[test]
fn warm_restart_from_snapshot_serves_identical_answers_without_recomputing() {
    let snap =
        std::env::temp_dir().join(format!("rbqa-net-warm-restart-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let queries = [
        "decide uni-open Q(n) :- Prof(i, n, '10000')",
        "decide uni-open Q() :- Udirectory(i, a, p)",
        "execute uni-open Q(n) :- Prof(i, n, '20000')",
    ];

    // Cold process: compute everything, shut down gracefully.
    let server = spawn_server(|c| c.cache_snapshot = Some(snap.clone()));
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);
    let cold: Vec<String> = queries
        .iter()
        .map(|q| client.request(q).expect("cold request"))
        .collect();
    assert!(cold[0].contains("\"cache_hit\":false"), "{}", cold[0]);
    drop(client);
    server.shutdown_and_join().expect("cold shutdown");
    assert!(snap.exists(), "graceful shutdown must write the snapshot");

    // Warm process: a brand-new service restarted from the snapshot.
    let server = spawn_server(|c| c.cache_snapshot = Some(snap.clone()));
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);
    for (query, cold_line) in queries.iter().zip(&cold) {
        let line = client.request(query).expect("warm request");
        assert!(
            line.contains("\"cache_hit\":true"),
            "warm replay of `{query}` must hit: {line}"
        );
        // Identical decisions (and rows) to the cold run, modulo the
        // cache_hit flag and wall-clock noise.
        assert_eq!(scrub_cache(&line), scrub_cache(cold_line), "`{query}`");
    }
    let stats = client.request("stats").expect("stats");
    assert_eq!(
        u64_field(&stats, "decisions_computed"),
        0,
        "warm restart must not re-run the decision pipeline: {stats}"
    );
    assert_eq!(u64_field(&stats, "warm_hits") as usize, queries.len());
    drop(client);
    server.shutdown_and_join().expect("warm shutdown");

    // A corrupted snapshot is a cold start, not a bind failure.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    for b in bytes.iter_mut() {
        *b ^= 0xA5;
    }
    std::fs::write(&snap, &bytes).expect("corrupt snapshot");
    let server = spawn_server(|c| c.cache_snapshot = Some(snap.clone()));
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);
    let line = client.request(queries[0]).expect("cold request");
    assert!(line.contains("\"cache_hit\":false"), "{line}");
    drop(client);
    server.shutdown_and_join().expect("recovered shutdown");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn cache_budget_over_tcp_bounds_occupancy_and_reports_evictions() {
    let server = spawn_server(|c| c.cache_bytes = Some(1));
    let mut client = WireClient::connect(server.addr()).expect("connect");
    setup_session(&mut client);
    // A 1-byte budget fits nothing: every decision is served but refused
    // residency, and occupancy stays pinned at zero.
    for _ in 0..2 {
        let line = client
            .request("decide uni-open Q(n) :- Prof(i, n, '10000')")
            .expect("decide");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }
    let stats = client.request("stats").expect("stats");
    assert_eq!(u64_field(&stats, "budget_bytes"), 1);
    assert_eq!(u64_field(&stats, "occupancy_bytes"), 0);
    assert!(u64_field(&stats, "uncacheable") >= 1, "{stats}");

    // Re-pointing the budget over the wire takes effect service-wide.
    assert!(client.send_line("option cache.bytes 1048576").is_ok());
    let line = client
        .request("decide uni-open Q(n) :- Prof(i, n, '10000')")
        .expect("decide");
    assert!(line.contains("\"status\":\"ok\""), "{line}");
    let stats = client.request("stats").expect("stats");
    assert_eq!(u64_field(&stats, "budget_bytes"), 1048576);
    assert!(u64_field(&stats, "occupancy_bytes") > 0, "{stats}");
    drop(client);
    server.shutdown_and_join().expect("clean stop");
}
