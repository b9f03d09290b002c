//! Untrusted `option` lines never panic the session that serves them.
//!
//! Every `option` directive is parsed from bytes a remote client chose, and
//! `rbqa-net` runs each session on a pool worker with no `catch_unwind`: a
//! panic in a directive (or in the first request after it) kills that
//! worker. Each hostile line below is replayed through
//! [`WireServer::handle_stream`] on a fresh session, followed by a decide
//! and an execute. The line itself must be accepted silently or answered
//! with `PROTOCOL_ERROR`, and both requests after it must answer `ok`.
//!
//! The lines cover the integer edges of the wire's options: a `net.timeout`
//! past the clock's range, retry counts at and past `u32::MAX`, a simulated
//! latency that would overflow the latency accounting, and the retired
//! `exec.adaptive validate` switch.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rbqa::prelude::*;

/// A catalog with data, so `execute` reaches the backend.
const PREAMBLE: &str = "rbqa/1
catalog uni
relation Prof/3
relation Udirectory/3
constraint Prof(i, n, s) -> Udirectory(i, a, p)
method pr Prof in=1
method ud Udirectory in=
fact Prof('7', 'ada', '10000')
fact Prof('8', 'alan', '10000')
fact Udirectory('7', 'mainst', '555')
fact Udirectory('8', 'sidest', '556')
";

const DECIDE: &str = "decide uni Q() :- Udirectory(i, a, p)";
const EXECUTE: &str = "execute uni Q(n) :- Prof(i, n, '10000')";

/// Each hostile line, and whether the session must reject it with
/// `PROTOCOL_ERROR` (otherwise it is accepted, which prints nothing).
const HOSTILE: [(&str, bool); 8] = [
    ("option net.timeout 18446744073709551615", false),
    ("option exec.deadline 18446744073709551615", false),
    ("option exec.retry 4294967295", false),
    ("option exec.retry 4294967296", false),
    ("option exec.retry 18446744073709551615", false),
    ("option exec.backend remote latency=60000000", false),
    (
        "option exec.backend remote latency=18446744073709551615",
        true,
    ),
    ("option exec.adaptive validate", true),
];

#[test]
fn hostile_option_lines_get_structured_responses() {
    let mut failures = Vec::new();
    for (line, rejected) in HOSTILE {
        let stream = format!("{PREAMBLE}{line}\n{DECIDE}\n{EXECUTE}\n");
        let run = catch_unwind(AssertUnwindSafe(|| {
            WireServer::new().handle_stream(&stream)
        }));
        let Ok(mut requests) = run else {
            failures.push(format!("{line}: the session panicked"));
            continue;
        };
        if rejected {
            let out = requests.remove(0);
            if !out.contains("\"code\":\"PROTOCOL_ERROR\"") {
                failures.push(format!("{line}: expected PROTOCOL_ERROR, got {out}"));
            }
        }
        if requests.len() != 2 {
            failures.push(format!("{line}: expected 2 responses, got {requests:?}"));
            continue;
        }
        for out in &requests {
            if !out.contains("\"status\":\"ok\"") {
                failures.push(format!("{line}: expected ok, got {out}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
