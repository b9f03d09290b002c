//! Byte-stable replays of the committed wire fixtures.
//!
//! `fixtures/requests.rbqa` serves the paper's university example end to
//! end (Decide, Synthesize, Execute, a UCQ, an α-renamed cache hit, every
//! backend, a starved call budget and a traced request).
//! `fixtures/chaos/faults.rbqa` drives every resilience feature through
//! deterministic fault injection: all-or-nothing vs degraded unions,
//! retries over transient faults, cross-disjunct circuit breaking, and
//! deadline timeouts that never poison the cache. Because every fault
//! coin is a hash of (seed, access, attempt), both replays are bit-stable
//! across machines once the wall-clock fields are blanked, so any drift
//! in rows, counts, error codes, fault keys, retry counts, trace spans or
//! `failed_disjuncts` blocks is a contract change that must be made
//! deliberately (each corpus header gives its regeneration command).
//!
//! Each corpus is replayed line by line through one fresh
//! [`WireServer`], as `rbqa-serve` replays a file.

use std::path::Path;

use rbqa::api::WireServer;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Blanks the wall-clock fields as the regeneration `sed` does: the
/// numbers of `micros`, `wall_micros`, `total_micros`, `ts` and `dur`
/// become `_`, and so does the whole `phases_micros` object. Everything
/// else — rows, counts, fault keys, simulated latency — is deterministic
/// and kept.
fn blank_timings(line: &str) -> String {
    const PHASES: &str = "\"phases_micros\":{";
    const KEYS: [&str; 6] = [
        "\"micros\":",
        "\"wall_micros\":",
        "\"total_micros\":",
        "\"ts\":",
        "\"dur\":",
        PHASES,
    ];
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some((at, key)) = KEYS
        .iter()
        .filter_map(|key| rest.find(key).map(|at| (at, *key)))
        .min_by_key(|&(at, _)| at)
    {
        let (field, value) = rest.split_at(at + key.len());
        // The length of the value to blank: a run of digits, or the whole
        // `phases_micros` object up to its first `}`.
        let blanked = if key == PHASES {
            value.find('}').map(|end| end + 1)
        } else {
            let digits = value.len() - value.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            (digits > 0).then_some(digits)
        };
        match blanked {
            Some(len) => {
                out.push_str(field.trim_end_matches('{'));
                out.push('_');
                rest = &value[len..];
            }
            None => {
                out.push_str(field);
                rest = value;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Replays the corpus `name` and compares each blanked response with the
/// matching line of `expected`.
fn assert_replays(name: &str, expected: &str) {
    let corpus = read_fixture(name);
    let expected = read_fixture(expected);
    let mut server = WireServer::new();
    let replayed: Vec<String> = corpus
        .lines()
        .filter_map(|line| server.handle_line(line))
        .map(|response| blank_timings(&response))
        .collect();
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        replayed.len(),
        expected.len(),
        "{name}: response count diverges from the expectation"
    );
    for (index, (got, want)) in replayed.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "{name}: response {index} diverges from the expectation (0-based; \
             regenerate per the corpus header if the change is intentional)"
        );
    }
}

#[test]
fn request_fixture_replays_byte_for_byte() {
    assert_replays("requests.rbqa", "requests.expected");
}

#[test]
fn chaos_fault_corpus_replays_byte_for_byte() {
    assert_replays("chaos/faults.rbqa", "chaos/faults.expected");
}

#[test]
fn chaos_fault_corpus_covers_the_resilience_surface() {
    // Keep the corpus honest: if an edit waters it down to the point
    // where a feature is no longer exercised, fail loudly here rather
    // than silently shrinking coverage.
    let expected = read_fixture("chaos/faults.expected");
    for marker in [
        // All-or-nothing union failure with the deterministic fault key.
        "\"code\":\"BACKEND_UNAVAILABLE\"",
        "fault key 0x",
        // Degraded union: surviving rows plus the failed disjunct.
        "\"partial\":true",
        "\"failed_disjuncts\":[",
        // Cross-disjunct circuit breaking.
        "breaker_open",
        // Deadline abort.
        "\"code\":\"REQUEST_TIMEOUT\"",
    ] {
        assert!(
            expected.contains(marker),
            "faults.expected no longer exercises `{marker}`"
        );
    }
    // Retries riding out a transient fault: the request *succeeds*, so
    // the proof is a nonzero retry count, not a fault detail.
    assert!(
        expected
            .split("\"retries\":")
            .skip(1)
            .any(|count| !count.starts_with('0')),
        "faults.expected no longer retries a transient fault"
    );
}

#[test]
fn blanking_touches_only_wall_clock_fields() {
    let line =
        r#"{"simulated_latency_micros":2879,"wall_micros":41,"latency_micros":2879,"micros":525}"#;
    assert_eq!(
        blank_timings(line),
        r#"{"simulated_latency_micros":2879,"wall_micros":_,"latency_micros":2879,"micros":_}"#
    );
    let traced = r#"{"trace":{"total_micros":90,"phases_micros":{"chase":12,"other":3},"spans":[{"name":"decide","ts":0,"dur":77,"rounds":2}]},"micros":null}"#;
    assert_eq!(
        blank_timings(traced),
        r#"{"trace":{"total_micros":_,"phases_micros":_,"spans":[{"name":"decide","ts":_,"dur":_,"rounds":2}]},"micros":null}"#
    );
}
