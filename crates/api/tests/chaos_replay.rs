//! Byte-stable replay of the chaos fault corpus.
//!
//! `fixtures/chaos/faults.rbqa` drives every resilience feature through
//! deterministic fault injection: all-or-nothing vs degraded unions,
//! retries over transient faults, cross-disjunct circuit breaking, and
//! deadline timeouts that never poison the cache. Because every fault
//! coin is a hash of (seed, access, attempt), the recorded responses in
//! `fixtures/chaos/faults.expected` are bit-stable across machines once
//! the wall-clock fields (`micros`, `wall_micros`) are blanked — so this
//! test can assert byte equality, and any drift in error codes, fault
//! keys, retry counts or `failed_disjuncts` blocks is a contract change
//! that must be made deliberately (see the corpus header for the
//! regeneration command).

use std::path::{Path, PathBuf};

use rbqa_api::WireServer;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/chaos")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Blanks the values of the volatile wall-clock fields (`"micros":N` and
/// `"wall_micros":N`) to `_`, matching the normalization the corpus
/// header prescribes for `faults.expected`. Everything else — fault
/// keys, retry counts, simulated latency — is deterministic and kept.
fn scrub_volatile(line: &str) -> String {
    const KEYS: [&str; 2] = ["\"wall_micros\":", "\"micros\":"];
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = KEYS
            .iter()
            .filter_map(|key| rest.find(key).map(|at| (at, *key)))
            .min_by_key(|&(at, _)| at);
        let Some((at, key)) = next else {
            out.push_str(rest);
            return out;
        };
        let value_start = at + key.len();
        out.push_str(&rest[..value_start]);
        out.push('_');
        rest = rest[value_start..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
}

#[test]
fn chaos_fault_corpus_replays_byte_for_byte() {
    let corpus = read_fixture("faults.rbqa");
    let expected = read_fixture("faults.expected");
    let replayed: Vec<String> = WireServer::new()
        .handle_stream(&corpus)
        .iter()
        .map(|line| scrub_volatile(line))
        .collect();
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(
        replayed.len(),
        expected.len(),
        "response count diverges from faults.expected"
    );
    for (index, (got, want)) in replayed.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "response {index} diverges from faults.expected (0-based; \
             regenerate per the corpus header if the change is intentional)"
        );
    }
}

#[test]
fn chaos_fault_corpus_covers_the_resilience_surface() {
    // Keep the corpus honest: if an edit waters it down to the point
    // where a feature is no longer exercised, fail loudly here rather
    // than silently shrinking coverage.
    let expected = read_fixture("faults.expected");
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
fn scrub_blanks_only_wall_clock_fields() {
    let line =
        r#"{"simulated_latency_micros":2879,"wall_micros":41,"latency_micros":2879,"micros":525}"#;
    assert_eq!(
        scrub_volatile(line),
        r#"{"simulated_latency_micros":2879,"wall_micros":_,"latency_micros":2879,"micros":_}"#
    );
}
