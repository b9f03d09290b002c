//! Trace exporters: a JSON dump (the wire `trace` block) and a
//! Chrome-`trace_event` document loadable in `about:tracing` / Perfetto.

use crate::json::{json_array, json_string, JsonObject};
use crate::tracer::{Phase, SpanRecord, Trace};

fn span_args_json(span: &SpanRecord) -> Option<String> {
    if span.num_args.is_empty() && span.str_args.is_empty() {
        return None;
    }
    let mut obj = JsonObject::new();
    for (k, v) in &span.str_args {
        obj = obj.field_str(k, v);
    }
    for (k, v) in &span.num_args {
        obj = obj.field_u128(k, (*v).into());
    }
    Some(obj.finish())
}

fn phases_json(trace: &Trace) -> String {
    let mut obj = JsonObject::new();
    for phase in Phase::ALL {
        obj = obj.field_u128(phase.name(), trace.phase_micros(phase).into());
    }
    obj.finish()
}

fn counters_json(trace: &Trace) -> String {
    let c = &trace.counters;
    JsonObject::new()
        .field_u128("trigger_firings", c.trigger_firings.into())
        .field_raw(
            "firings_per_tgd",
            &json_array(c.firings_per_tgd.iter().map(|n| n.to_string())),
        )
        .field_u128("chase_rounds", c.chase_rounds.into())
        .field_u128("fd_passes", c.fd_passes.into())
        .field_u128("fd_unifications", c.fd_unifications.into())
        .field_u128("saturation_iters", c.saturation_iters.into())
        .field_u128("posting_probes", c.posting_probes.into())
        .field_u128("backtracks", c.backtracks.into())
        .field_u128("retry_attempts", c.retry_attempts.into())
        .field_u128("retry_backoff_micros", c.retry_backoff_micros.into())
        .field_u128("breaker_opens", c.breaker_opens.into())
        .field_u128("breaker_rejections", c.breaker_rejections.into())
        .field_u128("deadline_expiries", c.deadline_expiries.into())
        .field_u128("adaptive_skips", c.adaptive_skips.into())
        .field_u128("adaptive_short_circuits", c.adaptive_short_circuits.into())
        .finish()
}

/// Renders a finished trace as one JSON object: the per-request `trace`
/// block of the wire protocol (see docs/wire-protocol.md §5.3). Span
/// timestamps are microseconds relative to the trace's start.
pub fn trace_to_json(trace: &Trace) -> String {
    let spans = trace.spans.iter().map(|s| {
        let mut obj = JsonObject::new()
            .field_str("name", s.name)
            .field_u128("ts", (s.start_nanos / 1_000).into())
            .field_u128("dur", (s.dur_nanos / 1_000).into())
            .field_u128("depth", s.depth as u128);
        if let Some(args) = span_args_json(s) {
            obj = obj.field_raw("args", &args);
        }
        obj.finish()
    });
    JsonObject::new()
        .field_u128("total_micros", (trace.total_nanos / 1_000).into())
        .field_bool("balanced", trace.balanced)
        .field_u128("dropped_spans", trace.dropped_spans.into())
        .field_u128("max_depth", trace.max_depth as u128)
        .field_raw("phases_micros", &phases_json(trace))
        .field_raw("counters", &counters_json(trace))
        .field_raw("spans", &json_array(spans.collect::<Vec<_>>()))
        .finish()
}

/// Renders traces as one Chrome-`trace_event` JSON document (the
/// object-with-`traceEvents` form). Each `(label, trace)` pair becomes
/// one synthetic thread: a `thread_name` metadata event plus one
/// complete (`"ph":"X"`) event per span, whose `ts`/`dur` (microsecond)
/// pairs let the viewer reconstruct the nesting. Load the output in
/// `about:tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(traces: &[(String, &Trace)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (tid, (label, trace)) in traces.iter().enumerate() {
        let tid = tid as u128;
        events.push(
            JsonObject::new()
                .field_str("name", "thread_name")
                .field_str("ph", "M")
                .field_u128("pid", 1)
                .field_u128("tid", tid)
                .field_raw("args", &JsonObject::new().field_str("name", label).finish())
                .finish(),
        );
        for span in &trace.spans {
            let mut obj = JsonObject::new()
                .field_str("name", span.name)
                .field_str("cat", "rbqa")
                .field_str("ph", "X")
                .field_u128("ts", (span.start_nanos / 1_000).into())
                .field_u128("dur", (span.dur_nanos / 1_000).max(1).into())
                .field_u128("pid", 1)
                .field_u128("tid", tid);
            if let Some(args) = span_args_json(span) {
                obj = obj.field_raw("args", &args);
            }
            events.push(obj.finish());
        }
    }
    format!(
        "{{{}:{},{}:{}}}",
        json_string("traceEvents"),
        json_array(events),
        json_string("displayTimeUnit"),
        json_string("ms")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{install, phase_span, span, uninstall, Tracer};

    fn sample_trace() -> Trace {
        install(Tracer::new());
        {
            let mut outer = phase_span("chase", Phase::Chase);
            outer.num("rounds", 3);
            let mut inner = span("access");
            inner.str("method", "ud\"quoted");
            inner.num("matched", 12);
        }
        uninstall().unwrap()
    }

    #[test]
    fn json_dump_has_the_contract_fields() {
        let json = trace_to_json(&sample_trace());
        for key in [
            "\"total_micros\"",
            "\"balanced\":true",
            "\"dropped_spans\":0",
            "\"phases_micros\"",
            "\"chase\"",
            "\"counters\"",
            "\"posting_probes\"",
            "\"spans\":[",
            "\"name\":\"access\"",
            "\"method\":\"ud\\\"quoted\"",
            "\"matched\":12",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let trace = sample_trace();
        let doc = chrome_trace(&[("T1-row-FDs/rel10".to_owned(), &trace)]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"M\""), "thread metadata present");
        assert!(doc.contains("\"ph\":\"X\""), "complete events present");
        assert!(doc.contains("\"name\":\"chase\""));
        assert!(doc.contains("\"tid\":0"));
        // Balanced brackets/braces outside strings — the structural check
        // the CI smoke repeats on the emitted file.
        assert!(json_balanced(&doc), "unbalanced JSON: {doc}");
    }

    /// Structural JSON balance check shared with the format tests: every
    /// `{`/`[` outside string literals is closed in order.
    pub(crate) fn json_balanced(doc: &str) -> bool {
        let mut stack = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in doc.chars() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => stack.push('}'),
                '[' => stack.push(']'),
                '}' | ']' => match stack.pop() {
                    Some(open) if open == c => {}
                    _ => return false,
                },
                _ => {}
            }
        }
        stack.is_empty() && !in_str
    }
}
