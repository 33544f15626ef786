//! Chrome trace-event (Perfetto-loadable) export.
//!
//! The [trace-event format] is the lingua franca of timeline viewers:
//! `chrome://tracing` and [ui.perfetto.dev] both open it directly. We
//! emit the JSON-object flavor with complete (`"ph":"X"`) duration
//! events and instant (`"ph":"i"`) markers, microsecond timestamps, one
//! process, and one track (`tid`) per worker thread.
//!
//! Timestamps arrive as wall-clock milliseconds (from [`PhaseProfile`]
//! or the sweep engine's point timings) and are converted with a
//! *monotone* rounding rule — `ts = round(start·1000)`,
//! `end = round((start+dur)·1000)`, `dur = end - ts` — so spans that
//! were sequential in f64 milliseconds can never overlap after integer
//! conversion. [`validate_trace`] checks exactly the invariants a
//! viewer relies on: global timestamp ordering and proper per-track
//! span nesting.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use csim_obs::json::{parse, Json};
use csim_obs::PhaseProfile;

/// One event on the timeline.
#[derive(Clone, Debug, PartialEq)]
struct TraceEvent {
    name: String,
    cat: String,
    /// `'X'` (complete span) or `'i'` (instant).
    ph: char,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

/// A trace-event document under construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDoc {
    events: Vec<TraceEvent>,
}

/// Converts wall-clock milliseconds to microsecond ticks. `round` is
/// monotone, so converting a sequence of non-overlapping millisecond
/// spans endpoint-by-endpoint preserves non-overlap.
fn to_us(ms: f64) -> u64 {
    let v = (ms * 1000.0).round();
    if v.is_finite() && v > 0.0 {
        v as u64
    } else {
        0
    }
}

impl TraceDoc {
    /// An empty document.
    pub fn new() -> TraceDoc {
        TraceDoc::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a complete span given millisecond endpoints. The
    /// duration is derived from the rounded endpoints (never rounded
    /// independently), keeping sequential spans non-overlapping.
    pub fn push_span_ms(&mut self, name: &str, cat: &str, start_ms: f64, dur_ms: f64, tid: u64) {
        let ts_us = to_us(start_ms);
        let end_us = to_us(start_ms + dur_ms.max(0.0));
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us: end_us.saturating_sub(ts_us),
            tid,
        });
    }

    /// Appends an instant marker at `at_ms`.
    pub fn push_instant_ms(&mut self, name: &str, cat: &str, at_ms: f64, tid: u64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us: to_us(at_ms),
            dur_us: 0,
            tid,
        });
    }

    /// Builds the timeline of a single run from its phase profile: one
    /// enclosing span named `label` with each recorded phase laid out
    /// sequentially inside it — the nested shape viewers render as a
    /// two-level flame.
    pub fn from_phases(profile: &PhaseProfile, label: &str) -> TraceDoc {
        let mut doc = TraceDoc::new();
        doc.push_span_ms(label, "run", 0.0, profile.total_millis(), 0);
        let mut at = 0.0;
        for (name, ms) in profile.phases() {
            doc.push_span_ms(name, "phase", at, *ms, 0);
            at += *ms;
        }
        doc
    }

    /// The document as trace-event JSON. Events are sorted by
    /// timestamp (stable, so same-timestamp events keep insertion
    /// order — an enclosing span pushed first stays before the first
    /// phase it contains).
    pub fn to_json(&self) -> Json {
        let mut ordered: Vec<&TraceEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| e.ts_us);
        let events = ordered
            .into_iter()
            .map(|e| {
                let mut obj = Json::obj([
                    ("name", Json::str(&e.name)),
                    ("cat", Json::str(&e.cat)),
                    ("ph", Json::str(e.ph.to_string())),
                    ("ts", Json::UInt(e.ts_us)),
                ]);
                if e.ph == 'X' {
                    obj.push("dur", Json::UInt(e.dur_us));
                }
                obj.push("pid", Json::UInt(1));
                obj.push("tid", Json::UInt(e.tid));
                if e.ph == 'i' {
                    // Instant scope: thread-local marker.
                    obj.push("s", Json::str("t"));
                }
                obj
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

/// Checks that `text` is a well-formed trace-event document satisfying
/// the invariants timeline viewers rely on:
///
/// 1. top level is an object with a `traceEvents` array;
/// 2. every event has `name`/`ph`/`ts`/`pid`/`tid`, and `"X"` events a
///    `dur`;
/// 3. timestamps are globally non-decreasing (the order this module
///    writes);
/// 4. on each `tid`, complete spans nest properly: a span starting
///    inside an open span must end at or before the open span's end.
///
/// # Errors
///
/// A message describing the first violation.
pub fn validate_trace(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut last_ts: u64 = 0;
    // Per-tid stack of open-span end timestamps.
    let mut stacks: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let field_u64 = |key: &str| {
            ev.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: missing or non-integer `{key}`"))
        };
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let ts = field_u64("ts")?;
        field_u64("pid")?;
        let tid = field_u64("tid")?;
        if ts < last_ts {
            return Err(format!("event {i}: timestamp {ts} goes backwards (previous {last_ts})"));
        }
        last_ts = ts;
        match ph {
            "X" => {
                let dur = field_u64("dur")?;
                let end =
                    ts.checked_add(dur).ok_or_else(|| format!("event {i}: ts + dur overflows"))?;
                let stack = stacks.entry(tid).or_default();
                while stack.last().is_some_and(|&open_end| open_end <= ts) {
                    stack.pop();
                }
                if let Some(&open_end) = stack.last() {
                    if end > open_end {
                        return Err(format!(
                            "event {i}: span [{ts}, {end}] on tid {tid} overlaps the \
                             enclosing span ending at {open_end} without nesting"
                        ));
                    }
                }
                stack.push(end);
            }
            "i" => {}
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_profile_becomes_a_nested_valid_trace() {
        let mut profile = PhaseProfile::new();
        profile.push("build", 1.25);
        profile.push("warmup", 10.0);
        profile.push("measure", 30.5);
        let doc = TraceDoc::from_phases(&profile, "csim");
        assert_eq!(doc.len(), 4);
        let s = doc.to_json().to_string();
        csim_obs::json::validate(&s).unwrap();
        validate_trace(&s).unwrap();
        assert!(s.contains("\"displayTimeUnit\":\"ms\""));
        assert!(s.contains("\"name\":\"csim\""));
        assert!(s.contains("\"name\":\"measure\""));
    }

    #[test]
    fn sequential_fractional_spans_never_overlap_after_rounding() {
        let mut doc = TraceDoc::new();
        // Adjacent spans whose f64 endpoints round in the same direction.
        let mut at = 0.0;
        for i in 0..50 {
            let dur = 0.0301 + (i as f64) * 0.0007;
            doc.push_span_ms("p", "seq", at, dur, 3);
            at += dur;
        }
        validate_trace(&doc.to_json().to_string()).unwrap();
    }

    #[test]
    fn overlap_without_nesting_is_rejected() {
        let s = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
            {"name":"b","cat":"t","ph":"X","ts":50,"dur":100,"pid":1,"tid":1}
        ],"displayTimeUnit":"ms"}"#;
        let e = validate_trace(s).unwrap_err();
        assert!(e.contains("overlaps"), "{e}");
    }

    #[test]
    fn nested_and_sequential_spans_are_accepted() {
        let s = r#"{"traceEvents":[
            {"name":"outer","cat":"t","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
            {"name":"in1","cat":"t","ph":"X","ts":0,"dur":40,"pid":1,"tid":1},
            {"name":"in2","cat":"t","ph":"X","ts":40,"dur":60,"pid":1,"tid":1},
            {"name":"mark","cat":"t","ph":"i","ts":70,"pid":1,"tid":2,"s":"t"},
            {"name":"other","cat":"t","ph":"X","ts":120,"dur":10,"pid":1,"tid":2}
        ],"displayTimeUnit":"ms"}"#;
        validate_trace(s).unwrap();
    }

    #[test]
    fn backwards_timestamps_and_missing_fields_are_rejected() {
        let back = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"i","ts":10,"pid":1,"tid":1},
            {"name":"b","cat":"t","ph":"i","ts":5,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_trace(back).unwrap_err().contains("backwards"));
        let no_dur = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"X","ts":0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_trace(no_dur).unwrap_err().contains("dur"));
        assert!(validate_trace("{}").unwrap_err().contains("traceEvents"));
        assert!(validate_trace("not json").is_err());
        let bad_ph = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"Q","ts":0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_trace(bad_ph).unwrap_err().contains("phase"));
    }

    #[test]
    fn instants_carry_thread_scope_and_no_dur() {
        let mut doc = TraceDoc::new();
        doc.push_instant_ms("resumed", "sweep", 2.0, 0);
        let s = doc.to_json().to_string();
        assert!(s.contains("\"s\":\"t\""));
        assert!(!s.contains("\"dur\""));
        assert!(!doc.is_empty());
        validate_trace(&s).unwrap();
    }
}
