//! The benchmark's one wall clock.
//!
//! Every host-time reading goes through [`Clock`]; none of them reaches
//! the simulator or a report it writes, so the simulated statistics stay
//! deterministic while the benchmark measures how long they took.

use std::time::Instant;

use csim_obs::json::Json;
use csim_prof::chrome::TraceDoc;

#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        // lint: allow(no-wallclock) — the benchmark measures host time from outside the simulation; readings never feed simulated state
        Clock(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Coarse spans of the traced phase, kept in memory and written out as
/// Chrome trace-event JSON (one track per workload) when the run ends.
/// A span's parent is the span of the same track that encloses it.
pub struct Spans {
    origin: Clock,
    list: Vec<Span>,
}

struct Span {
    name: String,
    tid: u64,
    depth: u8,
    start: f64,
    end: f64,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Clock::start(),
            list: Vec::new(),
        }
    }

    /// Seconds since the spans' origin: the start of a span to come.
    pub fn now(&self) -> f64 {
        self.origin.secs()
    }

    /// Closes a span that started at `start` (from [`Spans::now`]) and
    /// returns its duration in seconds. `depth` orders a span before
    /// the spans it encloses when they start on the same microsecond.
    pub fn push(&mut self, name: impl Into<String>, tid: u64, depth: u8, start: f64) -> f64 {
        let end = self.now();
        self.list.push(Span {
            name: name.into(),
            tid,
            depth,
            start,
            end,
        });
        end - start
    }

    /// Times `f` as a span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &str, tid: u64, depth: u8, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now();
        let out = f();
        (out, self.push(name, tid, depth, start))
    }

    pub fn to_json(&self) -> Json {
        let mut order: Vec<&Span> = self.list.iter().collect();
        order.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.depth.cmp(&b.depth)));
        let mut doc = TraceDoc::new();
        for s in order {
            doc.push_span_ms(
                &s.name,
                "oltpbench",
                s.start * 1e3,
                (s.end - s.start) * 1e3,
                s.tid,
            );
        }
        doc.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_as_a_valid_trace() {
        let mut spans = Spans::new();
        let outer = spans.now();
        spans.time("inner", 1, 1, || std::hint::black_box(2 + 2));
        spans.time("other-track", 2, 0, || ());
        spans.push("outer", 1, 0, outer);
        let text = spans.to_json().to_string();
        csim_prof::chrome::validate_trace(&text).unwrap();
        assert!(text.contains("\"name\":\"inner\""), "{text}");
    }
}
