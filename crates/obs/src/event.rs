//! Structured event tracing: a bounded ring of typed simulation events.
//!
//! Events are recorded into a fixed-capacity ring buffer — when it
//! fills, the oldest events are overwritten and counted as dropped, so
//! tracing can stay on for arbitrarily long runs with bounded memory.
//! Per-class and per-node filters are applied at record time, so a
//! filtered trace keeps a full ring's worth of the events that matter.

use crate::class::MissClass;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A reference was serviced beyond the L1s (an L2 hit or an L2
    /// miss) and the core was charged `latency` cycles.
    Miss {
        /// Which latency class serviced it.
        class: MissClass,
        /// The (possibly fault-inflated) cycles charged.
        latency: u64,
    },
    /// The directory NACKed transaction attempts (`count` refusals).
    Nack {
        /// NACKs delivered for this transaction.
        count: u32,
    },
    /// The requester retried after NACKs (`count` attempts).
    Retry {
        /// Retry attempts for this transaction.
        count: u32,
    },
    /// The retry budget ran out and the livelock watchdog forced the
    /// transaction through.
    Watchdog,
    /// A dirty line was written back to its home (directory state
    /// transition M -> Uncached at the home).
    Writeback,
    /// A remote read downgraded a dirty owner (M -> S).
    Downgrade,
    /// A write invalidated `targets` remote sharers (S -> M).
    Invalidation {
        /// Number of sharer nodes invalidated.
        targets: u32,
    },
}

impl EventKind {
    /// The stable machine-readable kind name used in JSONL.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Miss { .. } => "miss",
            EventKind::Nack { .. } => "nack",
            EventKind::Retry { .. } => "retry",
            EventKind::Watchdog => "watchdog",
            EventKind::Writeback => "writeback",
            EventKind::Downgrade => "downgrade",
            EventKind::Invalidation { .. } => "invalidation",
        }
    }

    /// The latency class this event belongs to, for class filtering.
    /// NACK/retry/watchdog events belong to [`MissClass::NackRetry`];
    /// protocol housekeeping (writeback/downgrade/invalidation) carries
    /// no class.
    pub fn class(&self) -> Option<MissClass> {
        match self {
            EventKind::Miss { class, .. } => Some(*class),
            EventKind::Nack { .. } | EventKind::Retry { .. } | EventKind::Watchdog => {
                Some(MissClass::NackRetry)
            }
            EventKind::Writeback | EventKind::Downgrade | EventKind::Invalidation { .. } => None,
        }
    }
}

/// One simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical time: rounds (one reference per core each) since the last
    /// stats reset.
    pub at: u64,
    /// Node (chip) the event happened at or was requested by.
    pub node: u16,
    /// Core within the node (0 for node-level events).
    pub core: u16,
    /// Cache-line address the event concerns.
    pub line: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serializes the event as one compact JSON object (no trailing
    /// newline) — one line of the JSONL export.
    pub(crate) fn to_json_line(self) -> String {
        let mut s = format!(
            "{{\"at\":{},\"node\":{},\"core\":{},\"line\":{},\"kind\":\"{}\"",
            self.at,
            self.node,
            self.core,
            self.line,
            self.kind.as_str()
        );
        if let Some(class) = self.kind.class() {
            s.push_str(&format!(",\"class\":\"{class}\""));
        }
        match self.kind {
            EventKind::Miss { latency, .. } => s.push_str(&format!(",\"latency\":{latency}")),
            EventKind::Nack { count } | EventKind::Retry { count } => {
                s.push_str(&format!(",\"count\":{count}"));
            }
            EventKind::Invalidation { targets } => {
                s.push_str(&format!(",\"targets\":{targets}"));
            }
            EventKind::Watchdog | EventKind::Writeback | EventKind::Downgrade => {}
        }
        s.push('}');
        s
    }
}

/// Record-time filter: `None` means "keep everything".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep only events of these classes. Class-less housekeeping
    /// events (writeback/downgrade/invalidation) are dropped when a
    /// class filter is set.
    pub classes: Option<Vec<MissClass>>,
    /// Keep only events at these nodes.
    pub nodes: Option<Vec<u16>>,
}

impl TraceFilter {
    /// Whether `event` passes the filter.
    pub(crate) fn keeps(&self, event: &Event) -> bool {
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&event.node) {
                return false;
            }
        }
        if let Some(classes) = &self.classes {
            match event.kind.class() {
                Some(c) => classes.contains(&c),
                None => false,
            }
        } else {
            true
        }
    }

    /// Parses the CLI `CLASS[,CLASS]` syntax into a class filter.
    ///
    /// # Errors
    ///
    /// The first unknown class name.
    pub fn parse_classes(spec: &str) -> Result<TraceFilter, String> {
        let classes = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(MissClass::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if classes.is_empty() {
            return Err(format!("empty trace filter '{spec}'"));
        }
        Ok(TraceFilter { classes: Some(classes), nodes: None })
    }
}

/// Bounded ring buffer of [`Event`]s.
#[derive(Clone, Debug)]
pub struct EventRing {
    capacity: usize,
    filter: TraceFilter,
    buf: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events that passed the filter but displaced an older event.
    dropped: u64,
}

impl EventRing {
    /// Default ring capacity (events), chosen so a full ring is a few
    /// megabytes and a JSONL export stays shippable.
    pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

    /// A ring holding at most `capacity` events (clamped to >= 1),
    /// keeping only events that pass `filter`.
    pub fn new(capacity: usize, filter: TraceFilter) -> Self {
        EventRing {
            capacity: capacity.max(1),
            filter,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event (O(1)); the oldest event is displaced when the
    /// ring is full.
    pub fn push(&mut self, event: Event) {
        if !self.filter.keeps(&event) {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            // analyze: total — the displacing branch only runs once the ring is full, when head has been reduced modulo capacity == buf.len()
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        // analyze: total — head is 0 until the ring fills and afterwards stays reduced modulo capacity == buf.len(), and a start-bound slice at len is empty rather than out of range
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events displaced because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole ring as JSONL (one event object per line, oldest
    /// first, trailing newline after the last line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Clears all events (stats-reset semantics; capacity and filter
    /// are kept).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(at: u64, node: u16, class: MissClass) -> Event {
        Event { at, node, core: 0, line: 0x40, kind: EventKind::Miss { class, latency: 100 } }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut r = EventRing::new(3, TraceFilter::default());
        for at in 0..5 {
            r.push(miss(at, 0, MissClass::Local));
        }
        let ats: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4]);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn class_filter_drops_other_classes_and_classless_events() {
        let filter = TraceFilter::parse_classes("remote-dirty,nack-retry").unwrap();
        let mut r = EventRing::new(16, filter);
        r.push(miss(0, 0, MissClass::RemoteDirty));
        r.push(miss(1, 0, MissClass::Local));
        r.push(Event { at: 2, node: 0, core: 0, line: 0, kind: EventKind::Nack { count: 2 } });
        r.push(Event { at: 3, node: 0, core: 0, line: 0, kind: EventKind::Writeback });
        let kinds: Vec<&str> = r.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["miss", "nack"]);
    }

    #[test]
    fn node_filter_applies() {
        let filter = TraceFilter { classes: None, nodes: Some(vec![1]) };
        let mut r = EventRing::new(16, filter);
        r.push(miss(0, 0, MissClass::Local));
        r.push(miss(1, 1, MissClass::Local));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().node, 1);
    }

    #[test]
    fn jsonl_lines_carry_kind_specific_fields() {
        let mut r = EventRing::new(8, TraceFilter::default());
        r.push(miss(7, 2, MissClass::RemoteClean));
        r.push(Event {
            at: 8,
            node: 1,
            core: 0,
            line: 0x80,
            kind: EventKind::Invalidation { targets: 3 },
        });
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"miss\""));
        assert!(lines[0].contains("\"class\":\"remote-clean\""));
        assert!(lines[0].contains("\"latency\":100"));
        assert!(lines[1].contains("\"targets\":3"));
        assert!(!lines[1].contains("\"class\""));
    }

    #[test]
    fn bad_filter_specs_are_rejected() {
        assert!(TraceFilter::parse_classes("bogus").is_err());
        assert!(TraceFilter::parse_classes("").is_err());
        assert!(TraceFilter::parse_classes("local,").is_ok());
    }

    #[test]
    fn reset_empties_the_ring() {
        let mut r = EventRing::new(2, TraceFilter::default());
        r.push(miss(0, 0, MissClass::Local));
        r.push(miss(1, 0, MissClass::Local));
        r.push(miss(2, 0, MissClass::Local));
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.to_jsonl(), "");
    }
}
