//! The observer: configuration and the recording façade the simulator
//! drives.
//!
//! # Zero-overhead contract
//!
//! The observer is strictly read-only with respect to the simulation:
//! it owns no simulated state, draws no random numbers, and never
//! feeds anything back into timing, so a run's `SimReport` is
//! bit-identical whether an observer is wired in, disabled, or absent.
//! A disabled observer ([`ObsConfig::off`]) additionally does no work
//! beyond an enabled-flag check per hook.

use crate::class::MissClass;
use crate::event::{Event, EventRing, TraceFilter};
use crate::hist::LatencyHistogram;
use crate::json::Json;
use crate::series::{EpochSample, EpochSeries, EpochSnapshot};

/// Event-trace configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Record-time filter.
    pub filter: TraceFilter,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: EventRing::DEFAULT_CAPACITY, filter: TraceFilter::default() }
    }
}

/// What to observe. Everything defaults to off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-class latency histograms.
    pub histograms: bool,
    /// Close an epoch sample every this many rounds (one reference per
    /// core each).
    pub epoch: Option<u64>,
    /// Record a structured event trace.
    pub trace: Option<TraceConfig>,
}

impl ObsConfig {
    /// The do-nothing configuration (also `Default`).
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether nothing is enabled.
    pub fn is_off(&self) -> bool {
        !self.histograms && self.epoch.is_none() && self.trace.is_none()
    }
}

/// Everything one observed run produced (borrowed views live on
/// [`Observer`]; this is the owned export).
#[derive(Clone, Debug)]
pub struct Observation {
    /// Per-class latency histograms, in [`MissClass::ALL`] order
    /// (empty when histograms were off).
    pub histograms: Vec<(MissClass, LatencyHistogram)>,
    /// Closed epoch samples (empty when epochs were off).
    pub epochs: Vec<EpochSample>,
    /// Traced events, oldest first (empty when tracing was off).
    pub events: Vec<Event>,
    /// Events displaced from the full ring.
    pub events_dropped: u64,
}

/// The recording façade. The simulator calls the `record_*` hooks on
/// its hot paths; each returns immediately when the corresponding
/// channel is off.
#[derive(Clone, Debug)]
pub struct Observer {
    cfg: ObsConfig,
    /// Per-class histograms, indexed by [`MissClass::index`].
    hists: Option<Vec<LatencyHistogram>>,
    /// Cumulative per-class event counts (cheap; feeds epoch mixes).
    class_counts: [u64; MissClass::COUNT],
    epochs: Option<EpochSeries>,
    ring: Option<EventRing>,
}

impl Default for Observer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Observer {
    /// An observer recording what `cfg` asks for.
    pub fn new(cfg: ObsConfig) -> Self {
        let hists = cfg
            .histograms
            .then(|| (0..MissClass::COUNT).map(|_| LatencyHistogram::new()).collect());
        let epochs = cfg.epoch.map(EpochSeries::new);
        let ring = cfg.trace.as_ref().map(|t| EventRing::new(t.capacity, t.filter.clone()));
        Observer { cfg, hists, class_counts: [0; MissClass::COUNT], epochs, ring }
    }

    /// An observer that records nothing (the default).
    pub fn disabled() -> Self {
        Self::new(ObsConfig::off())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Whether any channel is recording.
    pub fn is_enabled(&self) -> bool {
        !self.cfg.is_off()
    }

    /// Epoch length when epoch sampling is on (the simulator checks
    /// this each round).
    pub fn epoch_len(&self) -> Option<u64> {
        self.epochs.as_ref().map(EpochSeries::epoch_len)
    }

    /// Whether event tracing is on (lets the simulator skip building
    /// `Event` values entirely).
    pub fn wants_events(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one serviced latency of `class` (histogram + class mix).
    #[inline]
    pub fn record_latency(&mut self, class: MissClass, latency: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(n) = self.class_counts.get_mut(class.index()) {
            *n += 1;
        }
        if let Some(hist) = self.hists.as_mut().and_then(|h| h.get_mut(class.index())) {
            hist.record(latency);
        }
    }

    /// Records a structured event (dropped unless tracing is on and
    /// the filter keeps it).
    #[inline]
    pub fn record_event(&mut self, event: Event) {
        if let Some(ring) = &mut self.ring {
            ring.push(event);
        }
    }

    /// Closes an epoch from the simulator's cumulative snapshot.
    pub fn close_epoch(&mut self, snapshot: EpochSnapshot) {
        let counts = self.class_counts;
        if let Some(epochs) = &mut self.epochs {
            epochs.close_epoch(snapshot, counts);
        }
    }

    /// Clears everything recorded (stats-reset semantics; the
    /// configuration is kept).
    pub fn reset(&mut self) {
        if let Some(hists) = &mut self.hists {
            for h in hists {
                *h = LatencyHistogram::new();
            }
        }
        self.class_counts = [0; MissClass::COUNT];
        if let Some(epochs) = &mut self.epochs {
            epochs.reset();
        }
        if let Some(ring) = &mut self.ring {
            ring.reset();
        }
    }

    /// The per-class histogram, when histograms are on.
    pub fn histogram(&self, class: MissClass) -> Option<&LatencyHistogram> {
        self.hists.as_ref().and_then(|h| h.get(class.index()))
    }

    /// Cumulative per-class event counts, indexed by
    /// [`MissClass::index`].
    pub fn class_counts(&self) -> [u64; MissClass::COUNT] {
        self.class_counts
    }

    /// Closed epoch samples (empty slice when epochs are off).
    pub fn epoch_samples(&self) -> &[EpochSample] {
        self.epochs.as_ref().map(|e| e.samples()).unwrap_or(&[])
    }

    /// The event ring, when tracing is on.
    pub fn events(&self) -> Option<&EventRing> {
        self.ring.as_ref()
    }

    /// The trace as JSONL (empty string when tracing is off).
    pub fn trace_jsonl(&self) -> String {
        self.ring.as_ref().map(EventRing::to_jsonl).unwrap_or_default()
    }

    /// An owned export of everything recorded.
    pub fn observation(&self) -> Observation {
        Observation {
            histograms: self
                .hists
                .as_ref()
                .map(|hs| MissClass::ALL.into_iter().zip(hs.iter().cloned()).collect())
                .unwrap_or_default(),
            epochs: self.epoch_samples().to_vec(),
            events: self.ring.as_ref().map(|r| r.iter().copied().collect()).unwrap_or_default(),
            events_dropped: self.ring.as_ref().map_or(0, EventRing::dropped),
        }
    }

    /// The observation sections of the run report, as deterministic
    /// JSON: `histograms` (per class: count/min/max/mean/quantiles plus
    /// compact non-zero buckets) and `epochs` (one object per sample).
    /// Off channels serialize as `null` so a report always has the
    /// same shape.
    pub fn to_json(&self) -> Json {
        let histograms = match &self.hists {
            None => Json::Null,
            Some(hs) => Json::Obj(
                MissClass::ALL
                    .into_iter()
                    .zip(hs)
                    .map(|(c, h)| (c.as_str().to_string(), histogram_json(h)))
                    .collect(),
            ),
        };
        let epochs = match &self.epochs {
            None => Json::Null,
            Some(e) => Json::obj([
                ("epoch_len", Json::UInt(e.epoch_len())),
                ("samples", Json::Arr(e.samples().iter().map(epoch_json).collect())),
            ]),
        };
        let trace = match &self.ring {
            None => Json::Null,
            Some(r) => Json::obj([
                ("events_recorded", Json::UInt(r.len() as u64)),
                ("events_dropped", Json::UInt(r.dropped())),
                ("capacity", Json::UInt(r.capacity() as u64)),
            ]),
        };
        Json::obj([("histograms", histograms), ("epochs", epochs), ("trace", trace)])
    }
}

/// One histogram as JSON: summary statistics, report quantiles, and the
/// non-zero buckets as `[low, high, count]` triples.
fn histogram_json(h: &LatencyHistogram) -> Json {
    let mut o = Json::obj([
        ("count", Json::UInt(h.count())),
        ("min", Json::UInt(h.min())),
        ("max", Json::UInt(h.max())),
        ("mean", Json::Float(h.mean())),
    ]);
    for (name, q) in crate::hist::REPORT_QUANTILES {
        o.push(name, Json::UInt(h.quantile(q)));
    }
    o.push(
        "buckets",
        Json::Arr(
            h.nonzero_buckets()
                .map(|(lo, hi, c)| Json::Arr(vec![Json::UInt(lo), Json::UInt(hi), Json::UInt(c)]))
                .collect(),
        ),
    );
    o
}

fn epoch_json(s: &EpochSample) -> Json {
    let mut mix = Json::Obj(Vec::new());
    for (c, &n) in MissClass::ALL.iter().zip(&s.class_counts) {
        mix.push(c.as_str(), Json::UInt(n));
    }
    Json::obj([
        ("index", Json::UInt(s.index)),
        ("end_ref", Json::UInt(s.end_ref)),
        ("instructions", Json::UInt(s.instructions)),
        ("cycles", Json::Float(s.cycles)),
        (
            "stall",
            Json::obj([
                ("busy", Json::Float(s.stall.busy_cycles)),
                ("l2_hit", Json::Float(s.stall.l2_hit_cycles)),
                ("local", Json::Float(s.stall.local_cycles)),
                ("remote_clean", Json::Float(s.stall.remote_clean_cycles)),
                ("remote_dirty", Json::Float(s.stall.remote_dirty_cycles)),
            ]),
        ),
        ("ipc", Json::Float(s.ipc)),
        ("mpki", Json::Float(s.mpki)),
        ("mix", mix),
        ("upgrades", Json::UInt(s.upgrades)),
        ("nacks", Json::UInt(s.nacks)),
        ("retries", Json::UInt(s.retries)),
        ("fault_extra_cycles", Json::UInt(s.fault_extra_cycles)),
        ("retry_rho", Json::Float(s.retry_rho)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json::validate;

    fn full_cfg() -> ObsConfig {
        ObsConfig { histograms: true, epoch: Some(100), trace: Some(TraceConfig::default()) }
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let mut o = Observer::disabled();
        assert!(!o.is_enabled());
        o.record_latency(MissClass::Local, 100);
        o.record_event(Event { at: 0, node: 0, core: 0, line: 0, kind: EventKind::Writeback });
        o.close_epoch(EpochSnapshot::default());
        assert_eq!(o.class_counts(), [0; 6]);
        assert!(o.histogram(MissClass::Local).is_none());
        assert!(o.epoch_samples().is_empty());
        assert!(o.events().is_none());
        assert_eq!(o.trace_jsonl(), "");
    }

    #[test]
    fn enabled_observer_routes_each_channel() {
        let mut o = Observer::new(full_cfg());
        o.record_latency(MissClass::RemoteDirty, 250);
        o.record_latency(MissClass::RemoteDirty, 275);
        o.record_event(Event {
            at: 1,
            node: 0,
            core: 0,
            line: 0x40,
            kind: EventKind::Miss { class: MissClass::RemoteDirty, latency: 250 },
        });
        o.close_epoch(EpochSnapshot { refs_per_node: 100, ..Default::default() });
        let h = o.histogram(MissClass::RemoteDirty).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(o.epoch_samples().len(), 1);
        assert_eq!(o.epoch_samples()[0].class_counts[MissClass::RemoteDirty.index()], 2);
        assert_eq!(o.events().unwrap().len(), 1);
        let obs = o.observation();
        assert_eq!(obs.histograms.len(), MissClass::COUNT);
        assert_eq!(obs.events.len(), 1);
    }

    #[test]
    fn json_export_validates_in_all_modes() {
        let mut on = Observer::new(full_cfg());
        on.record_latency(MissClass::L2Hit, 25);
        on.close_epoch(EpochSnapshot { refs_per_node: 100, ..Default::default() });
        for o in [&Observer::disabled(), &on] {
            let s = o.to_json().to_string();
            validate(&s).unwrap();
        }
        let s = on.to_json().to_string();
        assert!(s.contains("\"l2-hit\":{\"count\":1"));
        assert!(s.contains("\"epoch_len\":100"));
        let off = Observer::disabled().to_json().to_string();
        assert!(off.contains("\"histograms\":null"));
    }

    #[test]
    fn reset_clears_recordings_but_keeps_config() {
        let mut o = Observer::new(full_cfg());
        o.record_latency(MissClass::Local, 10);
        o.record_event(Event { at: 0, node: 0, core: 0, line: 0, kind: EventKind::Downgrade });
        o.close_epoch(EpochSnapshot { refs_per_node: 100, ..Default::default() });
        o.reset();
        assert!(o.is_enabled());
        assert_eq!(o.class_counts(), [0; 6]);
        assert_eq!(o.histogram(MissClass::Local).unwrap().count(), 0);
        assert!(o.epoch_samples().is_empty());
        assert_eq!(o.events().unwrap().len(), 0);
    }
}
