//! The observability layer's vocabulary of latency classes.

use csim_proc::StallClass;

/// Latency classes the observer breaks distributions down by.
///
/// The first four mirror [`StallClass`] (the paper's execution-time
/// buckets); the last two separate events the aggregate buckets fold
/// away: ownership upgrades (charged as local or 2-hop stalls) and the
/// extra cycles the fault model's NACK/retry path adds on top of a
/// transaction's fault-free latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// An L1 miss serviced by the node's own L2.
    L2Hit,
    /// A miss serviced by local memory (including RAC hits).
    Local,
    /// A clean miss serviced by a remote home (2-hop).
    RemoteClean,
    /// A miss serviced by dirty data in a remote cache (3-hop).
    RemoteDirty,
    /// A store's ownership upgrade (invalidation round trip).
    Upgrade,
    /// Extra latency contributed by directory NACKs, backoff and
    /// retries (fault injection only).
    NackRetry,
}

impl MissClass {
    /// Every class, in display order. Histogram sets, JSON reports and
    /// trace filters all iterate in this order so exports are stable.
    pub const ALL: [MissClass; 6] = [
        MissClass::L2Hit,
        MissClass::Local,
        MissClass::RemoteClean,
        MissClass::RemoteDirty,
        MissClass::Upgrade,
        MissClass::NackRetry,
    ];

    /// Number of classes (array-index domain for per-class storage).
    pub const COUNT: usize = Self::ALL.len();

    /// A dense index in `0..COUNT`, matching the order of [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            MissClass::L2Hit => 0,
            MissClass::Local => 1,
            MissClass::RemoteClean => 2,
            MissClass::RemoteDirty => 3,
            MissClass::Upgrade => 4,
            MissClass::NackRetry => 5,
        }
    }

    /// The stable machine-readable name used in JSON, JSONL and the
    /// `--trace-filter` CLI syntax.
    pub fn as_str(self) -> &'static str {
        match self {
            MissClass::L2Hit => "l2-hit",
            MissClass::Local => "local",
            MissClass::RemoteClean => "remote-clean",
            MissClass::RemoteDirty => "remote-dirty",
            MissClass::Upgrade => "upgrade",
            MissClass::NackRetry => "nack-retry",
        }
    }

    /// Parses a class name as written by [`Self::as_str`]
    /// (case-insensitive; `_` accepted for `-`).
    ///
    /// # Errors
    ///
    /// An error message listing the valid names.
    pub fn parse(s: &str) -> Result<MissClass, String> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        Self::ALL.into_iter().find(|c| c.as_str() == norm).ok_or_else(|| {
            let names: Vec<&str> = Self::ALL.iter().map(|c| c.as_str()).collect();
            format!("unknown miss class '{s}' (expected one of: {})", names.join(", "))
        })
    }

    /// The class a stall bucket maps to (upgrades and NACK/retry extra
    /// are refinements the caller must supply explicitly).
    pub fn from_stall(class: StallClass) -> MissClass {
        match class {
            StallClass::L2Hit => MissClass::L2Hit,
            StallClass::Local => MissClass::Local,
            StallClass::RemoteClean => MissClass::RemoteClean,
            StallClass::RemoteDirty => MissClass::RemoteDirty,
        }
    }
}

impl std::fmt::Display for MissClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_match_all_order() {
        for (i, c) in MissClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for c in MissClass::ALL {
            assert_eq!(MissClass::parse(c.as_str()).unwrap(), c);
        }
        assert_eq!(MissClass::parse("REMOTE_DIRTY").unwrap(), MissClass::RemoteDirty);
        assert!(MissClass::parse("bogus").unwrap_err().contains("l2-hit"));
    }

    #[test]
    fn stall_classes_map_onto_the_first_four() {
        assert_eq!(MissClass::from_stall(StallClass::L2Hit), MissClass::L2Hit);
        assert_eq!(MissClass::from_stall(StallClass::Local), MissClass::Local);
        assert_eq!(MissClass::from_stall(StallClass::RemoteClean), MissClass::RemoteClean);
        assert_eq!(MissClass::from_stall(StallClass::RemoteDirty), MissClass::RemoteDirty);
    }
}
