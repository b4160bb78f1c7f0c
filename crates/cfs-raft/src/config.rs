//! Raft tuning knobs.

/// Timing is expressed in abstract *ticks*; the embedding layer decides the
/// tick length (the in-memory cluster uses 1 tick = 1 ms).
///
/// Election timeout lower bound (ticks). Each timer reset draws a fresh
/// timeout uniformly from `[ELECTION_TIMEOUT_MIN, ELECTION_TIMEOUT_MAX)`.
pub const ELECTION_TIMEOUT_MIN: u64 = 150;
/// Election timeout upper bound (ticks), exclusive.
pub const ELECTION_TIMEOUT_MAX: u64 = 300;
/// Leader heartbeat period (ticks).
pub const HEARTBEAT_INTERVAL: u64 = 50;
/// Max log entries carried by one AppendEntries message.
pub const MAX_ENTRIES_PER_MESSAGE: usize = 256;

const _: () = assert!(
    0 < ELECTION_TIMEOUT_MIN && ELECTION_TIMEOUT_MIN < ELECTION_TIMEOUT_MAX,
    "election timeout range must be non-empty and positive"
);
const _: () = assert!(
    0 < HEARTBEAT_INTERVAL && HEARTBEAT_INTERVAL < ELECTION_TIMEOUT_MIN,
    "heartbeat interval must be positive and below the election timeout"
);
const _: () = assert!(
    MAX_ENTRIES_PER_MESSAGE > 0,
    "MAX_ENTRIES_PER_MESSAGE must be positive"
);

/// The per-group knobs a deployment sets.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// Compact the log once this many entries are applied past the last
    /// snapshot. `0` disables automatic compaction.
    pub snapshot_threshold: u64,
    /// Leader read-lease duration (ticks): a leader that has collected
    /// quorum acks probed within the last `lease_ticks` may serve reads
    /// locally without a consensus round. Must stay strictly below
    /// [`ELECTION_TIMEOUT_MIN`] so a peer still inside some leader's lease
    /// window is also still inside its own vote-stickiness window and
    /// cannot help elect a competing leader. `0` disables lease reads
    /// (and vote stickiness with them).
    pub lease_ticks: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            snapshot_threshold: 4096,
            lease_ticks: 120,
        }
    }
}

impl RaftConfig {
    /// Validate the invariants the node relies on.
    pub fn validate(&self) -> cfs_types::Result<()> {
        if self.lease_ticks >= ELECTION_TIMEOUT_MIN {
            return Err(cfs_types::CfsError::InvalidArgument(
                "lease_ticks must be below the election timeout (lease safety)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(RaftConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_timeouts() {
        let base = RaftConfig::default();
        let c = RaftConfig {
            lease_ticks: ELECTION_TIMEOUT_MIN,
            ..base.clone()
        };
        assert!(c.validate().is_err());

        // Disabled lease is always valid.
        let c = RaftConfig {
            lease_ticks: 0,
            ..base
        };
        assert!(c.validate().is_ok());
    }
}
