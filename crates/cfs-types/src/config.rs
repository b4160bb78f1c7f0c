//! Cluster-wide configuration.
//!
//! Defaults follow the paper: 128 KB small-file threshold aligned with the
//! data-path packet size (§2.2.1), three-way replication, and the partition
//! capacity thresholds that drive resource-manager placement and splitting
//! (§2.3.1–§2.3.2).

/// Algorithm 1's `Δ`: headroom added above `maxInodeID` when cutting a
/// meta partition's inode range.
pub const SPLIT_DELTA: u64 = 1 << 16;
/// When the fraction of writable partitions in a volume drops below this,
/// the resource manager tops the volume up (§2.3.1 "about to be full").
pub const VOLUME_REFILL_WATERMARK: f64 = 0.2;
/// Consecutive missed heartbeat rounds before the resource manager marks a
/// node *suspect* (its partitions are no longer placement targets,
/// §2.3.3).
pub const SUSPECT_AFTER_MISSED: u32 = 2;
/// Consecutive missed heartbeat rounds before a suspect node is declared
/// *dead* and the repair scheduler starts re-replicating its partitions.
pub const DEAD_AFTER_MISSED: u32 = 3;

const _: () = assert!(
    0.0 <= VOLUME_REFILL_WATERMARK && VOLUME_REFILL_WATERMARK <= 1.0,
    "VOLUME_REFILL_WATERMARK must be in [0,1]"
);
const _: () = assert!(
    1 <= SUSPECT_AFTER_MISSED && SUSPECT_AFTER_MISSED <= DEAD_AFTER_MISSED,
    "need DEAD_AFTER_MISSED >= SUSPECT_AFTER_MISSED >= 1"
);

/// Tunable parameters shared by clients, meta/data nodes and the resource
/// manager. One instance is created at cluster bootstrap and cloned into
/// every component. Per-mount client tunables (append window, meta-sync
/// cadence, coalescing and read-cache bounds) live in the client crate's
/// `ClientOptions`, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Files of size ≤ this are "small" and packed into shared extents
    /// (§2.2.3). Default 128 KB; configurable at startup and usually aligned
    /// with `packet_size` to avoid packet assembly/splitting.
    pub small_file_threshold: u64,
    /// Fixed packet size for sequential writes (§2.7.1). Default 128 KB.
    pub packet_size: u64,
    /// Replicas per meta/data partition. Default 3.
    pub replica_count: usize,
    /// Size limit of one extent (large-file extents are cut at this size).
    pub extent_size_limit: u64,
    /// Max inodes+dentries a meta partition holds before the resource
    /// manager splits it (§2.3.2).
    pub meta_partition_item_limit: u64,
    /// Max extents a data partition holds before it stops accepting new
    /// data (§2.3.1: "no new data can be stored on this partition, although
    /// it can still be modified or deleted").
    pub data_partition_extent_limit: u64,
    /// Write-rate split trigger (§2.3.2): when a meta partition applies at
    /// least this many Raft entries between two heartbeat reports, the
    /// maintenance sweep splits it even if the item limit is not reached.
    pub meta_partition_write_load_limit: u64,
    /// How many meta/data partitions a volume asks the resource manager for
    /// in one allocation round (§2.3.1).
    pub partitions_per_allocation: usize,
    /// Nodes per Raft set (§2.5.1). Placement prefers replicas within one
    /// set to bound heartbeat fan-out.
    pub raft_set_size: usize,
    /// Master-side self-healing: when true, each heartbeat round runs the
    /// repair reconciliation sweep (§2.3.3 exception handling).
    pub repair_enabled: bool,
    /// Degraded partitions the repair scheduler replans per sweep, so one
    /// dead node's worth of repairs doesn't monopolize a tick.
    pub max_repairs_per_tick: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        const KB: u64 = 1024;
        const MB: u64 = 1024 * KB;
        const GB: u64 = 1024 * MB;
        ClusterConfig {
            small_file_threshold: 128 * KB,
            packet_size: 128 * KB,
            replica_count: 3,
            extent_size_limit: GB,
            meta_partition_item_limit: 1 << 20,
            data_partition_extent_limit: 1 << 16,
            meta_partition_write_load_limit: 1 << 20,
            partitions_per_allocation: 10,
            raft_set_size: 5,
            repair_enabled: true,
            max_repairs_per_tick: 4,
        }
    }
}

impl ClusterConfig {
    /// Is a file of `size` bytes a "small file" under this configuration?
    pub fn is_small_file(&self, size: u64) -> bool {
        size <= self.small_file_threshold
    }

    /// Validate internal consistency; called at cluster bootstrap.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::CfsError;
        if self.replica_count == 0 {
            return Err(CfsError::InvalidArgument(
                "replica_count must be > 0".into(),
            ));
        }
        if self.packet_size == 0 || self.extent_size_limit == 0 {
            return Err(CfsError::InvalidArgument("sizes must be > 0".into()));
        }
        if self.small_file_threshold > self.extent_size_limit {
            return Err(CfsError::InvalidArgument(
                "small_file_threshold exceeds extent_size_limit".into(),
            ));
        }
        if self.meta_partition_write_load_limit == 0 {
            return Err(CfsError::InvalidArgument(
                "meta_partition_write_load_limit must be > 0".into(),
            ));
        }
        if self.max_repairs_per_tick == 0 {
            return Err(CfsError::InvalidArgument(
                "max_repairs_per_tick must be > 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ClusterConfig::default();
        assert_eq!(c.small_file_threshold, 128 * 1024);
        assert_eq!(c.packet_size, 128 * 1024);
        assert_eq!(c.replica_count, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_file_classification_is_inclusive() {
        let c = ClusterConfig::default();
        assert!(c.is_small_file(0));
        assert!(c.is_small_file(128 * 1024)); // "less than or equal to t"
        assert!(!c.is_small_file(128 * 1024 + 1));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = ClusterConfig {
            replica_count: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());

        let base = ClusterConfig::default();
        let c = ClusterConfig {
            small_file_threshold: base.extent_size_limit + 1,
            ..base
        };
        assert!(c.validate().is_err());

        let c = ClusterConfig {
            max_repairs_per_tick: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn self_healing_defaults_ordered() {
        let c = ClusterConfig::default();
        assert!(c.repair_enabled);
        assert_eq!((SUSPECT_AFTER_MISSED, DEAD_AFTER_MISSED), (2, 3));
    }
}
