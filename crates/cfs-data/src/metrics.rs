//! Data-plane metrics: chain replication, gap waits, raft overwrites.

use cfs_obs::{Counter, Histogram, Registry};

/// Registry-backed data-node counters (cloning shares the atomics, so one
/// instance serves every partition a node hosts).
#[derive(Debug, Clone, Default)]
pub struct DataMetrics {
    /// Appends served at the chain head (client-facing).
    pub appends_served: Counter,
    /// Small-file write requests packed at the PB leader (one per
    /// `WriteSmallBatch` RPC, however many records it carried).
    pub small_writes_served: Counter,
    /// Records committed through the small-file path.
    pub small_batch_records: Counter,
    /// Aggregated extent segments forwarded down the chain for batches
    /// (usually 1 per batch; >1 only across a shared-extent rotation).
    pub small_batch_segments: Counter,
    /// Local chain applies (head and followers).
    pub chain_applies: Counter,
    /// Downstream forwards actually sent (a chain hop existed).
    pub chain_forwards: Counter,
    /// Head-of-chain waits for a predecessor packet to fill an offset gap.
    pub gap_wait_stalls: Counter,
    /// Raft-replicated overwrites applied to the local store.
    pub overwrites_applied: Counter,
    /// Reads served at the Raft leader under its lease.
    pub lease_reads: Counter,
    /// Reads served at the Raft leader after a ReadIndex barrier.
    pub quorum_reads: Counter,
    /// PB-leader recovery passes run (§2.2.5 step 1).
    pub recoveries: Counter,
    /// Individual repairs (truncations + re-ships) those passes made.
    pub recovery_repairs: Counter,
    /// Repair membership adoptions (replica array + Raft member list).
    pub join_members_updates: Counter,
    /// Recovery passes that recomputed committed watermarks from the
    /// survivors (a newly promoted head).
    pub join_promotions: Counter,
}

/// Wait-time histogram, separate so `DataMetrics` stays `Copy`-cheap to
/// thread around.
#[derive(Debug, Clone, Default)]
pub struct DataLatency {
    /// Nanoseconds spent blocked on chain offset gaps.
    pub gap_wait_ns: Histogram,
}

impl DataMetrics {
    /// Metrics counted into private atomics (no registry attached).
    pub fn detached() -> DataMetrics {
        DataMetrics::default()
    }

    /// Metrics registered under `data.*` names.
    pub fn bind(registry: &Registry) -> DataMetrics {
        DataMetrics {
            appends_served: registry.counter("data.appends_served"),
            small_writes_served: registry.counter("data.small_writes_served"),
            small_batch_records: registry.counter("data.small_batch.records"),
            small_batch_segments: registry.counter("data.small_batch.segments"),
            chain_applies: registry.counter("data.chain_applies"),
            chain_forwards: registry.counter("data.chain_forwards"),
            gap_wait_stalls: registry.counter("data.gap_wait_stalls"),
            overwrites_applied: registry.counter("data.overwrites_applied"),
            lease_reads: registry.counter("data.lease_reads"),
            quorum_reads: registry.counter("data.quorum_reads"),
            recoveries: registry.counter("data.recoveries"),
            recovery_repairs: registry.counter("data.recovery_repairs"),
            join_members_updates: registry.counter("data.join.members_updates"),
            join_promotions: registry.counter("data.join.promotions"),
        }
    }
}

impl DataLatency {
    pub fn detached() -> DataLatency {
        DataLatency::default()
    }

    pub fn bind(registry: &Registry) -> DataLatency {
        DataLatency {
            gap_wait_ns: registry.histogram("data.gap_wait_ns"),
        }
    }
}
