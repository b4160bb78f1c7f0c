//! Raft consensus with MultiRaft grouping.
//!
//! CFS replicates meta partitions — and the overwrite path of data
//! partitions — with "a revision of the Raft consensus protocol called the
//! MultiRaft, which has the advantage of reduced heartbeat traffic"
//! (§2.1.2). This crate implements both layers from scratch:
//!
//! * [`RaftNode`]: a single consensus group member, written *sans-io*: the
//!   caller feeds it ticks and inbound messages, and drains a [`Ready`]
//!   bundle of outbound messages, committed entries and snapshot events.
//!   Determinism (seeded election jitter, no internal threads or clocks)
//!   makes every cluster behaviour unit-testable, including elections under
//!   partitions, log repair and snapshot catch-up.
//! * [`MultiRaft`]: hosts the hundreds of groups a CFS node carries (the
//!   paper's deployment runs 10 meta + 1500 data partitions per machine)
//!   and coalesces heartbeat traffic: empty AppendEntries between the same
//!   pair of nodes are folded into one wire message per tick, which is the
//!   property the paper's *Raft set* optimization builds on (§2.5.1).
//! * [`GroupCommit`]: the one way a state machine proposes. Commands
//!   ride one batch frame per group per hub round, and a result reaches a
//!   caller only from the frame this node proposed at that `(term,
//!   index)`.
//! * [`leader_read`]: the one way a state machine serves a read, at the
//!   leader under its quorum lease or after a ReadIndex barrier.
//! * [`RaftLog`]: in-memory log with a compacted prefix; compaction +
//!   snapshot install implement the recovery-time bound of §2.1.3.

mod commit;
mod config;
pub mod hub;
mod log;
mod message;
mod metrics;
mod multiraft;
mod node;
mod read;
mod storage;

#[cfg(test)]
mod harness_tests;

pub use commit::{GroupCommit, COMMIT_TIMEOUT_TICKS};
pub use config::{
    RaftConfig, ELECTION_TIMEOUT_MAX, ELECTION_TIMEOUT_MIN, HEARTBEAT_INTERVAL,
    MAX_ENTRIES_PER_MESSAGE,
};
pub use hub::{DeliverySchedule, RaftHost, RaftHub};
pub use log::{Entry, RaftLog};
pub use message::{Envelope, Message, SnapshotPayload};
pub use metrics::RaftMetrics;
pub use multiraft::{GroupBeat, MultiRaft, MultiRaftStats, WireEnvelope, WireMsg};
pub use node::{
    decode_batch_frame, PersistentRaftState, RaftNode, Ready, Role, BATCH_FRAME_MARKER,
};
pub use read::{leader_read, ReadPath};
pub use storage::{KvRaftStorage, RaftStorage};
