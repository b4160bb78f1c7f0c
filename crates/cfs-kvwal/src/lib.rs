//! Log-structured persistence engine (RocksDB substitute).
//!
//! The paper's resource manager persists its replicated state to "a
//! key-value store such as RocksDB for backup and recovery" (§2). This crate
//! is that substrate, built from scratch.
//!
//! [`LsmEngine`] provides typed column families ([`cf`]) with codec
//! keys/values and atomic [`WriteBatch`] commits, over an LSM tree (`lsm`)
//! with a CRC-framed WAL, memtable flush to immutable sorted runs, and
//! leveled compaction (`compact`). Master state, raft logs/snapshots and
//! data-node extent images live on named families of this engine, so a
//! whole-cluster power loss restores from disk alone.
//!
//! Crash model: recovery = newest valid on-disk state + replay of newer WAL
//! records, with a torn tail (partial final record) tolerated and
//! truncated, and half-written run files ignored.

pub mod cf;
mod compact;
mod lsm;
mod record;
mod wal;

pub use cf::{CfKey, TypedCf, WriteBatch};
pub use lsm::{KvwalMetrics, LsmEngine, LsmOptions};
pub use record::Record;
pub use wal::Wal;
