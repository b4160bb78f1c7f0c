//! Byte-accounting metrics for the extent store.

use cfs_obs::{Counter, Gauge, Registry};

/// Registry-backed byte accounting. One instance is shared by every
/// [`crate::ExtentStore`] of a node (cloning shares the underlying
/// atomics), so the gauges aggregate across partitions.
///
/// The accounting identity the space proptest enforces (paper §2.2.3,
/// punch-hole dealloc): over any run of watermark-advancing writes and
/// small-file deletions,
///
/// ```text
/// bytes_written - bytes_punched == live_bytes
/// ```
///
/// Whole-extent deletion and recovery truncation move their reclaimed
/// bytes into `bytes_freed` / `bytes_truncated` instead, keeping the
/// general identity `written - punched - freed - truncated == live`.
/// In-place overwrites never change live space and count separately.
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Watermark-advancing payload bytes (appends + small-file writes).
    pub bytes_written: Counter,
    /// In-place overwrite payload bytes (never change live space).
    pub bytes_overwritten: Counter,
    /// Bytes returned by extent reads (the read amplification of a client
    /// is this over the bytes it returned).
    pub bytes_read: Counter,
    /// Bytes logically punched out by small-file deletions.
    pub bytes_punched: Counter,
    /// Punch-hole calls those deletions made (one may cover many files).
    pub punches: Counter,
    /// Live bytes reclaimed by whole-extent deletion.
    pub bytes_freed: Counter,
    /// Live bytes reclaimed by recovery truncation (§2.2.5 alignment).
    pub bytes_truncated: Counter,
    /// Extents allocated (both fresh and replicated-with-id).
    pub extents_created: Counter,
    /// Current live bytes: written minus punched/freed/truncated.
    pub live_bytes: Gauge,
}

impl StoreMetrics {
    /// Metrics counted into private atomics (no registry attached).
    pub fn detached() -> StoreMetrics {
        StoreMetrics::default()
    }

    /// Metrics registered under `store.*` names.
    pub fn bind(registry: &Registry) -> StoreMetrics {
        StoreMetrics {
            bytes_written: registry.counter("store.bytes_written"),
            bytes_overwritten: registry.counter("store.bytes_overwritten"),
            bytes_read: registry.counter("store.bytes_read"),
            bytes_punched: registry.counter("store.bytes_punched"),
            punches: registry.counter("store.punches"),
            bytes_freed: registry.counter("store.bytes_freed"),
            bytes_truncated: registry.counter("store.bytes_truncated"),
            extents_created: registry.counter("store.extents_created"),
            live_bytes: registry.gauge("store.live_bytes"),
        }
    }
}
