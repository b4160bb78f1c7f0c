//! Small-file write coalescing (DESIGN §13).
//!
//! The first write of a fresh small file (§2.2.3) always takes this path:
//! it joins the buffer here, and the buffer flushes as one
//! `WriteSmallBatch` RPC — the PB leader packs every record into its
//! active shared extent and forwards the aggregate down the chain — when
//! any bound trips (records, bytes, age on the client's logical clock) or
//! when a barrier drains it (`fsync`/`close`/async-commit drain). At the
//! default record bound, [`crate::ClientOptions::small_batch_max_ops`] =
//! 1, every record trips it at once: a lone small write is a batch of
//! one, submitted inside its own `write`. A larger bound lets records
//! wait for peers and share a chain submission.
//!
//! The data node replies with the *committed prefix* of record locations
//! (§2.2.5 semantics per sub-record): a mid-batch chain failure commits
//! what landed and the client resends the suffix to a different
//! partition, exactly like a torn append window.
//!
//! A flushed record's location parks in [`CoalesceState::flushed`] until
//! its `FileHandle` adopts it (on the next write, read, fsync or close of
//! that handle) — reads in the gap are served straight from the buffer or
//! the parked location, so read-your-writes holds without the handle ever
//! observing a torn state.

use std::collections::HashMap;

use bytes::Bytes;

use cfs_data::{DataRequest, DataResponse};
use cfs_types::{CfsError, ExtentKey, InodeId, PartitionId, Result};

use crate::client::{Client, MAX_RETRIES, SMALL_BATCH_MAX_AGE, SMALL_BATCH_MAX_BYTES};

/// One buffered small-file write.
#[derive(Debug, Clone)]
pub(crate) struct PendingSmall {
    pub ino: InodeId,
    pub data: Bytes,
}

/// Client-level coalescing state (one per mount, behind its own lock so a
/// flush never holds the routing cache across a fabric round-trip).
#[derive(Debug, Default)]
pub(crate) struct CoalesceState {
    /// Buffered records in arrival order (one per inode: a second write
    /// to a buffered file settles the handle first).
    pub pending: Vec<PendingSmall>,
    /// Logical-clock reading when the oldest buffered record arrived.
    pub oldest: u64,
    /// Flushed locations not yet adopted by their `FileHandle`:
    /// ino → (meta-recorded extent key, file size).
    pub flushed: HashMap<InodeId, (ExtentKey, u64)>,
}

impl Client {
    /// Buffer one small-file first write; flush if a bound trips. A flush
    /// that fails takes this call's record back out of the buffer — a
    /// `write` that returns `Err` leaves nothing of its own behind —
    /// while records already acknowledged to earlier callers stay queued
    /// for the next barrier.
    pub(crate) fn enqueue_small_write(&self, ino: InodeId, data: Bytes) -> Result<()> {
        let should_flush = {
            let mut co = self.coalesce.lock();
            if co.pending.is_empty() {
                co.oldest = self.peek_clock();
            }
            co.pending.push(PendingSmall { ino, data });
            self.stats.smallfile_coalesced.inc();
            co.pending.len() >= self.options.small_batch_max_ops as usize
                || co.pending.iter().map(|p| p.data.len() as u64).sum::<u64>()
                    >= SMALL_BATCH_MAX_BYTES
                || self.peek_clock().saturating_sub(co.oldest) >= SMALL_BATCH_MAX_AGE
        };
        if !should_flush {
            return Ok(());
        }
        let flushed = self.flush_small_writes();
        if flushed.is_err() {
            self.coalesce.lock().pending.retain(|p| p.ino != ino);
        }
        flushed
    }

    /// The buffered bytes for `ino`, if still unflushed.
    pub(crate) fn small_pending_data(&self, ino: InodeId) -> Option<Bytes> {
        self.coalesce
            .lock()
            .pending
            .iter()
            .find(|p| p.ino == ino)
            .map(|p| p.data.clone())
    }

    /// The flushed-but-unadopted location for `ino`, if any.
    pub(crate) fn small_flushed_loc(&self, ino: InodeId) -> Option<(ExtentKey, u64)> {
        self.coalesce.lock().flushed.get(&ino).copied()
    }

    /// Remove and return the flushed location for `ino` (handle adoption).
    pub(crate) fn take_small_flushed(&self, ino: InodeId) -> Option<(ExtentKey, u64)> {
        self.coalesce.lock().flushed.remove(&ino)
    }

    /// Records currently buffered (test/bench introspection).
    pub fn small_writes_buffered(&self) -> usize {
        self.coalesce.lock().pending.len()
    }

    /// Put unflushed records back at the front of the buffer so a later
    /// barrier retries them in order.
    fn requeue_small(&self, mut entries: Vec<PendingSmall>) {
        let mut co = self.coalesce.lock();
        entries.append(&mut co.pending);
        co.pending = entries;
    }

    /// Drain the coalescing buffer: one `WriteSmallBatch` per retry pass,
    /// resending any uncommitted suffix to a different partition
    /// (§2.2.5). Committed records are meta-synced immediately and their
    /// locations parked for handle adoption. Safe to call with an empty
    /// buffer — it is the barrier hook.
    pub fn flush_small_writes(&self) -> Result<()> {
        let mut remaining = std::mem::take(&mut self.coalesce.lock().pending);
        if remaining.is_empty() {
            return Ok(());
        }
        let rid = self.next_request_id();
        let _span = self.op_span(rid, "write_small");
        let mut avoided: Vec<PartitionId> = Vec::new();
        for pass in 0..=MAX_RETRIES {
            if let Err(e) = self.retry_pause(pass, "write_small", |_| Ok(())) {
                self.requeue_small(remaining);
                return Err(e);
            }
            let (partition, replicas) = match self.random_data_partition(&avoided) {
                Ok(pr) => pr,
                Err(e) => {
                    self.requeue_small(remaining);
                    return Err(e);
                }
            };
            let req = DataRequest::WriteSmallBatch {
                partition,
                records: remaining.iter().map(|p| p.data.clone()).collect(),
                replicas: replicas.clone(),
            };
            self.stats.smallfile_batches.inc();
            // Flatten fabric errors into the match so they hit the retry
            // arm instead of aborting the loop.
            match self
                .fabrics
                .data
                .call(self.id, replicas[0], req)
                .and_then(|r| r)
            {
                Ok(DataResponse::SmallBatch(locs)) => {
                    let n = locs.len().min(remaining.len());
                    for i in 0..n {
                        let loc = locs[i];
                        let key = ExtentKey {
                            file_offset: 0,
                            partition_id: partition,
                            extent_id: loc.extent_id,
                            extent_offset: loc.offset,
                            size: loc.len,
                        };
                        let ino = remaining[i].ino;
                        if let Err(e) = self.sync_extents(ino, std::slice::from_ref(&key), loc.len)
                        {
                            // The record is durable on the data path but
                            // its meta sync failed: requeue it (and the
                            // rest) so a later barrier re-commits a fresh
                            // copy whose meta record sticks. The first
                            // copy becomes unreferenced garbage, same as
                            // any retry after an uncertain timeout.
                            let tail: Vec<PendingSmall> = remaining.split_off(i);
                            self.requeue_small(tail);
                            return Err(e);
                        }
                        self.coalesce.lock().flushed.insert(ino, (key, loc.len));
                        self.stats.smallfile_batch_records.inc();
                    }
                    remaining.drain(..n);
                    if remaining.is_empty() {
                        return Ok(());
                    }
                    // Committed prefix landed; the suffix goes elsewhere.
                    avoided.push(partition);
                    let _ = self.refresh_partition_table();
                }
                Ok(_) => {
                    self.requeue_small(remaining);
                    return Err(CfsError::Internal("bad WriteSmallBatch reply".into()));
                }
                Err(e) if e.is_retryable() || e.needs_new_partition() => {
                    avoided.push(partition);
                    let _ = self.refresh_partition_table();
                }
                Err(e) => {
                    self.requeue_small(remaining);
                    return Err(e);
                }
            }
        }
        self.requeue_small(remaining);
        Err(CfsError::RetriesExhausted {
            op: "write small batch".into(),
            attempts: MAX_RETRIES + 1,
        })
    }
}
