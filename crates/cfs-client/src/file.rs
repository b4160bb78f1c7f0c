//! Handle-based file I/O: the §2.7 read/write paths.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use bytes::Bytes;

use cfs_data::{DataRequest, DataResponse, DeleteTask};
use cfs_meta::MetaCommand;
use cfs_types::crc::crc32;
use cfs_types::{CfsError, ExtentId, ExtentKey, FileType, InodeId, NodeId, PartitionId, Result};

use crate::client::{Client, MAX_RETRIES};
use crate::route::Group;

/// An open file: inode, cursor, and the client's write-position cache
/// (data partition id / extent id / offset, §2.4).
#[derive(Debug)]
pub struct FileHandle {
    ino: InodeId,
    /// Cached inode image, force-synced at open (§2.4).
    size: u64,
    extents: Vec<ExtentKey>,
    pos: u64,
    /// Active append target: (partition, extent, replicas, next offset).
    append_target: Option<(PartitionId, ExtentId, Vec<NodeId>, u64)>,
    /// Extent keys committed on the data path but not yet recorded at the
    /// meta node (§2.7.1: the client "synchronizes with the meta node
    /// periodically or upon fsync"); flushed every `meta_sync_every`
    /// packets and on fsync/close/truncate.
    pending_keys: Vec<ExtentKey>,
    /// Packets appended since the last meta sync.
    packets_since_sync: u32,
    /// An in-place overwrite landed since the last meta sync; the next
    /// one records it (moves the inode's mtime) even without new keys, so
    /// another mount's `open` sees the file changed (close-to-open).
    overwritten: bool,
}

/// Append `key` to `keys`, merging with the last entry when the two are
/// contiguous pieces of the same extent.
fn push_coalesced(keys: &mut Vec<ExtentKey>, key: ExtentKey) {
    match keys.last_mut() {
        Some(k)
            if k.partition_id == key.partition_id
                && k.extent_id == key.extent_id
                && k.extent_offset + k.size == key.extent_offset
                && k.file_offset + k.size == key.file_offset =>
        {
            k.size += key.size;
        }
        _ => keys.push(key),
    }
}

/// First extent key covering `offset` in a list sorted by `file_offset`
/// (binary search; append-only construction keeps the list sorted).
fn extent_covering(extents: &[ExtentKey], offset: u64) -> Result<ExtentKey> {
    let i = extents.partition_point(|k| k.file_offset + k.size <= offset);
    extents
        .get(i)
        .filter(|k| k.contains(offset))
        .copied()
        .ok_or_else(|| CfsError::Internal(format!("no extent covering offset {offset}")))
}

/// Append the file range `[lo, hi)` to `out`, copying from `pieces`
/// (`(file offset, bytes)`, in file order, not overlapping); bytes no
/// piece covers — a short reply, a gap between keys — read as zeros.
pub(crate) fn extend_from_pieces(out: &mut Vec<u8>, pieces: &[(u64, Bytes)], lo: u64, hi: u64) {
    let mut cur = lo;
    let first = pieces.partition_point(|(at, b)| at + b.len() as u64 <= lo);
    for (at, b) in &pieces[first..] {
        if *at >= hi {
            break;
        }
        if *at > cur {
            out.resize(out.len() + (at - cur) as usize, 0);
            cur = *at;
        }
        let piece_end = (at + b.len() as u64).min(hi);
        if piece_end > cur {
            out.extend_from_slice(&b[(cur - at) as usize..(piece_end - at) as usize]);
            cur = piece_end;
        }
    }
    out.resize(out.len() + (hi - cur) as usize, 0);
}

impl Client {
    /// Open `parent/name` for I/O. Forces the cached metadata to
    /// re-synchronize with the meta node (§2.4).
    pub fn open(&self, parent: InodeId, name: &str) -> Result<FileHandle> {
        let dentry = self.lookup(parent, name)?;
        self.open_inode(dentry.inode)
    }

    /// Open a known inode for I/O. Close-to-open: when the inode's mtime
    /// moved since this mount last saw it (another mount's fsync or close
    /// recorded an overwrite or an append), this mount's cached blocks of
    /// it are dropped, so the handle reads what was acknowledged before
    /// the open; an already-open handle may still serve cached blocks
    /// (DESIGN §13).
    pub fn open_inode(&self, ino: InodeId) -> Result<FileHandle> {
        let seen = self.cached_inode(ino).map(|i| i.mtime_ns);
        let inode = self.stat(ino)?; // force cache sync
        if seen != Some(inode.mtime_ns) {
            self.read_cache_invalidate_ino(ino);
        }
        if inode.file_type == FileType::Dir {
            return Err(CfsError::IsADirectory(ino));
        }
        Ok(FileHandle {
            ino,
            size: inode.size,
            extents: inode.extents,
            pos: 0,
            append_target: None,
            pending_keys: Vec::new(),
            packets_since_sync: 0,
            overwritten: false,
        })
    }

    // ------------------------------------------------------------------
    // Data-path RPC helpers
    // ------------------------------------------------------------------

    /// Submit one append packet to the PB leader (replicas[0], §2.7.1)
    /// and return its fabric completion token — the packet is now in
    /// flight on the scheduled-delivery queue, no thread carries it.
    /// `request_id` is the op's causal id (0 = untraced), carried in the
    /// packet header so the chain's spans correlate with the client op.
    fn submit_append(
        &self,
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: Bytes,
        replicas: &[NodeId],
        request_id: u64,
    ) -> u64 {
        let crc = crc32(&data);
        let req = DataRequest::Append {
            partition,
            extent,
            offset,
            data,
            crc,
            replicas: replicas.to_vec(),
            request_id,
        };
        self.stats.inflight_packets.add(1);
        self.fabrics.data.submit(self.id, replicas[0], req)
    }

    /// Poll the fabric until a submitted append packet completes, and
    /// decode its watermark ack.
    fn take_append(&self, token: u64) -> Result<u64> {
        let done = self.fabrics.data.wait(token);
        self.stats.inflight_packets.sub(1);
        match done?? {
            DataResponse::Watermark(w) => Ok(w),
            _ => Err(CfsError::Internal("bad Append reply".into())),
        }
    }

    fn create_extent_on(&self, partition: PartitionId, replicas: &[NodeId]) -> Result<ExtentId> {
        match self.fabrics.data.call(
            self.id,
            replicas[0],
            DataRequest::CreateExtent { partition },
        )?? {
            DataResponse::Extent(e) => Ok(e),
            _ => Err(CfsError::Internal("bad CreateExtent reply".into())),
        }
    }

    /// Read a byte range from one extent at the partition's Raft leader
    /// (§2.4: the leader rarely changes, so the cache usually hits on the
    /// first try).
    fn read_extent(
        &self,
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        let resp = self.call_leader(partition, 1, || DataRequest::Read {
            partition,
            extent,
            offset,
            len,
            enforce_committed: false, // bounds come from meta-recorded extents
        })?;
        self.read_reply(resp)
    }

    /// The bytes of a `Read` reply, counted as a served data read.
    fn read_reply(&self, resp: DataResponse) -> Result<Bytes> {
        match resp {
            DataResponse::Data(d) => {
                self.stats.data_reads_served.inc();
                Ok(d)
            }
            _ => Err(CfsError::Internal("bad Read reply".into())),
        }
    }

    // ------------------------------------------------------------------
    // Write paths (§2.7.1, §2.7.2)
    // ------------------------------------------------------------------

    /// Write at the handle's cursor. Appends take the sequential path;
    /// ranges below EOF are overwritten in place; a straddling write is
    /// split into the two parts (§2.7.2).
    pub fn write(&self, f: &mut FileHandle, data: &[u8]) -> Result<usize> {
        let n = self.write_at(f, f.pos, data)?;
        f.pos += n as u64;
        Ok(n)
    }

    /// Cursor write from a shared buffer (zero further copies: window
    /// packets are sliced out of `data`).
    pub fn write_bytes(&self, f: &mut FileHandle, data: Bytes) -> Result<usize> {
        let n = self.write_bytes_at(f, f.pos, data)?;
        f.pos += n as u64;
        Ok(n)
    }

    /// Positioned write (copies `data` once into a shared buffer).
    pub fn write_at(&self, f: &mut FileHandle, offset: u64, data: &[u8]) -> Result<usize> {
        self.write_bytes_at(f, offset, Bytes::copy_from_slice(data))
    }

    /// Positioned write from a shared buffer.
    pub fn write_bytes_at(&self, f: &mut FileHandle, offset: u64, data: Bytes) -> Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        // A buffered/unadopted small first-write must settle before any
        // further mutation so overwrite/append routing sees real state.
        self.settle_small(f)?;
        if offset > f.size {
            return Err(CfsError::InvalidArgument(format!(
                "write at {offset} beyond EOF {} (holes unsupported)",
                f.size
            )));
        }
        let overwrite_len = ((f.size - offset).min(data.len() as u64)) as usize;
        if overwrite_len > 0 {
            f.overwritten = true;
            self.overwrite_range(f, offset, data.slice(..overwrite_len))?;
        }
        if overwrite_len < data.len() {
            self.append_bytes(f, data.slice(overwrite_len..))?;
        }
        Ok(data.len())
    }

    /// Sequential write (§2.7.1): packetize, stream a bounded window of
    /// `pipeline_depth` packets at a time to the PB leader, then record
    /// the extent keys + new size at the meta node (batched per
    /// `meta_sync_every`).
    fn append_bytes(&self, f: &mut FileHandle, data: Bytes) -> Result<()> {
        // Small-file fast path (§2.2.3/§4.4): a fresh small file goes into
        // a shared extent; the client doesn't even ask for a new extent.
        // The record joins the client buffer (DESIGN §13) and leaves when
        // a bound trips — at a record bound of 1, inside this call — in
        // which case the handle adopts its location before returning.
        if f.size == 0 && f.extents.is_empty() && self.config.is_small_file(data.len() as u64) {
            self.enqueue_small_write(f.ino, data)?;
            self.adopt_small(f);
            return Ok(());
        }

        let rid = self.next_request_id();
        let _span = self.op_span(rid, "append");
        let packet = self.config.packet_size as usize;
        let depth = self.options.pipeline_depth as usize;
        let mut written = 0usize;
        let mut new_keys: Vec<ExtentKey> = Vec::new();
        let mut packets_done = 0u32;
        let mut avoided: Vec<PartitionId> = Vec::new();
        let mut attempts = 0;

        while written < data.len() {
            // Ensure an append target (partition + extent + watermark).
            if f.append_target.is_none() {
                let (partition, replicas) = self.random_data_partition(&avoided)?;
                let extent = match self.create_extent_on(partition, &replicas) {
                    Ok(e) => e,
                    Err(e) if e.is_retryable() || e.needs_new_partition() => {
                        avoided.push(partition);
                        attempts += 1;
                        if attempts > MAX_RETRIES {
                            self.record_partial(f, new_keys, written as u64, packets_done);
                            return Err(CfsError::RetriesExhausted {
                                op: "create extent".into(),
                                attempts,
                            });
                        }
                        self.retry_pause(attempts, "append", |_| Ok(()))?;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                f.append_target = Some((partition, extent, replicas, 0));
            }
            let (partition, extent, replicas, ext_off) =
                f.append_target.clone().expect("set above");

            // Cut extents at the size limit: writes always start at offset
            // 0 of a new extent and never pad the last one (§2.2.2).
            if ext_off >= self.config.extent_size_limit {
                f.append_target = None;
                continue;
            }

            // Slice up to `depth` consecutive packets for this extent out
            // of the shared buffer.
            let mut room = (self.config.extent_size_limit - ext_off) as usize;
            let mut window: Vec<(u64, Bytes)> = Vec::with_capacity(depth);
            let mut cursor = written;
            while window.len() < depth && cursor < data.len() && room > 0 {
                let chunk = packet.min(data.len() - cursor).min(room);
                window.push((
                    ext_off + (cursor - written) as u64,
                    data.slice(cursor..cursor + chunk),
                ));
                cursor += chunk;
                room -= chunk;
            }

            // Stream the whole window, then poll once for its acks: every
            // packet is submitted before the first completion is taken, so
            // the window shares one scheduled round trip on the fabric
            // clock (strictly fewer blocking waits than packets sent) and
            // no sender thread is ever spawned.
            self.stats.packets_sent.add(window.len() as u64);
            self.stats.window_waits.inc();
            let tokens: Vec<u64> = window
                .iter()
                .map(|(off, piece)| {
                    self.submit_append(partition, extent, *off, piece.clone(), &replicas, rid.0)
                })
                .collect();
            let results: Vec<Result<u64>> =
                tokens.into_iter().map(|t| self.take_append(t)).collect();

            // In-order ack accounting (§2.2.5): only the consecutive-Ok
            // prefix is committed state the file can build on; everything
            // from the first failure onward is resent. (A later packet
            // that landed despite the gap is never recorded at the meta
            // node, so it can never be served.)
            let mut failure: Option<CfsError> = None;
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(_watermark) if failure.is_none() => {
                        let (off, piece) = &window[i];
                        push_coalesced(
                            &mut new_keys,
                            ExtentKey {
                                file_offset: f.size + written as u64,
                                partition_id: partition,
                                extent_id: extent,
                                extent_offset: *off,
                                size: piece.len() as u64,
                            },
                        );
                        written += piece.len();
                        packets_done += 1;
                        f.append_target = Some((
                            partition,
                            extent,
                            replicas.clone(),
                            off + piece.len() as u64,
                        ));
                    }
                    Ok(_) => {}
                    Err(e) if failure.is_none() => failure = Some(e),
                    Err(_) => {}
                }
            }
            let Some(e) = failure else {
                continue; // whole window landed
            };
            if e.is_retryable() || e.needs_new_partition() {
                // §2.2.5: the committed prefix stays; resend the
                // remaining k−p bytes to a different partition.
                avoided.push(partition);
                f.append_target = None;
                attempts += 1;
                if attempts > MAX_RETRIES {
                    // Record what did commit before giving up.
                    self.record_partial(f, new_keys, written as u64, packets_done);
                    return Err(CfsError::RetriesExhausted {
                        op: "append".into(),
                        attempts,
                    });
                }
                // The partition table may be stale; refresh it (best
                // effort), then back off before resending (§2.1.3).
                self.retry_pause(attempts, "append", |c| {
                    let _ = c.refresh_partition_table();
                    Ok(())
                })?;
            } else {
                self.record_partial(f, new_keys, written as u64, packets_done);
                return Err(e);
            }
        }

        self.commit_local(f, new_keys, data.len() as u64, packets_done)
    }

    /// Fold freshly committed keys into the handle and sync to the meta
    /// node once the packet cadence is due.
    fn commit_local(
        &self,
        f: &mut FileHandle,
        new_keys: Vec<ExtentKey>,
        bytes_written: u64,
        packets: u32,
    ) -> Result<()> {
        f.size += bytes_written;
        for k in new_keys {
            push_coalesced(&mut f.extents, k);
            push_coalesced(&mut f.pending_keys, k);
        }
        f.packets_since_sync = f.packets_since_sync.saturating_add(packets);
        if f.packets_since_sync >= self.options.meta_sync_every {
            self.flush_meta(f)?;
        }
        Ok(())
    }

    /// Failure-path bookkeeping: record the committed prefix locally and
    /// push it to the meta node best-effort before surfacing the error.
    fn record_partial(
        &self,
        f: &mut FileHandle,
        new_keys: Vec<ExtentKey>,
        bytes: u64,
        packets: u32,
    ) {
        let _ = self.commit_local(f, new_keys, bytes, packets);
        let _ = self.flush_meta(f);
    }

    /// Push every unsynced extent key to the meta node (§2.7.1 step 8).
    /// A handle that overwrote in place syncs even without new keys: the
    /// sync moves the inode's mtime, which `open` checks.
    fn flush_meta(&self, f: &mut FileHandle) -> Result<()> {
        f.packets_since_sync = 0;
        if f.pending_keys.is_empty() && !f.overwritten {
            return Ok(());
        }
        let keys = std::mem::take(&mut f.pending_keys);
        match self.sync_extents(f.ino, &keys, f.size) {
            Ok(()) => {
                f.overwritten = false;
                Ok(())
            }
            Err(e) => {
                // Keep the keys for a later flush (fsync/close retries).
                f.pending_keys = keys;
                Err(e)
            }
        }
    }

    /// Flush unsynced state for this file; call before dropping a handle
    /// written with `meta_sync_every > 1` (§2.7.1 "upon fsync or close").
    /// Like `fsync`, `close` is an async-commit barrier (DESIGN §12).
    pub fn close(&self, f: &mut FileHandle) -> Result<()> {
        self.drain_async_commits()?;
        self.settle_small(f)?;
        self.flush_meta(f)
    }

    /// Fold this handle's coalesced small-write state (DESIGN §13) into
    /// real handle state: flush the buffer if the record is still queued,
    /// then adopt the flushed location. No-op without coalescer state.
    fn settle_small(&self, f: &mut FileHandle) -> Result<()> {
        if self.small_pending_data(f.ino).is_some() {
            self.flush_small_writes()?;
        }
        self.adopt_small(f);
        Ok(())
    }

    /// Adopt this handle's flushed small-write location, if one is parked.
    fn adopt_small(&self, f: &mut FileHandle) {
        if let Some((key, len)) = self.take_small_flushed(f.ino) {
            if f.size == 0 && f.extents.is_empty() {
                f.extents.push(key);
                f.size = len;
            }
        }
    }

    /// Serve a read of a coalesced-but-unsettled small file: straight
    /// from the buffer, or from the flushed location if the batch already
    /// went out (read-your-writes without mutating the shared handle).
    fn read_small_unsettled(
        &self,
        ino: InodeId,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>> {
        if let Some(data) = self.small_pending_data(ino) {
            self.stats.smallfile_buffer_reads.inc();
            if offset >= data.len() as u64 {
                return Ok(Some(Vec::new()));
            }
            let end = (offset as usize).saturating_add(len).min(data.len());
            return Ok(Some(data[offset as usize..end].to_vec()));
        }
        if let Some((key, flen)) = self.small_flushed_loc(ino) {
            self.stats.smallfile_buffer_reads.inc();
            if offset >= flen {
                return Ok(Some(Vec::new()));
            }
            let end = (offset + len as u64).min(flen);
            let piece = self.read_extent(
                key.partition_id,
                key.extent_id,
                key.extent_offset + offset,
                end - offset,
            )?;
            return Ok(Some(Vec::from(piece)));
        }
        Ok(None)
    }

    /// Record freshly committed extents + size at the inode's meta node
    /// (§2.7.1 step 8, or the fsync path).
    pub(crate) fn sync_extents(
        &self,
        ino: InodeId,
        keys: &[ExtentKey],
        new_size: u64,
    ) -> Result<()> {
        self.stats.meta_syncs.inc();
        let updated = self
            .meta_write_at(
                ino,
                MetaCommand::AppendExtents {
                    inode: ino,
                    extents: keys.to_vec(),
                    new_size,
                    now_ns: self.now_ns(),
                },
            )?
            .into_inode()?;
        self.cache_inode(&updated);
        Ok(())
    }

    /// In-place overwrite (§2.7.2): for each extent piece covering the
    /// range, propose through the partition's Raft group. Offsets and
    /// metadata never change.
    fn overwrite_range(&self, f: &FileHandle, offset: u64, data: Bytes) -> Result<()> {
        // The overwritten bytes may be cached; drop the touched blocks
        // before new content lands (DESIGN §13).
        let bs = self.config.packet_size;
        let last = (offset + data.len() as u64 - 1) / bs;
        self.read_cache_invalidate_blocks(f.ino, offset / bs, last);
        let mut consumed = 0usize;
        let mut cur = offset;
        while consumed < data.len() {
            let key = extent_covering(&f.extents, cur)?;
            let in_piece = (cur - key.file_offset) + key.extent_offset;
            let n = ((key.file_offset + key.size - cur) as usize).min(data.len() - consumed);
            self.overwrite_extent(
                key.partition_id,
                key.extent_id,
                in_piece,
                data.slice(consumed..consumed + n),
            )?;
            consumed += n;
            cur += n as u64;
        }
        Ok(())
    }

    /// One Raft-path overwrite, with leader discovery + retries.
    fn overwrite_extent(
        &self,
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        let resp = self.call_leader(partition, MAX_RETRIES + 1, || DataRequest::Overwrite {
            partition,
            extent,
            offset,
            data: data.clone(),
        })?;
        match resp {
            DataResponse::None => Ok(()),
            _ => Err(CfsError::Internal("bad Overwrite reply".into())),
        }
    }

    // ------------------------------------------------------------------
    // Read path (§2.7.4)
    // ------------------------------------------------------------------

    /// Read at the cursor.
    pub fn read(&self, f: &mut FileHandle, len: usize) -> Result<Vec<u8>> {
        let out = self.read_at(f, f.pos, len)?;
        f.pos += out.len() as u64;
        Ok(out)
    }

    /// Positioned read. Coalesced-but-unsettled small files are served
    /// from the write buffer (read-your-writes); everything else goes
    /// through the block cache (DESIGN §13) unless it is disabled, in
    /// which case the direct fanout path runs.
    pub fn read_at(&self, f: &FileHandle, offset: u64, len: usize) -> Result<Vec<u8>> {
        if f.size == 0 && f.extents.is_empty() {
            if let Some(out) = self.read_small_unsettled(f.ino, offset, len)? {
                return Ok(out);
            }
        }
        if offset >= f.size {
            return Ok(Vec::new());
        }
        if self.options.read_cache_capacity > 0 {
            return self.read_at_cached(f, offset, len);
        }
        self.read_at_direct(f, offset, len)
    }

    /// Positioned read at `offset < size`, bypassing the block cache: the
    /// replies are copied once, in order, into the output.
    fn read_at_direct(&self, f: &FileHandle, offset: u64, len: usize) -> Result<Vec<u8>> {
        let end = (offset + len as u64).min(f.size);
        let pieces = self.read_pieces(f, offset, end)?;
        let mut out = Vec::with_capacity((end - offset) as usize);
        extend_from_pieces(&mut out, &pieces, offset, end);
        Ok(out)
    }

    /// The replies covering `[offset, end)` (`end <= size`), as
    /// `(file offset, bytes)` pieces in file order: walks the cached extent
    /// keys; requests are constructed entirely from the client cache
    /// (§2.7.4). A range that spans several extents fans out in parallel
    /// (window bounded by `pipeline_depth`). A piece may be shorter than
    /// its segment; [`extend_from_pieces`] reads what no piece covers as
    /// zeros.
    pub(crate) fn read_pieces(
        &self,
        f: &FileHandle,
        offset: u64,
        end: u64,
    ) -> Result<Vec<(u64, Bytes)>> {
        // Binary-search the first covering key, then collect the segments.
        let start = f
            .extents
            .partition_point(|k| k.file_offset + k.size <= offset);
        let mut segments: Vec<(ExtentKey, u64, u64)> = Vec::new();
        for key in &f.extents[start..] {
            if key.file_offset >= end {
                break;
            }
            let lo = key.file_offset.max(offset);
            let hi = (key.file_offset + key.size).min(end);
            if lo < hi {
                segments.push((*key, lo, hi));
            }
        }

        // Only a range over several extents counts (and is traced) as a
        // fanout; a one-segment read is a batch of one.
        let _span = if segments.len() > 1 {
            self.stats.parallel_read_fanouts.inc();
            let rid = self.next_request_id();
            self.op_span(rid, "read_fanout")
        } else {
            None
        };
        let mut pieces = Vec::with_capacity(segments.len());
        for batch in segments.chunks(self.options.pipeline_depth as usize) {
            // Submit the whole batch, each segment to the head of its
            // partition's try order, then poll the completions: the batch
            // shares one scheduled round trip on the fabric clock instead
            // of spawning one reader thread per segment. A miss — stale
            // leader, fault, redirect — falls back to the full
            // `read_extent` scan for just that segment.
            let tokens: Vec<Option<(NodeId, u64)>> = batch
                .iter()
                .map(|&(key, lo, hi)| {
                    let node = self.first_target(Group::Data(key.partition_id))?;
                    let req = DataRequest::Read {
                        partition: key.partition_id,
                        extent: key.extent_id,
                        offset: key.extent_offset + (lo - key.file_offset),
                        len: hi - lo,
                        enforce_committed: false,
                    };
                    Some((node, self.fabrics.data.submit(self.id, node, req)))
                })
                .collect();
            // Take (and count) every completion before acting on any
            // failure, so no token is ever abandoned in the delivery queue.
            let replies: Vec<_> = batch
                .iter()
                .zip(tokens)
                .map(|(&(key, ..), sub)| {
                    let (node, token) = sub?;
                    let reply = self.fabrics.data.wait(token);
                    let answer = self.learn(Group::Data(key.partition_id), node, reply);
                    Some(answer.map_break(|a| a.and_then(|resp| self.read_reply(resp))))
                })
                .collect();
            for (&(key, lo, hi), reply) in batch.iter().zip(replies) {
                let piece = match reply {
                    Some(ControlFlow::Break(answer)) => answer?,
                    _ => self.read_extent(
                        key.partition_id,
                        key.extent_id,
                        key.extent_offset + (lo - key.file_offset),
                        hi - lo,
                    )?,
                };
                pieces.push((lo, piece));
            }
        }
        Ok(pieces)
    }

    /// Flush client state for this file to the meta node: push unsynced
    /// extent keys, then refresh the inode image (§2.7.1: "synchronizes
    /// with meta node periodically or upon fsync").
    /// With async metadata commit on, `fsync` is also the strong barrier
    /// (DESIGN §12): it drains every outstanding intent first and fails
    /// if any acked op was compensated instead of committed.
    pub fn fsync(&self, f: &mut FileHandle) -> Result<()> {
        self.drain_async_commits()?;
        self.settle_small(f)?;
        self.flush_meta(f)?;
        let inode = self.stat(f.ino)?;
        f.size = inode.size;
        f.extents = inode.extents;
        Ok(())
    }

    /// Truncate the file, queueing data cleanup for the cut extents.
    pub fn truncate_file(&self, f: &mut FileHandle, size: u64) -> Result<()> {
        self.settle_small(f)?;
        if size > f.size {
            return Err(CfsError::InvalidArgument(
                "extending truncate unsupported".into(),
            ));
        }
        self.read_cache_invalidate_ino(f.ino);
        self.flush_meta(f)?;
        let removed = self
            .meta_write_at(
                f.ino,
                MetaCommand::Truncate {
                    inode: f.ino,
                    size,
                    now_ns: self.now_ns(),
                },
            )?
            .into_extents()?;
        self.queue_extent_cleanup(&removed);
        f.size = size;
        f.extents.retain(|k| k.file_offset < size);
        if let Some(last) = f.extents.last_mut() {
            if last.file_offset + last.size > size {
                last.size = size - last.file_offset;
            }
        }
        f.append_target = None;
        f.pos = f.pos.min(size);
        Ok(())
    }

    /// Asynchronously delete file content (§2.7.3): one `QueueDeletes`
    /// per owning data partition removes dedicated large-file extents
    /// outright and punches shared small-file ranges and truncated tails.
    pub fn queue_extent_cleanup(&self, keys: &[ExtentKey]) {
        let mut by_partition: BTreeMap<PartitionId, Vec<DeleteTask>> = BTreeMap::new();
        for key in keys {
            let task = if key.extent_offset == 0 && !self.config.is_small_file(key.size) {
                // Dedicated large-file extent: remove it outright (§2.2.3).
                DeleteTask::Extent(key.extent_id)
            } else {
                DeleteTask::Punch {
                    extent: key.extent_id,
                    offset: key.extent_offset,
                    len: key.size,
                }
            };
            by_partition.entry(key.partition_id).or_default().push(task);
        }
        for (partition, tasks) in by_partition {
            let Ok(members) = self.data_partition_members(partition) else {
                continue;
            };
            let _ = self.fabrics.data.call(
                self.id,
                members[0],
                DataRequest::QueueDeletes {
                    partition,
                    tasks,
                    replicas: members,
                },
            );
        }
    }

    /// Evict `inodes` and queue their data for deletion: one batched
    /// `Evict` write per owning meta partition ([`Self::meta_write_many`]),
    /// then [`Self::queue_extent_cleanup`] over every evicted key.
    pub(crate) fn evict_and_clean(&self, inodes: Vec<InodeId>) -> Reclaimed {
        let evicts: Vec<(InodeId, MetaCommand)> = inodes
            .into_iter()
            .map(|inode| (inode, MetaCommand::Evict { inode }))
            .collect();
        let mut out = Reclaimed::default();
        let mut keys = Vec::new();
        for ((inode, _), r) in evicts.iter().zip(self.meta_write_many(&evicts)) {
            match r {
                Ok(v) => {
                    self.read_cache_invalidate_ino(*inode);
                    if let Ok(ino) = v.into_inode() {
                        keys.extend(ino.extents);
                    }
                    out.evicted += 1;
                }
                // NotFound from the meta node: someone else evicted it.
                // An inode no partition in the view owns is kept instead.
                Err(CfsError::NotFound(_)) if self.meta_partition_of(*inode).is_ok() => {
                    out.gone += 1
                }
                Err(_) => out.failed.push(*inode),
            }
        }
        self.queue_extent_cleanup(&keys);
        out
    }

    /// Background deletion pass (§2.7.3): evict orphaned/marked inodes and
    /// hand their extents to the data nodes ([`Self::evict_and_clean`]),
    /// then run the data-side deletion queues. Returns (inodes reclaimed,
    /// data tasks executed).
    pub fn process_deletions(&self) -> (usize, usize) {
        // Deferred async-unlink second halves materialize orphans; drain
        // them first so this pass can reclaim what they marked.
        let _ = self.drain_async_commits();
        let orphans = std::mem::take(&mut self.cache.lock().orphans);
        let done = self.evict_and_clean(orphans);
        self.cache.lock().orphans.extend(done.failed);
        // Run the data-side queues on every partition we know about.
        let partitions: Vec<(PartitionId, Vec<NodeId>)> = {
            let cache = self.cache.lock();
            cache
                .data_partitions
                .iter()
                .map(|p| (p.partition, p.members.clone()))
                .collect()
        };
        let mut executed = 0;
        for (partition, members) in partitions {
            for &m in &members {
                if let Ok(Ok(DataResponse::Processed(n))) =
                    self.fabrics
                        .data
                        .call(self.id, m, DataRequest::ProcessDeletes { partition })
                {
                    executed += n;
                }
            }
        }
        (done.evicted + done.gone, executed)
    }
}

/// What [`Client::evict_and_clean`] did with its inodes.
#[derive(Debug, Default)]
pub(crate) struct Reclaimed {
    /// Evicted here; their data is queued for deletion.
    pub evicted: usize,
    /// Already gone (`NotFound`): someone else evicted them.
    pub gone: usize,
    /// Not evicted; left for a later pass.
    pub failed: Vec<InodeId>,
}

impl FileHandle {
    /// The file's inode.
    pub fn ino(&self) -> InodeId {
        self.ino
    }

    /// Size as cached by this handle.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Cursor position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Absolute seek.
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos;
    }

    /// Extent keys cached by this handle.
    pub fn extents(&self) -> &[ExtentKey] {
        &self.extents
    }

    /// Extent keys committed on data nodes but not yet synced to the meta
    /// node (nonempty only with `meta_sync_every > 1`).
    pub fn pending_meta_keys(&self) -> &[ExtentKey] {
        &self.pending_keys
    }
}
