//! Readahead extent cache over `read_at` (DESIGN §13).
//!
//! A per-mount, size-capped block cache keyed by `(inode, block index)`
//! with blocks of `packet_size` bytes. A block is a `Bytes` slice of the
//! reply it was fetched in, not a copy, unless the fetch span is larger
//! than the cache: then its blocks are copied, so no cached block keeps a
//! reply larger than the cache alive. Only *full* blocks are cached — a
//! partial tail block would go stale the moment an append extends it, so
//! it is always fetched. Each block is stamped with the inode generation
//! known at fill time (mirroring the lookup cache's drift detection): a
//! probe under a different generation drops the entry and refetches.
//!
//! A read is sequential when it starts at offset 0 or exactly where this
//! mount's previous read of the inode ended. A sequential miss fetches its
//! missing blocks whole and extends the span by up to `READAHEAD_BLOCKS`
//! full blocks past them, issued as ONE direct read — the span rides the
//! read path's existing submit/wait fanout, so readahead shares the fabric
//! round instead of costing extra blocking waits. Any other miss fetches
//! only the demanded bytes of its missing blocks. Either way, every full
//! block lying wholly inside the fetched span is inserted.
//!
//! Invalidation: truncate and overwrite drop the affected inode's blocks,
//! unlink/evict drop via `uncache_inode`, generation drift drops on probe
//! or via `cache_inode`, and a partition-view refresh clears the cache
//! wholesale (the placement the bytes were fetched through is gone).
//! Conservation law (checked by the chaos harness):
//! `resident == inserted - evicted - invalidated`, per client and summed
//! across the shared registry.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use cfs_types::{InodeId, Result};

use crate::client::{Client, READAHEAD_BLOCKS};
use crate::file::{extend_from_pieces, FileHandle};

/// One cached full block.
#[derive(Debug)]
pub(crate) struct CachedBlock {
    /// Inode generation known when the block was filled.
    pub generation: u64,
    /// A view of the reply the block was fetched in; it keeps that whole
    /// reply alive, so FIFO eviction frees a reply with its last block.
    pub data: Bytes,
}

/// The file range `[lo, hi)` as one buffer: a slice of the piece that holds
/// it whole when `slice` allows it, else assembled once (it is copied, it
/// straddles two pieces, or a short reply or a key gap leaves part of it to
/// read as zeros).
fn block_of(pieces: &[(u64, Bytes)], lo: u64, hi: u64, slice: bool) -> Bytes {
    let i = pieces.partition_point(|(at, b)| at + b.len() as u64 <= lo);
    if let Some((at, b)) = pieces.get(i).filter(|_| slice) {
        if *at <= lo && at + b.len() as u64 >= hi {
            return b.slice((lo - at) as usize..(hi - at) as usize);
        }
    }
    let mut block = Vec::with_capacity((hi - lo) as usize);
    extend_from_pieces(&mut block, pieces, lo, hi);
    Bytes::from(block)
}

/// Per-mount read-cache state.
#[derive(Debug, Default)]
pub(crate) struct ReadCacheState {
    pub blocks: HashMap<(InodeId, u64), CachedBlock>,
    /// FIFO eviction order; removal paths prune their keys eagerly.
    pub order: VecDeque<(InodeId, u64)>,
    /// Byte offset where this mount's previous read of each inode ended: a
    /// read starting there is sequential (readahead triggers only then).
    pub next_seq: HashMap<InodeId, u64>,
}

impl Client {
    /// Drop every cached block (partition-view refresh).
    pub(crate) fn read_cache_clear(&self) {
        let mut rc = self.readcache.lock();
        let n = rc.blocks.len() as u64;
        rc.blocks.clear();
        rc.order.clear();
        rc.next_seq.clear();
        if n > 0 {
            self.stats.readcache_invalidated.add(n);
            self.stats.readcache_resident.sub(n as i64);
        }
    }

    /// Drop every cached block of one inode (truncate, unlink, drift).
    pub(crate) fn read_cache_invalidate_ino(&self, ino: InodeId) {
        let mut rc = self.readcache.lock();
        let before = rc.blocks.len();
        rc.blocks.retain(|k, _| k.0 != ino);
        let removed = (before - rc.blocks.len()) as u64;
        if removed == 0 {
            rc.next_seq.remove(&ino);
            return;
        }
        rc.order.retain(|k| k.0 != ino);
        rc.next_seq.remove(&ino);
        self.stats.readcache_invalidated.add(removed);
        self.stats.readcache_resident.sub(removed as i64);
    }

    /// Drop one inode's blocks overlapping `[lo_block, hi_block]`
    /// (overwrite-in-place changed their bytes).
    pub(crate) fn read_cache_invalidate_blocks(&self, ino: InodeId, lo: u64, hi: u64) {
        let mut rc = self.readcache.lock();
        let before = rc.blocks.len();
        rc.blocks.retain(|k, _| k.0 != ino || k.1 < lo || k.1 > hi);
        let removed = (before - rc.blocks.len()) as u64;
        if removed == 0 {
            return;
        }
        rc.order.retain(|k| k.0 != ino || k.1 < lo || k.1 > hi);
        self.stats.readcache_invalidated.add(removed);
        self.stats.readcache_resident.sub(removed as i64);
    }

    /// Generation the attribute cache knows for `ino` (0 when unknown —
    /// consistent between fill and probe, so "unknown" still matches).
    fn read_cache_generation(&self, ino: InodeId) -> u64 {
        self.cache
            .lock()
            .inode_cache
            .get(&ino)
            .map(|i| i.generation)
            .unwrap_or(0)
    }

    /// `read_at` through the block cache. Demanded blocks are served from
    /// cache where possible; the missing span (demand-sized, or whole
    /// blocks plus readahead when sequential) is fetched with one direct
    /// read and its full blocks inserted as slices of the replies. Each
    /// returned byte is copied once, in order, into the output.
    pub(crate) fn read_at_cached(
        &self,
        f: &FileHandle,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let bs = self.config.packet_size;
        let size = f.size();
        let end = (offset + len as u64).min(size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let ino = f.ino();
        let generation = self.read_cache_generation(ino);
        let first = offset / bs;
        let last = (end - 1) / bs;

        // Probe every demanded block; a hit is held as a view of the
        // cached block.
        let mut hits: Vec<Option<Bytes>> = Vec::with_capacity((last - first + 1) as usize);
        let mut missing: Vec<u64> = Vec::new();
        let sequential = {
            let mut rc = self.readcache.lock();
            for b in first..=last {
                let hit = match rc.blocks.get(&(ino, b)) {
                    Some(cb) if cb.generation == generation => Some(cb.data.clone()),
                    Some(_) => {
                        // Generation drift discovered lazily on probe.
                        rc.blocks.remove(&(ino, b));
                        rc.order.retain(|k| *k != (ino, b));
                        self.stats.readcache_invalidated.inc();
                        self.stats.readcache_resident.sub(1);
                        None
                    }
                    None => None,
                };
                if hit.is_some() {
                    self.stats.readcache_hits.inc();
                } else {
                    self.stats.readcache_misses.inc();
                    missing.push(b);
                }
                hits.push(hit);
            }
            let seq = offset == 0 || rc.next_seq.get(&ino) == Some(&offset);
            rc.next_seq.insert(ino, end);
            seq
        };
        let pieces = if missing.is_empty() {
            Vec::new()
        } else {
            self.fetch_span(f, &missing, (offset, end), sequential, generation)?
        };

        let mut out = Vec::with_capacity((end - offset) as usize);
        for (b, hit) in (first..=last).zip(&hits) {
            let lo = (b * bs).max(offset);
            let hi = ((b + 1) * bs).min(end);
            match hit {
                Some(data) => {
                    out.extend_from_slice(&data[(lo - b * bs) as usize..(hi - b * bs) as usize])
                }
                None => extend_from_pieces(&mut out, &pieces, lo, hi),
            }
        }
        Ok(out)
    }

    /// Fetch the span of a read's missing blocks. A sequential read
    /// fetches them whole, extended by readahead past the demand; any other
    /// read fetches only their demanded bytes,
    /// `[max(offset, first·bs), min(end, (last+1)·bs))`. Inserts every full
    /// block lying wholly inside the span, evicting FIFO at capacity, and
    /// returns the span's reply pieces.
    fn fetch_span(
        &self,
        f: &FileHandle,
        missing: &[u64],
        (offset, end): (u64, u64),
        sequential: bool,
        generation: u64,
    ) -> Result<Vec<(u64, Bytes)>> {
        let bs = self.config.packet_size;
        let size = f.size();
        let ino = f.ino();
        let span_first = missing[0];
        let mut span_last = *missing.last().expect("nonempty");
        let max_block = (size - 1) / bs;
        let mut ra_blocks = 0u64;
        let (span_lo, span_hi) = if sequential {
            let rc = self.readcache.lock();
            let limit = max_block.min(span_last.saturating_add(READAHEAD_BLOCKS));
            for b in span_last + 1..=limit {
                if rc.blocks.contains_key(&(ino, b)) {
                    break;
                }
                span_last = b;
                ra_blocks += 1;
            }
            (span_first * bs, ((span_last + 1) * bs).min(size))
        } else {
            (
                (span_first * bs).max(offset),
                ((span_last + 1) * bs).min(end),
            )
        };
        let pieces = self.read_pieces(f, span_lo, span_hi)?;
        self.stats.readcache_readahead.add(ra_blocks);

        let mut rc = self.readcache.lock();
        let cap = self.options.read_cache_capacity;
        // Blocks slice their replies only when the span fits in the cache,
        // so a reply a cached block keeps alive is at most the cache's size.
        let slice = span_hi - span_lo <= cap as u64 * bs;
        for b in span_lo.div_ceil(bs)..span_hi / bs {
            if rc.blocks.contains_key(&(ino, b)) {
                continue; // a hit inside the span, or raced back in
            }
            while rc.blocks.len() >= cap {
                let Some(victim) = rc.order.pop_front() else {
                    break;
                };
                if rc.blocks.remove(&victim).is_some() {
                    self.stats.readcache_evicted.inc();
                    self.stats.readcache_resident.sub(1);
                }
            }
            rc.blocks.insert(
                (ino, b),
                CachedBlock {
                    generation,
                    data: block_of(&pieces, b * bs, (b + 1) * bs, slice),
                },
            );
            rc.order.push_back((ino, b));
            self.stats.readcache_inserted.inc();
            self.stats.readcache_resident.add(1);
        }
        Ok(pieces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pieces at file offsets 10..14 (short: its segment was 10..16) and
    /// 20..28; 14..20 is covered by no piece.
    fn pieces() -> Vec<(u64, Bytes)> {
        vec![
            (10, Bytes::from(vec![1u8, 2, 3, 4])),
            (20, Bytes::from((20u8..28).collect::<Vec<_>>())),
        ]
    }

    #[test]
    fn uncovered_bytes_read_as_zeros() {
        let mut out = vec![9u8];
        extend_from_pieces(&mut out, &pieces(), 8, 24);
        assert_eq!(out, [9, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 20, 21, 22, 23]);
        let mut tail = Vec::new();
        extend_from_pieces(&mut tail, &pieces(), 26, 31);
        assert_eq!(tail, [26, 27, 0, 0, 0]);
        let mut none = Vec::new();
        extend_from_pieces(&mut none, &[], 0, 3);
        assert_eq!(none, [0, 0, 0]);
    }

    #[test]
    fn a_block_inside_one_piece_is_a_slice_of_it_unless_copied() {
        let p = pieces();
        let block = block_of(&p, 22, 26, true);
        assert_eq!(&block[..], &[22, 23, 24, 25]);
        assert_eq!(block.as_ptr(), p[1].1[2..].as_ptr(), "no copy");
        let copied = block_of(&p, 22, 26, false);
        assert_eq!(copied, block);
        assert_ne!(copied.as_ptr(), block.as_ptr(), "copied when told to");

        // Straddling a gap, or past a short reply: assembled once.
        let across = block_of(&p, 12, 22, true);
        assert_eq!(&across[..], &[3, 4, 0, 0, 0, 0, 0, 0, 20, 21]);
        let short = block_of(&p, 10, 16, true);
        assert_eq!(&short[..], &[1, 2, 3, 4, 0, 0]);
    }
}
