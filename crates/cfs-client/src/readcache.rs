//! Readahead extent cache over `read_at` (DESIGN §13).
//!
//! A per-mount, size-capped block cache keyed by `(inode, block index)`
//! with blocks of `packet_size` bytes. Only *full* blocks are cached — a
//! partial tail block would go stale the moment an append extends it, so
//! it is always fetched. Each block is stamped with the inode generation
//! known at fill time (mirroring the lookup cache's drift detection): a
//! probe under a different generation drops the entry and refetches.
//!
//! On a demand miss during a sequential scan, the fetch span is extended
//! by up to `READAHEAD_BLOCKS` full blocks past the demanded range and
//! issued as ONE direct read — the span rides the read path's existing
//! submit/wait fanout, so readahead shares the fabric round instead of
//! costing extra blocking waits.
//!
//! Invalidation: truncate and overwrite drop the affected inode's blocks,
//! unlink/evict drop via `uncache_inode`, generation drift drops on probe
//! or via `cache_inode`, and a partition-view refresh clears the cache
//! wholesale (the placement the bytes were fetched through is gone).
//! Conservation law (checked by the chaos harness):
//! `resident == inserted - evicted - invalidated`, per client and summed
//! across the shared registry.

use std::collections::{HashMap, VecDeque};

use cfs_types::{InodeId, Result};

use crate::client::{Client, READAHEAD_BLOCKS};
use crate::file::FileHandle;

/// One cached full block.
#[derive(Debug)]
pub(crate) struct CachedBlock {
    /// Inode generation known when the block was filled.
    pub generation: u64,
    pub data: Vec<u8>,
}

/// Per-mount read-cache state.
#[derive(Debug, Default)]
pub(crate) struct ReadCacheState {
    pub blocks: HashMap<(InodeId, u64), CachedBlock>,
    /// FIFO eviction order; removal paths prune their keys eagerly.
    pub order: VecDeque<(InodeId, u64)>,
    /// Next block a purely sequential reader of each inode would demand
    /// (readahead triggers only on sequential access).
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
    /// cache where possible; the missing span (plus sequential readahead)
    /// is fetched with one direct read and its full blocks inserted.
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
        let mut out = vec![0u8; (end - offset) as usize];

        // Probe every demanded block.
        let mut missing: Vec<u64> = Vec::new();
        let sequential = {
            let mut rc = self.readcache.lock();
            for b in first..=last {
                let fresh = match rc.blocks.get(&(ino, b)) {
                    Some(cb) if cb.generation == generation => {
                        let lo = (b * bs).max(offset);
                        let hi = ((b + 1) * bs).min(end);
                        let src = (lo - b * bs) as usize..(hi - b * bs) as usize;
                        let dst = (lo - offset) as usize;
                        out[dst..dst + src.len()].copy_from_slice(&cb.data[src]);
                        true
                    }
                    Some(_) => {
                        // Generation drift discovered lazily on probe.
                        rc.blocks.remove(&(ino, b));
                        rc.order.retain(|k| *k != (ino, b));
                        self.stats.readcache_invalidated.inc();
                        self.stats.readcache_resident.sub(1);
                        false
                    }
                    None => false,
                };
                if fresh {
                    self.stats.readcache_hits.inc();
                } else {
                    self.stats.readcache_misses.inc();
                    missing.push(b);
                }
            }
            let seq = first == 0 || rc.next_seq.get(&ino) == Some(&first);
            rc.next_seq.insert(ino, last + 1);
            seq
        };
        if missing.is_empty() {
            return Ok(out);
        }

        // Fetch span: first missing .. last missing, extended by readahead
        // past the demand when the scan looks sequential.
        let span_first = missing[0];
        let mut span_last = *missing.last().expect("nonempty");
        let max_block = (size - 1) / bs;
        let mut ra_blocks = 0u64;
        if sequential {
            let rc = self.readcache.lock();
            let limit = max_block.min(span_last.saturating_add(READAHEAD_BLOCKS));
            for b in span_last + 1..=limit {
                if rc.blocks.contains_key(&(ino, b)) {
                    break;
                }
                span_last = b;
                ra_blocks += 1;
            }
        }
        let span_off = span_first * bs;
        let span_end = ((span_last + 1) * bs).min(size);
        let piece = self.read_at_direct(f, span_off, (span_end - span_off) as usize)?;
        self.stats.readcache_readahead.add(ra_blocks);

        // Insert the span's full blocks, evicting FIFO at capacity.
        {
            let mut rc = self.readcache.lock();
            let cap = self.options.read_cache_capacity;
            for b in span_first..=span_last {
                let lo = (b * bs - span_off) as usize;
                let hi = (((b + 1) * bs).min(span_end) - span_off) as usize;
                if hi - lo != bs as usize || rc.blocks.contains_key(&(ino, b)) {
                    continue; // partial tail, or raced back in
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
                        data: piece[lo..hi].to_vec(),
                    },
                );
                rc.order.push_back((ino, b));
                self.stats.readcache_inserted.inc();
                self.stats.readcache_resident.add(1);
            }
        }

        // Copy the demanded misses out of the fetched span.
        for &b in &missing {
            let lo = (b * bs).max(offset);
            let hi = ((b + 1) * bs).min(end);
            let src = (lo - span_off) as usize..(hi - span_off) as usize;
            let dst = (lo - offset) as usize;
            out[dst..dst + src.len()].copy_from_slice(&piece[src]);
        }
        Ok(out)
    }
}
