//! The replicated log with a compacted prefix.

use std::collections::VecDeque;

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 1-based log index.
    pub index: u64,
    /// Term the entry was proposed in.
    pub term: u64,
    /// Opaque state-machine command.
    pub data: Vec<u8>,
}

/// In-memory Raft log. Indices `[1, snapshot_index]` have been compacted
/// away and are represented only by `(snapshot_index, snapshot_term)`;
/// `entries` holds `snapshot_index + 1 ..= last_index` contiguously.
#[derive(Debug, Clone, Default)]
pub struct RaftLog {
    snapshot_index: u64,
    snapshot_term: u64,
    entries: VecDeque<Entry>,
}

impl RaftLog {
    /// Empty log (no snapshot, no entries).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassemble a log from durable parts: the compacted-prefix base and
    /// the live entries (any order; must be contiguous above the base once
    /// sorted). Entries at or below the base are dropped — an engine
    /// directory whose snapshot write and log-prefix deletion were two
    /// commits, torn by a crash, can hold them.
    pub fn from_parts(snapshot_index: u64, snapshot_term: u64, mut entries: Vec<Entry>) -> Self {
        entries.sort_by_key(|e| e.index);
        entries.retain(|e| e.index > snapshot_index);
        let mut log = RaftLog {
            snapshot_index,
            snapshot_term,
            entries: VecDeque::new(),
        };
        for e in entries {
            if e.index == log.last_index() + 1 {
                log.entries.push_back(e);
            }
        }
        log
    }

    /// Index of the last entry (or of the snapshot if the log is empty).
    pub fn last_index(&self) -> u64 {
        self.entries
            .back()
            .map(|e| e.index)
            .unwrap_or(self.snapshot_index)
    }

    /// Term of the last entry (or of the snapshot).
    pub fn last_term(&self) -> u64 {
        self.entries
            .back()
            .map(|e| e.term)
            .unwrap_or(self.snapshot_term)
    }

    /// First index still present as a real entry.
    pub fn first_index(&self) -> u64 {
        self.snapshot_index + 1
    }

    /// Index/term of the compacted prefix.
    pub fn snapshot_base(&self) -> (u64, u64) {
        (self.snapshot_index, self.snapshot_term)
    }

    /// Term of `index`, if known (snapshot base or a live entry).
    pub fn term(&self, index: u64) -> Option<u64> {
        if index == self.snapshot_index {
            return Some(self.snapshot_term);
        }
        self.get(index).map(|e| e.term)
    }

    /// Entry at `index`, if live.
    pub fn get(&self, index: u64) -> Option<&Entry> {
        if index < self.first_index() || index > self.last_index() {
            return None;
        }
        let pos = (index - self.first_index()) as usize;
        self.entries.get(pos)
    }

    /// Entries `[from, from + max)`, clamped to the live range.
    pub fn slice(&self, from: u64, max: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        let mut idx = from.max(self.first_index());
        while idx <= self.last_index() && out.len() < max {
            out.push(self.get(idx).expect("index in live range").clone());
            idx += 1;
        }
        out
    }

    /// Append one entry proposed by a leader; assigns the next index.
    pub fn append_new(&mut self, term: u64, data: Vec<u8>) -> u64 {
        let index = self.last_index() + 1;
        self.entries.push_back(Entry { index, term, data });
        index
    }

    /// Follower-side append: verify the consistency check
    /// `(prev_index, prev_term)`, truncate any conflicting suffix, then
    /// append. Returns `false` when the check fails (leader must back off).
    pub fn try_append(&mut self, prev_index: u64, prev_term: u64, new_entries: &[Entry]) -> bool {
        if prev_index > self.last_index() {
            return false; // gap
        }
        if prev_index >= self.snapshot_index {
            match self.term(prev_index) {
                Some(t) if t == prev_term => {}
                _ => return false, // term conflict at prev_index
            }
        }
        // else: prev_index is inside our snapshot — it is committed, so it
        // matches by the Raft snapshot invariant.

        for e in new_entries {
            if e.index <= self.snapshot_index {
                continue; // already compacted (hence committed and equal)
            }
            match self.term(e.index) {
                Some(t) if t == e.term => continue, // duplicate
                Some(_) => {
                    // Conflict: drop this entry and everything after it.
                    self.truncate_from(e.index);
                    self.entries.push_back(e.clone());
                }
                None => {
                    debug_assert_eq!(e.index, self.last_index() + 1, "contiguous append");
                    self.entries.push_back(e.clone());
                }
            }
        }
        true
    }

    /// Drop entries at `index` and above.
    pub fn truncate_from(&mut self, index: u64) {
        while self
            .entries
            .back()
            .map(|e| e.index >= index)
            .unwrap_or(false)
        {
            self.entries.pop_back();
        }
    }

    /// Discard entries `<= index`, recording `(index, term)` as the new
    /// snapshot base. Also used when installing a received snapshot (where
    /// the whole log may be replaced).
    pub fn compact_to(&mut self, index: u64, term: u64) {
        while self
            .entries
            .front()
            .map(|e| e.index <= index)
            .unwrap_or(false)
        {
            self.entries.pop_front();
        }
        if index > self.snapshot_index {
            self.snapshot_index = index;
            self.snapshot_term = term;
        }
        // If the snapshot is ahead of everything we had, the residual
        // entries are stale — drop them.
        if self
            .entries
            .front()
            .map(|e| e.index != self.snapshot_index + 1)
            .unwrap_or(false)
        {
            self.entries.clear();
        }
    }

    /// Number of live (uncompacted) entries.
    pub fn live_len(&self) -> usize {
        self.entries.len()
    }

    /// Is `(last_index, last_term)` of a candidate at least as up-to-date
    /// as this log (the RequestVote rule)?
    pub fn candidate_up_to_date(&self, cand_last_index: u64, cand_last_term: u64) -> bool {
        (cand_last_term, cand_last_index) >= (self.last_term(), self.last_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: u64, term: u64) -> Entry {
        Entry {
            index,
            term,
            data: vec![index as u8],
        }
    }

    #[test]
    fn append_new_assigns_sequential_indices() {
        let mut log = RaftLog::new();
        assert_eq!(log.append_new(1, vec![1]), 1);
        assert_eq!(log.append_new(1, vec![2]), 2);
        assert_eq!(log.append_new(2, vec![3]), 3);
        assert_eq!(log.last_index(), 3);
        assert_eq!(log.last_term(), 2);
        assert_eq!(log.term(2), Some(1));
    }

    #[test]
    fn try_append_detects_gaps_and_conflicts() {
        let mut log = RaftLog::new();
        assert!(log.try_append(0, 0, &[entry(1, 1), entry(2, 1)]));
        // Gap: prev beyond our last.
        assert!(!log.try_append(5, 1, &[entry(6, 1)]));
        // Term conflict at prev.
        assert!(!log.try_append(2, 9, &[entry(3, 9)]));
        // Conflicting suffix is replaced.
        assert!(log.try_append(1, 1, &[entry(2, 3), entry(3, 3)]));
        assert_eq!(log.term(2), Some(3));
        assert_eq!(log.last_index(), 3);
    }

    #[test]
    fn duplicate_entries_are_idempotent() {
        let mut log = RaftLog::new();
        let es = [entry(1, 1), entry(2, 1)];
        assert!(log.try_append(0, 0, &es));
        assert!(log.try_append(0, 0, &es));
        assert_eq!(log.live_len(), 2);
    }

    #[test]
    fn compaction_moves_base_and_preserves_suffix() {
        let mut log = RaftLog::new();
        for i in 1..=10 {
            log.append_new(1, vec![i as u8]);
        }
        log.compact_to(6, 1);
        assert_eq!(log.snapshot_base(), (6, 1));
        assert_eq!(log.first_index(), 7);
        assert_eq!(log.last_index(), 10);
        assert!(log.get(6).is_none());
        assert!(log.get(7).is_some());
        assert_eq!(log.term(6), Some(1), "snapshot base term still answerable");
        // Slices clamp into the live range.
        let s = log.slice(1, 100);
        assert_eq!(s.first().unwrap().index, 7);
    }

    #[test]
    fn snapshot_ahead_of_log_clears_entries() {
        let mut log = RaftLog::new();
        for _ in 1..=3 {
            log.append_new(1, vec![]);
        }
        // Install a snapshot far ahead (follower way behind).
        log.compact_to(100, 4);
        assert_eq!(log.last_index(), 100);
        assert_eq!(log.last_term(), 4);
        assert_eq!(log.live_len(), 0);
        // New appends continue after the snapshot.
        assert!(log.try_append(100, 4, &[entry(101, 5)]));
        assert_eq!(log.last_index(), 101);
    }

    #[test]
    fn up_to_date_rule() {
        let mut log = RaftLog::new();
        log.append_new(2, vec![]);
        log.append_new(3, vec![]);
        assert!(log.candidate_up_to_date(2, 3)); // equal
        assert!(log.candidate_up_to_date(9, 3)); // longer same term
        assert!(log.candidate_up_to_date(1, 4)); // higher term wins
        assert!(!log.candidate_up_to_date(1, 3)); // shorter same term
        assert!(!log.candidate_up_to_date(9, 2)); // lower term loses
    }

    #[test]
    fn try_append_with_prev_inside_snapshot() {
        let mut log = RaftLog::new();
        log.compact_to(10, 2);
        // prev_index below snapshot base: committed, accepted; entries
        // covered by the snapshot are skipped.
        assert!(log.try_append(8, 1, &[entry(9, 2), entry(10, 2), entry(11, 3)]));
        assert_eq!(log.last_index(), 11);
        assert_eq!(log.first_index(), 11);
    }
}
