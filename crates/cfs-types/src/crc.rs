//! CRC32-C (Castagnoli) checksums.
//!
//! The extent store caches the CRC of each extent in memory "to speed up the
//! check for data integrity" (§2.2.1), and every data packet is summed by
//! the client, verified by each replica and folded into the extent's
//! running CRC — seven passes over each written byte at three replicas. So
//! the checksum runs at memory speed: on x86-64 with SSE4.2 (checked once
//! at run time) the `crc32` instruction folds eight bytes per step; anywhere
//! else a slice-by-8 table walk does the same with eight lookups. Both
//! compute the same function as the byte-at-a-time loop kept in the tests
//! as the reference. No external dependency.

/// Polynomial for CRC32-C (Castagnoli), reflected form.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, generated at compile time. `TABLES[0]` is the
/// classic byte table; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold with eight independent
/// lookups.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Portable path: slice-by-8 over whole 8-byte words, byte table for the
/// tail.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Hardware path: the SSE4.2 `crc32` instruction (which implements exactly
/// this polynomial). `None` when the CPU lacks it.
fn update_hw(crc: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` requires SSE4.2, detected just above.
        return Some(unsafe { update_sse42(crc, data) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (crc, data);
    None
}

/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut wide = crc as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        wide = _mm_crc32_u64(wide, word);
    }
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Incremental CRC32-C state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_hw(self.state, data).unwrap_or_else(|| update_table(self.state, data));
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32-C of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop both fast paths must agree with.
    fn update_reference(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32-C test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b"a"), 0xC1D0_4330);
        assert_eq!(crc32(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 13, 512, 1023, 1024] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xabu8; 4096];
        let original = crc32(&data);
        data[2048] ^= 0x01;
        assert_ne!(crc32(&data), original);
    }

    #[test]
    fn every_path_yields_the_check_value() {
        assert_eq!(!update_reference(!0, b"123456789"), 0xE306_9283);
        assert_eq!(!update_table(!0, b"123456789"), 0xE306_9283);
        if let Some(hw) = update_hw(!0, b"123456789") {
            assert_eq!(!hw, 0xE306_9283);
        }
    }

    proptest! {
        /// Arbitrary bytes at an arbitrary alignment, cut at arbitrary
        /// points into successive updates: the table path and (where the
        /// CPU has it) the hardware path, each called directly, agree with
        /// the reference loop over the whole buffer.
        #[test]
        fn prop_fast_paths_equal_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            skew in 0usize..8,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let data = &data[skew.min(data.len())..];
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let expected = update_reference(!0, data);
            let (mut table, mut hw, mut api) = (!0u32, Some(!0u32), Crc32::new());
            let mut from = 0;
            for &to in &cuts {
                table = update_table(table, &data[from..to]);
                hw = hw.and_then(|c| update_hw(c, &data[from..to]));
                api.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(table, expected);
            if let Some(hw) = hw {
                prop_assert_eq!(hw, expected);
            }
            prop_assert_eq!(api.finish(), !expected);
        }
    }
}
