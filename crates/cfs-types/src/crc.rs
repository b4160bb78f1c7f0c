//! CRC32-C (Castagnoli) checksums.
//!
//! The extent store caches the CRC of each extent in memory "to speed up the
//! check for data integrity" (§2.2.1), and every data packet is summed by
//! the client and verified by each replica. Each hop sums a packet once:
//! the replica that verifies a packet folds the CRC it just checked into
//! the extent's cached CRC with [`crc32_combine`], which never touches the
//! bytes — four passes over each byte appended at three replicas (client
//! plus one per replica), three over a small-file segment (the chain head
//! sums the segment it packed and forwards that CRC).
//!
//! So the checksum runs at memory speed. On x86-64 with SSE4.2 (checked
//! once at run time) the `crc32` instruction folds eight bytes per step,
//! and inputs of at least three lanes of [`LANE`] bytes run three
//! independent instruction chains over three consecutive lanes, joined by
//! a fixed "shift by one lane" table lookup — the instruction's latency is
//! three times its issue interval, so one chain leaves two thirds of it
//! idle. Shorter inputs and tails take one chain. Anywhere else a
//! slice-by-8 table walk does the same with eight lookups. Every path
//! computes the same function as the byte-at-a-time loop kept in the
//! tests as the reference. No external dependency.

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

/// Bytes per lane of the three-lane hardware kernel. A block of three
/// lanes costs one lane-shift join, so the lane is long enough to amortise
/// it and short enough that a 128 KiB packet leaves a small one-chain tail.
const LANE: usize = 2048;

/// `x^0` in the reflected representation: the multiplicative identity.
const ONE: u32 = 1 << 31;

/// `a * b mod P` over GF(2), both in the reflected representation.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = ONE;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is `x^(2^k) mod P`, for every bit of a bit count `8n` with
/// `n: u64`. For this polynomial `x^(2^32) != x mod P`, so the powers do
/// not repeat with period 32 and zlib's 32-entry table would be wrong for
/// lengths of 2^29 bytes and more.
const X2N: [u32; 67] = build_x2n();

const fn build_x2n() -> [u32; 67] {
    let mut t = [0u32; 67];
    t[0] = ONE >> 1; // x^1
    let mut k = 1;
    while k < 67 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

/// `x^(8n) mod P`: the operator that appends `n` zero bytes to a CRC.
const fn x8nmodp(mut n: u64) -> u32 {
    let mut p = ONE;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// "Shift by one lane" as four byte tables: `LANE_SHIFT[k][b]` is
/// `(b << 8k) * x^(8 LANE) mod P`, so a register shifts past `LANE` zero
/// bytes with four lookups.
const LANE_SHIFT: [[u32; 256]; 4] = build_lane_shift();

const fn build_lane_shift() -> [[u32; 256]; 4] {
    let op = x8nmodp(LANE as u64);
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = multmodp(op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC register after `LANE` more zero bytes.
#[inline]
fn shift_lane(crc: u32) -> u32 {
    LANE_SHIFT[0][(crc & 0xff) as usize]
        ^ LANE_SHIFT[1][((crc >> 8) & 0xff) as usize]
        ^ LANE_SHIFT[2][((crc >> 16) & 0xff) as usize]
        ^ LANE_SHIFT[3][(crc >> 24) as usize]
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
unsafe fn update_sse42(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
    // Three lanes at a time: the first continues `crc`, the other two
    // start from zero, and the shift operator joins them — CRC(A‖B) over
    // raw registers is shift(CRC(A), |B|) ^ CRC_0(B).
    let mut blocks = data.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        crc = shift_lane(shift_lane(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    let mut wide = crc as u64;
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        wide = _mm_crc32_u64(wide, word(w));
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

/// CRC32-C of `A‖B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()`, in O(log `len_b`) GF(2) multiplications and without
/// the bytes (zlib's `crc32_combine`).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
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

    /// Bytes at an alignment cut into successive updates through the
    /// table path, the hardware path (where the CPU has it) and the
    /// public API; each must equal the reference loop over the whole.
    fn check_paths(data: &[u8], cuts: &[u16]) {
        let mut cuts: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize % (data.len() + 1))
            .collect();
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
        assert_eq!(table, expected, "table path, {} bytes", data.len());
        if let Some(hw) = hw {
            assert_eq!(hw, expected, "hardware path, {} bytes", data.len());
        }
        assert_eq!(api.finish(), !expected, "Crc32, {} bytes", data.len());
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
            check_paths(&data[skew.min(data.len())..], &cuts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The same over inputs long enough for whole three-lane blocks
        /// plus a one-chain tail (up to four lanes and seven bytes), so
        /// the lane join and every cut through a block are exercised.
        #[test]
        fn prop_multi_lane_paths_equal_reference(
            len in 0usize..=4 * LANE + 7,
            seed in any::<u64>(),
            skew in 0usize..8,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut x = seed | 1;
            let data: Vec<u8> = (0..len + skew)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            check_paths(&data[skew..], &cuts);
        }

        /// Combination equals summing the concatenation, empty sides
        /// included.
        #[test]
        fn prop_combine_equals_concatenation(
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b_len in 0usize..=3 * LANE + 9,
            fill in any::<u8>(),
        ) {
            let b: Vec<u8> = (0..b_len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            let whole = [a.as_slice(), b.as_slice()].concat();
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len() as u64), crc32(&whole));
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&[]), 0), crc32(&a));
            prop_assert_eq!(crc32_combine(crc32(&[]), crc32(&b), b.len() as u64), crc32(&b));
        }
    }
}
