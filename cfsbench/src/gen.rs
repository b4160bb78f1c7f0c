//! Seeded input generation: every name, size, offset and payload byte the
//! cluster receives is a pure function of `--seed`.
//!
//! The *amount* of work per round is fixed by the workload (file counts,
//! the multiset of sizes, bytes written); the seed only decides names,
//! order, offsets and contents, so runs with different seeds are
//! comparable.

/// SplitMix64: tiny, well mixed, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// ranges used here (≤ 2^24).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Seed of round `round` of a run started with `--seed seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    Rng::new(seed ^ round.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Payload bytes for `seed`.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// FNV-1a 64: the read-back checksum. Deliberately not the CRC the stack
/// itself uses, so a CRC bug cannot vouch for itself.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn name(rng: &mut Rng, prefix: &str, i: usize) -> String {
    format!("{prefix}{i:04}-{:08x}", rng.next_u64() as u32)
}

/// A file of the namespace workloads: which directory, what name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    pub dir: usize,
    pub name: String,
    /// Payload length in bytes (0 for `meta_mdtest`).
    pub size: usize,
    /// Seed of [`payload`].
    pub content_seed: u64,
}

/// Directories plus files, in creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    pub dirs: Vec<String>,
    pub files: Vec<FileSpec>,
}

/// `dirs` directories holding `per_dir` files each; file `i` gets size
/// `sizes[i % sizes.len()]`, so the size multiset is the same for every
/// seed, and the creation order is shuffled by the seed.
pub fn namespace(seed: u64, dirs: usize, per_dir: usize, sizes: &[usize]) -> Namespace {
    let mut rng = Rng::new(seed);
    let dir_names = (0..dirs).map(|d| name(&mut rng, "d", d)).collect();
    let mut files: Vec<FileSpec> = (0..dirs * per_dir)
        .map(|i| FileSpec {
            dir: i % dirs,
            name: name(&mut rng, "f", i),
            size: sizes[(i / dirs) % sizes.len()],
            content_seed: rng.next_u64(),
        })
        .collect();
    rng.shuffle(&mut files);
    Namespace {
        dirs: dir_names,
        files,
    }
}

/// Inputs of the two single-large-file workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeFile {
    pub name: String,
    pub content_seed: u64,
    /// Block-aligned offsets of the random reads (`large_rand`).
    pub read_offsets: Vec<u64>,
    /// Block-aligned offsets of the overwrites, with the seed of each
    /// overwrite's payload (`large_rand`).
    pub overwrites: Vec<(u64, u64)>,
}

pub fn large_file(seed: u64, size: u64, block: u64, reads: usize, overwrites: usize) -> LargeFile {
    let mut rng = Rng::new(seed);
    let blocks = size / block;
    LargeFile {
        name: name(&mut rng, "big", 0),
        content_seed: rng.next_u64(),
        read_offsets: (0..reads).map(|_| rng.below(blocks) * block).collect(),
        overwrites: (0..overwrites)
            .map(|_| (rng.below(blocks) * block, rng.next_u64()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            namespace(7, 4, 5, &[1, 2, 3]),
            namespace(7, 4, 5, &[1, 2, 3])
        );
        assert_eq!(
            large_file(7, 1 << 20, 4096, 50, 20),
            large_file(7, 1 << 20, 4096, 50, 20)
        );
        assert_eq!(payload(9, 1000), payload(9, 1000));
        assert_eq!(round_seed(3, 4), round_seed(3, 4));
    }

    #[test]
    fn other_seed_other_inputs() {
        assert_ne!(namespace(7, 4, 5, &[1]), namespace(8, 4, 5, &[1]));
        assert_ne!(
            large_file(7, 1 << 20, 4096, 50, 20),
            large_file(8, 1 << 20, 4096, 50, 20)
        );
        assert_ne!(payload(9, 64), payload(10, 64));
        assert_ne!(round_seed(3, 4), round_seed(3, 5));
        assert_ne!(round_seed(3, 4), round_seed(4, 4));
    }

    #[test]
    fn work_per_round_does_not_depend_on_the_seed() {
        let sizes = [1024, 4096, 16384];
        for seed in [1, 2, 99] {
            let ns = namespace(seed, 4, 6, &sizes);
            assert_eq!(ns.dirs.len(), 4);
            assert_eq!(ns.files.len(), 24);
            for d in 0..4 {
                assert_eq!(ns.files.iter().filter(|f| f.dir == d).count(), 6);
            }
            for s in sizes {
                assert_eq!(ns.files.iter().filter(|f| f.size == s).count(), 8);
            }
            let mut names: Vec<&str> = ns.files.iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 24, "names are unique");
        }
    }

    #[test]
    fn offsets_are_aligned_and_in_range() {
        let f = large_file(5, 1 << 20, 4096, 200, 100);
        for off in f
            .read_offsets
            .iter()
            .chain(f.overwrites.iter().map(|(o, _)| o))
        {
            assert_eq!(off % 4096, 0);
            assert!(off + 4096 <= 1 << 20);
        }
    }

    #[test]
    fn payload_has_the_asked_length_and_checksums_differ() {
        assert_eq!(payload(1, 0).len(), 0);
        assert_eq!(payload(1, 13).len(), 13);
        assert_ne!(checksum(&payload(1, 4096)), checksum(&payload(2, 4096)));
    }
}
