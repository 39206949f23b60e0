//! A small seeded generator (SplitMix64), so the benchmark's inputs
//! depend on nothing but `--seed` and this file.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// A generator for one named stream of the same seed, so adding a
    /// stream never shifts the values of another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixed = Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Rng(mixed.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).expect("range bounds are ordered");
        lo + i64::try_from(self.below(span)).expect("span fits i64")
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = usize::try_from(self.below(i as u64 + 1)).expect("index fits usize");
            items.swap(i, j);
        }
    }
}
