//! Order statistics and the selection digest.

use vom_graph::Node;

/// The lower median of `values`: the nearest-rank 0.5-quantile, so it
/// is always one of the values. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// FNV-1a over request labels and their selected seeds: equal digests
/// mean every request selected the same seeds in the same order.
pub fn digest<'a>(selections: impl IntoIterator<Item = (&'a str, &'a [Node])>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (label, seeds) in selections {
        label.bytes().for_each(&mut eat);
        eat(0xff);
        for &s in seeds {
            s.to_le_bytes().into_iter().for_each(&mut eat);
        }
        eat(0xfe);
    }
    hash
}

/// SplitMix64: the benchmark's own generator for request order, so the
/// stream depends only on `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_lower_middle_value() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut order = SplitMix(7).permutation(12);
        order.sort_unstable();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }
}
