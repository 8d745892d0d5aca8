//! Ground-truth records of injected faults.

/// The address of one flipped bit: which word of the buffer, which bit of
/// the word (0 = least significant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitAddr {
    /// Index of the word within the injected buffer.
    pub word: usize,
    /// Bit position within the word, 0 = LSB.
    pub bit: u32,
}

/// The set of bits an injector flipped, in injection order.
///
/// Used as ground truth when scoring preprocessing algorithms: a repair at a
/// flipped bit is a true correction, a repair elsewhere is a false alarm
/// ("pseudo-correction" in the paper's vocabulary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMap {
    flips: Vec<BitAddr>,
}

impl FaultMap {
    /// An empty map.
    pub fn new() -> Self {
        FaultMap::default()
    }

    /// Records a flip.
    pub fn push(&mut self, word: usize, bit: u32) {
        self.flips.push(BitAddr { word, bit });
    }

    /// Number of flipped bits.
    pub fn len(&self) -> usize {
        self.flips.len()
    }

    /// `true` if nothing was flipped.
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// Iterates over the flipped bit addresses in injection order.
    pub fn iter(&self) -> impl Iterator<Item = BitAddr> + '_ {
        self.flips.iter().copied()
    }

    /// The distinct indices of words that took at least one flip, sorted.
    pub fn affected_words(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.flips.iter().map(|f| f.word).collect();
        w.sort_unstable();
        w.dedup();
        w
    }

    /// The fraction of `total_bits` that flipped — the empirical Γ.
    pub fn empirical_rate(&self, total_bits: usize) -> f64 {
        if total_bits == 0 {
            0.0
        } else {
            self.flips.len() as f64 / total_bits as f64
        }
    }

    /// Merges another map (e.g. from a second injection pass) into this one.
    pub fn extend(&mut self, other: &FaultMap) {
        self.flips.extend_from_slice(&other.flips);
    }

    /// The longest horizontal run of *adjacent* flipped bits, interpreting
    /// the buffer as rows of `bits_per_row` bits. Used to validate the
    /// correlated model's burst statistics.
    pub fn longest_horizontal_run(&self, word_bits: u32, bits_per_row: usize) -> usize {
        if self.flips.is_empty() {
            return 0;
        }
        let mut positions: Vec<usize> = self
            .flips
            .iter()
            .map(|f| f.word * word_bits as usize + f.bit as usize)
            .collect();
        positions.sort_unstable();
        positions.dedup();
        let mut best = 1;
        let mut run = 1;
        for w in positions.windows(2) {
            let same_row = w[0] / bits_per_row == w[1] / bits_per_row;
            if same_row && w[1] == w[0] + 1 {
                run += 1;
                best = best.max(run);
            } else {
                run = 1;
            }
        }
        best
    }
}

impl IntoIterator for FaultMap {
    type Item = BitAddr;
    type IntoIter = std::vec::IntoIter<BitAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.flips.into_iter()
    }
}

impl FromIterator<BitAddr> for FaultMap {
    fn from_iter<I: IntoIterator<Item = BitAddr>>(iter: I) -> Self {
        FaultMap {
            flips: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_iter() {
        let mut m = FaultMap::new();
        assert!(m.is_empty());
        m.push(3, 14);
        m.push(3, 2);
        m.push(7, 0);
        assert_eq!(m.len(), 3);
        let v: Vec<BitAddr> = m.iter().collect();
        assert_eq!(v[0], BitAddr { word: 3, bit: 14 });
        assert_eq!(m.affected_words(), vec![3, 7]);
    }

    #[test]
    fn empirical_rate() {
        let mut m = FaultMap::new();
        for i in 0..10 {
            m.push(i, 0);
        }
        assert!((m.empirical_rate(1000) - 0.01).abs() < 1e-12);
        assert_eq!(FaultMap::new().empirical_rate(0), 0.0);
    }

    #[test]
    fn longest_horizontal_run_counts_adjacent_bits() {
        let mut m = FaultMap::new();
        // bits 5,6,7 of word 0 (16-bit words, 64 bits per row): run of 3.
        m.push(0, 5);
        m.push(0, 6);
        m.push(0, 7);
        // isolated bit elsewhere
        m.push(2, 1);
        assert_eq!(m.longest_horizontal_run(16, 64), 3);
    }

    #[test]
    fn run_does_not_cross_rows() {
        let mut m = FaultMap::new();
        // With 16 bits per row, bit 15 of word 0 and bit 0 of word 1 are
        // adjacent linearly but in different rows.
        m.push(0, 15);
        m.push(1, 0);
        assert_eq!(m.longest_horizontal_run(16, 16), 1);
    }

    #[test]
    fn collect_and_extend() {
        let a: FaultMap = vec![BitAddr { word: 0, bit: 1 }, BitAddr { word: 1, bit: 2 }]
            .into_iter()
            .collect();
        let mut b = FaultMap::new();
        b.extend(&a);
        b.extend(&a);
        assert_eq!(b.len(), 4);
    }
}
