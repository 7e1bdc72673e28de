//! Bit-parallel simulation vectors.

use rand::Rng;

use crate::Assignment;

/// A bit-parallel simulation value: one bit per simulated pattern,
/// packed 64 patterns per word.
///
/// Simulating a circuit with `SimVector`s evaluates 64 input patterns
/// per word operation — the standard trick used by fraiging and by the
/// accuracy evaluator.
///
/// # Examples
///
/// ```
/// use cirlearn_logic::SimVector;
///
/// let a = SimVector::from_bits([true, true, false, false]);
/// let b = SimVector::from_bits([true, false, true, false]);
/// let mut c = a.clone();
/// c.and_assign(&b);
/// assert_eq!(c.bit(0), true);
/// assert_eq!(c.bit(1), false);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SimVector {
    words: Vec<u64>,
    len: usize,
}

impl SimVector {
    /// Creates an all-zero vector of `len` patterns.
    pub fn zeros(len: usize) -> Self {
        SimVector {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one vector of `len` patterns.
    pub fn ones(len: usize) -> Self {
        let mut v = SimVector {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a vector from explicit pattern bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = SimVector::zeros(0);
        for bit in bits {
            v.push(bit);
        }
        v
    }

    /// Creates a uniformly random vector of `len` patterns.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = SimVector {
            words: (0..len.div_ceil(64)).map(|_| rng.gen()).collect(),
            len,
        };
        v.mask_tail();
        v
    }

    /// Transposes row-major assignments into one column per variable:
    /// pattern `k` of column `v` is `rows[k][v]`, for every `v < width`
    /// (variables past an assignment's own width read as 0).
    ///
    /// This is the row → column marshalling simulation needs. It works
    /// on whole words: each block of up to 64 rows and each 64-variable
    /// word of those rows forms a 64×64 bit matrix that is transposed
    /// in place, instead of reading and appending one bit at a time.
    pub fn columns(rows: &[Assignment], width: usize) -> Vec<SimVector> {
        let mut cols: Vec<SimVector> = (0..width).map(|_| SimVector::zeros(rows.len())).collect();
        let mut block = [0u64; 64];
        for (b, chunk) in rows.chunks(64).enumerate() {
            for (w, group) in cols.chunks_mut(64).enumerate() {
                block.fill(0);
                for (slot, row) in block.iter_mut().zip(chunk) {
                    *slot = row.words().get(w).copied().unwrap_or(0);
                }
                transpose64(&mut block);
                for (col, &word) in group.iter_mut().zip(&block) {
                    if let Some(slot) = col.words.get_mut(b) {
                        *slot = word;
                    }
                }
            }
        }
        cols
    }

    /// Returns the number of patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the raw words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the bit of pattern `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ len`.
    pub fn bit(&self, k: usize) -> bool {
        // panic-ok: documented `# Panics` contract guard.
        assert!(
            k < self.len,
            "pattern {k} out of range ({} patterns)",
            self.len
        );
        // panic-ok: `k < len` implies `k / 64 < words.len()`.
        self.words[k / 64] >> (k % 64) & 1 == 1
    }

    /// Sets the bit of pattern `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ len`.
    pub fn set_bit(&mut self, k: usize, value: bool) {
        assert!(
            k < self.len,
            "pattern {k} out of range ({} patterns)",
            self.len
        );
        let mask = 1u64 << (k % 64);
        if value {
            self.words[k / 64] |= mask;
        } else {
            self.words[k / 64] &= !mask;
        }
    }

    /// Appends one pattern bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            // panic-ok: the branch above pushed a limb whenever
            // `len % 64 == 0`, so `words` is non-empty here.
            *self.words.last_mut().expect("just ensured") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Returns the number of 1 bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &SimVector) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise complement.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Computes `a AND b` into a fresh vector, honoring per-operand
    /// complement flags — the shape needed when simulating and-inverter
    /// graphs with negated edges.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and2(a: &SimVector, ca: bool, b: &SimVector, cb: bool) -> SimVector {
        a.assert_same_len(b);
        let mut out = SimVector::zeros(a.len);
        for (o, (&x, &y)) in out.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            let x = if ca { !x } else { x };
            let y = if cb { !y } else { y };
            *o = x & y;
        }
        out.mask_tail();
        out
    }

    /// Iterates over the pattern bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |k| self.bit(k))
    }

    fn assert_same_len(&self, other: &SimVector) {
        // panic-ok: bitwise-op contract guard, once per vector op (not
        // per bit) — mixing pattern counts is a construction bug.
        assert_eq!(
            self.len, other.len,
            "simulation vectors have different pattern counts"
        );
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of word `r` moves
/// to bit `r` of word `c`.
///
/// The classic recursive block swap: at half-width `j` (32, 16, …, 1)
/// the off-diagonal `j×j` blocks of every `2j×2j` block trade places,
/// one masked shift-xor per word pair.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    // Bit positions whose `j` bit is clear: the low half of every
    // `2j`-bit group.
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        for pair in m.chunks_exact_mut(2 * j) {
            let (lo, hi) = pair.split_at_mut(j);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> j) ^ *b) & mask;
                *a ^= t << j;
                *b ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

impl FromIterator<bool> for SimVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        SimVector::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_bit() {
        let mut v = SimVector::zeros(0);
        for k in 0..130 {
            v.push(k % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        for k in 0..130 {
            assert_eq!(v.bit(k), k % 3 == 0);
        }
    }

    #[test]
    fn ones_masks_tail() {
        let v = SimVector::ones(70);
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn bitwise_ops() {
        let a = SimVector::from_bits((0..100).map(|k| k % 2 == 0));
        let b = SimVector::from_bits((0..100).map(|k| k % 3 == 0));
        let mut and = a.clone();
        and.and_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        let mut xor = a.clone();
        xor.xor_assign(&b);
        for k in 0..100 {
            let (x, y) = (k % 2 == 0, k % 3 == 0);
            assert_eq!(and.bit(k), x && y);
            assert_eq!(or.bit(k), x || y);
            assert_eq!(xor.bit(k), x != y);
        }
    }

    #[test]
    fn not_respects_tail() {
        let mut v = SimVector::zeros(70);
        v.not_assign();
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn and2_with_complements() {
        let a = SimVector::from_bits([true, true, false, false]);
        let b = SimVector::from_bits([true, false, true, false]);
        let nand_like = SimVector::and2(&a, true, &b, false); // !a & b
        assert_eq!(
            (0..4).map(|k| nand_like.bit(k)).collect::<Vec<_>>(),
            vec![false, false, true, false]
        );
        // and2 with both complements masks the tail correctly.
        let both = SimVector::and2(&a, true, &b, true); // !a & !b
        assert_eq!(both.count_ones(), 1);
        assert!(both.bit(3));
    }

    #[test]
    fn column_transposes_assignments() {
        let mut a0 = Assignment::zeros(3);
        a0.set(Var::new(1), true);
        let mut a1 = Assignment::zeros(3);
        a1.set(Var::new(1), true);
        a1.set(Var::new(2), true);
        let cols = SimVector::columns(&[a0, a1], 3);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0].iter().collect::<Vec<_>>(), vec![false, false]);
        assert_eq!(cols[1].iter().collect::<Vec<_>>(), vec![true, true]);
        assert_eq!(cols[2].iter().collect::<Vec<_>>(), vec![false, true]);
    }

    #[test]
    fn columns_match_per_bit_reads() {
        // Partial row blocks and widths past one word: 0, 1, 63, 64,
        // 65 and 130 rows over 1, 64, 65 and 150 variables.
        let mut rng = StdRng::seed_from_u64(9);
        for rows in [0usize, 1, 63, 64, 65, 130] {
            for width in [1usize, 64, 65, 150] {
                let patterns: Vec<Assignment> = (0..rows)
                    .map(|_| Assignment::random(width, &mut rng))
                    .collect();
                let cols = SimVector::columns(&patterns, width);
                assert_eq!(cols.len(), width);
                for (v, col) in cols.iter().enumerate() {
                    let want: Vec<bool> =
                        patterns.iter().map(|p| p.get(Var::new(v as u32))).collect();
                    assert_eq!(
                        col.iter().collect::<Vec<_>>(),
                        want,
                        "{rows}x{width} col {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_reproducible() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        assert_eq!(
            SimVector::random(200, &mut r1),
            SimVector::random(200, &mut r2)
        );
    }

    #[test]
    #[should_panic(expected = "different pattern counts")]
    fn mismatched_lengths_panic() {
        let mut a = SimVector::zeros(10);
        a.and_assign(&SimVector::zeros(11));
    }
}
