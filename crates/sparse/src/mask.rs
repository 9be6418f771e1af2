//! 2-D bitset masks.

use pit_tensor::Tensor;
use std::ops::Range;

/// A dense 2-D bitset marking the non-zero positions of a tensor.
///
/// Bits are stored row-major, 64 per word. A `Mask` of 4096×4096 occupies
/// 2 MiB, so masks for every experiment fit comfortably in memory.
///
/// # Examples
///
/// ```
/// use pit_sparse::Mask;
/// let mut m = Mask::zeros(4, 4);
/// m.set(1, 2, true);
/// assert_eq!(m.nnz(), 1);
/// assert!((m.sparsity() - 15.0 / 16.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Mask {
    /// Creates an all-zero mask.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Mask {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Creates an all-one (fully dense) mask.
    pub fn ones(rows: usize, cols: usize) -> Self {
        let mut m = Mask::zeros(rows, cols);
        m.fill_rows(0..rows);
        m
    }

    /// Sets every bit of the rows in `rows`, a word at a time; the bits
    /// of each row's last word past `cols` stay clear.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the last row.
    pub fn fill_rows(&mut self, rows: Range<usize>) {
        assert!(rows.end <= self.rows, "mask row range out of bounds");
        let wpr = self.words_per_row;
        if wpr == 0 {
            return;
        }
        let tail = match self.cols % 64 {
            0 => u64::MAX,
            valid => (1u64 << valid) - 1,
        };
        for row in self.bits[rows.start * wpr..rows.end * wpr].chunks_exact_mut(wpr) {
            row.fill(u64::MAX);
            row[wpr - 1] = tail;
        }
    }

    /// Builds a mask from a predicate over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Mask::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds a mask marking the non-zero elements of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank 2.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 2, "Mask::from_tensor requires a rank-2 tensor");
        let (rows, cols) = (t.shape().dim(0), t.shape().dim(1));
        let mut m = Mask::zeros(rows, cols);
        if cols == 0 {
            return m;
        }
        let words = m.bits.chunks_exact_mut(m.words_per_row);
        for (row, words) in t.data().chunks_exact(cols).zip(words) {
            for (values, word) in row.chunks(64).zip(words) {
                *word = nonzero_word(values);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of positions.
    pub fn numel(&self) -> usize {
        self.rows * self.cols
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "mask index out of bounds");
        let w = self.bits[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(r < self.rows && c < self.cols, "mask index out of bounds");
        let word = &mut self.bits[r * self.words_per_row + c / 64];
        if v {
            *word |= 1u64 << (c % 64);
        } else {
            *word &= !(1u64 << (c % 64));
        }
    }

    /// Number of set bits.
    pub fn nnz(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of zero positions — the paper's "sparsity ratio".
    pub fn sparsity(&self) -> f64 {
        if self.numel() == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.numel() as f64
    }

    /// Fraction of non-zero positions.
    pub fn density(&self) -> f64 {
        1.0 - self.sparsity()
    }

    /// Number of set bits in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        let base = r * self.words_per_row;
        self.bits[base..base + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// True if row `r` has any set bit.
    pub fn row_any(&self, r: usize) -> bool {
        let base = r * self.words_per_row;
        self.bits[base..base + self.words_per_row]
            .iter()
            .any(|&w| w != 0)
    }

    /// True if any bit in the rectangle `[r0, r0+h) × [c0, c0+w)` is set
    /// (clipped to the mask bounds).
    pub fn block_any(&self, r0: usize, c0: usize, h: usize, w: usize) -> bool {
        let r1 = (r0 + h).min(self.rows);
        let c1 = (c0 + w).min(self.cols);
        for r in r0..r1 {
            let base = r * self.words_per_row;
            let mut c = c0;
            while c < c1 {
                let word_idx = c / 64;
                let lo = c % 64;
                let hi = ((word_idx + 1) * 64).min(c1) - word_idx * 64;
                let mask = if hi - lo == 64 {
                    u64::MAX
                } else {
                    ((1u64 << (hi - lo)) - 1) << lo
                };
                if self.bits[base + word_idx] & mask != 0 {
                    return true;
                }
                c = (word_idx + 1) * 64;
            }
        }
        false
    }

    /// Number of set bits in the rectangle `[r0, r0+h) × [c0, c0+w)`.
    pub fn block_nnz(&self, r0: usize, c0: usize, h: usize, w: usize) -> usize {
        let r1 = (r0 + h).min(self.rows);
        let c1 = (c0 + w).min(self.cols);
        let mut count = 0usize;
        for r in r0..r1 {
            let base = r * self.words_per_row;
            let mut c = c0;
            while c < c1 {
                let word_idx = c / 64;
                let lo = c % 64;
                let hi = ((word_idx + 1) * 64).min(c1) - word_idx * 64;
                let mask = if hi - lo == 64 {
                    u64::MAX
                } else {
                    ((1u64 << (hi - lo)) - 1) << lo
                };
                count += (self.bits[base + word_idx] & mask).count_ones() as usize;
                c = (word_idx + 1) * 64;
            }
        }
        count
    }

    /// Indices of rows that contain at least one set bit.
    pub fn nonzero_rows(&self) -> Vec<usize> {
        (0..self.rows).filter(|&r| self.row_any(r)).collect()
    }

    /// For each `strip_h`-row strip, the number of columns that contain at
    /// least one set bit within the strip. This is the per-strip non-zero
    /// micro-tile count for micro-tiles of shape `(strip_h, 1)`, computed
    /// with word-wide ORs (used by the hot path of Algorithm-1 selection).
    pub fn strip_col_counts(&self, strip_h: usize) -> Vec<usize> {
        assert!(strip_h > 0, "strip height must be positive");
        let mut acc = Vec::new();
        (0..self.rows.div_ceil(strip_h))
            .map(|s| {
                self.strip_or(s * strip_h, strip_h, &mut acc)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum()
            })
            .collect()
    }

    /// The column-occupancy words of the strip of rows `[r0, r0 + h)`
    /// (clipped to the mask): bit `c % 64` of word `c / 64` is set when
    /// column `c` has a set bit in any row of the strip. Bits past the last
    /// column are zero. A one-row strip borrows that row's words; a taller
    /// one is ORed together in `acc`.
    pub fn strip_or<'a>(&'a self, r0: usize, h: usize, acc: &'a mut Vec<u64>) -> &'a [u64] {
        let wpr = self.words_per_row;
        let r1 = r0.saturating_add(h).min(self.rows);
        if r1 == r0 + 1 {
            return &self.bits[r0 * wpr..r1 * wpr];
        }
        acc.clear();
        acc.resize(wpr, 0);
        for r in r0..r1 {
            for (a, &w) in acc.iter_mut().zip(&self.bits[r * wpr..(r + 1) * wpr]) {
                *a |= w;
            }
        }
        acc
    }

    /// Indices of columns that contain at least one set bit.
    pub fn nonzero_cols(&self) -> Vec<usize> {
        let mut any = vec![false; self.cols];
        for r in 0..self.rows {
            let base = r * self.words_per_row;
            for (wi, &w) in self.bits[base..base + self.words_per_row]
                .iter()
                .enumerate()
            {
                let mut word = w;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    let c = wi * 64 + b;
                    if c < self.cols {
                        any[c] = true;
                    }
                    word &= word - 1;
                }
            }
        }
        any.iter()
            .enumerate()
            .filter_map(|(c, &a)| a.then_some(c))
            .collect()
    }

    /// Iterates over all set positions in row-major order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let base = r * self.words_per_row;
            self.bits[base..base + self.words_per_row]
                .iter()
                .enumerate()
                .flat_map(move |(wi, &w)| {
                    let mut out = Vec::new();
                    let mut word = w;
                    while word != 0 {
                        let b = word.trailing_zeros() as usize;
                        let c = wi * 64 + b;
                        if c < self.cols {
                            out.push((r, c));
                        }
                        word &= word - 1;
                    }
                    out
                })
        })
    }

    /// Elementwise OR with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn or(&self, other: &Mask) -> Mask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
        out
    }

    /// Elementwise AND with another mask of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn and(&self, other: &Mask) -> Mask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *a &= b;
        }
        out
    }

    /// Transposed copy of the mask.
    pub fn transpose(&self) -> Mask {
        let mut out = Mask::zeros(self.cols, self.rows);
        for (r, c) in self.iter_nonzero() {
            out.set(c, r, true);
        }
        out
    }

    /// Applies the mask to a tensor: zeroes every element whose bit is 0.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank 2 or shapes differ.
    pub fn apply(&self, t: &Tensor) -> Tensor {
        assert_eq!(t.rank(), 2);
        assert_eq!(t.shape().dim(0), self.rows);
        assert_eq!(t.shape().dim(1), self.cols);
        let mut out = t.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                if !self.get(r, c) {
                    out.data_mut()[r * self.cols + c] = 0.0;
                }
            }
        }
        out
    }

    /// Average horizontal run length of set bits, estimated over up to
    /// `sample_rows` rows. Used by kernel selection to size `(1, w)`
    /// micro-tiles for row-segment sparsity (e.g. `1x64` granularity).
    pub fn avg_run_length(&self, sample_rows: usize) -> f64 {
        let rows = self.rows.min(sample_rows.max(1));
        let mut ones = 0usize;
        let mut runs = 0usize;
        for r in 0..rows {
            let mut prev = false;
            for c in 0..self.cols {
                let cur = self.get(r, c);
                if cur {
                    ones += 1;
                    if !prev {
                        runs += 1;
                    }
                }
                prev = cur;
            }
        }
        if runs == 0 {
            0.0
        } else {
            ones as f64 / runs as f64
        }
    }

    /// A stable 64-bit hash of the pattern, used by the §5.6 repetition
    /// study to detect recurring sparsity patterns (FNV-1a over the words).
    pub fn pattern_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.bits {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h ^= self.rows as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= self.cols as u64;
        h
    }
}

/// Bit `i` set when `values[i]` is not zero (-0.0 reads as zero, NaN as
/// non-zero), for up to 64 values. The flags are first laid out one per
/// byte, a loop the compiler vectorises; then each 8 flag bytes `x`
/// become one byte of the word: in `x · 0x0102040810204080` byte `j` of
/// `x` (0 or 1) lands on bit `56 + j` and nothing else reaches bits 56–63.
fn nonzero_word(values: &[f32]) -> u64 {
    let mut flags = [0u8; 64];
    for (f, &v) in flags.iter_mut().zip(values) {
        *f = u8::from(v != 0.0);
    }
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |word, (i, eight)| {
            let x = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
            word | (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_has_full_density() {
        let m = Mask::ones(7, 70);
        assert_eq!(m.nnz(), 490);
        assert_eq!(m.sparsity(), 0.0);
        assert!(m.get(6, 69));
    }

    #[test]
    fn fill_rows_equals_setting_each_bit() {
        for cols in [0, 1, 63, 64, 65, 127, 128, 200] {
            let mut m = Mask::zeros(6, cols);
            m.fill_rows(1..4);
            m.fill_rows(5..5);
            assert_eq!(
                m,
                Mask::from_fn(6, cols, |r, _| (1..4).contains(&r)),
                "cols {cols}"
            );
            assert_eq!(Mask::ones(6, cols), Mask::from_fn(6, cols, |_, _| true));
        }
    }

    #[test]
    fn block_any_and_nnz_clip_to_bounds() {
        let mut m = Mask::zeros(10, 10);
        m.set(9, 9, true);
        assert!(m.block_any(8, 8, 4, 4));
        assert!(!m.block_any(0, 0, 4, 4));
        assert_eq!(m.block_nnz(8, 8, 4, 4), 1);
    }

    #[test]
    fn block_ops_cross_word_boundaries() {
        let mut m = Mask::zeros(2, 130);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(1, 129, true);
        assert_eq!(m.block_nnz(0, 60, 1, 10), 2);
        assert!(m.block_any(1, 128, 1, 2));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn nonzero_rows_and_cols() {
        let mut m = Mask::zeros(5, 5);
        m.set(1, 3, true);
        m.set(4, 0, true);
        assert_eq!(m.nonzero_rows(), vec![1, 4]);
        assert_eq!(m.nonzero_cols(), vec![0, 3]);
    }

    #[test]
    fn strip_or_unions_the_strip_rows() {
        let mut m = Mask::zeros(5, 70);
        m.set(0, 1, true);
        m.set(1, 66, true);
        m.set(4, 3, true);
        let mut acc = Vec::new();
        assert_eq!(m.strip_or(0, 2, &mut acc), &[1 << 1, 1 << 2]);
        assert_eq!(m.strip_or(1, 1, &mut acc), &[0, 1 << 2]);
        // Clipped at the last row; a strip past the end is empty.
        assert_eq!(m.strip_or(3, 4, &mut acc), &[1 << 3, 0]);
        assert_eq!(m.strip_or(5, 2, &mut acc), &[0, 0]);
        assert_eq!(m.strip_col_counts(2), vec![2, 0, 1]);
    }

    #[test]
    fn iter_nonzero_matches_get() {
        let m = Mask::from_fn(17, 33, |r, c| (r * 31 + c * 7) % 5 == 0);
        let from_iter: Vec<_> = m.iter_nonzero().collect();
        let mut expected = Vec::new();
        for r in 0..17 {
            for c in 0..33 {
                if m.get(r, c) {
                    expected.push((r, c));
                }
            }
        }
        assert_eq!(from_iter, expected);
    }

    #[test]
    fn transpose_involution() {
        let m = Mask::from_fn(9, 13, |r, c| (r + c) % 3 == 0);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn apply_zeroes_masked_elements() {
        let t = Tensor::full([2, 2], 5.0);
        let mut m = Mask::zeros(2, 2);
        m.set(0, 1, true);
        let out = m.apply(&t);
        assert_eq!(out.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn from_tensor_round_trips_apply() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], [2, 2]).unwrap();
        let m = Mask::from_tensor(&t);
        assert_eq!(m.nnz(), 2);
        assert!(m.apply(&t).allclose(&t, 0.0));
    }

    #[test]
    fn pattern_hash_distinguishes_patterns() {
        let a = Mask::from_fn(8, 8, |r, c| r == c);
        let b = Mask::from_fn(8, 8, |r, c| r == c + 1);
        let a2 = Mask::from_fn(8, 8, |r, c| r == c);
        assert_eq!(a.pattern_hash(), a2.pattern_hash());
        assert_ne!(a.pattern_hash(), b.pattern_hash());
    }

    #[test]
    fn or_and_work() {
        let a = Mask::from_fn(4, 4, |r, _| r < 2);
        let b = Mask::from_fn(4, 4, |_, c| c < 2);
        assert_eq!(a.or(&b).nnz(), 12);
        assert_eq!(a.and(&b).nnz(), 4);
    }
}
