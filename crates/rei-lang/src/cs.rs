//! Characteristic sequences: fixed-width bitvectors over the infix closure.

use std::fmt;

use crate::csops;

/// Geometry of the characteristic sequences induced by an infix closure of
/// a given size.
///
/// Following the paper's second space-time trade-off, bitvectors are padded
/// to the smallest power of two not below `len` (and at least one 64-bit
/// machine word), so that every CS occupies a whole number of `u64` blocks
/// and all bitwise kernels operate on uniformly sized rows.
///
/// # Example
///
/// ```
/// use rei_lang::CsWidth;
///
/// let w = CsWidth::for_len(15);
/// assert_eq!(w.len(), 15);
/// assert_eq!(w.padded_bits(), 64);
/// assert_eq!(w.blocks(), 1);
///
/// let wide = CsWidth::for_len(200);
/// assert_eq!(wide.padded_bits(), 256);
/// assert_eq!(wide.blocks(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CsWidth {
    len: usize,
    padded_bits: usize,
}

impl CsWidth {
    /// Geometry for an infix closure with `len` words.
    pub fn for_len(len: usize) -> Self {
        let padded_bits = len.next_power_of_two().max(64);
        CsWidth { len, padded_bits }
    }

    /// Number of meaningful bits (words in the infix closure).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the closure is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bits after padding to a power of two.
    pub fn padded_bits(&self) -> usize {
        self.padded_bits
    }

    /// Number of `u64` blocks per characteristic sequence.
    pub fn blocks(&self) -> usize {
        self.padded_bits / 64
    }

    /// Number of bytes per characteristic sequence.
    pub fn bytes(&self) -> usize {
        self.blocks() * 8
    }
}

/// A characteristic sequence: the bitvector representation of a language
/// restricted to the infix closure `ic(P ∪ N)`.
///
/// Bit `i` is 1 exactly when the `i`-th word of the closure (in shortlex
/// order) belongs to the represented language. The semiring operations of
/// infix power series are provided here for owned values; the synthesiser's
/// language cache operates on raw `&[u64]` rows through [`crate::csops`] to
/// avoid allocation, and both paths share the same kernels.
///
/// # Example
///
/// ```
/// use rei_lang::{Cs, CsWidth};
///
/// let width = CsWidth::for_len(10);
/// let mut a = Cs::zero(width);
/// a.set(3);
/// let mut b = Cs::zero(width);
/// b.set(7);
/// let u = a.union(&b);
/// assert!(u.get(3) && u.get(7));
/// assert_eq!(u.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cs {
    width: CsWidth,
    blocks: Vec<u64>,
}

impl Cs {
    /// The all-zero sequence (the empty language `∅`).
    pub fn zero(width: CsWidth) -> Self {
        Cs {
            width,
            blocks: vec![0; width.blocks()],
        }
    }

    /// The geometry of this sequence.
    pub fn width(&self) -> CsWidth {
        self.width
    }

    /// The raw 64-bit blocks.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Mutable access to the raw blocks (used by the cache kernels).
    pub fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width().len()`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.width.len(), "bit index {i} out of range");
        csops::set_bit(&mut self.blocks, i);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width().len()`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.width.len(), "bit index {i} out of range");
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`; bits beyond the meaningful length read as 0.
    pub fn get(&self, i: usize) -> bool {
        i < self.width.padded_bits() && csops::get_bit(&self.blocks, i)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(block_idx, &block)| {
                let mut bits = block;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let tz = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        Some(block_idx * 64 + tz)
                    }
                })
            })
    }

    /// Union of two languages (bitwise or). This is the `+` of the IPS
    /// semiring.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union(&self, other: &Cs) -> Cs {
        assert_eq!(self.width, other.width, "width mismatch");
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| a | b)
            .collect();
        Cs {
            width: self.width,
            blocks,
        }
    }

    /// Intersection of two languages (bitwise and).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn intersection(&self, other: &Cs) -> Cs {
        assert_eq!(self.width, other.width, "width mismatch");
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| a & b)
            .collect();
        Cs {
            width: self.width,
            blocks,
        }
    }

    /// Returns `true` if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &Cs) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the two languages share no word of the closure.
    pub fn is_disjoint_from(&self, other: &Cs) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }
}

impl fmt::Display for Cs {
    /// Renders the meaningful bits as a string of `0`/`1`, least index
    /// first, matching the row pictures in Section 3 of the paper.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.width.len() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn width_padding_is_a_power_of_two_and_at_least_64() {
        assert_eq!(CsWidth::for_len(0).padded_bits(), 64);
        assert_eq!(CsWidth::for_len(1).padded_bits(), 64);
        assert_eq!(CsWidth::for_len(64).padded_bits(), 64);
        assert_eq!(CsWidth::for_len(65).padded_bits(), 128);
        assert_eq!(CsWidth::for_len(129).padded_bits(), 256);
        assert_eq!(CsWidth::for_len(100).bytes(), 16);
    }

    #[test]
    fn set_get_clear() {
        let mut cs = Cs::zero(CsWidth::for_len(70));
        cs.set(0);
        cs.set(69);
        assert!(cs.get(0));
        assert!(cs.get(69));
        assert!(!cs.get(1));
        assert_eq!(cs.count_ones(), 2);
        cs.clear(0);
        assert!(!cs.get(0));
        assert_eq!(cs.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut cs = Cs::zero(CsWidth::for_len(10));
        cs.set(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut cs = Cs::zero(CsWidth::for_len(130));
        for i in [5, 64, 127, 129] {
            cs.set(i);
        }
        assert_eq!(cs.iter_ones().collect::<Vec<_>>(), vec![5, 64, 127, 129]);
    }

    #[test]
    fn union_intersection_subset() {
        let width = CsWidth::for_len(16);
        let mut a = Cs::zero(width);
        let mut b = Cs::zero(width);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        assert_eq!(a.union(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(a.intersection(&b).iter_ones().collect::<Vec<_>>(), vec![2]);
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(!a.is_disjoint_from(&b));
        b.clear(2);
        assert!(a.is_disjoint_from(&b));
    }

    #[test]
    fn display_renders_meaningful_bits_only() {
        let mut cs = Cs::zero(CsWidth::for_len(5));
        cs.set(0);
        cs.set(4);
        assert_eq!(cs.to_string(), "10001");
    }

    proptest! {
        /// Union is commutative, associative and idempotent — the Boolean
        /// semiring laws the search relies on.
        #[test]
        fn union_semiring_laws(xs in proptest::collection::vec(0usize..100, 0..20),
                               ys in proptest::collection::vec(0usize..100, 0..20),
                               zs in proptest::collection::vec(0usize..100, 0..20)) {
            let width = CsWidth::for_len(100);
            let mk = |ixs: &Vec<usize>| {
                let mut cs = Cs::zero(width);
                for &i in ixs { cs.set(i); }
                cs
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(a.union(&a), a.clone());
            prop_assert_eq!(a.union(&Cs::zero(width)), a);
        }
    }
}
