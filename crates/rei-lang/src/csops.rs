//! Block-level kernels on characteristic sequences.
//!
//! The language cache of the synthesiser stores characteristic sequences as
//! contiguous rows of `u64` blocks. Both the sequential (CPU) engine and
//! the data-parallel (GPU-simulated) engine express their work in terms of
//! the free functions in this module, which operate directly on block
//! slices and perform no allocation. The owned [`crate::Cs`] type is a thin
//! wrapper over the same kernels.
//!
//! The operations implement the infix-power-series semiring of
//! Definition 3.5 of the paper:
//!
//! * union is a bitwise or ([`or_into`]),
//! * the question mark adds the `ε` bit ([`question_into`]),
//! * concatenation walks the set bits of its left operand and ORs
//!   whole blocks of the right operand through the transposed
//!   [`GuideMasks`] table ([`concat_into`]); the original per-word gather
//!   over the [`GuideTable`] survives as [`concat_into_gather`] and, bit
//!   sliced across a warp of 64 candidates, as the branch-free GPU kernel
//!   [`concat_warp`] (see "Warp concatenation" below),
//! * the Kleene star reaches its fixed point by *squaring*
//!   (`t := t · t`, [`star_into`]), needing only O(log max word length)
//!   concatenations; the original linear iteration survives as
//!   [`star_into_linear`].
//!
//! # Mask-based concatenation
//!
//! [`concat_into`] is bit-parallel on both sides: it visits only the set
//! bits `l` of the left operand (via `trailing_zeros`), and for each `l`
//! applies the pre-staged [`MaskEntry`] row — each entry moves up to 64
//! right-operand bits into the result with one mask, one shift and one
//! or. The per-split work of the gather kernels (two bit tests per split
//! per target word, whether or not the operands are sparse) disappears
//! entirely; see the [`GuideMasks`] docs for the entry layout and the
//! memory trade-off against the pair table.
//!
//! # One-block rows
//!
//! On a closure of at most 64 words a row is one `u64`, and [`concat_into`]
//! and [`star_into`] fold it in a register. Every [`MaskEntry`] then has
//! block 0, and its signed shift becomes a rotate by `shift mod 64`. The
//! rotate is exact: `target_mask` holds every selected bit after the
//! shift, so none wraps (debug builds assert this, as `MaskEntry::apply`
//! does).
//!
//! # Warp concatenation
//!
//! The paper's GPU kernel (Algorithm 2) gives every thread one
//! (candidate, word) pair, and each folds the guide-table splits of its
//! word with no data-dependent exit. [`concat_warp`] runs that fold for a
//! whole warp of up to 64 candidates at once by bit slicing: each
//! 64-lane × 64-bit block tile of the operand rows is transposed
//! (`transpose64`) into lane columns, where bit `i` of column `l` is bit
//! `l` of lane `i`'s operand. A split `(l, r)` of word `w` then costs one
//! and plus one or for all 64 lanes (`W[w] |= A[l] & B[r]`), and one more
//! transpose turns the result columns back into rows. Rows of `k` blocks
//! transpose `k` tiles each way, so one kernel serves every width.
//!
//! [`GuideMasks`]: crate::GuideMasks
//!
//! [`MaskEntry`]: crate::MaskEntry

use crate::{GuideMasks, GuideTable};

/// Reads bit `i` of a block slice.
#[inline]
pub fn get_bit(blocks: &[u64], i: usize) -> bool {
    (blocks[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of a block slice.
#[inline]
pub fn set_bit(blocks: &mut [u64], i: usize) {
    blocks[i / 64] |= 1u64 << (i % 64);
}

/// Fills a block slice with zeros.
#[inline]
pub fn clear(dst: &mut [u64]) {
    dst.fill(0);
}

/// Copies `src` into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn copy_into(dst: &mut [u64], src: &[u64]) {
    dst.copy_from_slice(src);
}

/// Returns `true` if the two rows are bitwise identical.
#[inline]
pub fn equal(a: &[u64], b: &[u64]) -> bool {
    a == b
}

/// `dst := a | b` — the union (semiring sum) of two languages.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn or_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x | y;
    }
}

/// `dst := a` with the `ε` bit set — the question-mark operator.
#[inline]
pub fn question_into(dst: &mut [u64], a: &[u64], eps_index: usize) {
    copy_into(dst, a);
    set_bit(dst, eps_index);
}

/// `dst := a · b` — the concatenation (semiring product) of two languages,
/// restricted to the infix closure, using the transposed mask table.
///
/// For every set bit `l` of `a` the pre-staged mask row is applied: each
/// entry selects the participating right-operand bits of one block with a
/// mask, shifts them onto their target positions and ORs them into the
/// result. Work is proportional to `popcount(a) ×` (entries per row)
/// instead of `num_words ×` (splits per word).
///
/// # Panics
///
/// Panics if `dst` or `b` is too short for the bit positions the mask
/// table references.
pub fn concat_into(dst: &mut [u64], a: &[u64], b: &[u64], masks: &GuideMasks) {
    if let ([d], [a], [b]) = (&mut *dst, a, b) {
        *d = concat_block(*a, *b, masks);
        return;
    }
    clear(dst);
    let num_left = masks.num_left();
    for (block, &word) in a.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let l = block * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if l >= num_left {
                // Padding bits above the closure are always zero in rows
                // produced by these kernels; stop defensively anyway.
                break;
            }
            for entry in masks.row(l) {
                entry.apply(b, dst);
            }
        }
    }
}

/// `a · b` on one-block rows: one and, one rotate and one or per entry
/// (see "One-block rows" in the module docs).
#[inline]
fn concat_block(a: u64, b: u64, masks: &GuideMasks) -> u64 {
    let num_left = masks.num_left();
    let mut acc = 0;
    let mut bits = a;
    while bits != 0 {
        let l = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if l >= num_left {
            break;
        }
        for e in masks.row(l) {
            debug_assert!(e.right_block == 0 && e.target_block == 0, "wide mask table");
            let moved = (b & e.right_mask).rotate_left(e.shift as u32 & 63);
            debug_assert_eq!(moved & !e.target_mask, 0, "stray bits after rotate");
            acc |= moved;
        }
    }
    acc
}

/// `dst := a · b` computed with the per-word split gather over the pair
/// table — the seed's sequential kernel, kept as the baseline that
/// `reproduce check`'s kernel gate times [`concat_into`] against.
///
/// # Panics
///
/// Panics if `dst` is too short for `guide.num_words()` bits.
pub fn concat_into_gather(dst: &mut [u64], a: &[u64], b: &[u64], guide: &GuideTable) {
    clear(dst);
    for w in 0..guide.num_words() {
        // Early exit per word is fine on a CPU; the data-parallel engine
        // uses the branch-free `concat_warp` instead.
        let hit = guide
            .splits(w)
            .iter()
            .any(|&(l, r)| get_bit(a, l as usize) && get_bit(b, r as usize));
        if hit {
            set_bit(dst, w);
        }
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `j` of `m[i]` moves to
/// bit `i` of `m[j]`.
///
/// Six rounds of masked block swaps, from 32 × 32 blocks down to single
/// bits (the recursive transpose of Hacker's Delight §7-3, in
/// least-significant-bit-first order).
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        // Swap the upper `width` bits of row `k` with the lower `width`
        // bits of row `k + width`, for every `k` whose `width` bit is 0.
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> width) ^ m[k + width]) & mask;
            m[k] ^= t << width;
            m[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Length of the scratch [`concat_warp`] needs on a closure of
/// `num_words` words: left, right and result lane columns, one each per
/// closure index, rounded up to whole 64-word tiles.
pub fn warp_columns_len(num_words: usize) -> usize {
    3 * 64 * num_words.div_ceil(64)
}

/// `a · b` into the row of every concatenation lane of a warp of up to 64
/// candidates: Algorithm 2's branch-free per-word gather over the pair
/// table, bit sliced so that one `u64` operation covers every lane (see
/// "Warp concatenation" in the module docs).
///
/// Lane `i`'s row is `warp[i * stride..][..blocks]`, where `blocks` is the
/// length of the operand rows. `operands[i]` holds lane `i`'s left and
/// right operand rows, or `None` for a lane that is not a concatenation:
/// its row is left untouched. A warp without any concatenation lane
/// returns at once (the whole warp takes that branch together). `columns`
/// is scratch of at least [`warp_columns_len`]`(guide.num_words())` words.
///
/// # Panics
///
/// Panics if there are more than 64 lanes, if `columns` is too short, or if
/// a concatenation lane's row does not fit in `warp`.
pub fn concat_warp(
    warp: &mut [u64],
    stride: usize,
    operands: &[Option<(&[u64], &[u64])>],
    guide: &GuideTable,
    columns: &mut [u64],
) {
    assert!(operands.len() <= 64, "a warp has at most 64 lanes");
    let Some(blocks) = operands.iter().flatten().map(|(a, _)| a.len()).next() else {
        return;
    };
    let num_words = guide.num_words();
    let tiles = num_words.div_ceil(64);
    let (left, rest) = columns.split_at_mut(64 * tiles);
    let (right, rest) = rest.split_at_mut(64 * tiles);
    let result = &mut rest[..64 * tiles];
    // Row `lane` of tile `t` is block `t` of that lane's operand; padding
    // and non-concatenation lanes contribute zero rows.
    left.fill(0);
    right.fill(0);
    for (lane, &(a, b)) in operands
        .iter()
        .enumerate()
        .filter_map(|(lane, ops)| Some((lane, ops.as_ref()?)))
    {
        for t in 0..tiles {
            left[64 * t + lane] = a[t];
            right[64 * t + lane] = b[t];
        }
    }
    for tile in left
        .as_chunks_mut()
        .0
        .iter_mut()
        .chain(right.as_chunks_mut().0)
    {
        transpose64(tile);
    }
    // Bit `i` of `result[w]`: does lane `i`'s product contain word `w`?
    // Every split is folded; there is no early exit.
    let (words, padding) = result.split_at_mut(num_words);
    for (w, out) in words.iter_mut().enumerate() {
        *out = guide
            .splits(w)
            .iter()
            .fold(0, |acc, &(l, r)| acc | left[l as usize] & right[r as usize]);
    }
    padding.fill(0);
    for tile in result.as_chunks_mut().0.iter_mut() {
        transpose64(tile);
    }
    for (lane, ops) in operands.iter().enumerate() {
        if ops.is_none() {
            continue;
        }
        let row = &mut warp[lane * stride..][..blocks];
        for (t, block) in row.iter_mut().enumerate() {
            // Blocks past the closure's last tile are row padding.
            *block = if t < tiles { result[64 * t + lane] } else { 0 };
        }
    }
}

/// `dst := a*` — the Kleene star of a language, restricted to the infix
/// closure, computed by **squaring**.
///
/// Starting from `t_0 = a ∪ {ε}`, the iteration `t_{k+1} = t_k · t_k`
/// doubles the number of factors covered each round, so the fixed point
/// `a*` (restricted to the closure) is reached after
/// O(log max word length) mask-based concatenations instead of the
/// O(max word length) rounds of the linear iteration
/// ([`star_into_linear`]). The iteration is monotone (`ε ∈ t_k` implies
/// `t_k ⊆ t_k · t_k`), so plain equality detects the fixed point.
/// `scratch` must have the same length as `dst` and holds the
/// intermediate squares.
///
/// # Panics
///
/// Panics if `dst` and `scratch` have different lengths.
pub fn star_into(
    dst: &mut [u64],
    a: &[u64],
    masks: &GuideMasks,
    eps_index: usize,
    scratch: &mut [u64],
) {
    assert_eq!(dst.len(), scratch.len(), "scratch must match dst length");
    if let ([d], [a]) = (&mut *dst, a) {
        let (mut t, mut s) = (0, *a | 1 << eps_index);
        while s != t {
            t = s;
            s = concat_block(t, t, masks);
        }
        *d = t;
        return;
    }
    copy_into(dst, a);
    set_bit(dst, eps_index);
    loop {
        concat_into(scratch, dst, dst, masks);
        if equal(scratch, dst) {
            return;
        }
        copy_into(dst, scratch);
    }
}

/// `dst := a*` computed by the seed's linear iteration
/// `t_0 = {ε}`, `t_{k+1} = t_k ∪ t_k · a` over the pair table.
///
/// Monotone, reaching the fixed point after at most
/// `max word length + 1` rounds. Kept as the reference for the squaring
/// kernel ([`star_into`]), which the property tests assert computes
/// identical sequences, and as the baseline `reproduce check`'s kernel
/// gate times it against.
///
/// # Panics
///
/// Panics if `dst` and `scratch` have different lengths.
pub fn star_into_linear(
    dst: &mut [u64],
    a: &[u64],
    guide: &GuideTable,
    eps_index: usize,
    scratch: &mut [u64],
) {
    assert_eq!(dst.len(), scratch.len(), "scratch must match dst length");
    clear(dst);
    set_bit(dst, eps_index);
    loop {
        concat_into_gather(scratch, dst, a, guide);
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(scratch.iter()) {
            let next = *d | s;
            if next != *d {
                changed = true;
                *d = next;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Returns `true` if `row` satisfies the positive/negative masks:
/// `(row & pos) == pos` and `(row & neg) == 0`.
#[inline]
pub fn satisfies(row: &[u64], pos: &[u64], neg: &[u64]) -> bool {
    row.iter()
        .zip(pos)
        .zip(neg)
        .all(|((&r, &p), &n)| (r & p) == p && (r & n) == 0)
}

/// Number of example words misclassified by `row`: positive words missing
/// from the language plus negative words present in it.
#[inline]
pub fn misclassified(row: &[u64], pos: &[u64], neg: &[u64]) -> usize {
    row.iter()
        .zip(pos)
        .zip(neg)
        .map(|((&r, &p), &n)| ((p & !r).count_ones() + (r & n).count_ones()) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cs, InfixClosure, Spec, Word};
    use proptest::prelude::*;
    use rei_syntax::{parse, Regex};

    fn setup(spec: &Spec) -> (InfixClosure, GuideTable, GuideMasks) {
        let ic = InfixClosure::of_spec(spec);
        let gt = GuideTable::build(&ic);
        let gm = GuideMasks::build(&ic);
        (ic, gt, gm)
    }

    /// `dst := a · b` computed without any staged table, by enumerating the
    /// splits of every word on the fly: the reference the staged concat
    /// kernels are checked against.
    fn concat_into_unstaged(dst: &mut [u64], a: &[u64], b: &[u64], ic: &InfixClosure) {
        clear(dst);
        for (w, word) in ic.iter() {
            let n = word.len();
            let hit = (0..=n).any(|cut| {
                let left = ic.index_of(&word.infix(0, cut));
                let right = ic.index_of(&word.infix(cut, n));
                match (left, right) {
                    (Some(l), Some(r)) => get_bit(a, l) && get_bit(b, r),
                    _ => false,
                }
            });
            if hit {
                set_bit(dst, w);
            }
        }
    }

    /// Whether word `w` of the infix closure belongs to `L(a) · L(b)`: the
    /// paper's per-thread GPU kernel body, one (candidate, word) pair per
    /// thread folding its word's guide-table splits with no early exit.
    /// The reference the bit-sliced [`concat_warp`] is checked against.
    fn concat_word_bit(a: &[u64], b: &[u64], guide: &GuideTable, w: usize) -> bool {
        let mut any = false;
        for &(l, r) in guide.splits(w) {
            any |= get_bit(a, l as usize) && get_bit(b, r as usize);
        }
        any
    }

    fn example_spec() -> Spec {
        Spec::from_strs(["1", "011", "1011", "11011"], ["", "10", "101", "0011"]).unwrap()
    }

    /// Computes the CS of a regex with the block kernels and compares it
    /// with the derivative-matcher reference.
    fn check_regex_via_kernels(spec: &Spec, expr: &str) {
        let (ic, _, gm) = setup(spec);
        let r = parse(expr).unwrap();
        let expected = ic.cs_of_regex(&r);
        let got = eval_kernels(&r, &ic, &gm);
        assert_eq!(got, expected, "CS mismatch for {expr}");
    }

    /// Recursively evaluates a regex to a CS using only the block kernels.
    fn eval_kernels(r: &Regex, ic: &InfixClosure, gm: &GuideMasks) -> Cs {
        let width = ic.width();
        let eps = ic.eps_index().unwrap();
        match r {
            Regex::Empty => Cs::zero(width),
            Regex::Epsilon => ic.cs_of_epsilon(),
            Regex::Literal(a) => ic.cs_of_literal(*a),
            Regex::Union(l, rr) => {
                let (a, b) = (eval_kernels(l, ic, gm), eval_kernels(rr, ic, gm));
                let mut dst = Cs::zero(width);
                or_into(dst.blocks_mut(), a.blocks(), b.blocks());
                dst
            }
            Regex::Concat(l, rr) => {
                let (a, b) = (eval_kernels(l, ic, gm), eval_kernels(rr, ic, gm));
                let mut dst = Cs::zero(width);
                concat_into(dst.blocks_mut(), a.blocks(), b.blocks(), gm);
                dst
            }
            Regex::Star(inner) => {
                let a = eval_kernels(inner, ic, gm);
                let mut dst = Cs::zero(width);
                let mut scratch = vec![0u64; width.blocks()];
                star_into(dst.blocks_mut(), a.blocks(), gm, eps, &mut scratch);
                dst
            }
            Regex::Question(inner) => {
                let a = eval_kernels(inner, ic, gm);
                let mut dst = Cs::zero(width);
                question_into(dst.blocks_mut(), a.blocks(), eps);
                dst
            }
        }
    }

    #[test]
    fn union_is_bitwise_or() {
        check_regex_via_kernels(&example_spec(), "0+1");
        check_regex_via_kernels(&example_spec(), "10+011+ε");
    }

    #[test]
    fn concat_matches_reference_semantics() {
        check_regex_via_kernels(&example_spec(), "01");
        check_regex_via_kernels(&example_spec(), "1(0+1)");
        check_regex_via_kernels(&example_spec(), "(0+1)(0+1)(0+1)");
        check_regex_via_kernels(&example_spec(), "ε(0+1)");
        check_regex_via_kernels(&example_spec(), "∅(0+1)");
    }

    #[test]
    fn star_matches_reference_semantics() {
        check_regex_via_kernels(&example_spec(), "(0+1)*");
        check_regex_via_kernels(&example_spec(), "(0?1)*");
        check_regex_via_kernels(&example_spec(), "(0?1)*1");
        check_regex_via_kernels(&example_spec(), "∅*");
        check_regex_via_kernels(&example_spec(), "(11)*");
    }

    #[test]
    fn question_matches_reference_semantics() {
        check_regex_via_kernels(&example_spec(), "0?");
        check_regex_via_kernels(&example_spec(), "(10)?1?");
    }

    #[test]
    fn all_concat_implementations_agree() {
        let (ic, gt, gm) = setup(&example_spec());
        for (ea, eb) in [
            ("0", "1"),
            ("1(0+1)?", "(0+1)1"),
            ("(0?1)*", "1"),
            ("∅", "01"),
        ] {
            let a = ic.cs_of_regex(&parse(ea).unwrap());
            let b = ic.cs_of_regex(&parse(eb).unwrap());
            let mut masked = Cs::zero(ic.width());
            let mut gathered = Cs::zero(ic.width());
            let mut unstaged = Cs::zero(ic.width());
            concat_into(masked.blocks_mut(), a.blocks(), b.blocks(), &gm);
            concat_into_gather(gathered.blocks_mut(), a.blocks(), b.blocks(), &gt);
            concat_into_unstaged(unstaged.blocks_mut(), a.blocks(), b.blocks(), &ic);
            assert_eq!(masked, gathered, "{ea} · {eb}");
            assert_eq!(masked, unstaged, "{ea} · {eb}");
        }
    }

    #[test]
    fn concat_word_bit_agrees_with_concat_into() {
        let (ic, gt, gm) = setup(&example_spec());
        let a = ic.cs_of_regex(&parse("1(0+1)?").unwrap());
        let b = ic.cs_of_regex(&parse("(0+1)1").unwrap());
        let mut dst = Cs::zero(ic.width());
        concat_into(dst.blocks_mut(), a.blocks(), b.blocks(), &gm);
        for w in 0..ic.len() {
            assert_eq!(dst.get(w), concat_word_bit(a.blocks(), b.blocks(), &gt, w));
        }
    }

    /// Bit `j` of `m[i]` moved to bit `i` of `out[j]`, one bit at a time.
    fn naive_transpose(m: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (i, &row) in m.iter().enumerate() {
            for (j, col) in out.iter_mut().enumerate() {
                *col |= (row >> j & 1) << i;
            }
        }
        out
    }

    #[test]
    fn transpose64_matches_naive_transpose_and_is_an_involution() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut identity = [0u64; 64];
        for (i, row) in identity.iter_mut().enumerate() {
            *row = 1 << i;
        }
        let mut single = [0u64; 64];
        single[3] = 1 << 60;
        for m in [
            identity,
            single,
            [u64::MAX; 64],
            std::array::from_fn(|_| next()),
        ] {
            let mut t = m;
            transpose64(&mut t);
            assert_eq!(t, naive_transpose(&m));
            transpose64(&mut t);
            assert_eq!(t, m);
        }
        // Row 3's bit 60 lands in row 60's bit 3.
        transpose64(&mut single);
        assert_eq!(single[60], 1 << 3);
        assert_eq!(single.iter().filter(|&&x| x != 0).count(), 1);
    }

    /// Runs [`concat_warp`] over `lanes` (one operand pair or `None` per
    /// lane) in a warp buffer of `stride`-word rows pre-filled with a
    /// marker, and checks every concat lane against [`concat_word_bit`]
    /// and [`concat_into_gather`] while every other row keeps its marker.
    fn check_warp(
        lanes: &[Option<(Vec<u64>, Vec<u64>)>],
        guide: &GuideTable,
        blocks: usize,
    ) -> Result<(), TestCaseError> {
        const MARKER: u64 = 0xDEAD_BEEF_DEAD_BEEF;
        let stride = blocks + 1;
        let mut warp = vec![MARKER; 64 * stride];
        let mut columns = vec![MARKER; warp_columns_len(guide.num_words())];
        let operands: Vec<Option<(&[u64], &[u64])>> = lanes
            .iter()
            .map(|ops| ops.as_ref().map(|(a, b)| (&a[..], &b[..])))
            .collect();
        concat_warp(&mut warp, stride, &operands, guide, &mut columns);
        for (lane, chunk) in warp.chunks(stride).enumerate() {
            let (row, flag) = chunk.split_at(blocks);
            prop_assert_eq!(flag[0], MARKER, "lane {} flag word", lane);
            match lanes.get(lane).and_then(Option::as_ref) {
                Some((a, b)) => {
                    let mut want = vec![0u64; blocks];
                    concat_into_gather(&mut want, a, b, guide);
                    prop_assert_eq!(row, &want[..], "lane {}", lane);
                    for w in 0..guide.num_words() {
                        prop_assert_eq!(get_bit(row, w), concat_word_bit(a, b, guide, w));
                    }
                }
                None => prop_assert!(row.iter().all(|&x| x == MARKER), "lane {}", lane),
            }
        }
        Ok(())
    }

    #[test]
    fn warp_without_concat_lanes_is_untouched() {
        let (_, gt, _) = setup(&example_spec());
        let mut warp = vec![7u64; 64 * 2];
        let mut columns = vec![0u64; warp_columns_len(gt.num_words())];
        concat_warp(&mut warp, 2, &[None; 64], &gt, &mut columns);
        concat_warp(&mut warp, 2, &[], &gt, &mut columns);
        assert!(warp.iter().all(|&x| x == 7));
    }

    #[test]
    fn satisfies_and_misclassified() {
        let spec = Spec::from_strs(["10", "100"], ["", "01"]).unwrap();
        let ic = InfixClosure::of_spec(&spec);
        let pos = ic.cs_of_words(spec.positive().iter());
        let neg = ic.cs_of_words(spec.negative().iter());
        let good = ic.cs_of_regex(&parse("10(0+1)*").unwrap());
        let bad = ic.cs_of_regex(&parse("(0+1)*").unwrap());
        assert!(satisfies(good.blocks(), pos.blocks(), neg.blocks()));
        assert!(!satisfies(bad.blocks(), pos.blocks(), neg.blocks()));
        assert_eq!(misclassified(good.blocks(), pos.blocks(), neg.blocks()), 0);
        assert_eq!(misclassified(bad.blocks(), pos.blocks(), neg.blocks()), 2);
        let empty = Cs::zero(ic.width());
        assert_eq!(misclassified(empty.blocks(), pos.blocks(), neg.blocks()), 2);
    }

    #[test]
    fn star_of_epsilon_and_empty() {
        let (ic, gt, gm) = setup(&example_spec());
        let width = ic.width();
        let eps_idx = ic.eps_index().unwrap();
        let mut scratch = vec![0u64; width.blocks()];
        let mut dst = Cs::zero(width);
        // ∅* = {ε}
        star_into(
            dst.blocks_mut(),
            Cs::zero(width).blocks(),
            &gm,
            eps_idx,
            &mut scratch,
        );
        assert_eq!(dst, ic.cs_of_epsilon());
        let mut linear = Cs::zero(width);
        star_into_linear(
            linear.blocks_mut(),
            Cs::zero(width).blocks(),
            &gt,
            eps_idx,
            &mut scratch,
        );
        assert_eq!(linear, dst);
    }

    /// All binary words of length ≤ `max_len` — an infix-closed set whose
    /// rows span `2^(max_len+1)/64` blocks (8 at `max_len = 8`, 32 at 10).
    fn wide_closure(max_len: u32) -> InfixClosure {
        let words = (0..=max_len).flat_map(|len| {
            (0..(1u32 << len)).map(move |bits| {
                Word::new((0..len).map(|i| if bits >> i & 1 == 1 { '1' } else { '0' }))
            })
        });
        InfixClosure::of_words(words)
    }

    #[test]
    fn kernels_match_references_on_wide_closures() {
        // Multi-block rows: mask entries whose right and target blocks
        // differ, and shifts that carry bits across block boundaries.
        // Concat is checked against the pair-table gather, star against
        // the linear iteration, and the folds against a per-bit count.
        for max_len in [8, 9, 10] {
            let ic = wide_closure(max_len);
            assert!(ic.width().blocks() >= 8);
            let gt = GuideTable::build(&ic);
            let gm = GuideMasks::build(&ic);
            let width = ic.width();
            let eps = ic.eps_index().unwrap();
            let mut scratch = vec![0u64; width.blocks()];
            for (ea, eb) in [
                ("(0+1)*", "(0?1)*"),
                ("0(0+1)*", "1"),
                ("(01)*", "(10)*0?"),
                ("∅", "(0+1)*"),
                ("ε", "11(0+1)*"),
            ] {
                let a = ic.cs_of_regex(&parse(ea).unwrap());
                let b = ic.cs_of_regex(&parse(eb).unwrap());
                let mut got = Cs::zero(width);
                let mut want = Cs::zero(width);
                concat_into(got.blocks_mut(), a.blocks(), b.blocks(), &gm);
                concat_into_gather(want.blocks_mut(), a.blocks(), b.blocks(), &gt);
                assert_eq!(got, want, "{ea} · {eb} over len ≤ {max_len}");
                star_into(got.blocks_mut(), a.blocks(), &gm, eps, &mut scratch);
                star_into_linear(want.blocks_mut(), a.blocks(), &gt, eps, &mut scratch);
                assert_eq!(got, want, "({ea})* over len ≤ {max_len}");
                for (row, pos, neg) in [(&a, &b, &got), (&b, &a, &want), (&got, &a, &b)] {
                    let wrong = (0..ic.len())
                        .filter(|&i| {
                            let r = row.get(i);
                            (pos.get(i) && !r) || (neg.get(i) && r)
                        })
                        .count();
                    let (row, pos, neg) = (row.blocks(), pos.blocks(), neg.blocks());
                    assert_eq!(misclassified(row, pos, neg), wrong);
                    assert_eq!(satisfies(row, pos, neg), wrong == 0);
                }
            }
        }
    }

    #[test]
    fn one_block_kernels_reach_bit_63_on_a_64_word_closure() {
        // All binary words of length ≤ 5 (63 words) plus `000000`: the
        // closure fills one block exactly, `000000` is bit 63, and
        // `(0+1)*` is the all-ones row.
        let ic = InfixClosure::of_words(
            wide_closure(5)
                .iter()
                .map(|(_, w)| w.clone())
                .chain([Word::from("000000")]),
        );
        assert_eq!(ic.len(), 64);
        let gt = GuideTable::build(&ic);
        let gm = GuideMasks::build(&ic);
        let eps = ic.eps_index().unwrap();
        let any = ic.cs_of_regex(&parse("0+1").unwrap());
        let (mut got, mut want, mut scratch) = ([0u64], [0u64], [0u64]);
        star_into(&mut got, any.blocks(), &gm, eps, &mut scratch);
        assert_eq!(got, [u64::MAX]);
        star_into_linear(&mut want, any.blocks(), &gt, eps, &mut scratch);
        assert_eq!(want, [u64::MAX]);
        for (ea, eb) in [
            ("(0+1)*", "(0+1)*"),
            ("0*", "0"),
            ("0", "00000"),
            ("(0+1)*1", "0*"),
            ("∅", "(0+1)*"),
        ] {
            let a = ic.cs_of_regex(&parse(ea).unwrap());
            let b = ic.cs_of_regex(&parse(eb).unwrap());
            concat_into(&mut got, a.blocks(), b.blocks(), &gm);
            concat_into_gather(&mut want, a.blocks(), b.blocks(), &gt);
            assert_eq!(got, want, "{ea} · {eb}");
            let product = ic.cs_of_regex(&parse(&format!("({ea})({eb})")).unwrap());
            assert_eq!(got, product.blocks(), "{ea} · {eb} against the matcher");
            star_into(&mut got, a.blocks(), &gm, eps, &mut scratch);
            star_into_linear(&mut want, a.blocks(), &gt, eps, &mut scratch);
            assert_eq!(got, want, "({ea})*");
        }
    }

    proptest! {
        /// On random closures of at most 64 words and random one-block
        /// rows, the register-wide concat equals the pair-table gather and
        /// the register-wide star equals the linear iteration.
        #[test]
        fn one_block_kernels_agree_with_references(
            words in proptest::collection::vec("[01]{0,7}", 1..6),
            a in 0..u64::MAX,
            b in 0..u64::MAX,
        ) {
            let ic = InfixClosure::of_words(words.iter().map(|s| Word::from(s.as_str())));
            if ic.len() > 64 { return Ok(()); }
            prop_assert_eq!(ic.width().blocks(), 1);
            let gt = GuideTable::build(&ic);
            let gm = GuideMasks::build(&ic);
            let eps = ic.eps_index().unwrap();
            let live = u64::MAX >> (64 - ic.len());
            let (a, b) = ([a & live], [b & live]);
            let (mut got, mut want, mut scratch) = ([0u64], [0u64], [0u64]);
            concat_into(&mut got, &a, &b, &gm);
            concat_into_gather(&mut want, &a, &b, &gt);
            prop_assert_eq!(got, want, "{:#x} · {:#x}", a[0], b[0]);
            star_into(&mut got, &a, &gm, eps, &mut scratch);
            star_into_linear(&mut want, &a, &gt, eps, &mut scratch);
            prop_assert_eq!(got, want, "({:#x})*", a[0]);
        }

        /// The bit-sliced warp kernel equals the per-word gather on every
        /// lane: closures of one, two and three or more blocks (including
        /// power-of-two row padding past the last tile), warps of 1, 63,
        /// 64 and 65 lanes (the 65th runs as a second, one-lane warp) and
        /// non-concatenation lanes mixed in, which keep their rows.
        #[test]
        fn concat_warp_agrees_with_word_gather(
            max_len in 3u32..9,
            extra in proptest::collection::vec("[01]{0,9}", 0..3),
            lanes in prop_oneof![Just(1usize), Just(63), Just(64), Just(65)],
            seed in 0..u64::MAX,
        ) {
            let ic = InfixClosure::of_words(
                wide_closure(max_len)
                    .iter()
                    .map(|(_, w)| w.clone())
                    .chain(extra.iter().map(|s| Word::from(s.as_str()))),
            );
            let gt = GuideTable::build(&ic);
            let blocks = ic.width().blocks();
            let live = |i: usize| i < ic.len();
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut row = |density: u64| -> Vec<u64> {
                let mut r = vec![0u64; blocks];
                for i in (0..64 * blocks).filter(|&i| live(i)) {
                    if next() % 4 < density {
                        set_bit(&mut r, i);
                    }
                }
                r
            };
            let all: Vec<Option<(Vec<u64>, Vec<u64>)>> = (0..lanes)
                .map(|lane| match lane % 5 {
                    // Every fifth lane is another kind of job.
                    4 => None,
                    k => Some((row(k as u64 % 4), row(3 - k as u64 % 3))),
                })
                .collect();
            for warp in all.chunks(64) {
                check_warp(warp, &gt, blocks)?;
            }
        }

        /// The kernel evaluation of random small regexes agrees with the
        /// derivative matcher on every word of the infix closure.
        #[test]
        fn kernels_agree_with_matcher(expr in "[01+*?()]{1,10}") {
            if let Ok(r) = parse(&expr) {
                let spec = example_spec();
                let (ic, _, gm) = setup(&spec);
                let expected = ic.cs_of_regex(&r);
                let got = eval_kernels(&r, &ic, &gm);
                prop_assert_eq!(got, expected, "expr {}", r);
            }
        }

        /// Kleene-star laws on characteristic sequences: `a ⊆ a*`,
        /// `ε ∈ a*`, idempotence `(a*)* = a*`, and `a*·a* = a*`.
        #[test]
        fn star_laws(expr in "[01+?]{1,5}") {
            let r = match parse(&expr) { Ok(r) => r, Err(_) => return Ok(()) };
            let spec = example_spec();
            let (ic, _, gm) = setup(&spec);
            let width = ic.width();
            let eps = ic.eps_index().unwrap();
            let a = ic.cs_of_regex(&r);
            let mut scratch = vec![0u64; width.blocks()];
            let mut star = Cs::zero(width);
            star_into(star.blocks_mut(), a.blocks(), &gm, eps, &mut scratch);
            // a ⊆ a* and ε ∈ a*.
            prop_assert!(a.is_subset_of(&star));
            prop_assert!(star.get(eps));
            // (a*)* = a*.
            let mut star_star = Cs::zero(width);
            star_into(star_star.blocks_mut(), star.blocks(), &gm, eps, &mut scratch);
            prop_assert_eq!(&star_star, &star);
            // a*·a* = a*.
            let mut squared = Cs::zero(width);
            concat_into(squared.blocks_mut(), star.blocks(), star.blocks(), &gm);
            prop_assert_eq!(&squared, &star);
        }

        /// The three concatenation implementations — mask-based
        /// (`concat_into`), split-gather (`concat_into_gather`) and
        /// unstaged (`concat_into_unstaged`) — agree on random closures
        /// and random operand rows.
        #[test]
        fn concat_implementations_agree_on_random_closures(
            words in proptest::collection::vec("[01]{0,6}", 1..5),
            ea in "[01+*?]{1,6}",
            eb in "[01+*?]{1,6}",
        ) {
            let (ra, rb) = match (parse(&ea), parse(&eb)) {
                (Ok(a), Ok(b)) => (a, b),
                _ => return Ok(()),
            };
            let ic = InfixClosure::of_words(words.iter().map(|s| Word::from(s.as_str())));
            let gt = GuideTable::build(&ic);
            let gm = GuideMasks::build(&ic);
            let a = ic.cs_of_regex(&ra);
            let b = ic.cs_of_regex(&rb);
            let mut masked = Cs::zero(ic.width());
            let mut gathered = Cs::zero(ic.width());
            let mut unstaged = Cs::zero(ic.width());
            concat_into(masked.blocks_mut(), a.blocks(), b.blocks(), &gm);
            concat_into_gather(gathered.blocks_mut(), a.blocks(), b.blocks(), &gt);
            concat_into_unstaged(unstaged.blocks_mut(), a.blocks(), b.blocks(), &ic);
            prop_assert_eq!(&masked, &gathered, "{} · {}", ra, rb);
            prop_assert_eq!(&masked, &unstaged, "{} · {}", ra, rb);
        }

        /// Star by squaring equals the linear fixed-point iteration on
        /// random closures and random operands.
        #[test]
        fn star_squaring_agrees_with_linear_iteration(
            words in proptest::collection::vec("[01]{0,6}", 1..5),
            expr in "[01+*?]{1,6}",
        ) {
            let r = match parse(&expr) { Ok(r) => r, Err(_) => return Ok(()) };
            let ic = InfixClosure::of_words(words.iter().map(|s| Word::from(s.as_str())));
            if ic.is_empty() { return Ok(()); }
            let gt = GuideTable::build(&ic);
            let gm = GuideMasks::build(&ic);
            let eps = ic.eps_index().unwrap();
            let a = ic.cs_of_regex(&r);
            let mut scratch = vec![0u64; ic.width().blocks()];
            let mut squared = Cs::zero(ic.width());
            let mut linear = Cs::zero(ic.width());
            star_into(squared.blocks_mut(), a.blocks(), &gm, eps, &mut scratch);
            star_into_linear(linear.blocks_mut(), a.blocks(), &gt, eps, &mut scratch);
            prop_assert_eq!(&squared, &linear, "({})*", r);
        }

        /// Concatenation is associative on characteristic sequences.
        #[test]
        fn concat_is_associative(e1 in "[01+?]{1,4}", e2 in "[01+?]{1,4}", e3 in "[01+?]{1,4}") {
            let (r1, r2, r3) = match (parse(&e1), parse(&e2), parse(&e3)) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                _ => return Ok(()),
            };
            let spec = example_spec();
            let (ic, _, gm) = setup(&spec);
            let width = ic.width();
            let (a, b, c) = (ic.cs_of_regex(&r1), ic.cs_of_regex(&r2), ic.cs_of_regex(&r3));
            let mut ab = Cs::zero(width);
            let mut bc = Cs::zero(width);
            let mut ab_c = Cs::zero(width);
            let mut a_bc = Cs::zero(width);
            concat_into(ab.blocks_mut(), a.blocks(), b.blocks(), &gm);
            concat_into(bc.blocks_mut(), b.blocks(), c.blocks(), &gm);
            concat_into(ab_c.blocks_mut(), ab.blocks(), c.blocks(), &gm);
            concat_into(a_bc.blocks_mut(), a.blocks(), bc.blocks(), &gm);
            prop_assert_eq!(ab_c, a_bc);
        }

        /// Concatenation distributes over union (semiring law), observed on
        /// characteristic sequences.
        #[test]
        fn concat_distributes_over_union(e1 in "[01+?]{1,4}", e2 in "[01+?]{1,4}", e3 in "[01+?]{1,4}") {
            let (r1, r2, r3) = match (parse(&e1), parse(&e2), parse(&e3)) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                _ => return Ok(()),
            };
            let spec = example_spec();
            let (ic, _, gm) = setup(&spec);
            let width = ic.width();
            let (a, b, c) = (ic.cs_of_regex(&r1), ic.cs_of_regex(&r2), ic.cs_of_regex(&r3));
            // a·(b+c)
            let mut bc = Cs::zero(width);
            or_into(bc.blocks_mut(), b.blocks(), c.blocks());
            let mut lhs = Cs::zero(width);
            concat_into(lhs.blocks_mut(), a.blocks(), bc.blocks(), &gm);
            // a·b + a·c
            let mut ab = Cs::zero(width);
            let mut ac = Cs::zero(width);
            concat_into(ab.blocks_mut(), a.blocks(), b.blocks(), &gm);
            concat_into(ac.blocks_mut(), a.blocks(), c.blocks(), &gm);
            let mut rhs = Cs::zero(width);
            or_into(rhs.blocks_mut(), ab.blocks(), ac.blocks());
            prop_assert_eq!(lhs, rhs);
        }
    }
}
