//! Property-based tests for the columnar compression invariants.

use gfcl_columnar::{Bitmap, Column, JacobsonRank, NullKind, NullMap, RankParams, UIntArray};
use gfcl_common::{DataType, Value};
use proptest::prelude::*;

fn null_kinds() -> Vec<NullKind> {
    vec![
        NullKind::Uncompressed,
        NullKind::Vanilla,
        NullKind::Jacobson(RankParams::default()),
        NullKind::Jacobson(RankParams::new(8, 8).unwrap()),
        NullKind::Jacobson(RankParams::new(4, 16).unwrap()),
    ]
}

proptest! {
    /// Invariant 1: UIntArray round-trips any u64 values at any width.
    #[test]
    fn uint_array_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..300),
                            shift in 0u32..56) {
        // Scale values down so different widths get exercised.
        let scaled: Vec<u64> = values.iter().map(|v| v >> shift).collect();
        let arr = UIntArray::from_values(&scaled, true);
        prop_assert_eq!(arr.len(), scaled.len());
        for (i, &v) in scaled.iter().enumerate() {
            prop_assert_eq!(arr.get(i), v);
        }
        let wide = UIntArray::from_values(&scaled, false);
        prop_assert_eq!(wide.width_bytes(), 8);
        for (i, &v) in scaled.iter().enumerate() {
            prop_assert_eq!(wide.get(i), v);
        }
    }

    /// Invariant 2: Jacobson rank equals the naive popcount for every
    /// position, every parameterization.
    #[test]
    fn jacobson_rank_matches_naive(bits in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let bm = Bitmap::from_bools(&bits);
        for (c, m) in [(16u32, 16u32), (8, 8), (8, 16), (16, 8), (4, 8)] {
            let idx = JacobsonRank::build(&bm, RankParams::new(c, m).unwrap());
            let mut naive = 0usize;
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(idx.rank(&bm, i), naive, "c={} m={} i={}", c, m, i);
                if b { naive += 1; }
            }
            prop_assert_eq!(idx.count_ones(), naive);
        }
    }

    /// Invariant 2 (bis): rank_scan agrees with Jacobson rank.
    #[test]
    fn rank_scan_agrees_with_jacobson(bits in proptest::collection::vec(any::<bool>(), 1..1500)) {
        let bm = Bitmap::from_bools(&bits);
        let idx = JacobsonRank::build(&bm, RankParams::default());
        for i in 0..bits.len() {
            prop_assert_eq!(bm.rank_scan(i), idx.rank(&bm, i));
        }
    }

    /// Invariant 2 (ter): the shift-and-mask rank equals the linear scan
    /// at every position under every valid `(c, m)`. The length is drawn
    /// as whole 256-element blocks (`m = 8`), whole chunks and a
    /// remainder, so bitmaps end mid-block and mid-chunk as well as on
    /// their boundaries; the density ranges from empty to full.
    #[test]
    fn jacobson_rank_matches_rank_scan_for_every_param(
        blocks in 0usize..4,
        chunks in 0usize..20,
        rem in 0usize..16,
        density in 0u32..=8,
        seed in any::<u64>(),
    ) {
        let len = blocks * 256 + chunks * 16 + rem;
        let bm = Bitmap::from_fn(len, |i| {
            let x = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (x >> 61) < u64::from(density)
        });
        for c in [4u32, 8, 16] {
            for m in [8u32, 16, 24, 32] {
                let idx = JacobsonRank::build(&bm, RankParams::new(c, m).unwrap());
                for p in 0..len {
                    prop_assert_eq!(idx.rank(&bm, p), bm.rank_scan(p), "c={} m={} p={}", c, m, p);
                }
                prop_assert_eq!(idx.count_ones(), bm.count_ones());
            }
        }
    }

    /// Invariant 3: every NULL layout agrees with the uncompressed column.
    #[test]
    fn null_layouts_agree(values in proptest::collection::vec(
        proptest::option::weighted(0.6, any::<i64>()), 0..500)) {
        let reference = Column::from_i64(DataType::Int64, &values, NullKind::Uncompressed);
        for kind in null_kinds() {
            let col = Column::from_i64(DataType::Int64, &values, kind);
            prop_assert_eq!(col.len(), reference.len());
            for i in 0..values.len() {
                prop_assert_eq!(col.get_i64(i), reference.get_i64(i));
                prop_assert_eq!(col.is_null(i), reference.is_null(i));
            }
        }
    }

    /// Invariant 3 for strings: dictionary encoding + every NULL layout
    /// round-trips string columns.
    #[test]
    fn string_columns_roundtrip(values in proptest::collection::vec(
        proptest::option::weighted(0.7, "[a-e]{0,4}"), 0..200)) {
        for kind in null_kinds() {
            let col = Column::from_str(&values, kind, true);
            let mut cur = PageCursor::new();
            for (i, v) in values.iter().enumerate() {
                let want = v.as_ref().map_or(Value::Null, |s| Value::String(s.clone()));
                prop_assert_eq!(col.value(&mut cur, i), want);
            }
        }
    }

    /// NullMap::physical is a bijection between valid logical positions and
    /// 0..count_valid, in order.
    #[test]
    fn physical_positions_are_dense_and_ordered(valid in proptest::collection::vec(any::<bool>(), 0..600)) {
        for kind in [NullKind::Vanilla, NullKind::jacobson_default()] {
            let map = NullMap::build(&valid, kind);
            let mut expected = 0usize;
            for (i, &v) in valid.iter().enumerate() {
                if v {
                    prop_assert_eq!(map.physical(i), Some(expected));
                    expected += 1;
                } else {
                    prop_assert_eq!(map.physical(i), None);
                }
            }
            prop_assert_eq!(map.count_valid(), expected);
        }
    }
}

// ---- Block reads over resident and paged arrays ----------------------------

use gfcl_columnar::paged_array::mem::{MemSink, MemStore};
use gfcl_columnar::{ArrayData, PageCursor, PagedElem, PAGE_SIZE};
use gfcl_common::{Reader, Writer};

/// Pins a single cursor makes reading `elems` element indexes in order:
/// one whenever the page is not the one its slot holds — never when the
/// page does not change.
fn page_changes(elems: impl Iterator<Item = usize>, width: usize) -> u64 {
    let mut held = [None; PageCursor::SLOTS];
    let mut pins = 0;
    for i in elems {
        let page = i * width / PAGE_SIZE;
        if held[page % PageCursor::SLOTS] != Some(page) {
            held[page % PageCursor::SLOTS] = Some(page);
            pins += 1;
        }
    }
    pins
}

/// `get_with` and `read_range` against `get`, on the resident array and on
/// its paged twin over a [`MemStore`] that counts pins.
fn check_block_reads<T: PagedElem + PartialEq>(values: Vec<T>, cuts: &[(u32, u32)], picks: &[u32]) {
    let len = values.len();
    let store = MemStore::new();
    let resident = ArrayData::Resident(values);
    let mut w = Writer::new();
    resident.encode_seg(&mut w, &mut MemSink(std::sync::Arc::clone(&store)));
    let bytes = w.into_bytes();
    let paged = ArrayData::<T>::decode_seg(&mut Reader::new(&bytes), &store).unwrap();

    // Ranges: the random cuts plus the edges — empty, whole array, ending
    // at `len`, and one element either side of every page boundary.
    let at = |frac: u32| frac as usize * len / 1000;
    let mut ranges: Vec<(usize, usize)> =
        cuts.iter().map(|&(a, b)| (at(a.min(b)), at(a.max(b)))).collect();
    ranges.extend([(0, 0), (len, len), (0, len), (len / 2, len)]);
    let per_page = PAGE_SIZE / T::WIDTH;
    for boundary in (per_page..len).step_by(per_page) {
        ranges.push((boundary - 1, (boundary + 1).min(len)));
    }
    let gather: Vec<usize> = if len == 0 { vec![] } else { picks.iter().map(|&p| at(p)).collect() };

    for arr in [&resident, &paged] {
        let mut out = Vec::new();
        for &(s, e) in &ranges {
            out.clear();
            arr.read_range(&mut PageCursor::new(), s, e, &mut out);
            prop_assert_eq!(out.len(), e - s);
            for (k, v) in out.iter().enumerate() {
                prop_assert!(*v == arr.get(s + k), "range [{}, {}) differs at {}", s, e, s + k);
            }
        }
        let mut cur = PageCursor::new();
        for &i in &gather {
            prop_assert!(arr.get_with(&mut cur, i) == arr.get(i), "get_with differs at {}", i);
        }
    }

    // The paged arm touches the store only when the page changes: a gather
    // pins once per page change, and consecutive range reads through one
    // cursor pin once per page change of the elements they cover.
    let before = store.pins();
    let mut cur = PageCursor::new();
    for &i in &gather {
        paged.get_with(&mut cur, i);
    }
    prop_assert_eq!(store.pins() - before, page_changes(gather.iter().copied(), T::WIDTH));

    let before = store.pins();
    let mut cur = PageCursor::new();
    let mut out = Vec::new();
    for &(s, e) in &ranges {
        paged.read_range(&mut cur, s, e, &mut out);
    }
    let covered = ranges.iter().flat_map(|&(s, e)| s..e);
    prop_assert_eq!(store.pins() - before, page_changes(covered, T::WIDTH));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every element width, lengths from empty to three pages: the range
    /// read and the cursor read agree with `get` on both arms, and a
    /// cursor never pins when the page does not change.
    #[test]
    fn block_reads_agree_with_get_and_pin_per_page(
        len_permille in 0usize..3000,
        cuts in proptest::collection::vec((0u32..1001, 0u32..1001), 0..6),
        picks in proptest::collection::vec(0u32..1000, 0..300),
        salt in any::<u64>(),
    ) {
        let val = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let n = |width: usize| PAGE_SIZE / width * len_permille / 1000;
        check_block_reads::<u8>((0..n(1)).map(|i| val(i) as u8).collect(), &cuts, &picks);
        check_block_reads::<u16>((0..n(2)).map(|i| val(i) as u16).collect(), &cuts, &picks);
        check_block_reads::<u32>((0..n(4)).map(|i| val(i) as u32).collect(), &cuts, &picks);
        check_block_reads::<u64>((0..n(8)).map(val).collect(), &cuts, &picks);
        check_block_reads::<i64>((0..n(8)).map(|i| val(i) as i64).collect(), &cuts, &picks);
        check_block_reads::<bool>((0..n(1)).map(|i| val(i) & 1 == 1).collect(), &cuts, &picks);
        // f64 compares by value: keep NaN bit patterns out.
        check_block_reads::<f64>((0..n(8)).map(|i| val(i) as f64).collect(), &cuts, &picks);
    }
}
