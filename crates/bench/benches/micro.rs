//! Micro-benchmarks of the columnar primitives: rank queries, fixed-width
//! array access, dictionary predicate pre-evaluation, CSR list lookup, and
//! the two edge-property access paths of the property pages. Each row is
//! [`bench_fn`]'s best-of-batches ns per call.

use std::hint::black_box;

use gfcl_bench::bench_fn;
use gfcl_columnar::{
    Bitmap, Column, Dictionary, JacobsonRank, NullKind, PageCursor, RankParams, UIntArray,
};
use gfcl_common::{DataType, Direction};
use gfcl_storage::{ColumnarGraph, StorageConfig};

fn bench_rank() {
    let n = 1 << 20;
    let bits = Bitmap::from_fn(n, |i| i % 3 == 0);
    let rank = JacobsonRank::build(&bits, RankParams::default());
    let positions: Vec<usize> = (0..1024).map(|i| (i * 104_729) % n).collect();

    bench_fn("rank/jacobson_1k_random", || {
        let mut acc = 0usize;
        for &p in &positions {
            acc += rank.rank(black_box(&bits), black_box(p));
        }
        acc
    });
    bench_fn("rank/linear_scan_1k_random", || {
        let mut acc = 0usize;
        for &p in &positions {
            acc += bits.rank_scan(black_box(p));
        }
        acc
    });
}

fn bench_uint_array() {
    let values: Vec<u64> = (0..1_000_000u64).map(|i| i % 60_000).collect();
    let narrow = UIntArray::from_values(&values, true);
    let wide = UIntArray::from_values(&values, false);
    let idx: Vec<usize> = (0..4096).map(|i| (i * 48_271) % values.len()).collect();

    bench_fn("uint_array/get_u16_4k", || {
        idx.iter().map(|&i| narrow.get(black_box(i))).sum::<u64>()
    });
    bench_fn("uint_array/get_u64_4k", || idx.iter().map(|&i| wide.get(black_box(i))).sum::<u64>());
}

fn bench_dictionary() {
    let mut dict = Dictionary::new();
    for i in 0..1000 {
        dict.intern(&format!("value-{i}-{}", if i % 7 == 0 { "production" } else { "other" }));
    }
    bench_fn("dictionary_contains_pre_eval_1000", || {
        dict.matching_codes(|s| s.contains(black_box("production"))).count_ones()
    });
}

fn bench_null_column() {
    let values: Vec<Option<i64>> =
        (0..1_000_000).map(|i| (i % 3 == 0).then_some(i as i64)).collect();
    let jac = Column::from_i64(DataType::Int64, &values, NullKind::jacobson_default());
    let unc = Column::from_i64(DataType::Int64, &values, NullKind::Uncompressed);
    let idx: Vec<usize> = (0..4096).map(|i| (i * 48_271) % values.len()).collect();

    bench_fn("null_column_4k_random_reads/jacobson", || {
        idx.iter().filter_map(|&i| jac.get_i64(black_box(i))).sum::<i64>()
    });
    bench_fn("null_column_4k_random_reads/uncompressed", || {
        idx.iter().filter_map(|&i| unc.get_i64(black_box(i))).sum::<i64>()
    });
}

fn bench_edge_prop_paths() {
    let raw = gfcl_datagen::generate_powerlaw(gfcl_datagen::PowerLawParams::flickr(20_000));
    let g = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
    let link = g.catalog().edge_label_id("LINK").unwrap();
    let fwd = g.adj(link, Direction::Fwd).as_csr().unwrap();
    let n = raw.vertex_count(0) as u64;

    // Forward: iterate a batch of adjacency lists reading ts in list order.
    let read = g.edge_prop_read(link, Direction::Fwd, 0).unwrap();
    let col = read.column();
    let (mut cur, mut ids, mut nbr) = (PageCursor::new(), PageCursor::new(), PageCursor::new());
    let mut flat = Vec::new();
    bench_fn("edge_prop_pages/fwd_list_order_1k_vertices", || {
        let mut acc = 0i64;
        for v in 0..1000u64 {
            let (start, len) = fwd.list(v);
            flat.clear();
            read.resolve_list(fwd, v, start..start + len as u64, &mut ids, &mut nbr, &mut flat)
                .unwrap();
            for &f in &flat {
                acc += col.get_i64_with(&mut cur, f as usize).unwrap_or(0);
            }
        }
        acc
    });
    // Backward: same number of reads through the (src, page offset) path.
    let bwd = g.adj(link, Direction::Bwd).as_csr().unwrap();
    let read = g.edge_prop_read(link, Direction::Bwd, 0).unwrap();
    let col = read.column();
    let (mut cur, mut ids, mut nbr) = (PageCursor::new(), PageCursor::new(), PageCursor::new());
    bench_fn("edge_prop_pages/bwd_random_1k_vertices", || {
        let mut acc = 0i64;
        for v in (0..n).step_by((n as usize / 1000).max(1)) {
            let (start, len) = bwd.list(v);
            flat.clear();
            read.resolve_list(bwd, v, start..start + len as u64, &mut ids, &mut nbr, &mut flat)
                .unwrap();
            for &f in &flat {
                acc += col.get_i64_with(&mut cur, f as usize).unwrap_or(0);
            }
        }
        acc
    });
}

fn main() {
    bench_rank();
    bench_uint_array();
    bench_dictionary();
    bench_null_column();
    bench_edge_prop_paths();
}
