//! A tour of the columnar compression layer (Sections 4–5): leading-0
//! suppression, dictionary encoding, and the three NULL layouts of
//! Figure 10 (Uncompressed, Vanilla, Jacobson), measured on a sparse column.
//!
//! ```sh
//! cargo run --release --example compression_tour
//! ```

use std::time::Instant;

use gfcl::columnar::{Column, NullKind, RankParams, UIntArray};
use gfcl::{human_bytes, DataType, MemoryUsage};

fn main() {
    // ---- Leading-0 suppression (Section 5.1) ----
    println!("== leading-0 suppression ==");
    let offsets: Vec<u64> = (0..1_000_000u64).map(|i| i % 50_000).collect();
    let wide = UIntArray::from_values(&offsets, false);
    let narrow = UIntArray::from_values(&offsets, true);
    println!(
        "  1M positional offsets < 50K:  u64 = {}   suppressed({}B codes) = {}",
        human_bytes(wide.memory_bytes()),
        narrow.width_bytes(),
        human_bytes(narrow.memory_bytes())
    );

    // ---- Dictionary encoding ----
    println!("\n== dictionary encoding ==");
    let browsers = ["Chrome", "Firefox", "Safari", "Internet Explorer", "Opera"];
    let values: Vec<Option<&str>> =
        (0..1_000_000).map(|i| Some(browsers[i % browsers.len()])).collect();
    let col = Column::from_str(&values, NullKind::Uncompressed, true);
    println!(
        "  1M browser strings -> {} ({} distinct values, {}-byte codes)",
        human_bytes(col.memory_bytes()),
        col.dictionary().unwrap().len(),
        col.dictionary().unwrap().code_width_bytes()
    );
    // Predicate pre-evaluation: one pass over 5 distinct values.
    let dict = col.dictionary().unwrap();
    let matching = dict.matching_codes(|s| s.contains("e"));
    println!(
        "  CONTAINS 'e' pre-evaluated over the dictionary: {} matching codes",
        matching.count_ones()
    );

    // ---- NULL compression layouts (Section 5.3, Figure 10) ----
    println!("\n== NULL compression at 30% density ==");
    let n = 2_000_000usize;
    let sparse: Vec<Option<i64>> =
        (0..n).map(|i| ((i * 2654435761) % 10 < 3).then_some(i as i64)).collect();
    let layouts: Vec<(&str, NullKind)> = vec![
        ("Uncompressed", NullKind::Uncompressed),
        ("Vanilla bitmap", NullKind::Vanilla),
        ("J-NULL (Jacobson, m=c=16)", NullKind::Jacobson(RankParams::default())),
    ];
    // The same fixed count of random reads per layout: enough to time the
    // constant-time layouts, few enough that the vanilla layout's linear
    // rank (a scan of up to 2M bits per read) takes about a second.
    const READS: usize = 20_000;
    println!("  {:<28} {:>10} {:>12} {:>16}", "layout", "total", "overhead", "ns/random read");
    for (name, kind) in layouts {
        let col = Column::from_i64(DataType::Int64, &sparse, kind);
        // Time random access (Desideratum 2: must be constant time).
        let t0 = Instant::now();
        let mut checksum = 0i64;
        let mut idx = 1usize;
        for _ in 0..READS {
            idx = (idx * 48271) % n;
            if let Some(v) = col.get_i64(idx) {
                checksum = checksum.wrapping_add(v);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / READS as f64;
        println!(
            "  {:<28} {:>10} {:>12} {:>16.1}  (checksum {})",
            name,
            human_bytes(col.memory_bytes()),
            human_bytes(col.null_overhead_bytes()),
            ns,
            checksum % 1000
        );
    }
    println!("\nNote how the vanilla bitmap needs a linear rank scan per read while");
    println!("the Jacobson index answers in constant time for one extra bit/element.");
}
