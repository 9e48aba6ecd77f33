//! Columnar primitives and compression for the `gfcl` graph DBMS
//! (Sections 4.1 and 5 of the paper).
//!
//! Desideratum 2 drives every design here: because GDBMS access patterns mix
//! short sequential runs (adjacency lists) with random accesses (vertex
//! properties), **decompressing an arbitrary element of a compressed block
//! must take constant time**. All schemes in this crate are therefore
//! fixed-length-code schemes:
//!
//! * [`UIntArray`] — leading-0 suppression: unsigned integers stored in the
//!   narrowest of 1/2/4/8-byte codes that fits the maximum value.
//! * [`Dictionary`] — fixed-length dictionary encoding of categorical
//!   strings into `⌈log2(z)/8⌉`-byte codes, with predicate evaluation over
//!   the dictionary (evaluate once per distinct value).
//! * [`JacobsonRank`] — a simplified Jacobson bit-vector index giving
//!   constant-time rank queries over a NULL bitmap (Figure 7).
//! * [`NullMap`] — the design space of NULL-compression layouts from Abadi
//!   plus the paper's Jacobson-enhanced layout, all behind one API that maps
//!   logical positions to physical positions in a dense non-NULL array.
//! * [`Column`] — a typed column combining physical values with a
//!   [`NullMap`]; the building block for vertex columns, edge columns and
//!   property pages.
//! * [`ZoneMap`] — per-block min/max (and code-presence) synopses over a
//!   column, letting scans with pushed-down predicates skip whole blocks
//!   without touching the data.
//! * [`paged_array`] — the [`ArrayData`] value-storage abstraction:
//!   resident vectors for built graphs, on-demand page faults through a
//!   [`PageStore`] (the storage crate's buffer pool) for reopened ones,
//!   read a block at a time (range reads, reader-owned [`PageCursor`]s).
//!   A [`Column`] is read the same way: a range read per block, or a
//!   positional read through the caller's cursor.

pub mod bitmap;
pub mod column;
pub mod dictionary;
pub mod nulls;
pub mod paged_array;
pub mod rank;
pub mod uint_array;
pub mod zonemap;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnBuilder, ColumnData};
pub use dictionary::Dictionary;
pub use nulls::{NullKind, NullMap};
pub use paged_array::{
    ArrayData, PageCursor, PageStore, PagedElem, SegRef, SegmentSink, SegmentSource, PAGE_SIZE,
};
pub use rank::{JacobsonRank, RankParams};
pub use uint_array::UIntArray;
pub use zonemap::{ZoneEntry, ZoneInfo, ZoneMap, ZONE_BLOCK};

// Columns and their compression structures are read concurrently by the
// parallel list-based processor; keep them `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bitmap>();
    assert_send_sync::<Column>();
    assert_send_sync::<Dictionary>();
    assert_send_sync::<NullMap>();
    assert_send_sync::<JacobsonRank>();
    assert_send_sync::<UIntArray>();
    assert_send_sync::<ZoneMap>();
    assert_send_sync::<ArrayData<i64>>();
    assert_send_sync::<SegRef>();
};
