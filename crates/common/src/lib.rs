//! Shared foundation types for the `gfcl` graph DBMS.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`DataType`] / [`Value`] — the property type system of the property
//!   graph model (Section 2 of the paper).
//! * [`LabelId`] / [`Direction`] — label indexes and traversal directions
//!   of the paper's ID schemes (Section 4).
//! * [`MemoryUsage`] — exact heap accounting, used by the memory-reduction
//!   experiments (Table 2) so reported sizes are measurements.
//! * [`Error`] / [`Result`] — the error type shared by storage and engines.
//! * [`govern`] — per-query fault domains: the [`CancelToken`] tripped by
//!   budgets, users and storage faults, and the thread-local fault scope
//!   the storage layer reports into.
//! * [`hash`] — the one integer hasher of every integer-keyed hash table
//!   (the delta store's persistent maps, the query sinks' sets and tables).
//! * [`codec`] — byte-level encode/decode primitives and the checksums of
//!   the on-disk paged format: FNV-1a for its header and metadata, a
//!   4-lane word checksum for its data pages.

pub mod codec;
pub mod error;
pub mod govern;
pub mod hash;
pub mod ids;
pub mod mem;
pub mod types;

pub use codec::{fnv1a_64, page_checksum, Reader, Writer};
pub use error::{Error, Result};
pub use govern::{fault_scope, report_io_fault, CancelReason, CancelToken, FaultScope};
pub use ids::{Direction, LabelId};
pub use mem::{human_bytes, MemoryUsage};
pub use types::{DataType, Value};
