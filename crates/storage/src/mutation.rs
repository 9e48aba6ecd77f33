//! Offset recycling (Section 7) — the one piece of the paper's update
//! discussion the write path needs as a structure of its own.
//!
//! The paper observes that, unlike columnar RDBMSs whose row IDs are
//! implicit, GDBMSs store positional offsets *explicitly* (vertex offsets in
//! adjacency lists, page-level positional offsets in edge IDs). Deletions
//! therefore leave **gaps** that must be tracked and **recycled** by later
//! insertions — this is how Neo4j's `nodestore.db.id` file works.
//! [`OffsetRecycler`] is that free-list.
//!
//! The read-optimized [`crate::ColumnarGraph`] itself remains immutable;
//! writes go through the write-optimized delta store in [`crate::delta`]
//! (the C-Store-style write store the paper cites), which recycles vacated
//! delta-vertex slots through an [`OffsetRecycler`] so its positional ID
//! space stays dense. They are made durable by the write-ahead log in
//! [`crate::wal`] and folded back into a fresh read-optimized baseline by
//! `GraphStore::merge` in [`crate::store`].

use crate::persistent::PVec;

/// A free-list of deleted positional offsets, recycled LIFO (matching
/// Neo4j's ID file behaviour the paper references). The list is a
/// persistent [`PVec`], so a clone is one `Arc` bump and the delta store
/// can share it with every snapshot.
#[derive(Debug, Clone, Default)]
pub struct OffsetRecycler {
    free: PVec<u64>,
    next_fresh: u64,
}

impl OffsetRecycler {
    pub fn new() -> Self {
        OffsetRecycler::default()
    }

    /// Allocate an offset: recycle a gap if one exists, else mint a fresh
    /// offset at the end.
    pub fn allocate(&mut self) -> u64 {
        match self.free.pop() {
            Some(off) => off,
            None => {
                let off = self.next_fresh;
                self.next_fresh += 1;
                off
            }
        }
    }

    /// The offset the next [`OffsetRecycler::allocate`] will return,
    /// without allocating it.
    pub fn peek(&self) -> u64 {
        self.free.last().copied().unwrap_or(self.next_fresh)
    }

    /// Return an offset to the pool.
    pub fn release(&mut self, off: u64) {
        debug_assert!(off < self.next_fresh, "released offset was never allocated");
        self.free.push(off);
    }

    /// Number of gaps currently waiting to be recycled.
    pub fn gaps(&self) -> usize {
        self.free.len()
    }

    /// High-water mark: offsets ever minted.
    pub fn high_water(&self) -> u64 {
        self.next_fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycler_reuses_gaps_lifo() {
        let mut r = OffsetRecycler::new();
        assert_eq!((r.allocate(), r.allocate(), r.allocate()), (0, 1, 2));
        r.release(1);
        r.release(0);
        assert_eq!(r.gaps(), 2);
        assert_eq!(r.allocate(), 0, "LIFO recycling");
        assert_eq!(r.allocate(), 1);
        assert_eq!(r.allocate(), 3, "fresh after gaps exhausted");
        assert_eq!(r.high_water(), 4);
    }
}
