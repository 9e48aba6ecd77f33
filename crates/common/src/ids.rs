//! Label IDs and traversal directions (Sections 4.1.2 and 4.2 of the
//! paper).
//!
//! A vertex is addressed as `(vertex label, label-level positional offset)`
//! and an n-n edge as `(edge label, source vertex, page-level positional
//! offset)`. No struct holds either whole: Section 5.2 factors out the edge
//! label (lists are clustered by label), the neighbour's vertex ID (it is
//! the other member of the `(edge, neighbour)` pair) and, per the Figure 6
//! decision tree, often the positional offset itself, so the engines pass
//! a [`LabelId`] next to a plain `u64` offset.

use std::fmt;

/// Index of a vertex or edge label in the catalog. 16 bits: real property
/// graphs have tens of labels (LDBC: 8 vertex + 15 edge).
pub type LabelId = u16;

/// Traversal direction of an adjacency index. Every GDBMS double-indexes
/// edges (Section 3): forward lists are grouped by source, backward lists by
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    Fwd,
    Bwd,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Fwd => Direction::Bwd,
            Direction::Bwd => Direction::Fwd,
        }
    }

    /// Index (0/1) for direction-keyed two-element arrays.
    pub fn index(self) -> usize {
        match self {
            Direction::Fwd => 0,
            Direction::Bwd => 1,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Fwd => "fwd",
            Direction::Bwd => "bwd",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse_roundtrips() {
        assert_eq!(Direction::Fwd.reverse(), Direction::Bwd);
        assert_eq!(Direction::Bwd.reverse().reverse(), Direction::Bwd);
        assert_eq!(Direction::Fwd.index(), 0);
        assert_eq!(Direction::Bwd.index(), 1);
    }
}
