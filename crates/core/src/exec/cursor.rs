//! The shared scan cursor: the one point where parallel pipelines meet.

use std::sync::atomic::{AtomicU64, Ordering};

use gfcl_common::{Error, Result};
use gfcl_storage::GraphView;

use crate::plan::{LogicalPlan, PlanStep};

/// Default scan morsel size (the paper's block size for scans, and the unit
/// of work handed to each parallel pipeline).
pub const SCAN_MORSEL: usize = 1024;

/// The shared scan cursor: hands out disjoint `[start, end)` vertex-offset
/// morsels to however many pipelines pull from it. One `fetch_add` per
/// morsel is the only cross-worker synchronization in the whole executor —
/// everything downstream of the scan is thread-private.
///
/// A single pipeline pulling from a fresh cursor sees exactly the morsel
/// sequence the serial executor produced (`[0, 1024)`, `[1024, 2048)`, …),
/// which keeps `threads = 1` bit-identical to the historical serial path.
#[derive(Debug)]
pub struct ScanCursor<'q> {
    next: AtomicU64,
    total: u64,
    /// Morsel size the scan operator claims per pull (tunable via
    /// [`ExecOptions::morsel_size`](crate::ExecOptions); [`SCAN_MORSEL`] by
    /// default).
    morsel: u64,
    /// The owning query's governor, when one is installed: scans check it
    /// once per claimed morsel, which bounds how far a canceled query can
    /// run past its trip point.
    governor: Option<&'q crate::govern::QueryGovernor>,
}

impl<'q> ScanCursor<'q> {
    /// A cursor over `total` scan positions with the default morsel size.
    pub fn new(total: u64) -> ScanCursor<'q> {
        ScanCursor::with_morsel(total, SCAN_MORSEL as u64)
    }

    /// A cursor over `total` scan positions claiming `morsel` at a time.
    pub fn with_morsel(total: u64, morsel: u64) -> ScanCursor<'q> {
        debug_assert!(morsel > 0);
        ScanCursor { next: AtomicU64::new(0), total, morsel, governor: None }
    }

    /// Attach the owning query's governor; every worker pulling from this
    /// cursor then observes budget trips at morsel granularity.
    pub fn governed(mut self, gov: &'q crate::govern::QueryGovernor) -> ScanCursor<'q> {
        self.governor = Some(gov);
        self
    }

    /// The morsel-boundary budget/cancellation check. A no-op `Ok(())`
    /// for ungoverned cursors (unit tests, embedded uses).
    #[inline]
    pub fn checkpoint(&self) -> Result<()> {
        match &self.governor {
            Some(gov) => gov.checkpoint(),
            None => Ok(()),
        }
    }

    /// Cursor sized for `plan`'s scan step over a (possibly delta-overlaid)
    /// snapshot view: scans cover the baseline rows plus every delta slot;
    /// `ScanPk` is a single morsel.
    pub fn for_plan_view(
        view: GraphView<'_>,
        plan: &LogicalPlan,
        morsel: u64,
    ) -> Result<ScanCursor<'q>> {
        match plan.steps.first() {
            Some(PlanStep::ScanAll { node, .. }) => {
                Ok(ScanCursor::with_morsel(view.scan_total(plan.nodes[*node].label), morsel))
            }
            Some(PlanStep::ScanPk { .. }) => Ok(ScanCursor::with_morsel(1, morsel)),
            _ => Err(Error::Plan("plan does not start with a scan".into())),
        }
    }

    /// The morsel size scans claim from this cursor.
    pub fn morsel(&self) -> u64 {
        self.morsel
    }

    /// Claim the next morsel of up to `morsel` positions. Returns `None`
    /// once the scan is exhausted.
    #[inline]
    pub fn claim(&self, morsel: u64) -> Option<(u64, u64)> {
        debug_assert!(morsel > 0);
        let start = self.next.fetch_add(morsel, Ordering::Relaxed);
        if start >= self.total {
            None
        } else {
            let end = (start + morsel).min(self.total);
            debug_assert!(check_morsel_bounds(start, end, self.total).is_ok());
            Some((start, end))
        }
    }

    /// Total number of scan positions this cursor covers.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The morsel-partitioning invariant, named so a violation is diagnosable:
/// every range a [`ScanCursor`] hands out must be non-empty, in order, and
/// inside the scan's `total` positions. A failure here means concurrent
/// workers received overlapping or out-of-bounds morsels — a partitioning
/// bug that would silently double-count or skip tuples if left to surface
/// as a downstream index panic.
pub fn check_morsel_bounds(start: u64, end: u64, total: u64) -> Result<()> {
    if start < end && end <= total {
        Ok(())
    } else {
        Err(Error::Exec(format!(
            "morsel invariant violated: claimed [{start}, {end}) over {total} scan positions \
             (require start < end <= total)"
        )))
    }
}
