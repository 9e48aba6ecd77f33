//! `Filter`: a compiled predicate over the (single) unflat group among its
//! inputs, broadcasting flat operands, ANDed into the group's selection
//! mask.

use gfcl_common::{Error, Result};

use crate::chunk::Chunk;
use crate::pred::{CPred, EvalCtx};

/// A predicate step of the pipeline.
pub(super) struct Filter {
    pub(super) pred: CPred,
    /// Scratch verdicts of the target group, reused across states.
    pub(super) mask: Vec<bool>,
}

impl Filter {
    /// The child's next state in which some tuple satisfies the predicate,
    /// with the failing positions unselected.
    pub(super) fn next(
        &mut self,
        chunk: &mut Chunk,
        mut child: impl FnMut(&mut Chunk) -> Result<bool>,
    ) -> Result<bool> {
        let Filter { pred, mask } = self;
        loop {
            if !child(chunk)? {
                return Ok(false);
            }
            // Find the unflat group among the predicate's inputs. The
            // verifier rejects a planned filter over two; a plan handed to
            // `run_plan` from elsewhere still fails here, not wrongly.
            let (mut target, mut multi) = (None, false);
            pred.for_each_operand(&mut |r| {
                if !chunk.groups[r.group].is_flat() {
                    multi |= target.is_some_and(|t| t != r.group);
                    target = Some(r.group);
                }
            });
            if multi {
                return Err(Error::Exec(
                    "filter spans two unflat list groups; the planner must flatten one first"
                        .into(),
                ));
            }
            match target {
                None => {
                    // All operands flat: keep/drop the single current tuple.
                    let ctx = EvalCtx { groups: &chunk.groups, target: usize::MAX, pos: 0 };
                    if pred.holds(&ctx) {
                        return Ok(true);
                    }
                }
                Some(tg) => {
                    let group = &chunk.groups[tg];
                    mask.clear();
                    mask.extend((0..group.len).map(|p| group.selected(p)));
                    pred.select(&chunk.groups, tg, mask);
                    let group = &mut chunk.groups[tg];
                    group.and_mask(mask);
                    if group.sel_count > 0 {
                        return Ok(true);
                    }
                }
            }
        }
    }
}
