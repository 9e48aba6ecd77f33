//! [`StorageConfig`]: the ablation knobs of Table 2 and Sections 8.3/8.4.
//!
//! The memory-reduction experiment starts from the row store (GF-RV) and
//! applies one optimization at a time; each `+STEP` column of Table 2 is a
//! `StorageConfig` preset here. The property-page experiments of Table 3
//! toggle [`EdgePropLayout`], and the single-cardinality experiments of
//! Table 4 toggle [`StorageConfig::single_card_in_vcols`].

use gfcl_columnar::{NullKind, RankParams};
use gfcl_common::{Error, Reader, Result, Writer};

use crate::csr::CsrOptions;

/// How n-n edge properties are stored (Section 4.2 design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgePropLayout {
    /// The paper's single-indexed property pages: `k` adjacency lists per
    /// page, sequential reads forward, constant-time random reads backward.
    Pages { k: usize },
    /// Baseline: one flat column per property indexed by a randomly assigned
    /// dense edge ID ("the order would be determined by the sequence of edge
    /// insertions and deletions").
    EdgeColumns,
    /// Baseline: properties duplicated in forward *and* backward list order;
    /// sequential both ways, double the storage.
    DoubleIndexed,
}

impl EdgePropLayout {
    /// The paper's default page size.
    pub const DEFAULT_K: usize = 128;

    pub fn pages_default() -> Self {
        EdgePropLayout::Pages { k: Self::DEFAULT_K }
    }
}

/// Configuration of a [`crate::ColumnarGraph`] build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Use the paper's factored ID schemes (Section 5.2): neighbour labels
    /// and edge labels omitted, page-level positional offsets, offsets
    /// dropped entirely for property-less and single-cardinality labels
    /// (Figure 6). When `false`, adjacency lists store 8-byte global
    /// neighbour IDs and 8-byte global edge IDs for every edge — the
    /// `+COLS` configuration.
    pub new_ids: bool,
    /// Leading-0 suppression of ID components (Section 5.1): store each
    /// adjacency-list component in the narrowest byte width that fits its
    /// maximum value. The `+0-SUPR` step.
    pub zero_suppress: bool,
    /// NULL layout of property columns and single-cardinality adjacency
    /// columns, and of a CSR's empty lists (Section 5.3). `Jacobson` is
    /// the `+NULL` step; `Vanilla` is Figure 10's linear-rank baseline;
    /// `Uncompressed` keeps a value slot and a validity bit per vertex or
    /// edge in columns and one offsets entry per vertex in CSRs, as the
    /// ladder's steps before `+NULL` do. A column with no NULL stores no
    /// map under any layout.
    pub nulls: NullKind,
    /// Store single-cardinality edges (and their properties) in vertex
    /// columns instead of CSRs (Section 4.1.2; Table 4 ablation). Off, a
    /// single-cardinality extend is a `ListExtend` in the plan, in EXPLAIN
    /// and in the executor alike: the graph's catalog answers
    /// [`Catalog::column_extend`](crate::Catalog::column_extend) from this.
    pub single_card_in_vcols: bool,
    /// n-n edge property layout (Table 3 / Section 8.3 ablation).
    pub edge_prop_layout: EdgePropLayout,
    /// Build per-block zone maps over vertex property columns at graph
    /// build time, enabling pushed-down scan predicates to skip whole
    /// blocks (`gfcl_columnar::ZoneMap`). Off = scans with pushdown still
    /// work but evaluate every block.
    pub zone_maps: bool,
    /// Buffer pool capacity (in 64 KiB pages) used when the graph is
    /// reopened from disk with [`crate::ColumnarGraph::open`]. Ignored for
    /// in-memory builds; used as given, floor one page (`GFCL_BUFFER_MB`
    /// reaches it only through `gfcl_core::Config`). Runtime-only: not part
    /// of the persisted structural configuration.
    pub buffer_pool_pages: usize,
}

impl Default for StorageConfig {
    /// The full GF-CL configuration (`+NULL` column of Table 2).
    fn default() -> Self {
        StorageConfig {
            new_ids: true,
            zero_suppress: true,
            nulls: NullKind::jacobson_default(),
            single_card_in_vcols: true,
            edge_prop_layout: EdgePropLayout::pages_default(),
            zone_maps: true,
            buffer_pool_pages: crate::buffer_pool::DEFAULT_POOL_PAGES,
        }
    }
}

impl StorageConfig {
    /// `+COLS`: columnar properties and vertex-column single-cardinality
    /// edges, but the old 8-byte ID scheme and no compression.
    pub fn cols() -> Self {
        StorageConfig {
            new_ids: false,
            zero_suppress: false,
            nulls: NullKind::Uncompressed,
            ..StorageConfig::default()
        }
    }

    /// `+NEW-IDS`: factored vertex/edge ID schemes on top of `+COLS`.
    pub fn new_ids() -> Self {
        StorageConfig {
            zero_suppress: false,
            nulls: NullKind::Uncompressed,
            ..StorageConfig::default()
        }
    }

    /// `+0-SUPR`: leading-0 suppression on top of `+NEW-IDS`.
    pub fn zero_supr() -> Self {
        StorageConfig { nulls: NullKind::Uncompressed, ..StorageConfig::default() }
    }

    /// `+NULL` — the complete GF-CL storage (same as `default()`).
    pub fn full() -> Self {
        StorageConfig::default()
    }

    /// The Table 2 ladder in order, with the paper's column names.
    pub fn ladder() -> Vec<(&'static str, StorageConfig)> {
        vec![
            ("+COLS", StorageConfig::cols()),
            ("+NEW-IDS", StorageConfig::new_ids()),
            ("+0-SUPR", StorageConfig::zero_supr()),
            ("+NULL", StorageConfig::full()),
        ]
    }

    /// How this configuration builds a CSR.
    pub(crate) fn csr_options(&self) -> CsrOptions {
        CsrOptions { zero_suppress: self.zero_suppress, nulls: self.nulls }
    }

    /// Encode the *structural* fields for the on-disk format — everything
    /// that shaped the persisted layout. `buffer_pool_pages` is a runtime
    /// knob and deliberately not stored: the opener chooses its own pool.
    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.new_ids);
        w.bool(self.zero_suppress);
        encode_null_kind(w, self.nulls);
        w.bool(self.single_card_in_vcols);
        match self.edge_prop_layout {
            EdgePropLayout::Pages { k } => {
                w.u8(0);
                w.usize(k);
            }
            EdgePropLayout::EdgeColumns => w.u8(1),
            EdgePropLayout::DoubleIndexed => w.u8(2),
        }
        w.bool(self.zone_maps);
    }

    /// Decode a [`StorageConfig::encode`] stream. `buffer_pool_pages` comes
    /// back as the default; the opener overlays its own value.
    pub fn decode(r: &mut Reader<'_>) -> Result<StorageConfig> {
        let new_ids = r.bool()?;
        let zero_suppress = r.bool()?;
        let nulls = decode_null_kind(r)?;
        let single_card_in_vcols = r.bool()?;
        let edge_prop_layout = match r.u8()? {
            0 => EdgePropLayout::Pages { k: r.usize()? },
            1 => EdgePropLayout::EdgeColumns,
            2 => EdgePropLayout::DoubleIndexed,
            t => return Err(Error::Storage(format!("invalid edge-prop-layout tag {t}"))),
        };
        let zone_maps = r.bool()?;
        Ok(StorageConfig {
            new_ids,
            zero_suppress,
            nulls,
            single_card_in_vcols,
            edge_prop_layout,
            zone_maps,
            ..StorageConfig::default()
        })
    }
}

/// Tags follow [`gfcl_columnar::NullMap`]'s; 0, 2 and 3 named layouts
/// that are gone and are rejected on decode.
fn encode_null_kind(w: &mut Writer, kind: NullKind) {
    match kind {
        NullKind::Uncompressed => w.u8(1),
        NullKind::Vanilla => w.u8(4),
        NullKind::Jacobson(p) => {
            w.u8(5);
            w.u32(p.c);
            w.u32(p.m);
        }
    }
}

fn decode_null_kind(r: &mut Reader<'_>) -> Result<NullKind> {
    Ok(match r.u8()? {
        1 => NullKind::Uncompressed,
        4 => NullKind::Vanilla,
        5 => {
            let (c, m) = (r.u32()?, r.u32()?);
            NullKind::Jacobson(
                RankParams::new(c, m)
                    .map_err(|e| Error::Storage(format!("bad rank params: {e}")))?,
            )
        }
        t => return Err(Error::Storage(format!("invalid null-kind tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_in_features() {
        let ladder = StorageConfig::ladder();
        assert_eq!(ladder.len(), 4);
        let flags =
            |c: &StorageConfig| [c.new_ids, c.zero_suppress, c.nulls.compresses()].map(|b| b as u8);
        for w in ladder.windows(2) {
            let a = flags(&w[0].1);
            let b = flags(&w[1].1);
            assert!(a.iter().zip(&b).all(|(x, y)| x <= y), "each step only adds features");
        }
        assert_eq!(ladder[3].1, StorageConfig::default());
    }

    #[test]
    fn encode_roundtrips_every_ladder_step() {
        for (name, cfg) in StorageConfig::ladder() {
            let mut w = Writer::new();
            cfg.encode(&mut w);
            let bytes = w.into_bytes();
            let back = StorageConfig::decode(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, cfg, "{name}");
            assert!(StorageConfig::decode(&mut Reader::new(&bytes[..3])).is_err());
        }
    }

    #[test]
    fn every_null_layout_roundtrips_and_retired_ones_are_rejected() {
        let kinds = [
            NullKind::Uncompressed,
            NullKind::Vanilla,
            NullKind::Jacobson(RankParams::new(4, 8).unwrap()),
        ];
        for nulls in kinds {
            let cfg = StorageConfig { nulls, ..StorageConfig::default() };
            let mut w = Writer::new();
            cfg.encode(&mut w);
            let back = StorageConfig::decode(&mut Reader::new(&w.into_bytes())).unwrap();
            assert_eq!(back, cfg);
        }
        // Tags 0, 2 and 3 named the assert-no-NULL, position-list and
        // run-list layouts.
        for tag in [0u8, 2, 3] {
            let mut w = Writer::new();
            StorageConfig::default().encode(&mut w);
            let mut bytes = w.into_bytes();
            assert_eq!(bytes[2], 5, "the NULL layout follows the two leading flags");
            bytes[2] = tag;
            let err = StorageConfig::decode(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "tag {tag}: {err:?}");
        }
    }

    #[test]
    fn buffer_pool_pages_is_not_structural() {
        let cfg = StorageConfig { buffer_pool_pages: 7, ..StorageConfig::default() };
        let mut w = Writer::new();
        cfg.encode(&mut w);
        let back = StorageConfig::decode(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(back.buffer_pool_pages, StorageConfig::default().buffer_pool_pages);
    }

    #[test]
    fn default_is_full_gfcl() {
        let c = StorageConfig::default();
        assert!(c.new_ids && c.zero_suppress && c.single_card_in_vcols);
        assert_eq!(c.nulls, NullKind::jacobson_default());
        assert_eq!(c.edge_prop_layout, EdgePropLayout::Pages { k: 128 });
    }
}
