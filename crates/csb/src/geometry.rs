//! Physical geometry of the CSB and the element-to-chain mapping.

use serde::{Deserialize, Serialize};

/// Number of columns (= vector lanes) per subarray, and therefore per chain.
pub const SUBARRAY_COLS: usize = 32;

/// Number of subarrays per chain. Subarray `i` stores bit `i` of every
/// 32-bit operand (bit-slicing, Section IV-B of the paper).
pub const SUBARRAYS_PER_CHAIN: usize = 32;

/// Where a vector element lives inside the CSB.
///
/// Adjacent elements are interleaved across chains (like bytes across the
/// chips of a DRAM DIMM, Section V-E) so that one memory sub-request can be
/// consumed by many chains in a single cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ElementLocation {
    /// Index of the chain holding the element.
    pub chain: usize,
    /// Column (lane) within that chain.
    pub col: usize,
}

/// Size and shape of a [`Csb`](crate::Csb).
///
/// The paper's two evaluated configurations are
/// [`CsbGeometry::cape32k`] (1,024 chains = 32,768 lanes) and
/// [`CsbGeometry::cape131k`] (4,096 chains = 131,072 lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CsbGeometry {
    num_chains: usize,
}

impl CsbGeometry {
    /// Creates a geometry with `num_chains` chains.
    ///
    /// # Panics
    ///
    /// Panics if `num_chains` is zero.
    pub fn new(num_chains: usize) -> Self {
        assert!(num_chains > 0, "a CSB needs at least one chain");
        Self { num_chains }
    }

    /// The CAPE32k configuration: 1,024 chains, 32,768 lanes.
    pub fn cape32k() -> Self {
        Self::new(1024)
    }

    /// The CAPE131k configuration: 4,096 chains, 131,072 lanes.
    pub fn cape131k() -> Self {
        Self::new(4096)
    }

    /// Number of chains in the CSB.
    pub fn num_chains(&self) -> usize {
        self.num_chains
    }

    /// Maximum hardware vector length (`MAX_VL`): total number of lanes.
    pub fn max_vl(&self) -> usize {
        self.num_chains * SUBARRAY_COLS
    }

    /// Maps a vector element index to its chain and column.
    ///
    /// Elements are interleaved: element `e` lives in chain `e % C`,
    /// column `e / C` where `C` is the chain count.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= max_vl()`.
    pub fn locate(&self, elem: usize) -> ElementLocation {
        assert!(
            elem < self.max_vl(),
            "element {elem} out of range for {} lanes",
            self.max_vl()
        );
        ElementLocation {
            chain: elem % self.num_chains,
            col: elem / self.num_chains,
        }
    }

    /// Inverse of [`locate`](Self::locate).
    pub fn element_at(&self, loc: ElementLocation) -> usize {
        loc.col * self.num_chains + loc.chain
    }

    /// Column activity mask for one chain given an active window
    /// `[vstart, vl)` over element indices.
    ///
    /// Bit `k` of the result is set iff column `k` of `chain` maps to an
    /// element inside the window. Used to implement RISC-V's `vstart`/`vl`
    /// semantics (Section V-F), and by bulk transfers for the columns an
    /// element range covers.
    ///
    /// Column `k` holds element `k * C + chain`, so the window covers the
    /// contiguous columns from the first at or past `vstart` up to the
    /// first at or past `vl`; the mask is computed in closed form.
    pub fn window_mask(&self, chain: usize, vstart: usize, vl: usize) -> u32 {
        let first_col_from = |e: usize| {
            e.saturating_sub(chain)
                .div_ceil(self.num_chains)
                .min(SUBARRAY_COLS)
        };
        let below = |k: usize| !u32::MAX.checked_shl(k as u32).unwrap_or(0);
        below(first_col_from(vl)) & !below(first_col_from(vstart))
    }

    /// Total storage capacity of the CSB in bytes
    /// (32 registers x 4 bytes x lanes).
    pub fn capacity_bytes(&self) -> usize {
        self.max_vl() * crate::subarray::DATA_ROWS * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn locate_interleaves_across_chains() {
        let g = CsbGeometry::new(4);
        assert_eq!(g.locate(0), ElementLocation { chain: 0, col: 0 });
        assert_eq!(g.locate(1), ElementLocation { chain: 1, col: 0 });
        assert_eq!(g.locate(4), ElementLocation { chain: 0, col: 1 });
        assert_eq!(g.locate(7), ElementLocation { chain: 3, col: 1 });
    }

    #[test]
    fn locate_roundtrips() {
        let g = CsbGeometry::new(7);
        for e in 0..g.max_vl() {
            assert_eq!(g.element_at(g.locate(e)), e);
        }
    }

    #[test]
    fn cape_presets_have_paper_lane_counts() {
        assert_eq!(CsbGeometry::cape32k().max_vl(), 32_768);
        assert_eq!(CsbGeometry::cape131k().max_vl(), 131_072);
    }

    #[test]
    fn window_mask_full_window_is_all_ones() {
        let g = CsbGeometry::new(4);
        for c in 0..4 {
            assert_eq!(g.window_mask(c, 0, g.max_vl()), u32::MAX);
        }
    }

    #[test]
    fn window_mask_partial() {
        let g = CsbGeometry::new(4);
        // vl = 6: elements 0..6 active. Chain 0 holds elems 0 (col 0) and 4
        // (col 1); chain 1 holds 1 (col 0) and 5 (col 1); chain 2 holds 2
        // and 6 -- 6 is excluded; chain 3 holds 3 and 7 -- 7 excluded.
        assert_eq!(g.window_mask(0, 0, 6), 0b11);
        assert_eq!(g.window_mask(1, 0, 6), 0b11);
        assert_eq!(g.window_mask(2, 0, 6), 0b01);
        assert_eq!(g.window_mask(3, 0, 6), 0b01);
    }

    #[test]
    fn window_mask_vstart_skips_leading_elements() {
        let g = CsbGeometry::new(2);
        // vstart = 3, vl = 5: elements 3, 4 active.
        // chain 0: elems 0,2,4,.. -> col 2 (elem 4) active.
        // chain 1: elems 1,3,5,.. -> col 1 (elem 3) active.
        assert_eq!(g.window_mask(0, 3, 5), 0b100);
        assert_eq!(g.window_mask(1, 3, 5), 0b010);
    }

    proptest! {
        /// The closed form agrees with the per-column definition for any
        /// chain count and window `vstart <= vl <= MAX_VL`, with the
        /// empty, `vstart = vl` and fully open edges drawn often.
        #[test]
        fn window_mask_matches_per_column_definition(
            chains in 1usize..5000,
            chain_raw in any::<usize>(),
            vl_pick in 0u8..4,
            vl_raw in any::<usize>(),
            vstart_pick in 0u8..4,
            vstart_raw in any::<usize>(),
        ) {
            let g = CsbGeometry::new(chains);
            let chain = chain_raw % chains;
            let vl = match vl_pick {
                0 => 0,
                1 => g.max_vl(),
                _ => vl_raw % (g.max_vl() + 1),
            };
            let vstart = match vstart_pick {
                0 => 0,
                1 => vl,
                _ => vstart_raw % (vl + 1),
            };
            let want = (0..SUBARRAY_COLS)
                .filter(|&k| (vstart..vl).contains(&(k * chains + chain)))
                .fold(0u32, |m, k| m | 1 << k);
            prop_assert_eq!(g.window_mask(chain, vstart, vl), want);
        }
    }

    #[test]
    fn capacity_of_cape32k_is_4mib() {
        assert_eq!(CsbGeometry::cape32k().capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_out_of_range_panics() {
        CsbGeometry::new(2).locate(64);
    }
}
