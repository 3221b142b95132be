//! N-level aggregation-tree topologies.
//!
//! The seed hard-wired the in-process runtime to a two-level tree (leaves +
//! one top) described by a pair of numbers. [`Topology`] generalises that to
//! an arbitrary-depth balanced tree with a per-level fan-in, with the
//! two-level shape as a special case ([`Topology::two_level`]). It is the
//! configuration vocabulary shared by the hierarchy planner, the simulated
//! platform and the in-process `Session` runtime in `lifl-core`, and the
//! single owner of the "does this batch of updates fill the tree?"
//! validation that used to be copy-pasted per entry point.

use crate::error::{LiflError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a balanced N-level aggregation tree, described bottom-up by
/// the fan-in of each level.
///
/// * `fan_in(0)` is the number of client updates each **leaf** aggregates
///   (its aggregation goal).
/// * `fan_in(l)` for `l > 0` is the number of level-`l-1` intermediates each
///   level-`l` aggregator consumes.
///
/// The widths follow: the last level always has exactly one aggregator (the
/// top), and level `l` has `fan_in(l+1) × fan_in(l+2) × …` aggregators. A
/// [`Topology::two_level`] tree with `leaves` leaves of goal `k` is therefore
/// `fan-ins [k, leaves]`, and a single flat aggregator consuming `n` updates
/// is `fan-ins [n]`.
///
/// ```
/// use lifl_types::Topology;
///
/// // A 3-level tree: leaves fold 2 client updates, 3 leaves feed each
/// // middle, 4 middles feed the top — 24 updates per round.
/// let tree = Topology::new(vec![2, 3, 4]).unwrap();
/// assert_eq!(tree.levels(), 3);
/// assert_eq!(tree.leaves(), 12);
/// assert_eq!(tree.total_updates(), 24);
///
/// // The top level's fan-in doubles as the machine count of a
/// // cluster-federated round: each node runs one [2, 3] subtree.
/// let (subtree, nodes) = tree.split_top().unwrap();
/// assert_eq!(subtree, Topology::new(vec![2, 3]).unwrap());
/// assert_eq!(nodes, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    fan_in: Vec<usize>,
}

impl Default for Topology {
    /// The seed's default two-level tree: 4 leaves aggregating 2 updates each.
    fn default() -> Self {
        Topology::two_level(4, 2)
    }
}

impl Topology {
    /// Builds a topology from bottom-up per-level fan-ins.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] if `fan_in` is empty, any level's
    /// fan-in is zero, or the implied update count overflows.
    pub fn new(fan_in: Vec<usize>) -> Result<Self> {
        if fan_in.is_empty() {
            return Err(LiflError::InvalidConfig(
                "topology needs at least one level".to_string(),
            ));
        }
        if fan_in.contains(&0) {
            return Err(LiflError::InvalidConfig(format!(
                "every level's fan-in must be at least 1, got {fan_in:?}"
            )));
        }
        let mut total = 1usize;
        for f in &fan_in {
            total = total.checked_mul(*f).ok_or_else(|| {
                LiflError::InvalidConfig(format!("topology {fan_in:?} overflows update count"))
            })?;
        }
        Ok(Topology { fan_in })
    }

    /// The classic two-level tree: `leaves` leaf aggregators each consuming
    /// `updates_per_leaf` client updates, feeding one top aggregator.
    ///
    /// Zero values are clamped to 1 (a degenerate but valid tree), matching
    /// the planner's historical clamping of the leaf fan-in.
    pub fn two_level(leaves: usize, updates_per_leaf: usize) -> Self {
        Topology {
            fan_in: vec![updates_per_leaf.max(1), leaves.max(1)],
        }
    }

    /// A single flat aggregator consuming `updates` client updates itself
    /// (the "no hierarchy" shape).
    pub fn flat(updates: usize) -> Self {
        Topology {
            fan_in: vec![updates.max(1)],
        }
    }

    /// A uniform tree of `levels` levels with the same `fan_in` everywhere.
    pub fn uniform(levels: usize, fan_in: usize) -> Self {
        Topology {
            fan_in: vec![fan_in.max(1); levels.max(1)],
        }
    }

    /// The two-level tree the hierarchy planner sizes to a load of
    /// `pending_updates` client updates with `leaf_fan_in` updates per leaf
    /// (§5.2): `ceil(pending / fan_in)` leaves, degenerating to one flat
    /// aggregator when a single leaf suffices.
    ///
    /// Note the planned tree covers *at least* `pending_updates`; the last
    /// leaf may run under-filled when the load does not divide evenly.
    pub fn for_load(pending_updates: usize, leaf_fan_in: usize) -> Self {
        let fan_in = leaf_fan_in.max(1);
        let leaves = pending_updates.max(1).div_ceil(fan_in);
        if leaves == 1 {
            Topology::flat(fan_in)
        } else {
            Topology::two_level(leaves, fan_in)
        }
    }

    /// [`Topology::for_load`] with a cap on every interior fan-in: when the
    /// planned leaf count exceeds `max_interior_fan_in`, additional middle
    /// levels are inserted until the tree converges to a single top, so no
    /// aggregator ever consumes more than the cap.
    ///
    /// A cap of 0 (or anything at least the planned leaf count) degenerates to
    /// [`Topology::for_load`], keeping the classic two-level plan bit-exact.
    /// Like [`Topology::for_load`], the planned tree covers *at least*
    /// `pending_updates`; trailing aggregators may run under-filled when the
    /// widths do not divide evenly.
    ///
    /// ```
    /// use lifl_types::Topology;
    ///
    /// // 32 pending updates at leaf fan-in 2 is 16 leaves; capping interior
    /// // fan-in at 4 inserts a middle level: 16 leaves / 4 middles / 1 top.
    /// let deep = Topology::for_load_capped(32, 2, 4);
    /// assert_eq!(deep.fan_ins(), &[2, 4, 4]);
    /// assert_eq!(Topology::for_load_capped(32, 2, 0), Topology::for_load(32, 2));
    /// ```
    pub fn for_load_capped(
        pending_updates: usize,
        leaf_fan_in: usize,
        max_interior_fan_in: usize,
    ) -> Self {
        let leaf_fan_in = leaf_fan_in.max(1);
        let leaves = pending_updates.max(1).div_ceil(leaf_fan_in);
        if max_interior_fan_in == 0 || leaves <= max_interior_fan_in {
            return Topology::for_load(pending_updates, leaf_fan_in);
        }
        // A cap of 1 would never converge to a single top; 2 is the smallest
        // branching interior level.
        let cap = max_interior_fan_in.max(2);
        let mut fan_in = vec![leaf_fan_in];
        let mut width = leaves;
        while width > 1 {
            let f = width.min(cap);
            fan_in.push(f);
            width = width.div_ceil(f);
        }
        Topology { fan_in }
    }

    /// Splits off the top level: the per-node subtree (every level below the
    /// top) and the top fan-in, i.e. the number of such subtrees the top
    /// consumes. This is how a cluster-federated deployment carves a global
    /// tree into one in-process session per machine plus a global top.
    ///
    /// Returns `None` for a single-level (flat) topology, which has no level
    /// to split off.
    pub fn split_top(&self) -> Option<(Topology, usize)> {
        if self.fan_in.len() < 2 {
            return None;
        }
        let (top, rest) = self.fan_in.split_last()?;
        Some((
            Topology {
                fan_in: rest.to_vec(),
            },
            *top,
        ))
    }

    /// Number of levels in the tree (≥ 1; the last level is the top).
    pub fn levels(&self) -> usize {
        self.fan_in.len()
    }

    /// The fan-in of `level` (level 0 consumes client updates).
    ///
    /// # Panics
    /// Panics if `level >= self.levels()`.
    pub fn fan_in(&self, level: usize) -> usize {
        self.fan_in[level]
    }

    /// The bottom-up fan-in vector.
    pub fn fan_ins(&self) -> &[usize] {
        &self.fan_in
    }

    /// Number of aggregators at `level` (the product of the fan-ins above
    /// it; the last level always has width 1).
    ///
    /// # Panics
    /// Panics if `level >= self.levels()`.
    pub fn width(&self, level: usize) -> usize {
        assert!(level < self.fan_in.len(), "level {level} out of range");
        self.fan_in[level + 1..].iter().product()
    }

    /// Number of leaf aggregators.
    pub fn leaves(&self) -> usize {
        self.width(0)
    }

    /// Total aggregators across all levels.
    pub fn aggregators(&self) -> usize {
        (0..self.levels()).map(|l| self.width(l)).sum()
    }

    /// Client updates one full round of this topology aggregates (the product
    /// of every level's fan-in).
    pub fn total_updates(&self) -> usize {
        self.fan_in.iter().product()
    }

    /// Checks that `provided` client updates exactly fill the tree — the
    /// exact-fill half of [`RoundClose::check`](crate::RoundClose::check),
    /// which `Session::drive` and `Cluster::drive` run before a round.
    ///
    /// # Errors
    /// Returns [`LiflError::InvalidConfig`] when the counts differ.
    pub fn validate(&self, provided: usize) -> Result<()> {
        let expected = self.total_updates();
        if provided != expected {
            return Err(LiflError::InvalidConfig(format!(
                "expected {} updates ({} leaves x {}), got {}",
                expected,
                self.leaves(),
                self.fan_in[0],
                provided
            )));
        }
        Ok(())
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths: Vec<String> = (0..self.levels())
            .rev()
            .map(|l| self.width(l).to_string())
            .collect();
        write!(f, "{}-level tree ({})", self.levels(), widths.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_matches_seed_shape() {
        let t = Topology::two_level(4, 2);
        assert_eq!(t.levels(), 2);
        assert_eq!(t.leaves(), 4);
        assert_eq!(t.fan_in(0), 2);
        assert_eq!(t.fan_in(1), 4);
        assert_eq!(t.width(1), 1);
        assert_eq!(t.total_updates(), 8);
        assert_eq!(t.aggregators(), 5);
        assert_eq!(t, Topology::default());
    }

    #[test]
    fn deep_tree_widths_multiply() {
        let t = Topology::new(vec![2, 4, 3]).unwrap();
        assert_eq!(t.levels(), 3);
        assert_eq!(t.leaves(), 12);
        assert_eq!(t.width(1), 3);
        assert_eq!(t.width(2), 1);
        assert_eq!(t.total_updates(), 24);
        assert_eq!(t.aggregators(), 16);
        assert_eq!(t.to_string(), "3-level tree (1/3/12)");
    }

    #[test]
    fn flat_and_uniform_shapes() {
        let flat = Topology::flat(5);
        assert_eq!(flat.levels(), 1);
        assert_eq!(flat.leaves(), 1);
        assert_eq!(flat.total_updates(), 5);
        assert_eq!(flat.aggregators(), 1);

        let u = Topology::uniform(3, 2);
        assert_eq!(u.levels(), 3);
        assert_eq!(u.total_updates(), 8);
        assert_eq!(u.leaves(), 4);
    }

    #[test]
    fn for_load_reproduces_planner_math() {
        // 20 pending at fan-in 2 → 10 leaves + a middle level.
        let t = Topology::for_load(20, 2);
        assert_eq!(t.leaves(), 10);
        assert_eq!(t.levels(), 2);
        // A single leaf's worth of load needs no second level.
        let small = Topology::for_load(2, 2);
        assert_eq!(small.levels(), 1);
        // Zero fan-in is clamped like the planner's.
        assert_eq!(Topology::for_load(5, 0).leaves(), 5);
    }

    #[test]
    fn for_load_capped_bounds_every_interior_fan_in() {
        // 20 leaves at cap 4: 4-wide middles, then 4, then the 2-wide top.
        let t = Topology::for_load_capped(40, 2, 4);
        assert_eq!(t.fan_ins(), &[2, 4, 4, 2]);
        assert!(t.fan_ins()[1..].iter().all(|f| *f <= 4));
        // The capped tree covers at least the planned load.
        assert!(t.total_updates() >= 40);
        // Caps that never bind reproduce the two-level plan exactly.
        assert_eq!(
            Topology::for_load_capped(20, 2, 10),
            Topology::for_load(20, 2)
        );
        assert_eq!(
            Topology::for_load_capped(20, 2, 0),
            Topology::for_load(20, 2)
        );
        // A degenerate cap of 1 is clamped to the smallest branching fan-in.
        let clamped = Topology::for_load_capped(8, 2, 1);
        assert!(clamped.fan_ins()[1..].iter().all(|f| *f == 2));
        // Single-leaf loads stay flat regardless of cap.
        assert_eq!(Topology::for_load_capped(2, 2, 2).levels(), 1);
    }

    #[test]
    fn split_top_carves_per_node_subtrees() {
        let t = Topology::new(vec![2, 3, 4]).unwrap();
        let (subtree, nodes) = t.split_top().unwrap();
        assert_eq!(subtree.fan_ins(), &[2, 3]);
        assert_eq!(nodes, 4);
        // Subtree count x subtree load covers the global round.
        assert_eq!(subtree.total_updates() * nodes, t.total_updates());
        let (flat_sub, pair_nodes) = Topology::two_level(4, 2).split_top().unwrap();
        assert_eq!(flat_sub.levels(), 1);
        assert_eq!(pair_nodes, 4);
        assert!(Topology::flat(5).split_top().is_none());
    }

    #[test]
    fn validate_counts_exactly() {
        let t = Topology::two_level(4, 2);
        assert!(t.validate(8).is_ok());
        let err = t.validate(5).unwrap_err().to_string();
        assert!(
            err.contains("expected 8 updates (4 leaves x 2), got 5"),
            "{err}"
        );
        assert!(t.validate(9).is_err());
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(Topology::new(vec![]).is_err());
        assert!(Topology::new(vec![2, 0, 3]).is_err());
        assert!(Topology::new(vec![usize::MAX, 2]).is_err());
        assert!(Topology::new(vec![3]).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let t = Topology::new(vec![2, 3, 4]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
