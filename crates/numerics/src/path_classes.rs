//! Aggregated path classes produced by depth-first path generation.
//!
//! Several paths share the same `(n, k, j)` characterization (Section 4.6.2,
//! "several paths may be represented by the same value"); their probabilities
//! are summed so the expensive conditional probability is computed once per
//! class.

use std::collections::{BTreeMap, HashMap};

use crate::kahan::KahanSum;

/// The `(k, j)` characterization of a path class; the path length `n` is
/// implicit (`Σ k_i = n + 1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathClassKey {
    /// Residence counts per distinct state reward (descending order).
    pub k: Box<[u32]>,
    /// Occurrence counts per distinct impulse reward (descending order).
    pub j: Box<[u32]>,
}

impl PathClassKey {
    /// The path length `n` of the class (`Σ k_i − 1`).
    pub fn path_length(&self) -> u64 {
        self.k.iter().map(|&c| u64::from(c)).sum::<u64>() - 1
    }
}

/// The result of a depth-first path generation run: aggregated class
/// probabilities, the truncation error bound, and exploration statistics.
///
/// [`store`](PathClasses::store) allocates only when it creates a class:
/// an existing class is found through `slot_of` with a key built in a
/// reused buffer.
#[derive(Debug, Clone, Default)]
pub struct PathClasses {
    /// Per-class Kahan-compensated probabilities, one slot per class in
    /// order of creation; each slot receives its paths in DFS order.
    sums: Vec<KahanSum>,
    /// Slot of each class keyed by `len(k) ‖ k ‖ j` (the length prefix
    /// keeps the concatenation injective). Only ever keyed lookup.
    slot_of: HashMap<Box<[u32]>, usize>,
    /// Ordered map so iteration (and hence floating-point summation order
    /// in Eq. 4.5) is deterministic across runs.
    order: BTreeMap<PathClassKey, usize>,
    /// Reused buffer for the `slot_of` lookup key.
    scratch: Vec<u32>,
    error_bound: KahanSum,
    stored_paths: u64,
    truncated_paths: u64,
    explored_nodes: u64,
    max_depth: u64,
}

impl PathClasses {
    /// An empty accumulation.
    pub fn new() -> Self {
        PathClasses::default()
    }

    /// Add `path_probability` (`P(σ)`, without the Poisson factor) to the
    /// class `(k, j)`.
    pub fn store(&mut self, k: &[u32], j: &[u32], path_probability: f64) {
        self.scratch.clear();
        self.scratch
            .push(u32::try_from(k.len()).expect("fewer than 2^32 state-reward classes"));
        self.scratch.extend_from_slice(k);
        self.scratch.extend_from_slice(j);
        let slot = match self.slot_of.get(self.scratch.as_slice()) {
            Some(&slot) => slot,
            None => {
                let slot = self.sums.len();
                self.sums.push(KahanSum::new());
                self.slot_of.insert(self.scratch.as_slice().into(), slot);
                let key = PathClassKey {
                    k: k.into(),
                    j: j.into(),
                };
                self.order.insert(key, slot);
                slot
            }
        };
        self.sums[slot].add(path_probability);
        self.stored_paths += 1;
    }

    /// Record the error contribution of a truncated path (Eq. 4.6).
    pub fn add_error(&mut self, contribution: f64) {
        self.error_bound.add(contribution);
        self.truncated_paths += 1;
    }

    /// Count one explored node at the given depth.
    pub fn count_node(&mut self, depth: u64) {
        self.explored_nodes += 1;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Iterate `(class, accumulated P(σ))` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PathClassKey, f64)> {
        self.order
            .iter()
            .map(|(key, &slot)| (key, self.sums[slot].value()))
    }

    /// Number of distinct `(k, j)` classes.
    pub fn num_classes(&self) -> usize {
        self.sums.len()
    }

    /// The accumulated truncation error bound `E` of Eq. 4.6.
    pub fn error_bound(&self) -> f64 {
        self.error_bound.value()
    }

    /// Number of stored (satisfying) path prefixes.
    pub fn stored_paths(&self) -> u64 {
        self.stored_paths
    }

    /// Number of truncated (discarded) path prefixes that could still have
    /// satisfied the formula.
    pub fn truncated_paths(&self) -> u64 {
        self.truncated_paths
    }

    /// Number of DFS nodes expanded.
    pub fn explored_nodes(&self) -> u64 {
        self.explored_nodes
    }

    /// Deepest path length reached.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_merge_by_key() {
        let mut pc = PathClasses::new();
        pc.store(&[2, 1], &[1, 0], 0.25);
        pc.store(&[2, 1], &[1, 0], 0.5);
        pc.store(&[1, 2], &[1, 0], 0.125);
        assert_eq!(pc.num_classes(), 2);
        assert_eq!(pc.stored_paths(), 3);
        let total: f64 = pc.iter().map(|(_, p)| p).sum();
        assert!((total - 0.875).abs() < 1e-15);
    }

    #[test]
    fn path_length_from_k() {
        let key = PathClassKey {
            k: vec![1, 2, 2, 2].into_boxed_slice(),
            j: vec![4, 2, 0].into_boxed_slice(),
        };
        assert_eq!(key.path_length(), 6);
    }

    #[test]
    fn error_and_stats_accumulate() {
        let mut pc = PathClasses::new();
        pc.add_error(1e-6);
        pc.add_error(2e-6);
        pc.count_node(0);
        pc.count_node(5);
        pc.count_node(3);
        assert!((pc.error_bound() - 3e-6).abs() < 1e-18);
        assert_eq!(pc.truncated_paths(), 2);
        assert_eq!(pc.explored_nodes(), 3);
        assert_eq!(pc.max_depth(), 5);
    }

    /// The slot/index layout accumulates exactly like one ordered map of
    /// Kahan sums: same iteration order, same bits per class. Lengths of
    /// `k` and `j` vary so that concatenations like `[1] ‖ [2, 3]` and
    /// `[1, 2] ‖ [3]` must stay distinct classes.
    #[test]
    fn matches_an_ordered_map_of_kahan_sums() {
        use mrmc_sparse::rng::Xoshiro256StarStar;

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A7C);
        let mut pc = PathClasses::new();
        let mut reference: BTreeMap<PathClassKey, KahanSum> = BTreeMap::new();
        let draw = |rng: &mut Xoshiro256StarStar| -> Vec<u32> {
            let len = 1 + rng.range_usize(3);
            (0..len).map(|_| rng.range_usize(3) as u32).collect()
        };
        for _ in 0..10_000 {
            let k = draw(&mut rng);
            let j = draw(&mut rng);
            let p = rng.next_f64() * 10f64.powi(-(rng.range_usize(12) as i32));
            pc.store(&k, &j, p);
            let key = PathClassKey {
                k: k.into(),
                j: j.into(),
            };
            reference.entry(key).or_default().add(p);
        }
        assert_eq!(pc.num_classes(), reference.len());
        assert_eq!(pc.stored_paths(), 10_000);
        assert!(pc.num_classes() > 1000, "{}", pc.num_classes());
        let got: Vec<(&PathClassKey, u64)> = pc.iter().map(|(k, p)| (k, p.to_bits())).collect();
        let want: Vec<(&PathClassKey, u64)> = reference
            .iter()
            .map(|(k, v)| (k, v.value().to_bits()))
            .collect();
        assert_eq!(got, want);
    }
}
