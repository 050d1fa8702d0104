//! Aggregated path classes produced by depth-first path generation.
//!
//! Several paths share the same `(n, k, j)` characterization (Section 4.6.2,
//! "several paths may be represented by the same value"); their probabilities
//! are summed so the expensive conditional probability is computed once per
//! class.

use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default)]
pub struct PathClasses {
    /// Ordered map so iteration (and hence floating-point summation order
    /// in Eq. 4.5) is deterministic across runs. Per-class probabilities
    /// are Kahan-compensated.
    classes: BTreeMap<PathClassKey, KahanSum>,
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
        let key = PathClassKey {
            k: k.to_vec().into_boxed_slice(),
            j: j.to_vec().into_boxed_slice(),
        };
        self.classes.entry(key).or_default().add(path_probability);
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
        self.classes.iter().map(|(k, v)| (k, v.value()))
    }

    /// Number of distinct `(k, j)` classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
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
}
