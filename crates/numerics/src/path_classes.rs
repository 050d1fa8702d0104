//! Aggregated path classes produced by the path exploration.
//!
//! Several paths share the same `(n, k, j)` characterization (Section 4.6.2,
//! "several paths may be represented by the same value"); their probabilities
//! are summed so the expensive conditional probability is computed once per
//! class.

use crate::error::NumericsError;
use crate::kahan::KahanSum;

/// The `(k, j)` characterization of a path class; the path length `n` is
/// implicit (`Σ k_i = n + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathClassKey<'a> {
    /// Residence counts per distinct state reward (descending order).
    pub k: &'a [u32],
    /// Occurrence counts per distinct impulse reward (descending order).
    pub j: &'a [u32],
}

impl PathClassKey<'_> {
    /// The path length `n` of the class (`Σ k_i − 1`).
    pub fn path_length(&self) -> u64 {
        self.k.iter().map(|&c| u64::from(c)).sum::<u64>() - 1
    }
}

/// The result of a path generation run: aggregated class probabilities,
/// the truncation error bound, and exploration statistics.
///
/// Classes live in slots in order of creation; the explorer that creates
/// a class keeps its slot, so storing never searches by key. The counters
/// count path-tree nodes and paths, however many of them one call stands
/// for, and fail with [`NumericsError::PathCountOverflow`] instead of
/// wrapping.
#[derive(Debug, Clone)]
pub struct PathClasses {
    /// Length of every `k`.
    num_k: usize,
    /// Length of every `k ‖ j`.
    width: usize,
    /// `k ‖ j` of each slot's class, `width` entries per slot.
    counts: Vec<u32>,
    /// Kahan-compensated probability of each slot's class.
    sums: Vec<KahanSum>,
    error_bound: KahanSum,
    stored_paths: u64,
    truncated_paths: u64,
    explored_nodes: u64,
    explored_groups: u64,
    max_depth: u64,
}

/// `total + m`, or the overflow error.
fn add_count(total: &mut u64, m: u64) -> Result<(), NumericsError> {
    *total = total
        .checked_add(m)
        .ok_or(NumericsError::PathCountOverflow)?;
    Ok(())
}

impl PathClasses {
    /// An empty accumulation of classes with `num_k` state-reward and
    /// `num_j` impulse-reward counts.
    pub fn new(num_k: usize, num_j: usize) -> Self {
        PathClasses {
            num_k,
            width: num_k + num_j,
            counts: Vec::new(),
            sums: Vec::new(),
            error_bound: KahanSum::new(),
            stored_paths: 0,
            truncated_paths: 0,
            explored_nodes: 0,
            explored_groups: 0,
            max_depth: 0,
        }
    }

    /// Create the class `(k, j)`, which must not exist yet, and return
    /// its slot for [`store`](Self::store).
    pub fn add_class(&mut self, k: &[u32], j: &[u32]) -> usize {
        assert_eq!(
            (k.len(), k.len() + j.len()),
            (self.num_k, self.width),
            "class shape"
        );
        self.counts.extend_from_slice(k);
        self.counts.extend_from_slice(j);
        self.sums.push(KahanSum::new());
        self.sums.len() - 1
    }

    /// The `k ‖ j` vector of the class in `slot`.
    fn class(&self, slot: usize) -> &[u32] {
        &self.counts[slot * self.width..][..self.width]
    }

    fn key(&self, slot: usize) -> PathClassKey<'_> {
        let (k, j) = self.class(slot).split_at(self.num_k);
        PathClassKey { k, j }
    }

    /// Add `paths` paths of total probability `mass` (`Σ P(σ)`, without
    /// the Poisson factor) to the class in `slot`.
    pub fn store(&mut self, slot: usize, mass: f64, paths: u64) -> Result<(), NumericsError> {
        add_count(&mut self.stored_paths, paths)?;
        self.sums[slot].add(mass);
        Ok(())
    }

    /// Record `paths` truncated paths whose Eq. 4.6 contributions total
    /// `mass`.
    pub fn add_error(&mut self, mass: f64, paths: u64) -> Result<(), NumericsError> {
        add_count(&mut self.truncated_paths, paths)?;
        self.error_bound.add(mass);
        Ok(())
    }

    /// Count one expanded group of `multiplicity` path-tree nodes at the
    /// given depth.
    pub fn count_group(&mut self, depth: u64, multiplicity: u64) -> Result<(), NumericsError> {
        add_count(&mut self.explored_nodes, multiplicity)?;
        self.explored_groups += 1;
        self.max_depth = self.max_depth.max(depth);
        Ok(())
    }

    /// Iterate `(class, accumulated P(σ))` pairs in key order, so the
    /// floating-point summation order of Eq. 4.5 is deterministic.
    pub fn iter(&self) -> impl Iterator<Item = (PathClassKey<'_>, f64)> {
        // Every `k` has the same length, so `(k, j)` order is the order
        // of the flat `k ‖ j` slices.
        let mut order: Vec<usize> = (0..self.sums.len()).collect();
        order.sort_unstable_by(|&a, &b| self.class(a).cmp(self.class(b)));
        order
            .into_iter()
            .map(|slot| (self.key(slot), self.sums[slot].value()))
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

    /// Number of path-tree nodes represented, merged or not.
    pub fn explored_nodes(&self) -> u64 {
        self.explored_nodes
    }

    /// Number of groups expanded: each stands for one or more path-tree
    /// nodes with identical subtrees.
    pub fn explored_groups(&self) -> u64 {
        self.explored_groups
    }

    /// Deepest path length reached.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn classes_merge_by_key() {
        let mut pc = PathClasses::new(2, 2);
        let a = pc.add_class(&[2, 1], &[1, 0]);
        pc.store(a, 0.25, 1).unwrap();
        pc.store(a, 0.5, 1).unwrap();
        let b = pc.add_class(&[1, 2], &[1, 0]);
        pc.store(b, 0.375, 3).unwrap();
        assert_eq!(pc.num_classes(), 2);
        assert_eq!(pc.stored_paths(), 5);
        let total: f64 = pc.iter().map(|(_, p)| p).sum();
        assert!((total - 1.125).abs() < 1e-15);
        // Key order, not slot order.
        let keys: Vec<_> = pc.iter().map(|(key, _)| key.k.to_vec()).collect();
        assert_eq!(keys, vec![vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn path_length_from_k() {
        let key = PathClassKey {
            k: &[1, 2, 2, 2],
            j: &[4, 2, 0],
        };
        assert_eq!(key.path_length(), 6);
    }

    #[test]
    fn error_and_stats_accumulate() {
        let mut pc = PathClasses::new(1, 1);
        pc.add_error(1e-6, 1).unwrap();
        pc.add_error(2e-6, 2).unwrap();
        pc.count_group(0, 1).unwrap();
        pc.count_group(5, 4).unwrap();
        pc.count_group(3, 1).unwrap();
        assert!((pc.error_bound() - 3e-6).abs() < 1e-18);
        assert_eq!(pc.truncated_paths(), 3);
        assert_eq!(pc.explored_nodes(), 6);
        assert_eq!(pc.explored_groups(), 3);
        assert_eq!(pc.max_depth(), 5);

        // Counters fail instead of wrapping.
        pc.count_group(6, u64::MAX - 6).unwrap();
        assert_eq!(pc.explored_nodes(), u64::MAX);
        assert_eq!(pc.count_group(7, 1), Err(NumericsError::PathCountOverflow));
        assert_eq!(
            pc.add_error(0.0, u64::MAX),
            Err(NumericsError::PathCountOverflow)
        );
        let slot = pc.add_class(&[1], &[0]);
        pc.store(slot, 0.5, u64::MAX).unwrap();
        assert_eq!(
            pc.store(slot, 0.5, 1),
            Err(NumericsError::PathCountOverflow)
        );
    }

    /// Slots filled in any order iterate exactly like one ordered map of
    /// Kahan sums: same order, same bits per class.
    #[test]
    fn matches_an_ordered_map_of_kahan_sums() {
        use mrmc_sparse::rng::Xoshiro256StarStar;

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A7C);
        let mut pc = PathClasses::new(3, 2);
        let mut slot_of: BTreeMap<(Vec<u32>, Vec<u32>), usize> = BTreeMap::new();
        let mut reference: BTreeMap<(Vec<u32>, Vec<u32>), KahanSum> = BTreeMap::new();
        let draw = |rng: &mut Xoshiro256StarStar, len: usize| -> Vec<u32> {
            (0..len).map(|_| rng.range_usize(4) as u32).collect()
        };
        for _ in 0..10_000 {
            let key = (draw(&mut rng, 3), draw(&mut rng, 2));
            let p = rng.next_f64() * 10f64.powi(-(rng.range_usize(12) as i32));
            let slot = *slot_of
                .entry(key.clone())
                .or_insert_with_key(|(k, j)| pc.add_class(k, j));
            pc.store(slot, p, 1).unwrap();
            reference.entry(key).or_default().add(p);
        }
        assert_eq!(pc.num_classes(), reference.len());
        assert_eq!(pc.stored_paths(), 10_000);
        assert!(pc.num_classes() > 500, "{}", pc.num_classes());
        let got: Vec<(Vec<u32>, Vec<u32>, u64)> = pc
            .iter()
            .map(|(key, p)| (key.k.to_vec(), key.j.to_vec(), p.to_bits()))
            .collect();
        let want: Vec<(Vec<u32>, Vec<u32>, u64)> = reference
            .into_iter()
            .map(|((k, j), v)| (k, j, v.value().to_bits()))
            .collect();
        assert_eq!(got, want);
    }
}
