//! Seeded reorderings, with the workspace's deterministic generator.

use mrmc_sparse::rng::Xoshiro256StarStar;

/// The CSRL comparison operators the generators draw from.
pub const COMPARISONS: [&str; 4] = [">", ">=", "<", "<="];

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256StarStar) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(i + 1));
    }
}

/// A uniformly random interleaving of `lists` that keeps each list's own
/// order.
pub fn interleave<T>(lists: Vec<Vec<T>>, rng: &mut Xoshiro256StarStar) -> Vec<T> {
    let mut queues: Vec<std::collections::VecDeque<T>> =
        lists.into_iter().map(Into::into).collect();
    let mut left: usize = queues.iter().map(std::collections::VecDeque::len).sum();
    let mut out = Vec::with_capacity(left);
    while left > 0 {
        // Pick the next list with probability proportional to what it
        // still holds: every interleaving is equally likely.
        let mut k = rng.range_usize(left);
        let q = queues
            .iter_mut()
            .find(|q| {
                let here = k < q.len();
                if !here {
                    k -= q.len();
                }
                here
            })
            .expect("k is below the total length");
        out.extend(q.pop_front());
        left -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_keeps_each_lists_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let merged = interleave(vec![vec![1, 2, 3], vec![10, 20], vec![100]], &mut rng);
        assert_eq!(merged.len(), 6);
        let pos = |x: i32| merged.iter().position(|&y| y == x).unwrap();
        assert!(pos(1) < pos(2) && pos(2) < pos(3) && pos(10) < pos(20));
    }
}
