//! Atomic propositions and state labelings (Section 2.5 of the thesis).

use std::collections::BTreeMap;

/// A labeling function `Label : S → 2^AP` assigning to every state the set of
/// atomic propositions valid in it.
///
/// Atomic propositions are plain strings; a state `s` with `p ∈ Label(s)` is
/// called a *p-state*.
///
/// ```
/// let mut l = mrmc_ctmc::Labeling::new(3);
/// l.add(0, "idle");
/// l.add(2, "busy");
/// assert!(l.has(0, "idle"));
/// assert_eq!(l.states_with("busy"), vec![false, false, true]);
/// ```
///
/// # Representation
///
/// Every declared name is stored once and numbered. A state's label set
/// is a range of one shared array of those numbers, sorted by name, so
/// the whole labeling is four allocations however many states it covers,
/// per-state queries compare no more strings than the state holds, and
/// [`lumped`](Labeling::lumped) builds a quotient's labeling without
/// allocating per block. Equality is semantic: two labelings are equal
/// when they declare the same vocabulary and give every state the same
/// propositions, however their arrays were filled.
#[derive(Debug, Clone, Default)]
pub struct Labeling {
    /// Every declared proposition, with its id (an index into `names`).
    ids: BTreeMap<String, u32>,
    /// Proposition names by id, in order of declaration.
    names: Vec<String>,
    /// The label sets, each a range of proposition ids sorted by name.
    /// No two states share a nonempty range, so a range that ends the
    /// array can grow in place.
    members: Vec<u32>,
    /// The range of `members` holding each state's label set.
    ranges: Vec<(u32, u32)>,
}

impl PartialEq for Labeling {
    fn eq(&self, other: &Self) -> bool {
        if self.ranges.len() != other.ranges.len() || !self.ids.keys().eq(other.ids.keys()) {
            return false;
        }
        if self.names == other.names {
            // Same ids for the same names: compare ids, not strings.
            return (0..self.num_states()).all(|s| self.ids_of(s) == other.ids_of(s));
        }
        (0..self.num_states()).all(|s| self.of_state(s).eq(other.of_state(s)))
    }
}

impl Eq for Labeling {}

impl Labeling {
    /// An empty labeling over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Labeling {
            ranges: vec![(0, 0); num_states],
            ..Labeling::default()
        }
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.ranges.len()
    }

    /// Declare `ap` as part of the vocabulary without assigning it to a
    /// state. Assigning a proposition with [`add`](Labeling::add) declares
    /// it implicitly, so this is only needed for propositions that may end
    /// up unused (the `.lab` file's `#DECLARATION` block); the lint pass
    /// reports declared-but-unused propositions.
    pub fn declare(&mut self, ap: impl Into<String>) -> &mut Self {
        self.intern(ap.into());
        self
    }

    /// Every declared proposition (explicitly via
    /// [`declare`](Labeling::declare) or implicitly via
    /// [`add`](Labeling::add)), sorted and de-duplicated.
    pub fn declared(&self) -> Vec<&str> {
        self.ids.keys().map(String::as_str).collect()
    }

    /// Make `ap` valid in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn add(&mut self, state: usize, ap: impl Into<String>) -> &mut Self {
        let (start, end) = self.ranges[state];
        let id = self.intern(ap.into());
        let name = &self.names[id as usize];
        let set = &self.members[start as usize..end as usize];
        let Err(at) = set.binary_search_by(|&x| self.names[x as usize].cmp(name)) else {
            return self;
        };
        let at = start as usize + at;
        if end as usize == self.members.len() {
            // The state's set ends the array: grow it in place.
            self.members.insert(at, id);
            self.ranges[state].1 += 1;
        } else {
            // Copy the set to the end with `ap` inserted; the old range
            // stays behind unused.
            let new_start = self.members.len();
            self.members.extend_from_within(start as usize..at);
            self.members.push(id);
            self.members.extend_from_within(at..end as usize);
            self.ranges[state] = (offset(new_start), offset(self.members.len()));
        }
        self
    }

    /// `true` when `ap ∈ Label(state)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn has(&self, state: usize, ap: &str) -> bool {
        self.of_state(state).any(|name| name == ap)
    }

    /// The set of propositions valid in `state`, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn of_state(&self, state: usize) -> impl Iterator<Item = &str> {
        self.ids_of(state)
            .iter()
            .map(|&id| self.names[id as usize].as_str())
    }

    /// The characteristic vector of the set of `ap`-states.
    pub fn states_with(&self, ap: &str) -> Vec<bool> {
        let Some(id) = self.ids.get(ap) else {
            return vec![false; self.num_states()];
        };
        (0..self.num_states())
            .map(|s| self.ids_of(s).contains(id))
            .collect()
    }

    /// The propositions valid in *every* one of `states`, in lexicographic
    /// order — the labels a lumping quotient can safely keep on a block.
    /// Empty for an empty state set.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of bounds.
    pub fn common_to(&self, states: &[usize]) -> Vec<&str> {
        let Some((&first, rest)) = states.split_first() else {
            return Vec::new();
        };
        self.ids_of(first)
            .iter()
            .filter(|id| rest.iter().all(|&s| self.ids_of(s).contains(id)))
            .map(|&id| self.names[id as usize].as_str())
            .collect()
    }

    /// The labeling of a quotient with `num_blocks` blocks, where
    /// `block_of[s]` is the block of state `s`: each block keeps exactly
    /// the propositions [`common_to`](Labeling::common_to) all its members
    /// (none for a block without members), and the declared vocabulary is
    /// preserved. The label sets are filled into one array, with no
    /// allocation per block.
    ///
    /// # Panics
    ///
    /// Panics if `block_of` does not cover every state or names a block
    /// `≥ num_blocks`.
    pub fn lumped(&self, block_of: &[usize], num_blocks: usize) -> Labeling {
        assert_eq!(
            block_of.len(),
            self.num_states(),
            "block assignment must cover every state"
        );
        const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);
        let mut members = Vec::new();
        let mut ranges = vec![UNSEEN; num_blocks];
        for (s, &b) in block_of.iter().enumerate() {
            let set = self.ids_of(s);
            if ranges[b] == UNSEEN {
                // The first member's set, narrowed in place by the others.
                let start = offset(members.len());
                members.extend_from_slice(set);
                ranges[b] = (start, offset(members.len()));
                continue;
            }
            let (start, end) = ranges[b];
            let mut kept = start;
            for i in start..end {
                let id = members[i as usize];
                if set.contains(&id) {
                    members[kept as usize] = id;
                    kept += 1;
                }
            }
            ranges[b].1 = kept;
        }
        for range in &mut ranges {
            if *range == UNSEEN {
                *range = (0, 0);
            }
        }
        Labeling {
            ids: self.ids.clone(),
            names: self.names.clone(),
            members,
            ranges,
        }
    }

    /// Every proposition used anywhere in the labeling, sorted and
    /// de-duplicated.
    pub fn all_propositions(&self) -> Vec<&str> {
        let mut used = vec![false; self.names.len()];
        for s in 0..self.num_states() {
            for &id in self.ids_of(s) {
                used[id as usize] = true;
            }
        }
        self.ids
            .iter()
            .filter(|&(_, &id)| used[id as usize])
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// The proposition ids of `state`'s label set, sorted by name.
    fn ids_of(&self, state: usize) -> &[u32] {
        let (start, end) = self.ranges[state];
        &self.members[start as usize..end as usize]
    }

    /// The id of proposition `ap`, declaring it if new.
    fn intern(&mut self, ap: String) -> u32 {
        if let Some(&id) = self.ids.get(&ap) {
            return id;
        }
        let id = offset(self.names.len());
        self.names.push(ap.clone());
        self.ids.insert(ap, id);
        id
    }
}

/// A position or count stored as `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a labeling holds fewer than 2^32 entries")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelan_labeling_of_example_2_4() {
        // States 1..5 of Figure 2.2, zero-indexed here.
        let mut l = Labeling::new(5);
        l.add(0, "off");
        l.add(1, "sleep");
        l.add(2, "idle");
        l.add(3, "receive").add(3, "busy");
        l.add(4, "transmit").add(4, "busy");

        assert!(l.has(3, "busy"));
        assert!(l.has(4, "busy"));
        assert!(!l.has(2, "busy"));
        assert_eq!(l.states_with("busy"), vec![false, false, false, true, true]);
        assert_eq!(
            l.all_propositions(),
            vec!["busy", "idle", "off", "receive", "sleep", "transmit"]
        );
        let aps: Vec<&str> = l.of_state(3).collect();
        assert_eq!(aps, vec!["busy", "receive"]);
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut l = Labeling::new(1);
        l.add(0, "a").add(0, "a");
        assert_eq!(l.of_state(0).count(), 1);
    }

    #[test]
    fn empty_labeling() {
        let l = Labeling::new(2);
        assert_eq!(l.num_states(), 2);
        assert!(l.all_propositions().is_empty());
        assert!(l.declared().is_empty());
        assert_eq!(l.states_with("x"), vec![false, false]);
    }

    #[test]
    fn declarations_track_the_vocabulary() {
        let mut l = Labeling::new(2);
        l.declare("unused").add(0, "used");
        assert_eq!(l.declared(), vec!["unused", "used"]);
        // Only `used` actually labels a state.
        assert_eq!(l.all_propositions(), vec!["used"]);
        // Declaring is idempotent and does not assign.
        l.declare("used");
        assert!(!l.has(0, "unused"));
        assert_eq!(l.declared().len(), 2);
    }

    #[test]
    #[should_panic]
    fn add_out_of_bounds_panics() {
        Labeling::new(1).add(1, "a");
    }

    #[test]
    fn common_to_intersects_member_labels() {
        let mut l = Labeling::new(4);
        l.add(0, "up").add(0, "fast");
        l.add(1, "up").add(1, "slow");
        l.add(2, "up").add(2, "fast");
        assert_eq!(l.common_to(&[0, 1, 2]), vec!["up"]);
        assert_eq!(l.common_to(&[0, 2]), vec!["fast", "up"]);
        assert_eq!(l.common_to(&[3]), Vec::<&str>::new());
        assert_eq!(l.common_to(&[]), Vec::<&str>::new());
        // The state-3 member empties every intersection.
        assert!(l.common_to(&[0, 3]).is_empty());
    }

    #[test]
    fn lumped_keeps_the_propositions_common_to_each_block() {
        let mut l = Labeling::new(5);
        l.declare("unused");
        l.add(0, "up").add(0, "fast");
        l.add(1, "up").add(1, "slow");
        l.add(2, "fast").add(2, "up");
        l.add(4, "up");
        let q = l.lumped(&[0, 1, 0, 1, 2], 4);
        assert_eq!(q.num_states(), 4);
        for (block, members) in [vec![0, 2], vec![1, 3], vec![4], vec![]].iter().enumerate() {
            assert_eq!(q.of_state(block).collect::<Vec<_>>(), l.common_to(members));
        }
        assert_eq!(q.declared(), l.declared());
        // The quotient's sets grow like any other.
        let mut q = q;
        q.add(1, "slow").add(3, "up");
        assert_eq!(q.of_state(1).collect::<Vec<_>>(), vec!["slow"]);
        assert_eq!(q.of_state(3).collect::<Vec<_>>(), vec!["up"]);
        assert_eq!(q.of_state(0).collect::<Vec<_>>(), vec!["fast", "up"]);
    }

    #[test]
    fn equality_ignores_the_order_labels_were_added_in() {
        let mut by_state = Labeling::new(3);
        by_state.add(0, "b").add(0, "a").add(1, "a").add(2, "c");
        let mut by_ap = Labeling::new(3);
        by_ap.add(2, "c").add(1, "a").add(0, "a").add(0, "b");
        assert_eq!(by_state, by_ap);
        assert_eq!(by_ap.of_state(0).collect::<Vec<_>>(), vec!["a", "b"]);
        by_ap.declare("d");
        assert_ne!(by_state, by_ap);
        by_state.declare("d").add(1, "d");
        assert_ne!(by_state, by_ap);
    }
}
