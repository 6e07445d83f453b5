//! Dense scratch maps for the plan passes.
//!
//! Passes 2–4 keep per-batch bookkeeping keyed by vertex id or buffer
//! slot — both small dense integers in any plan the planner built. A
//! [`StampMap`] stores such a map as two flat arrays and empties it in
//! `O(1)` by bumping a generation, so a pass over `n` batches allocates
//! once and never hashes.

use std::collections::BTreeMap;

/// Map from `u32` keys to `T`, dense below the bound it was built with.
///
/// Keys at or beyond the bound — only a corrupt plan names them — spill
/// into an ordered side map, so lookups stay exact without sizing an
/// array by a bogus id.
pub(crate) struct StampMap<T> {
    /// `stamp[k] == generation` iff `k` is present.
    stamp: Vec<u32>,
    value: Vec<T>,
    generation: u32,
    spill: BTreeMap<u32, T>,
}

impl<T: Copy + Default> StampMap<T> {
    /// An empty map, dense for keys `0..bound`.
    pub(crate) fn new(bound: usize) -> Self {
        StampMap {
            stamp: vec![0; bound],
            value: vec![T::default(); bound],
            generation: 1,
            spill: BTreeMap::new(),
        }
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.spill.clear();
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.stamp.fill(0);
            1
        });
    }

    /// The value stored under `key`, if any.
    pub(crate) fn get(&self, key: u32) -> Option<T> {
        match self.stamp.get(key as usize) {
            Some(&s) => (s == self.generation).then(|| self.value[key as usize]),
            None => self.spill.get(&key).copied(),
        }
    }

    /// Whether `key` is present.
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under `key`, returning what it replaced.
    pub(crate) fn insert(&mut self, key: u32, value: T) -> Option<T> {
        let Some(stamp) = self.stamp.get_mut(key as usize) else {
            return self.spill.insert(key, value);
        };
        let old = (*stamp == self.generation).then(|| self.value[key as usize]);
        *stamp = self.generation;
        self.value[key as usize] = value;
        old
    }

    /// Removes `key`, if present.
    pub(crate) fn remove(&mut self, key: u32) {
        match self.stamp.get_mut(key as usize) {
            Some(stamp) => *stamp = 0,
            None => {
                self.spill.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spilled_keys_behave_alike() {
        let mut m: StampMap<u32> = StampMap::new(4);
        for key in [2u32, 9] {
            assert_eq!(m.get(key), None);
            assert_eq!(m.insert(key, 7), None);
            assert_eq!(m.insert(key, 8), Some(7));
            assert_eq!(m.get(key), Some(8));
            m.remove(key);
            assert!(!m.contains(key));
            m.insert(key, 1);
        }
        m.clear();
        assert!(!m.contains(2) && !m.contains(9));
        assert_eq!(m.insert(2, 5), None);
    }

    #[test]
    fn generation_wraparound_does_not_resurrect_entries() {
        let mut m: StampMap<u8> = StampMap::new(2);
        m.insert(0, 1);
        m.generation = u32::MAX;
        m.insert(1, 2);
        m.clear();
        assert_eq!(m.generation, 1);
        assert!(!m.contains(0) && !m.contains(1));
    }
}
