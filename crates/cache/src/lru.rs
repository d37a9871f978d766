//! An O(1) LRU list over a slab, with priority bands.
//!
//! The paper's file system can "override cache retention priorities" per
//! file (§4), so the recency list is split into bands: eviction always
//! drains the lowest band's tail before touching higher bands.

use crate::fxhash::FxBuildHasher;
use std::collections::HashMap; // lint: allow(unordered-iteration) — see `index` field
use std::hash::Hash;

/// Cache retention priority (§4 extended metadata). Order matters:
/// `Low` evicts first, `Pinned` never auto-evicts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Retention {
    Low = 0,
    Normal = 1,
    High = 2,
    Pinned = 3,
}

const BANDS: usize = 4;

#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    band: usize,
    prev: Option<usize>,
    next: Option<usize>,
}

#[derive(Clone, Copy, Debug, Default)]
struct BandList {
    head: Option<usize>, // most recent
    tail: Option<usize>, // least recent
    len: usize,
}

/// LRU with priority bands, carrying one value per key: the cache keeps a
/// page's metadata here, so the recency index *is* the blade's page table.
/// Keys are unique; touching a key moves it to the front of its band.
#[derive(Clone, Debug)]
pub struct LruList<K: Eq + Hash + Clone, V: Clone> {
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    /// Lookup-only: recency order lives in the slab links, and every walk
    /// ([`LruList::band_iter`], [`LruList::iter`]) follows those links, so
    /// the map's layout never reaches an output.
    index: HashMap<K, usize, FxBuildHasher>, // lint: allow(unordered-iteration)
    bands: [BandList; BANDS],
}

impl<K: Eq + Hash + Clone, V: Clone> Default for LruList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruList<K, V> {
    pub fn new() -> LruList<K, V> {
        LruList {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(), // lint: allow(unordered-iteration) — lookup-only, never iterated
            bands: [BandList::default(); BANDS],
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value stored with `key`, without touching its recency.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&idx| &self.slab[idx].value)
    }

    /// Mutable access to `key`'s value, without touching its recency.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.index.get(key)?;
        Some(&mut self.slab[idx].value)
    }

    fn unlink(&mut self, idx: usize) {
        let (band, prev, next) = {
            let n = &self.slab[idx];
            (n.band, n.prev, n.next)
        };
        match prev {
            Some(p) => self.slab[p].next = next,
            None => self.bands[band].head = next,
        }
        match next {
            Some(nx) => self.slab[nx].prev = prev,
            None => self.bands[band].tail = prev,
        }
        self.bands[band].len -= 1;
    }

    fn link_front(&mut self, idx: usize, band: usize) {
        let old_head = self.bands[band].head;
        {
            let n = &mut self.slab[idx];
            n.band = band;
            n.prev = None;
            n.next = old_head;
        }
        if let Some(h) = old_head {
            self.slab[h].prev = Some(idx);
        }
        self.bands[band].head = Some(idx);
        if self.bands[band].tail.is_none() {
            self.bands[band].tail = Some(idx);
        }
        self.bands[band].len += 1;
    }

    /// Insert `key` with `value` at the front of `retention`'s band. An
    /// existing key is moved there and its value replaced; the old value
    /// is returned.
    pub fn insert(&mut self, key: K, value: V, retention: Retention) -> Option<V> {
        let band = retention as usize;
        if let Some(&idx) = self.index.get(&key) {
            let old = std::mem::replace(&mut self.slab[idx].value, value);
            self.unlink(idx);
            self.link_front(idx, band);
            return Some(old);
        }
        let node = Node { key: key.clone(), value, band, prev: None, next: None };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.index.insert(key, idx);
        self.link_front(idx, band);
        None
    }

    /// Touch an existing key (move to front of its current band).
    pub fn touch(&mut self, key: &K) -> bool {
        match self.index.get(key).copied() {
            Some(idx) => {
                let band = self.slab[idx].band;
                self.unlink(idx);
                self.link_front(idx, band);
                true
            }
            None => false,
        }
    }

    /// Remove a specific key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.index.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        Some(self.slab[idx].value.clone())
    }

    /// The least-recently-used key of the lowest non-empty, non-pinned
    /// band, skipping entries `veto` rejects (e.g. dirty pages): the next
    /// eviction victim. Nothing is removed.
    pub fn victim<F: Fn(&K, &V) -> bool>(&self, veto: F) -> Option<&K> {
        // never auto-evict Pinned
        (0..BANDS - 1).find_map(|band| {
            let mut cursor = self.bands[band].tail;
            while let Some(idx) = cursor {
                let node = &self.slab[idx];
                if !veto(&node.key, &node.value) {
                    return Some(&node.key);
                }
                cursor = node.prev;
            }
            None
        })
    }

    /// Remove and return [`LruList::victim`]'s entry.
    pub fn evict_where<F: Fn(&K, &V) -> bool>(&mut self, veto: F) -> Option<(K, V)> {
        let key = self.victim(veto)?.clone();
        let value = self.remove(&key)?;
        Some((key, value))
    }

    /// Iterate keys from most- to least-recent within a band.
    pub fn band_keys(&self, retention: Retention) -> Vec<K> {
        self.band_iter(retention).cloned().collect()
    }

    /// Allocation-free variant of [`LruList::band_keys`]: borrow keys from
    /// most- to least-recent within a band. Hot callers (the model
    /// checker's canonical hash) walk recency order once per explored
    /// transition and must not pay a `Vec` per walk.
    pub fn band_iter(&self, retention: Retention) -> impl Iterator<Item = &K> + '_ {
        self.band_nodes(retention as usize).map(|n| &n.key)
    }

    /// Every entry, band by band from `Low` to `Pinned`, most-recent first
    /// within a band. The order follows the recency links, so it is a pure
    /// function of the operation history — but it is not key order:
    /// callers that publish an order sort first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        (0..BANDS).flat_map(move |band| self.band_nodes(band)).map(|n| (&n.key, &n.value))
    }

    fn band_nodes(&self, band: usize) -> impl Iterator<Item = &Node<K, V>> + '_ {
        std::iter::successors(self.bands[band].head, move |&idx| self.slab[idx].next).map(move |idx| &self.slab[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_evict_lru_order() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Normal);
        l.insert(2, (), Retention::Normal);
        l.insert(3, (), Retention::Normal);
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(1));
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(2));
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(3));
        assert_eq!(l.evict_where(|_, _| false), None);
        assert!(l.is_empty());
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Normal);
        l.insert(2, (), Retention::Normal);
        assert!(l.touch(&1));
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(2), "1 was refreshed");
    }

    #[test]
    fn low_band_evicts_before_high() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(10, (), Retention::High);
        l.insert(20, (), Retention::Low);
        l.insert(30, (), Retention::Normal);
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(20));
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(30));
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(10));
    }

    #[test]
    fn pinned_is_never_auto_evicted() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Pinned);
        assert_eq!(l.evict_where(|_, _| false), None);
        assert!(l.remove(&1).is_some(), "explicit removal still works");
    }

    #[test]
    fn veto_skips_but_does_not_block_others() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Normal);
        l.insert(2, (), Retention::Normal);
        // veto the LRU entry (1); eviction takes 2's... no wait: veto(1) → take 2.
        assert_eq!(l.evict_where(|&k, _| k == 1).map(|(k, _)| k), Some(2));
        assert!(l.contains(&1));
    }

    #[test]
    fn reinsert_updates_band() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Low);
        l.insert(1, (), Retention::High);
        assert_eq!(l.len(), 1);
        l.insert(2, (), Retention::Normal);
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(2), "1 now lives in the High band");
    }

    #[test]
    fn remove_then_slab_reuse() {
        let mut l: LruList<u32, ()> = LruList::new();
        for k in 0..100 {
            l.insert(k, (), Retention::Normal);
        }
        for k in 0..50 {
            assert!(l.remove(&k).is_some());
        }
        for k in 100..150 {
            l.insert(k, (), Retention::Normal);
        }
        assert_eq!(l.len(), 100);
        // Eviction order: 50..99 then 100..149.
        assert_eq!(l.evict_where(|_, _| false).map(|(k, _)| k), Some(50));
    }

    #[test]
    fn values_ride_with_their_keys() {
        let mut l: LruList<u32, &str> = LruList::new();
        assert_eq!(l.insert(1, "a", Retention::Normal), None);
        assert_eq!(l.insert(2, "b", Retention::Pinned), None);
        assert_eq!(l.insert(1, "c", Retention::High), Some("a"), "replacing returns the old value");
        assert_eq!(l.get(&1), Some(&"c"));
        *l.get_mut(&2).unwrap() = "d";
        // Walk: band by band (Low first), most recent first.
        let all: Vec<(u32, &str)> = l.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(all, vec![(1, "c"), (2, "d")]);
        assert_eq!(l.victim(|_, _| false), Some(&1), "pinned 2 is never a victim");
        assert_eq!(l.remove(&1), Some("c"));
        assert_eq!(l.evict_where(|_, _| false), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn band_keys_lists_most_recent_first() {
        let mut l: LruList<u32, ()> = LruList::new();
        l.insert(1, (), Retention::Normal);
        l.insert(2, (), Retention::Normal);
        l.insert(3, (), Retention::Normal);
        assert_eq!(l.band_keys(Retention::Normal), vec![3, 2, 1]);
        assert!(l.band_keys(Retention::High).is_empty());
    }
}
