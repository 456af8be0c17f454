//! A bounded memo table with SIEVE eviction ("SIEVE is Simpler than LRU",
//! Zhang et al., NSDI '24).
//!
//! The substrates memoise raw metric vectors per state and the engine keeps
//! a process-wide evaluation store; both previously grew without bound over
//! long suites (a ROADMAP open item). [`SieveCache`] bounds them. Entries
//! form one FIFO queue, oldest to newest, and each carries a visited bit
//! that a hit sets. A new entry joins the newest end unvisited. To make
//! room, the hand walks from where it last stopped toward the newest end,
//! clearing visited bits and wrapping to the oldest entry, and evicts the
//! first unvisited entry it meets; no survivor ever moves. So an entry read
//! once after it was stored outlives a run of one-off entries stored after
//! it, and a hit costs one store — no per-access list splicing like LRU,
//! which matters under the `Mutex`es these caches live behind.

use std::collections::HashMap;
use std::hash::Hash;

/// The index that links to no slot.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    visited: bool,
    /// The next older slot in the queue (`NIL` at the oldest).
    older: usize,
    /// The next newer slot in the queue (`NIL` at the newest).
    newer: usize,
}

/// A bounded `K → V` map with SIEVE eviction. Capacity 0 means unbounded
/// (the pre-eviction behaviour).
pub struct SieveCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    /// The entries; a slot keeps its index while it holds an entry, and an
    /// evicted slot takes the newcomer in place.
    slots: Vec<Slot<K, V>>,
    oldest: usize,
    newest: usize,
    /// The slot the next eviction examines first.
    hand: usize,
    evictions: usize,
}

impl<K: Eq + Hash + Clone, V> SieveCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        SieveCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hand: 0,
            evictions: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries evicted so far.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Position of the hand in queue order (0 = the oldest entry): the
    /// next eviction examines that entry first.
    pub fn hand(&self) -> usize {
        self.queue().position(|idx| idx == self.hand).unwrap_or(0)
    }

    /// Iterates the stored entries in *queue order*, oldest to newest,
    /// together with their visited bits. Queue order plus [`Self::hand`]
    /// fully determines future eviction behaviour, so a snapshot taken
    /// through this iterator and replayed through [`Self::restore_slot`] /
    /// [`Self::set_hand`] reproduces the cache exactly — values, order and
    /// eviction schedule.
    pub fn iter_slots(&self) -> impl Iterator<Item = (&K, &V, bool)> {
        self.queue().map(|idx| {
            let slot = &self.slots[idx];
            (&slot.key, &slot.value, slot.visited)
        })
    }

    /// Appends an entry at the newest end, preserving an explicit visited
    /// bit — the restore-side counterpart of [`Self::iter_slots`]. Returns
    /// `false` (and stores nothing) when the key is already present or the
    /// cache is at capacity; restores into a smaller cache should fall back
    /// to [`Self::insert`].
    pub fn restore_slot(&mut self, key: K, value: V, visited: bool) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        if self.capacity != 0 && self.slots.len() >= self.capacity {
            return false;
        }
        self.push(key, value, visited);
        true
    }

    /// Moves the hand to a queue position (taken modulo the entry count);
    /// pairs with [`Self::restore_slot`] when rebuilding a cache from a
    /// snapshot.
    pub fn set_hand(&mut self, hand: usize) {
        self.hand = match self.slots.len() {
            0 => 0,
            len => self.queue().nth(hand % len).unwrap_or(0),
        };
    }

    /// Looks up `key`, marking the entry visited. Accepts any borrowed form
    /// of the key (like `HashMap::get`), so callers can probe without
    /// materialising an owned key.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_mut(key).map(|value| &*value)
    }

    /// Mutable lookup, marking the entry visited.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &idx = self.map.get(key)?;
        let slot = &mut self.slots[idx];
        slot.visited = true;
        Some(&mut slot.value)
    }

    /// Whether `key` is stored (does not touch the visited bit).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Inserts or replaces `key`'s entry, evicting the SIEVE victim when the
    /// cache is full. Replacing marks the entry visited; a new entry joins
    /// the newest end unvisited. Returns `true` when an unrelated entry was
    /// evicted.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            let slot = &mut self.slots[idx];
            slot.value = value;
            slot.visited = true;
            return false;
        }
        if self.capacity == 0 || self.slots.len() < self.capacity {
            self.push(key, value, false);
            return false;
        }
        // Clear visited bits until an unvisited victim turns up. Terminates
        // within one lap plus one step — the lap clears every bit.
        let mut idx = self.hand;
        while self.slots[idx].visited {
            self.slots[idx].visited = false;
            idx = self.newer_wrapping(idx);
        }
        // The hand rests where it would have gone next. (A victim that is
        // both oldest and newest is the one entry; its slot stays the hand.)
        self.hand = self.newer_wrapping(idx);
        self.unlink(idx);
        self.link_newest(idx);
        let slot = &mut self.slots[idx];
        self.map.remove(&slot.key);
        self.map.insert(key.clone(), idx);
        slot.key = key;
        slot.value = value;
        slot.visited = false;
        self.evictions += 1;
        true
    }

    /// Slot indices in queue order, oldest to newest.
    fn queue(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.oldest).filter(|&idx| idx != NIL), |&idx| {
            Some(self.slots[idx].newer).filter(|&next| next != NIL)
        })
    }

    /// The slot the hand visits after `idx`: its newer neighbour, or the
    /// oldest slot after the newest.
    fn newer_wrapping(&self, idx: usize) -> usize {
        match self.slots[idx].newer {
            NIL => self.oldest,
            next => next,
        }
    }

    /// Stores a new entry in a new slot at the newest end.
    fn push(&mut self, key: K, value: V, visited: bool) {
        let idx = self.slots.len();
        self.map.insert(key.clone(), idx);
        self.slots.push(Slot {
            key,
            value,
            visited,
            older: NIL,
            newer: NIL,
        });
        self.link_newest(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let Slot { older, newer, .. } = self.slots[idx];
        match older {
            NIL => self.oldest = newer,
            older => self.slots[older].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.slots[newer].older = older,
        }
    }

    fn link_newest(&mut self, idx: usize) {
        self.slots[idx].older = self.newest;
        self.slots[idx].newer = NIL;
        match self.newest {
            NIL => self.oldest = idx,
            newest => self.slots[newest].newer = idx,
        }
        self.newest = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = SieveCache::new(0);
        for i in 0..100 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&99), Some(&198));
    }

    #[test]
    fn bounded_cache_holds_capacity_and_counts_evictions() {
        let mut c = SieveCache::new(4);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 6);
    }

    #[test]
    fn referenced_entries_survive_one_sweep() {
        let mut c = SieveCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        // Every entry entered unvisited, so inserting "d" evicts the oldest,
        // "a", at once. Afterwards the hand rests on "b".
        c.insert("d", 4);
        assert_eq!(c.len(), 3);
        assert!(!c.contains(&"a") && c.contains(&"d"));
        assert_eq!(c.evictions(), 1);
        // Visit "b": the next insertion's hand must clear its bit, pass it
        // and take "c" instead. Without the visited bit the hand would evict
        // "b" here.
        assert_eq!(c.get(&"b"), Some(&2));
        c.insert("e", 5);
        assert!(c.contains(&"b"), "visited entry must survive the sweep");
        assert!(!c.contains(&"c"), "unvisited entry is the victim");
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut c = SieveCache::new(2);
        c.insert(1, "x");
        c.insert(1, "y");
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&1), Some(&"y"));
    }

    #[test]
    fn slot_snapshot_reproduces_eviction_schedule() {
        // Build a cache with a mixed visited pattern and a moved hand…
        let mut original = SieveCache::new(3);
        original.insert("a", 1);
        original.insert("b", 2);
        original.insert("c", 3);
        original.insert("d", 4); // evicts "a", hand moves
        original.get(&"b");

        // …replay its slots and hand into a fresh cache…
        let mut restored = SieveCache::new(3);
        let slots: Vec<(&str, i32, bool)> =
            original.iter_slots().map(|(k, v, r)| (*k, *v, r)).collect();
        for (k, v, r) in slots {
            assert!(restored.restore_slot(k, v, r));
        }
        restored.set_hand(original.hand());

        // …and check both caches pick the same victim next.
        original.insert("x", 9);
        restored.insert("x", 9);
        fn keys(c: &SieveCache<&'static str, i32>) -> Vec<&'static str> {
            let mut k: Vec<&'static str> = c.iter_slots().map(|(k, _, _)| *k).collect();
            k.sort_unstable();
            k
        }
        assert_eq!(keys(&original), keys(&restored));
    }

    #[test]
    fn restore_slot_refuses_duplicates_and_overflow() {
        let mut c = SieveCache::new(2);
        assert!(c.restore_slot(1, "a", true));
        assert!(!c.restore_slot(1, "b", false), "duplicate key");
        assert!(c.restore_slot(2, "b", false));
        assert!(!c.restore_slot(3, "c", true), "beyond capacity");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&"a"));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut c = SieveCache::new(2);
        c.insert(1, vec![1.0]);
        c.get_mut(&1).unwrap().push(2.0);
        assert_eq!(c.get(&1), Some(&vec![1.0, 2.0]));
    }

    /// Two hot keys read after every insert of a stream of one-off keys stay
    /// resident: a one-off key enters unvisited and is the next victim, so
    /// it never pushes a hot key out.
    #[test]
    fn hot_keys_read_between_one_off_inserts_stay_resident() {
        const HOT: [u32; 2] = [1_000, 1_001];
        let mut c = SieveCache::new(4);
        for key in HOT {
            c.insert(key, 0);
            c.get(&key);
        }
        for cold in 0..64 {
            c.insert(cold, 0);
            for key in HOT {
                assert!(
                    c.get(&key).is_some(),
                    "hot {key} lost at cold insert {cold}"
                );
            }
        }
        assert_eq!(c.evictions(), 62);
    }

    /// Inserts `key` and names the entry it evicted, if any.
    fn insert_naming_victim(c: &mut SieveCache<u64, u64>, key: u64, value: u64) -> Option<u64> {
        let before: Vec<u64> = c.iter_slots().map(|(k, _, _)| *k).collect();
        c.insert(key, value)
            .then(|| before.into_iter().find(|k| !c.contains(k)).unwrap())
    }

    /// A seeded stream of reads and inserts, snapshotted through
    /// `iter_slots` / `hand` every 1,000 operations: the snapshot lists the
    /// entries oldest to newest, and every cache rebuilt from one evicts the
    /// same victims, in the same order, as the original over the rest of
    /// the stream.
    #[test]
    fn a_restored_cache_evicts_the_exporters_victim_sequence() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut original = SieveCache::new(16);
        let mut restored: Vec<SieveCache<u64, u64>> = Vec::new();
        let mut born = HashMap::new();
        let mut victims = 0;
        for op in 0..10_000u64 {
            let key = if next() % 3 == 0 {
                next() % 6
            } else {
                next() % 64
            };
            if next() % 2 == 0 {
                let hit = original.get(&key).copied();
                for copy in &mut restored {
                    assert_eq!(copy.get(&key).copied(), hit, "op {op}");
                }
            } else {
                born.entry(key).or_insert(op);
                let victim = insert_naming_victim(&mut original, key, op);
                if let Some(gone) = victim {
                    born.remove(&gone);
                    victims += 1;
                }
                for copy in &mut restored {
                    assert_eq!(insert_naming_victim(copy, key, op), victim, "op {op}");
                }
            }
            if op % 1_000 == 999 {
                let listed: Vec<u64> = original.iter_slots().map(|(k, _, _)| born[k]).collect();
                assert!(
                    listed.windows(2).all(|w| w[0] < w[1]),
                    "slots listed oldest to newest at op {op}: {listed:?}"
                );
                let mut copy = SieveCache::new(16);
                for (&k, &v, visited) in original.iter_slots() {
                    assert!(copy.restore_slot(k, v, visited));
                }
                copy.set_hand(original.hand());
                restored.push(copy);
            }
        }
        assert!(victims > 1_000, "the stream evicts: {victims}");
        let slots = |c: &SieveCache<u64, u64>| {
            (
                c.hand(),
                c.iter_slots()
                    .map(|(&k, &v, b)| (k, v, b))
                    .collect::<Vec<_>>(),
            )
        };
        for copy in &restored {
            assert_eq!(slots(copy), slots(&original));
        }
    }
}
