//! A bounded memo table: SIEVE eviction ("SIEVE is Simpler than LRU",
//! Zhang et al., NSDI '24), TinyLFU admission ("TinyLFU: A Highly
//! Efficient Cache Admission Policy", Einziger, Friedman & Manes, ACM TOS
//! 2017).
//!
//! The substrates memoise raw metric vectors per state and the engine keeps
//! a process-wide evaluation store; both previously grew without bound over
//! long suites (a ROADMAP open item). [`SieveCache`] bounds them. Entries
//! form one FIFO queue, oldest to newest, and each carries a visited bit
//! that a hit sets. A new entry joins the newest end unvisited. To make
//! room, the hand walks from where it last stopped toward the newest end,
//! clearing visited bits and wrapping to the oldest entry, and picks the
//! first unvisited entry it meets as the victim; no survivor ever moves. So
//! an entry read once after it was stored outlives a run of one-off entries
//! stored after it, and a hit costs one store — no per-access list splicing
//! like LRU, which matters under the `Mutex`es these caches live behind.
//!
//! A count-min sketch counts every lookup, hit or miss, and a newcomer
//! takes the victim's slot only if the sketch has never seen the victim or
//! has seen the newcomer more often; otherwise the newcomer is dropped and
//! the hand stays on the victim. A cache that has seen no lookup (a fresh
//! restore) therefore evicts exactly as SIEVE does, and a scan of one-off
//! keys cannot flush the keys asked for again and again. The sketch is
//! allocated at the first lookup once the cache is half full (before that
//! every estimate reads 0), so a cache that never fills costs nothing.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

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

/// TinyLFU's frequency filter: four rows of saturating 4-bit counters
/// (stored in bytes), each of `next_power_of_two(max(16, 4 · capacity))`,
/// halved every `10 · capacity` increments so old popularity fades.
struct FrequencySketch {
    /// The four rows, one after another.
    counters: Vec<u8>,
    mask: usize,
    /// Increments since the last halving, and how many make one.
    additions: usize,
    period: usize,
}

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        let width = (4 * capacity).max(16).next_power_of_two();
        FrequencySketch {
            counters: vec![0; 4 * width],
            mask: width - 1,
            additions: 0,
            period: 10 * capacity,
        }
    }

    /// The key's counter in each row, by double hashing.
    fn cells(&self, hash: u64) -> [usize; 4] {
        let step = (hash >> 32) | 1;
        std::array::from_fn(|row| {
            let column = hash.wrapping_add(row as u64 * step) as usize & self.mask;
            row * (self.mask + 1) + column
        })
    }

    fn increment(&mut self, hash: u64) {
        for idx in self.cells(hash) {
            self.counters[idx] = (self.counters[idx] + 1).min(15);
        }
        self.additions += 1;
        if self.additions == self.period {
            self.additions = 0;
            self.counters.iter_mut().for_each(|count| *count >>= 1);
        }
    }

    fn estimate(&self, hash: u64) -> u8 {
        let row_counts = self.cells(hash).map(|idx| self.counters[idx]);
        row_counts.into_iter().min().unwrap_or(0)
    }
}

/// A key's sketch hash: SipHash under fixed keys (`DefaultHasher::new`),
/// never randomly keyed, so one stream of lookups and inserts decides the
/// same way in every cache and every process.
fn sketch_hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// A bounded `K → V` map with SIEVE eviction and TinyLFU admission.
/// Capacity 0 means unbounded (the pre-eviction behaviour).
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
    /// Lookup counts; `None` (every estimate 0) until the first lookup
    /// with the cache half full, and forever when it is unbounded.
    sketch: Option<FrequencySketch>,
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
            sketch: None,
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

    /// Number of entries evicted so far: SIEVE victims, and newcomers that
    /// were not admitted (they leave at once).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Iterates the stored entries in *queue order*, oldest to newest.
    /// Inserting them in this order into an empty cache of the same
    /// capacity rebuilds every value and the queue; visited bits and the
    /// hand start over.
    pub fn iter_slots(&self) -> impl Iterator<Item = (&K, &V)> {
        self.queue().map(|idx| {
            let slot = &self.slots[idx];
            (&slot.key, &slot.value)
        })
    }

    /// Looks up `key`, counting the lookup and marking the entry visited.
    /// Accepts any borrowed form of the key (like `HashMap::get`), so
    /// callers can probe without materialising an owned key.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_mut(key).map(|value| &*value)
    }

    /// Mutable lookup, counting the lookup and marking the entry visited.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.sketch.is_none() && self.capacity > 0 && self.slots.len() >= self.capacity / 2 {
            self.sketch = Some(FrequencySketch::new(self.capacity));
        }
        if let Some(sketch) = &mut self.sketch {
            sketch.increment(sketch_hash(key));
        }
        let &idx = self.map.get(key)?;
        let slot = &mut self.slots[idx];
        slot.visited = true;
        Some(&mut slot.value)
    }

    /// Inserts or replaces `key`'s entry. Replacing marks the entry
    /// visited; a new entry joins the newest end unvisited. When the cache
    /// is full, the newcomer replaces the SIEVE victim if the victim was
    /// never looked up or `key` was looked up more often, and is dropped
    /// otherwise. Returns `true` when an entry, the victim or the
    /// newcomer, was evicted.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            let slot = &mut self.slots[idx];
            slot.value = value;
            slot.visited = true;
            return false;
        }
        if self.capacity == 0 || self.slots.len() < self.capacity {
            self.push(key, value);
            return false;
        }
        // Clear visited bits until an unvisited victim turns up. Terminates
        // within one lap plus one step — the lap clears every bit.
        let mut idx = self.hand;
        while self.slots[idx].visited {
            self.slots[idx].visited = false;
            idx = self.newer_wrapping(idx);
        }
        self.evictions += 1;
        let victim = self.estimate(&self.slots[idx].key);
        if victim != 0 && self.estimate(&key) <= victim {
            // Not asked for more often than the victim: the newcomer leaves.
            self.hand = idx;
            return true;
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
        true
    }

    /// How often the sketch has seen `key` looked up (0 without a sketch).
    fn estimate(&self, key: &K) -> u8 {
        self.sketch
            .as_ref()
            .map_or(0, |sketch| sketch.estimate(sketch_hash(key)))
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

    /// Stores a new, unvisited entry in a new slot at the newest end.
    fn push(&mut self, key: K, value: V) {
        let idx = self.slots.len();
        self.map.insert(key.clone(), idx);
        self.slots.push(Slot {
            key,
            value,
            visited: false,
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

    impl<K: Eq + Hash + Clone, V> SieveCache<K, V> {
        /// Whether `key` is stored (does not touch the visited bit).
        fn contains(&self, key: &K) -> bool {
            self.map.contains_key(key)
        }
    }

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

    /// A seeded stream of reads and inserts, listed through `iter_slots`
    /// every 1,000 operations: the listing runs oldest to newest, and
    /// inserting it in that order into an empty cache of the same capacity
    /// lists the same entries, with the same values, in the same order.
    #[test]
    fn reinserting_the_listed_slots_rebuilds_values_and_queue_order() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut original = SieveCache::new(16);
        let mut born = HashMap::new();
        for op in 0..10_000u64 {
            let key = if next() % 3 == 0 {
                next() % 6
            } else {
                next() % 64
            };
            if next() % 2 == 0 {
                original.get(&key);
            } else {
                born.entry(key).or_insert(op);
                original.insert(key, op);
                born.retain(|k, _| original.contains(k));
            }
            if op % 1_000 == 999 {
                let listed: Vec<(u64, u64)> =
                    original.iter_slots().map(|(&k, &v)| (k, v)).collect();
                assert!(
                    listed.windows(2).all(|w| born[&w[0].0] < born[&w[1].0]),
                    "slots listed oldest to newest at op {op}: {listed:?}"
                );
                let mut copy = SieveCache::new(16);
                for &(k, v) in &listed {
                    assert!(!copy.insert(k, v), "nothing evicted at op {op}");
                }
                let relisted: Vec<(u64, u64)> = copy.iter_slots().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(relisted, listed, "op {op}");
            }
        }
        assert!(original.evictions() > 1_000, "the stream evicts");
    }
}
