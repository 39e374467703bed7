//! One single-flight, LRU-bounded memo, the workspace's only per-key
//! `OnceLock` slot map (DESIGN.md §7a): it holds the characterization
//! tables, the calibration solves and the tenant banks.
//!
//! Each key owns an `Arc<OnceLock<Arc<V>>>` slot, and the map lock is
//! held only to fetch or insert slots, so initializers run outside it:
//! misses on different keys never serialize each other, and racing misses
//! on one key single-flight — one caller initializes, the rest block on
//! the slot until the value exists. A panicking initializer leaves its
//! slot empty for the next caller.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vardelay_obs as obs;

/// Whether the pure memos (characterization and calibration solve) are on.
/// Setting `VARDELAY_NO_CACHE`, read once per process, turns both off at
/// their call sites. It never bypasses the tenant-bank registry, whose
/// banks are mutable state rather than memoized values.
pub fn cache_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("VARDELAY_NO_CACHE").is_none())
}

/// Indices into [`Memo::stats`].
const HITS: usize = 0;
const MISSES: usize = 1;
const WAITS: usize = 2;
const EVICTIONS: usize = 3;

type Slot<V> = Arc<OnceLock<Arc<V>>>;

/// A single-flight memo of `K → Arc<V>` holding at most `cap` keys.
pub struct Memo<K, V> {
    cap: usize,
    /// Each key's slot and the `clock` reading of its last use.
    slots: Mutex<HashMap<K, (Slot<V>, u64)>>,
    clock: AtomicU64,
    /// Each count with its obs mirror, resolved once in [`Memo::new`].
    counts: [(AtomicU64, Option<&'static obs::Counter>); 4],
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// An empty memo holding at most `cap` keys (clamped ≥ 1). Its hit,
    /// miss, wait and eviction counts are mirrored into the obs counters
    /// named by `metrics`, in that order (an empty name mirrors nothing).
    pub fn new(cap: usize, metrics: [&'static str; 4]) -> Memo<K, V> {
        let mirror = |name: &'static str| (!name.is_empty()).then(|| obs::counter(name));
        Memo {
            cap: cap.max(1),
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            counts: metrics.map(|name| (AtomicU64::new(0), mirror(name))),
        }
    }

    /// A pure memo (see [`cache_enabled`]) mirroring its hits, misses and
    /// waits into the named obs counters. Its 256-key cap is far above the
    /// 7 tables and 6 solves a cold `repro all` holds, but bounds a process
    /// that keeps calibrating new configurations (each drift is one).
    pub fn pure(hits: &'static str, misses: &'static str, waits: &'static str) -> Memo<K, V> {
        Memo::new(256, [hits, misses, waits, ""])
    }

    /// The entry cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Keys currently held, filled or mid-initialization.
    pub fn resident(&self) -> usize {
        self.lock().len()
    }

    /// The always-on counts `[hits, misses, waits, evictions]`, whatever
    /// the `vardelay-obs` gate says; [`Memo::clear`] leaves them running. A
    /// miss is one initializer run however many callers raced; a wait is a
    /// lookup that blocked on another caller's initializer.
    pub fn stats(&self) -> [u64; 4] {
        self.counts
            .each_ref()
            .map(|(n, _)| n.load(Ordering::Relaxed))
    }

    fn bump(&self, count: usize) {
        let (total, mirror) = &self.counts[count];
        total.fetch_add(1, Ordering::Relaxed);
        mirror.iter().for_each(|counter| counter.incr());
    }

    /// Recovers a poisoned lock: no update leaves the map half-changed.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, (Slot<V>, u64)>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The values of `keys`, initialized as one family: the positions of
    /// the keys this caller claims go to one `init` call, which returns a
    /// value per position. Filled keys are hits; keys another caller is
    /// filling are waited on. The keys become the most recently used, and
    /// the values of keys evicted past the cap go to `evicted`, coldest
    /// first, outside the map lock and before anything is initialized.
    ///
    /// Several slots stay claimed at once, so keys must be distinct and
    /// callers sharing keys must list them in one order (a depth family
    /// ascends): then no two callers can each hold a slot the other waits
    /// on. A panicking `init` unwinds through every claimed slot.
    pub fn get_or_init(
        &self,
        keys: &[K],
        evicted: impl FnOnce(Vec<(K, Arc<V>)>),
        init: impl FnOnce(&[usize]) -> Vec<V>,
    ) -> Vec<Arc<V>> {
        let mut map = self.lock();
        let touch = |key: &K| {
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            // Look up before inserting: a hit must not clone the key.
            if let Some((slot, used)) = map.get_mut(key) {
                *used = now;
                return Arc::clone(slot);
            }
            let slot = Slot::default();
            map.insert(key.clone(), (Arc::clone(&slot), now));
            slot
        };
        let slots: Vec<Slot<V>> = keys.iter().map(touch).collect();
        let mut cold = Vec::new();
        while map.len() > self.cap {
            let coldest = map.iter().min_by_key(|(_, (_, used))| *used);
            let coldest = coldest.expect("over the cap").0.clone();
            let (key, (slot, _)) = map.remove_entry(&coldest).expect("present");
            self.bump(EVICTIONS);
            // A slot still mid-initialization has nothing to hand back.
            cold.extend(slot.get().map(|value| (key, Arc::clone(value))));
        }
        drop(map);
        evicted(cold);
        self.claim_from(&slots, 0, &mut Vec::new(), &mut Some(init));
        let filled = |slot: Slot<V>| slot.get().cloned().expect("every slot is filled");
        slots.into_iter().map(filled).collect()
    }

    /// Walks `slots[at..]` in order, claiming each empty slot by entering
    /// its initializer and recursing from inside it. Past the last slot the
    /// claimed positions (`owned`) are initialized in one call; on the way
    /// out each initializer pops its own value and passes the rest up.
    fn claim_from<F: FnOnce(&[usize]) -> Vec<V>>(
        &self,
        slots: &[Slot<V>],
        at: usize,
        owned: &mut Vec<usize>,
        init: &mut Option<F>,
    ) -> Vec<V> {
        let Some(slot) = slots.get(at) else {
            if owned.is_empty() {
                return Vec::new();
            }
            let values = init.take().expect("a family initializes once")(owned);
            assert_eq!(values.len(), owned.len(), "one value per claimed key");
            return values;
        };
        let mut count = if slot.get().is_some() { HITS } else { WAITS };
        let mut rest = Vec::new();
        slot.get_or_init(|| {
            // Runs once per slot however many callers race, so the miss
            // count equals the initializer count by construction.
            count = MISSES;
            self.bump(MISSES);
            owned.push(at);
            rest = self.claim_from(slots, at + 1, owned, init);
            Arc::new(rest.pop().expect("claimed slot was initialized"))
        });
        if count == MISSES {
            return rest;
        }
        self.bump(count);
        self.claim_from(slots, at + 1, owned, init)
    }

    /// `key`'s value if it is held and filled. Initializes nothing and
    /// leaves the LRU order alone.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.lock().get(key)?.0.get().cloned()
    }

    /// Every filled entry, least recently used first. Leaves the LRU
    /// order alone; slots still mid-initialization are skipped.
    pub fn entries(&self) -> Vec<(K, Arc<V>)> {
        let map = self.lock();
        let filled = map
            .iter()
            .filter_map(|(k, (slot, used))| Some((*used, k, slot.get()?)));
        let mut filled: Vec<_> = filled.collect();
        filled.sort_unstable_by_key(|entry| entry.0);
        filled
            .into_iter()
            .map(|(_, k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Drops every key; the counts keep running. Callers blocked on an
    /// in-flight initializer hold their slot and finish normally; only
    /// later lookups start cold.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    type Evicted = Vec<(&'static str, Arc<u32>)>;

    fn memo(cap: usize) -> Memo<&'static str, u32> {
        Memo::new(cap, [""; 4])
    }

    /// One key through the memo: its value and what its insertion evicted.
    fn get(memo: &Memo<&'static str, u32>, key: &'static str, value: u32) -> (u32, Evicted) {
        let mut evicted = Vec::new();
        let got = memo.get_or_init(&[key], |cold| evicted = cold, |_| vec![value]);
        (*got[0], evicted)
    }

    #[test]
    fn racing_callers_single_flight_one_init() {
        const N: usize = 4;
        let memo = memo(8);
        let inits = AtomicUsize::new(0);
        let claimed = AtomicUsize::new(0);
        let barrier = Barrier::new(N);
        let values: Vec<u32> = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                memo.get_or_init(&["k"], drop, |_| {
                    inits.fetch_add(1, Ordering::SeqCst);
                    // Release the racers only once this init is in flight,
                    // and finish only after each has claimed the slot.
                    barrier.wait();
                    while claimed.load(Ordering::SeqCst) < N - 1 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(100));
                    vec![7]
                })
            });
            let racers: Vec<_> = (1..N)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        // `evicted` runs between claiming and filling.
                        let claim = |_| {
                            claimed.fetch_add(1, Ordering::SeqCst);
                        };
                        memo.get_or_init(&["k"], claim, |_| {
                            inits.fetch_add(1, Ordering::SeqCst);
                            vec![0]
                        })
                    })
                })
                .collect();
            let all = std::iter::once(leader).chain(racers);
            all.map(|t| *t.join().unwrap()[0]).collect()
        });
        assert_eq!(inits.load(Ordering::SeqCst), 1, "one init for one key");
        assert_eq!(values, [7; N]);
        let [hits, misses, waits, _] = memo.stats();
        assert_eq!((hits, misses, waits), (0, 1, N as u64 - 1));
    }

    #[test]
    fn the_third_key_evicts_the_least_recently_used_and_returns_it() {
        let memo = memo(2);
        get(&memo, "a", 1);
        get(&memo, "b", 2);
        // Touching a makes b the coldest key.
        assert_eq!(get(&memo, "a", 0), (1, vec![]));
        assert_eq!(get(&memo, "c", 3), (3, vec![("b", Arc::new(2))]));
        assert_eq!(memo.resident(), 2);
        assert!(memo.peek(&"b").is_none());
        assert_eq!(memo.stats()[EVICTIONS], 1);
    }

    #[test]
    fn peek_and_entries_leave_recency_alone() {
        let memo = memo(2);
        get(&memo, "a", 1);
        get(&memo, "b", 2);
        assert_eq!(memo.peek(&"a"), Some(Arc::new(1)));
        assert_eq!(memo.peek(&"z"), None, "peek never inserts");
        let order: Vec<_> = memo.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(order, ["a", "b"], "coldest first");
        // a is still the coldest key despite the peek and the listing.
        assert_eq!(get(&memo, "c", 3).1, vec![("a", Arc::new(1))]);
        assert_eq!(memo.stats()[HITS], 0, "observing counts nothing");
    }

    #[test]
    fn a_panicking_init_leaves_the_key_empty_for_the_next_caller() {
        let memo = memo(4);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_init(&["k"], drop, |_| panic!("init failed"))
        }));
        assert!(panicked.is_err());
        assert!(memo.peek(&"k").is_none());
        assert_eq!(get(&memo, "k", 5).0, 5);
        assert_eq!(memo.stats()[MISSES], 2, "both initializer runs count");
    }

    #[test]
    fn clear_lets_a_blocked_waiter_finish() {
        let memo = memo(4);
        let barrier = Barrier::new(3);
        let claimed = AtomicUsize::new(0);
        let (leader, waiter) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                memo.get_or_init(&["k"], drop, |_| {
                    barrier.wait();
                    while claimed.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(100));
                    vec![9]
                })
            });
            let waiter = scope.spawn(|| {
                barrier.wait();
                let claim = |_| {
                    claimed.fetch_add(1, Ordering::SeqCst);
                };
                memo.get_or_init(&["k"], claim, |_| unreachable!("the leader initializes"))
            });
            barrier.wait();
            while claimed.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            memo.clear();
            (leader.join().unwrap(), waiter.join().unwrap())
        });
        assert_eq!((*leader[0], *waiter[0]), (9, 9));
        assert_eq!(memo.stats()[WAITS], 1);
        assert_eq!(memo.resident(), 0, "the cleared key is not re-inserted");
    }
}
