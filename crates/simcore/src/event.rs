//! Deterministic event queue over an index-addressed event arena.
//!
//! Events fire in time order, and events scheduled for the same instant
//! fire in scheduling order. This total order is what makes whole
//! simulations reproducible from a seed, which the paired
//! with/without-SpeQuloS comparisons of the paper (§4.2.1) depend on.
//!
//! ## Arena layout
//!
//! Event payloads live in a slot arena (`Vec<Option<E>>`) and the queue
//! orders small `Copy` keys (`time`, slot, run length: 16 bytes) instead
//! of full payload entries. Freed slots are recycled through a free list,
//! so a steady-state simulation performs no per-event allocation at all.
//!
//! ## Radix heap
//!
//! The clock only moves forward — scheduling into the past is forbidden —
//! so the keys sit in a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
//! JACM 1990) over their time in milliseconds. Bucket `b > 0` holds the
//! keys whose time first differs from `last`, the last minimum taken, in
//! bit `b − 1`; bucket 0 holds the keys at exactly `last`. A push is
//! O(1), and a far-future key (a BOINC deadline a day out) is not touched
//! again until the clock gets near it: a pop with bucket 0 empty re-places
//! only the lowest non-empty bucket, whose keys all land in lower buckets.
//! Keys at equal times always share a bucket and are appended and moved
//! in order, so ties fire first-in first-out with no sequence number.
//!
//! ## Batches
//!
//! [`EventQueue::schedule_batch`] enqueues N events sharing one timestamp
//! as a *single* key over a contiguous slot run. Popping preserves
//! exactly the order (and count) that N individual [`EventQueue::schedule`]
//! calls would produce: while a batch is draining, its front is the
//! globally earliest event — any event scheduled meanwhile lands at the
//! same time or later and, being later in scheduling order, behind it —
//! so batch items can be served without touching the heap.

use crate::time::{SimDuration, SimTime};

/// Key for a run of one or more events stored in the arena: the run
/// occupies slots `slot..slot + len`, all at `time`.
#[derive(Clone, Copy, Debug)]
struct Key {
    time: SimTime,
    slot: u32,
    len: u32,
}

/// Radix heap over [`Key`]s (see module docs). Pop order is time order,
/// ties first-in first-out; every pushed key must be at or after `last`.
struct RadixHeap {
    /// The last minimum taken.
    last: u64,
    buckets: [Vec<Key>; 65],
    /// Bucket 0 is consumed from here, so its keys keep push order.
    head: usize,
    /// Minimum time per non-empty bucket.
    min: [u64; 65],
    /// Bit `b` set iff bucket `b` is non-empty.
    mask: u128,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            head: 0,
            min: [u64::MAX; 65],
            mask: 0,
        }
    }
}

impl RadixHeap {
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.last = 0;
        self.head = 0;
        self.min = [u64::MAX; 65];
        self.mask = 0;
    }

    /// Earliest pending time. Never moves `last`, so a key may still be
    /// pushed at the clock after a peek.
    fn peek(&self) -> Option<SimTime> {
        let b = self.mask.trailing_zeros() as usize;
        (self.mask != 0).then(|| SimTime::from_millis(self.min[b]))
    }

    fn push(&mut self, key: Key) {
        let t = key.time.as_millis();
        debug_assert!(t >= self.last);
        let b = (u64::BITS - (t ^ self.last).leading_zeros()) as usize;
        self.buckets[b].push(key);
        self.min[b] = self.min[b].min(t);
        self.mask |= 1 << b;
    }

    fn pop(&mut self) -> Option<Key> {
        if self.mask & 1 == 0 {
            if self.mask == 0 {
                return None;
            }
            // The lowest non-empty bucket's minimum becomes `last`; its
            // keys, re-placed in order, all land in lower (empty) buckets.
            let b = self.mask.trailing_zeros() as usize;
            self.last = self.min[b];
            self.min[b] = u64::MAX;
            self.mask &= !(1 << b);
            let mut keys = std::mem::take(&mut self.buckets[b]);
            for &key in &keys {
                self.push(key);
            }
            keys.clear();
            self.buckets[b] = keys;
        }
        let key = self.buckets[0][self.head];
        self.head += 1;
        if self.head == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head = 0;
            self.min[0] = u64::MAX;
            self.mask &= !1;
        }
        Some(key)
    }
}

/// A future-event list with a monotonically advancing clock.
pub struct EventQueue<E> {
    heap: RadixHeap,
    /// Slot arena holding the event payloads the heap keys point into.
    arena: Vec<Option<E>>,
    /// Recycled single-event slots.
    free: Vec<u32>,
    /// The batch currently being drained, if any (see module docs).
    draining: Option<Key>,
    /// Total pending events (heap runs plus the draining batch).
    pending: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with arena capacity for `cap` pending
    /// events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: RadixHeap::default(),
            arena: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            draining: None,
            pending: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    fn assert_future(&self, t: SimTime) {
        assert!(
            t >= self.now,
            "event scheduled in the past: {t:?} < now {:?}",
            self.now
        );
    }

    /// Claims one arena slot, recycling freed slots before growing.
    fn alloc_slot(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.arena[slot as usize].is_none());
            self.arena[slot as usize] = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.arena.len()).expect("event arena exceeds u32 slots");
            self.arena.push(Some(event));
            slot
        }
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current clock — scheduling into the
    /// past is always a simulator bug.
    pub fn schedule(&mut self, t: SimTime, event: E) {
        self.assert_future(t);
        let slot = self.alloc_slot(event);
        self.heap.push(Key {
            time: t,
            slot,
            len: 1,
        });
        self.pending += 1;
    }

    /// Schedules every event of `events` at absolute time `t` behind a
    /// single heap entry. Firing order and event count are exactly those of
    /// calling [`EventQueue::schedule`] once per event, but only one heap
    /// push (and later one heap pop) is performed for the whole batch —
    /// the fast path for worlds that release many transitions at one
    /// timestamp (task-arrival waves, cloud-fleet boots).
    ///
    /// An empty iterator is a no-op.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current clock.
    pub fn schedule_batch<I>(&mut self, t: SimTime, events: I)
    where
        I: IntoIterator<Item = E>,
    {
        self.assert_future(t);
        // Batch slots must be contiguous, so they are appended to the arena
        // end rather than drawn from the free list; the slots recycle as
        // singles once the batch has drained.
        let start = u32::try_from(self.arena.len()).expect("event arena exceeds u32 slots");
        self.arena.extend(events.into_iter().map(Some));
        let len = u32::try_from(self.arena.len() - start as usize)
            .expect("event batch exceeds u32 slots");
        if len == 0 {
            return;
        }
        self.heap.push(Key {
            time: t,
            slot: start,
            len,
        });
        self.pending += len as usize;
    }

    /// Schedules `event` after delay `d` from the current clock.
    pub fn schedule_after(&mut self, d: SimDuration, event: E) {
        self.schedule(self.now + d, event);
    }

    /// Takes the payload out of `slot` and recycles the slot.
    fn take_slot(&mut self, slot: u32) -> E {
        let event = self.arena[slot as usize]
            .take()
            .expect("scheduled slot must hold an event");
        self.free.push(slot);
        event
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = match self.draining.take() {
            // A draining batch's front is always the global minimum (see
            // module docs), so it bypasses the heap entirely.
            Some(key) => key,
            None => self.heap.pop()?,
        };
        debug_assert!(key.time >= self.now);
        self.now = key.time;
        let event = self.take_slot(key.slot);
        if key.len > 1 {
            self.draining = Some(Key {
                time: key.time,
                slot: key.slot + 1,
                len: key.len - 1,
            });
        }
        self.pending -= 1;
        if self.pending == 0 {
            // Drained: recycle the whole arena (capacity kept) so batch
            // runs — which always append — restart from slot 0.
            self.arena.clear();
            self.free.clear();
        }
        Some((key.time, event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.draining {
            Some(key) => Some(key.time),
            None => self.heap.peek(),
        }
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.arena.clear();
        self.free.clear();
        self.draining = None;
        self.pending = 0;
    }

    /// Discards all pending events *and* rewinds the clock, keeping every
    /// buffer's capacity — lets sweep drivers reuse one queue across
    /// thousands of runs without reallocating.
    pub fn reset(&mut self) {
        self.clear();
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4), "first");
        q.pop();
        q.schedule_after(SimDuration::from_secs(6), "second");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn batch_equals_individual_schedules() {
        // A batch must be observationally identical to N schedule() calls:
        // same pop order, same interleaving against singles at the same and
        // neighbouring timestamps.
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        let mut single: EventQueue<u32> = EventQueue::new();
        let mut batched: EventQueue<u32> = EventQueue::new();
        single.schedule(t2, 0);
        batched.schedule(t2, 0);
        for i in 1..=5 {
            single.schedule(t1, i);
        }
        batched.schedule_batch(t1, 1..=5);
        single.schedule(t1, 6);
        batched.schedule(t1, 6);
        assert_eq!(single.len(), batched.len());
        let drain = |mut q: EventQueue<u32>| -> Vec<(SimTime, u32)> {
            std::iter::from_fn(move || q.pop()).collect()
        };
        assert_eq!(drain(single), drain(batched));
    }

    #[test]
    fn events_scheduled_while_batch_drains_fire_after_it() {
        let t = SimTime::from_secs(1);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_batch(t, [1, 2, 3]);
        assert_eq!(q.pop(), Some((t, 1)));
        // Scheduled mid-drain at the same instant: FIFO puts it after the
        // rest of the batch, exactly as with individual schedules.
        q.schedule(t, 9);
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), Some((t, 9)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_batch(SimTime::from_secs(1), std::iter::empty());
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn slots_recycle_without_arena_growth() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Steady-state churn: one event in flight at a time.
        q.schedule(SimTime::from_secs(1), 0);
        q.pop();
        for i in 2..1000u64 {
            q.schedule(SimTime::from_secs(i), i);
            q.pop();
        }
        assert!(
            q.arena.len() <= 2,
            "free-listed slots must be reused, arena grew to {}",
            q.arena.len()
        );
    }

    #[test]
    fn reset_keeps_capacity_and_rewinds_clock() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(i), i as u32);
        }
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // The clock rewound: scheduling at t=0 must be legal again.
        q.schedule(SimTime::ZERO, 7);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 7)));
    }

    #[test]
    fn equal_times_pushed_under_different_minima_fire_in_scheduling_order() {
        // Keys at t = 1 000 are pushed while `last` is 0, 1 and 999, and
        // each pop below 1 000 re-places the bucket they share.
        let t = SimTime::from_millis(1_000);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t, 0);
        q.schedule(SimTime::from_millis(1), 100);
        q.schedule(SimTime::from_millis(999), 101);
        q.schedule_batch(t, [1, 2]);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 100)));
        q.schedule(t, 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(999), 101)));
        q.schedule(t, 4);
        q.schedule(SimTime::from_millis(999), 102);
        assert_eq!(q.pop(), Some((SimTime::from_millis(999), 102)));
        q.schedule_batch(t, [5, 6]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..7).map(|i| (t, i)).collect::<Vec<_>>());
    }

    #[test]
    fn a_key_at_the_end_of_time_fires_last() {
        let (max, half) = (SimTime::MAX, SimTime::from_millis(1 << 63));
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(max, 1);
        q.schedule(half, 0);
        q.schedule(max, 2);
        assert_eq!(q.pop(), Some((half, 0)));
        assert_eq!(q.peek_time(), Some(max));
        q.schedule(max, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(max, 1), (max, 2), (max, 3)]);
    }

    #[test]
    fn a_peek_does_not_advance_the_heap() {
        let (t, later) = (SimTime::from_secs(5), SimTime::from_secs(10));
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t, 0);
        q.schedule(later, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        // Peeking at the later key must not move the heap's minimum past
        // the clock, or this schedule at the clock would be misplaced.
        assert_eq!(q.peek_time(), Some(later));
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((later, 2)));
    }

    proptest! {
        /// Mixing batch and single scheduling never changes the total order
        /// relative to all-single scheduling of the same events.
        #[test]
        fn prop_batch_matches_singles(
            times in proptest::collection::vec(0u64..50, 1..120),
            batch_at in 0u64..50,
            batch_len in 1usize..40,
        ) {
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut single: EventQueue<usize> = EventQueue::new();
            let mut batched: EventQueue<usize> = EventQueue::new();
            for (i, &t) in sorted.iter().enumerate() {
                single.schedule(SimTime::from_millis(t), i);
                batched.schedule(SimTime::from_millis(t), i);
            }
            let base = sorted.len();
            for j in 0..batch_len {
                single.schedule(SimTime::from_millis(batch_at + 1000), base + j);
            }
            batched.schedule_batch(
                SimTime::from_millis(batch_at + 1000),
                (0..batch_len).map(|j| base + j),
            );
            prop_assert_eq!(single.len(), batched.len());
            loop {
                let a = single.pop();
                let b = batched.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Events are numbered in scheduling order, so a sorted set of
        /// `(time, number)` is the reference order. Every pop, peek and
        /// length agree with it under random schedules (delays 0, 1 ms,
        /// 60 s, 1 day, up to 2^40 ms), batches of 0–5 expanded into single
        /// events (also while one drains), pops, clears and resets.
        #[test]
        fn prop_total_order(ops in proptest::collection::vec((0u8..64, any::<u64>()), 1..400)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model: BTreeSet<(SimTime, u32)> = BTreeSet::new();
            let mut id = 0;
            for (op, x) in ops {
                let delays = [0, 1, 60_000, 86_400_000, x % (1 << 40)];
                let t = q.now() + SimDuration::from_millis(delays[(x >> 48) as usize % 5]);
                let n = match op {
                    0..=25 => {
                        q.schedule(t, id);
                        1
                    }
                    26..=35 => {
                        let n = (x >> 56) as u32 % 6;
                        q.schedule_batch(t, id..id + n);
                        n
                    }
                    36..=61 => {
                        prop_assert_eq!(q.pop(), model.pop_first());
                        0
                    }
                    62 => {
                        q.clear();
                        model.clear();
                        0
                    }
                    _ => {
                        q.reset();
                        model.clear();
                        0
                    }
                };
                model.extend((id..id + n).map(|e| (t, e)));
                id += n;
                prop_assert_eq!(q.peek_time(), model.first().map(|k| k.0));
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
