//! Bounded ring buffers with NVMe head/tail semantics, paid for by
//! occupancy.
//!
//! Submission and completion queues are circular arrays; the producer
//! advances `tail`, the consumer advances `head`, and a queue of `size`
//! slots holds at most `size - 1` entries — one slot is sacrificed, as
//! in the NVMe specification, so that full and empty differ.
//!
//! `size` is the depth the device declares, and it fixes only that
//! capacity: host memory goes to the entries actually queued. The slot
//! array starts at `min(size, 64)` slots (rounded up to a power of two)
//! and doubles only when the queued entries fill it, so it never grows
//! past `size.next_power_of_two()` and a 4,096-deep ring that never
//! holds more than a few entries keeps its first 64 slots.
//!
//! `head` and `tail` are free-running 16-bit counters: `tail - head`
//! (wrapping) is the number of entries queued, and an entry's slot is
//! its counter masked by the array's length. NVMe caps a queue at
//! [`MAX_QUEUE_DEPTH`] slots, so 16 bits lose nothing, and every
//! power-of-two array up to that length divides the counters' period,
//! so an entry keeps its slot when a counter wraps.

use crate::DeviceConfigError;

/// The deepest queue NVMe allows: MQES, the controller's "maximum queue
/// entries supported", is a 0's based 16-bit field.
pub const MAX_QUEUE_DEPTH: usize = 1 << 16;

/// The slot array a ring starts with, at most.
const FIRST_SLOTS: usize = 64;

/// The queue-depth rule, written once: two slots at least (one is
/// sacrificed), [`MAX_QUEUE_DEPTH`] at most.
pub fn check_queue_depth(depth: usize) -> Result<(), DeviceConfigError> {
    let allowed = (2..=MAX_QUEUE_DEPTH).contains(&depth);
    bpfstor_sim::ensure(allowed, DeviceConfigError::QueueDepth(depth))
}

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// A power of two long; the entry at counter `i` is in slot
    /// `i & (len - 1)`.
    slots: Box<[Option<T>]>,
    /// Entries the ring admits (`size - 1`).
    cap: u16,
    head: u16,
    tail: u16,
}

impl<T> Ring<T> {
    /// Creates a ring with capacity `size - 1` (one slot reserved, per
    /// NVMe full/empty disambiguation).
    ///
    /// # Panics
    ///
    /// Panics with [`check_queue_depth`]'s refusal.
    pub fn new(size: usize) -> Self {
        check_queue_depth(size).unwrap_or_else(|e| panic!("{e}"));
        Ring {
            slots: empty_slots(size.min(FIRST_SLOTS).next_power_of_two()),
            cap: (size - 1) as u16,
            head: 0,
            tail: 0,
        }
    }

    /// The slot of the entry at counter `i`.
    fn slot(&self, i: u16) -> usize {
        usize::from(i) & (self.slots.len() - 1)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        usize::from(self.tail.wrapping_sub(self.head))
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True if one more push would be rejected.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Usable capacity (`size - 1`).
    pub fn capacity(&self) -> usize {
        usize::from(self.cap)
    }

    /// Enqueues an entry; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            return Err(v);
        }
        if self.len() == self.slots.len() {
            self.grow();
        }
        let i = self.slot(self.tail);
        self.slots[i] = Some(v);
        self.tail = self.tail.wrapping_add(1);
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let i = self.slot(self.head);
        let v = self.slots[i].take();
        self.head = self.head.wrapping_add(1);
        v
    }

    /// Doubles the slot array, moving each queued entry to its counter's
    /// slot in the new one.
    #[cold]
    fn grow(&mut self) {
        let bigger = empty_slots(2 * self.slots.len());
        let mut old = std::mem::replace(&mut self.slots, bigger);
        let old_mask = old.len() - 1;
        // Counted from `head`, not walked up to `tail`: `tail` may have
        // wrapped below `head`.
        for k in 0..self.tail.wrapping_sub(self.head) {
            let i = self.head.wrapping_add(k);
            let to = self.slot(i);
            self.slots[to] = old[usize::from(i) & old_mask].take();
        }
    }
}

fn empty_slots<T>(n: usize) -> Box<[Option<T>]> {
    std::iter::repeat_with(|| None).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        r.push(1).expect("push");
        r.push(2).expect("push");
        r.push(3).expect("push");
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_is_size_minus_one() {
        let mut r = Ring::new(4);
        assert_eq!(r.capacity(), 3);
        r.push(1).expect("1");
        r.push(2).expect("2");
        r.push(3).expect("3");
        assert!(r.is_full());
        assert_eq!(r.push(4), Err(4));
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut r = Ring::new(4);
        for round in 0..10 {
            r.push(round * 2).expect("push a");
            r.push(round * 2 + 1).expect("push b");
            assert_eq!(r.pop(), Some(round * 2));
            assert_eq!(r.pop(), Some(round * 2 + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn len_tracks() {
        let mut r = Ring::new(8);
        assert_eq!(r.len(), 0);
        r.push(()).expect("push");
        r.push(()).expect("push");
        assert_eq!(r.len(), 2);
        r.pop();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn slots_follow_occupancy_not_depth() {
        // A shallow ring is its own size, rounded up to a power of two.
        assert_eq!(Ring::<u8>::new(3).slots.len(), 4);
        assert_eq!(Ring::<u8>::new(16).slots.len(), 16);
        // A deep one starts at 64 slots and keeps them while it stays
        // shallow, through many trips round.
        let mut r = Ring::new(4096);
        for i in 0..10_000u32 {
            r.push(i).expect("room");
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.slots.len(), 64);
        // Filled, it doubles to the depth and no further.
        for i in 0..4095 {
            r.push(i).expect("room");
        }
        assert!(r.is_full());
        assert_eq!(r.slots.len(), 4096);
        assert!((0..4095).all(|i| r.pop() == Some(i)));
        // A depth that is not a power of two grows past it once.
        let mut r = Ring::new(100);
        for i in 0..99 {
            r.push(i).expect("room");
        }
        assert_eq!(r.slots.len(), 128);
    }

    #[test]
    #[should_panic(expected = "queue depth 1: NVMe rings have 2 to 65536")]
    fn tiny_ring_rejected() {
        Ring::<u8>::new(1);
    }

    #[test]
    #[should_panic(expected = "queue depth 65537: NVMe rings have 2 to 65536")]
    fn ring_deeper_than_mqes_rejected() {
        Ring::<u8>::new(MAX_QUEUE_DEPTH + 1);
    }
}
