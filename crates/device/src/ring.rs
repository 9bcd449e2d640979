//! Fixed-capacity ring buffers with NVMe head/tail semantics.
//!
//! Submission and completion queues are circular arrays; the producer
//! advances `tail`, the consumer advances `head`, and the queue is full
//! when `tail + 1 == head` (mod size), i.e. one slot is sacrificed, as
//! in the NVMe specification.

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    tail: usize,
}

impl<T> Ring<T> {
    /// Creates a ring with capacity `size - 1` (one slot reserved, per
    /// NVMe full/empty disambiguation).
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "ring needs at least two slots");
        Ring {
            slots: (0..size).map(|_| None).collect(),
            head: 0,
            tail: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        (self.tail + self.slots.len() - self.head) % self.slots.len()
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True if one more push would be rejected.
    pub fn is_full(&self) -> bool {
        (self.tail + 1) % self.slots.len() == self.head
    }

    /// Usable capacity (`size - 1`).
    pub fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// Enqueues an entry; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            return Err(v);
        }
        self.slots[self.tail] = Some(v);
        self.tail = (self.tail + 1) % self.slots.len();
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let v = self.slots[self.head].take();
        self.head = (self.head + 1) % self.slots.len();
        v
    }
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
    #[should_panic(expected = "at least two")]
    fn tiny_ring_rejected() {
        Ring::<u8>::new(1);
    }
}
