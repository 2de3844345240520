//! Offline shim for the slice of `crossbeam` this workspace uses: unbounded
//! MPSC channels (backed by `std::sync::mpsc`, which covers the executors'
//! pattern exactly — every receiver is owned by a single worker thread) and
//! a Chase–Lev work-stealing deque for the shared-memory task scheduler.

pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half of an unbounded channel (cloneable).
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fan_in_from_clones() {
            let (tx, rx) = unbounded::<u32>();
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.send(i).unwrap())
                })
                .collect();
            drop(tx);
            for h in handles {
                h.join().unwrap();
            }
            let mut got: Vec<u32> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }

        #[test]
        fn recv_errors_when_senders_dropped() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
        }
    }
}

pub mod deque {
    //! A fixed-capacity Chase–Lev work-stealing deque over `u64` payloads
    //! (the Le–Pop–Cohen–Nardelli weak-memory formulation).
    //!
    //! The owner pushes and pops at the *bottom* (LIFO); thieves steal from
    //! the *top* (FIFO), so the oldest — in the scheduler's usage, the
    //! lowest-priority — tasks migrate first. Slots are `AtomicU64`, so the
    //! implementation contains no `unsafe`.
    //!
    //! **Capacity is fixed**: unlike the real crossbeam deque there is no
    //! buffer growth (growth needs epoch reclamation). Callers must bound the
    //! number of simultaneously queued entries by the capacity they request;
    //! `push` panics on overflow rather than silently dropping work. Fixing
    //! the capacity also removes the classic wrap-around ABA hazard: a slot
    //! can only be overwritten after `bottom - top` exceeds the capacity,
    //! which the caller's bound rules out.

    use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
    use std::sync::Arc;

    struct Inner {
        top: AtomicI64,
        bottom: AtomicI64,
        mask: i64,
        slots: Box<[AtomicU64]>,
    }

    /// Owner handle: single-threaded `push`/`pop` end of the deque.
    pub struct Worker {
        inner: Arc<Inner>,
    }

    /// Thief handle: any thread may `steal` through a (cloneable) stealer.
    pub struct Stealer {
        inner: Arc<Inner>,
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal {
        /// The deque was observed empty.
        Empty,
        /// One task was stolen.
        Success(u64),
        /// Lost a race with the owner or another thief; worth retrying.
        Retry,
    }

    impl Worker {
        /// Creates a deque holding at most `cap` simultaneous entries
        /// (rounded up to a power of two).
        pub fn with_capacity(cap: usize) -> Self {
            let cap = cap.max(2).next_power_of_two();
            let slots = (0..cap).map(|_| AtomicU64::new(0)).collect();
            Worker {
                inner: Arc::new(Inner {
                    top: AtomicI64::new(0),
                    bottom: AtomicI64::new(0),
                    mask: cap as i64 - 1,
                    slots,
                }),
            }
        }

        /// A stealer handle onto this deque.
        pub fn stealer(&self) -> Stealer {
            Stealer { inner: self.inner.clone() }
        }

        /// Pushes a task at the bottom. Panics if the fixed capacity is
        /// exceeded (the scheduler bounds queued entries per deque).
        pub fn push(&mut self, v: u64) {
            let inner = &*self.inner;
            let b = inner.bottom.load(Ordering::Relaxed);
            let t = inner.top.load(Ordering::Acquire);
            assert!(
                b - t <= inner.mask,
                "work-stealing deque overflow (cap {})",
                inner.mask + 1
            );
            inner.slots[(b & inner.mask) as usize].store(v, Ordering::Relaxed);
            inner.bottom.store(b + 1, Ordering::Release);
        }

        /// Pops the most recently pushed task, if any.
        pub fn pop(&mut self) -> Option<u64> {
            let inner = &*self.inner;
            let b = inner.bottom.load(Ordering::Relaxed) - 1;
            inner.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = inner.top.load(Ordering::Relaxed);
            if t <= b {
                let v = inner.slots[(b & inner.mask) as usize].load(Ordering::Relaxed);
                if t == b {
                    // Last element: race the thieves for it.
                    let won = inner
                        .top
                        .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok();
                    inner.bottom.store(b + 1, Ordering::Relaxed);
                    return won.then_some(v);
                }
                Some(v)
            } else {
                inner.bottom.store(b + 1, Ordering::Relaxed);
                None
            }
        }

        /// Snapshot of the queue length (approximate under concurrency).
        pub fn len(&self) -> usize {
            let inner = &*self.inner;
            (inner.bottom.load(Ordering::Relaxed) - inner.top.load(Ordering::Relaxed)).max(0)
                as usize
        }

        /// True when `len()` observes zero.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl Clone for Stealer {
        fn clone(&self) -> Self {
            Stealer { inner: self.inner.clone() }
        }
    }

    impl Stealer {
        /// Snapshot of the queue length (approximate under concurrency).
        /// Used by stall diagnostics to report per-worker deque depths.
        pub fn len(&self) -> usize {
            let inner = &*self.inner;
            (inner.bottom.load(Ordering::Relaxed) - inner.top.load(Ordering::Relaxed)).max(0)
                as usize
        }

        /// True when `len()` observes zero.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Attempts to steal the oldest task.
        pub fn steal(&self) -> Steal {
            let inner = &*self.inner;
            let t = inner.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = inner.bottom.load(Ordering::Acquire);
            if t < b {
                let v = inner.slots[(t & inner.mask) as usize].load(Ordering::Relaxed);
                if inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    Steal::Success(v)
                } else {
                    Steal::Retry
                }
            } else {
                Steal::Empty
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lifo_pop_fifo_steal() {
            let mut w = Worker::with_capacity(8);
            let s = w.stealer();
            w.push(1);
            w.push(2);
            w.push(3);
            assert_eq!(w.len(), 3);
            assert_eq!(s.steal(), Steal::Success(1)); // oldest stolen first
            assert_eq!(w.pop(), Some(3)); // newest popped first
            assert_eq!(w.pop(), Some(2));
            assert_eq!(w.pop(), None);
            assert_eq!(s.steal(), Steal::Empty);
        }

        #[test]
        fn concurrent_thieves_take_each_task_once() {
            let n: u64 = 20_000;
            let mut w = Worker::with_capacity(n as usize);
            for v in 0..n {
                w.push(v);
            }
            let thieves = 4;
            let sum = std::sync::atomic::AtomicU64::new(0);
            let taken = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..thieves {
                    let s = w.stealer();
                    let (sum, taken) = (&sum, &taken);
                    scope.spawn(move || loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                sum.fetch_add(v, Ordering::Relaxed);
                                taken.fetch_add(1, Ordering::Relaxed);
                            }
                            Steal::Retry => continue,
                            Steal::Empty => break,
                        }
                    });
                }
                // The owner pops concurrently.
                while let Some(v) = w.pop() {
                    sum.fetch_add(v, Ordering::Relaxed);
                    taken.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(taken.load(Ordering::Relaxed), n);
            assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        }
    }
}
