//! Offline shim for the slice of `crossbeam` this workspace uses: a
//! Chase–Lev work-stealing deque for the shared-memory task scheduler.

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

        /// SplitMix64: a seeded, dependency-free operation stream.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Model check, one thread: seeded push/pop/steal sequences on a
        /// small deque (so indices wrap the ring many times) match a
        /// `VecDeque` step for step — pop is `pop_back`, steal `pop_front`.
        #[test]
        fn seeded_sequences_match_a_vecdeque_model() {
            const CAP: usize = 8;
            for seed in 0..256u64 {
                let mut rng = seed;
                let mut w = Worker::with_capacity(CAP);
                let s = w.stealer();
                let mut model = std::collections::VecDeque::new();
                let mut pushed = 0u64;
                for step in 0..400 {
                    match next(&mut rng) % 3 {
                        0 if model.len() < CAP => {
                            w.push(pushed);
                            model.push_back(pushed);
                            pushed += 1;
                        }
                        0 | 1 => assert_eq!(w.pop(), model.pop_back(), "seed {seed} step {step}"),
                        _ => {
                            let want = model.pop_front().map_or(Steal::Empty, Steal::Success);
                            assert_eq!(s.steal(), want, "seed {seed} step {step}");
                        }
                    }
                    assert_eq!(w.len(), model.len(), "seed {seed} step {step}");
                }
            }
        }

        /// Model check, two threads: the owner runs a seeded push/pop
        /// stream on a small deque while one thief steals. Every pushed
        /// value is taken exactly once (counting the owner's final drain),
        /// and the thief's successful steals come in increasing push order.
        #[test]
        fn owner_and_thief_take_every_value_once_in_order() {
            use std::sync::atomic::AtomicBool;
            use std::sync::Barrier;
            const CAP: usize = 8;
            for seed in 0..256u64 {
                let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
                let mut w = Worker::with_capacity(CAP);
                let s = w.stealer();
                let done = AtomicBool::new(false);
                // Both threads start together, so the owner's stream runs
                // under contention instead of before the thief is scheduled.
                let start = Barrier::new(2);
                let mut pushed = 0u64;
                let mut popped = Vec::new();
                let stolen = std::thread::scope(|scope| {
                    let thief = scope.spawn(|| {
                        let mut got = Vec::new();
                        start.wait();
                        loop {
                            match s.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Retry => {}
                                Steal::Empty if done.load(Ordering::Acquire) => return got,
                                Steal::Empty => std::hint::spin_loop(),
                            }
                        }
                    });
                    start.wait();
                    for _ in 0..2_000 {
                        // `len` over-reports while the thief advances `top`,
                        // so this bound keeps every push within capacity.
                        if next(&mut rng) % 5 < 3 && w.len() < CAP {
                            w.push(pushed);
                            pushed += 1;
                        } else if let Some(v) = w.pop() {
                            popped.push(v);
                        }
                    }
                    while let Some(v) = w.pop() {
                        popped.push(v);
                    }
                    done.store(true, Ordering::Release);
                    thief.join().unwrap()
                });
                assert!(stolen.windows(2).all(|p| p[0] < p[1]), "seed {seed}: {stolen:?}");
                let mut taken: Vec<u64> = popped.iter().chain(&stolen).copied().collect();
                taken.sort_unstable();
                assert!(
                    taken.iter().copied().eq(0..pushed),
                    "seed {seed}: a value lost or taken twice"
                );
                assert_eq!(w.pop(), None);
                assert_eq!(s.steal(), Steal::Empty);
            }
        }
    }
}
