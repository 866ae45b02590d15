//! Rank-ordered locking: the runtime half of the `reap-lint` lock
//! discipline.
//!
//! Every lock in this crate is an [`OrderedLock`] carrying a *rank*
//! from the table below. The static side (`reap-lint` rule L) checks
//! that the declared acquisition graph is cycle-free and rank-monotone;
//! the dynamic side lives here: in debug builds each thread keeps a
//! stack of currently-held ranks and every acquisition asserts it
//! climbs strictly. Any nesting the annotations missed trips the assert
//! under `cargo test` — including the chaos end-to-end, which thereby
//! doubles as a dynamic lock-order drill. Release builds compile the
//! bookkeeping out entirely; the lock is a plain `Mutex` then.
//!
//! ## Lock-rank table (reap-serve)
//!
//! | rank | name | lock |
//! |------|-----------|------|
//! | 10 | `admission` | the connection-gate count (`Mutex + Condvar`) |
//! | 15 | `ring` | the server's [`crate::SnapshotRing`]: one writer or restorer at a time, which takes every shard under it |
//! | 20 | `shard` | each [`crate::state::FleetState`] shard (sub-rank = shard index, taken ascending in fleet-wide walks) |
//!
//! Ranks are sparse so future locks slot in without renumbering. A full
//! rank is `(class << 32) | sub`: the shard stripe shares class 20 and
//! uses the shard index as sub-rank, so the all-shards walk (ascending
//! index) still climbs strictly while any two-shard inversion asserts.
//!
//! Poisoning: guards recover via [`PoisonError::into_inner`] —
//! the linter bans panics in this crate, so a poisoned mutex implies a
//! panic already escaped the discipline; serving degraded state beats
//! deadlocking the daemon on top of it.

// reap-lint: allow(locks:raw-lock) -- the wrapper the discipline is built on
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Rank classes for this crate's locks (the `class` half of a full
/// rank). Keep in sync with the table above and the `lock-rank`
/// declarations the linter reads (the three pragmas below ARE that
/// declaration — `reap-lint` builds its rank table from them).
// reap-lint: lock-rank(admission, 10)
// reap-lint: lock-rank(ring, 15)
// reap-lint: lock-rank(shard, 20)
pub mod rank {
    /// The server's connection-admission gate.
    pub const ADMISSION: u32 = 10;
    /// The server's snapshot ring.
    pub const RING: u32 = 15;
    /// Fleet-state shard mutexes (sub-rank = shard index).
    pub const SHARD: u32 = 20;
}

/// Composes a full rank from a class and a sub-rank.
#[must_use]
pub fn full_rank(class: u32, sub: u32) -> u64 {
    (u64::from(class) << 32) | u64::from(sub)
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks (and names, for the assert message) this thread holds,
    /// in acquisition order.
    static HELD: std::cell::RefCell<Vec<(u64, &'static str)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A mutex with a declared place in the crate-wide lock order.
#[derive(Debug)]
pub struct OrderedLock<T> {
    name: &'static str,
    // Read only by the debug-build rank assertion in `lock` and by this
    // module's tests; release builds keep the field so the tests compile.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    rank: u64,
    // reap-lint: allow(locks:raw-lock) -- the wrapper the discipline is built on
    inner: Mutex<T>,
}

impl<T> OrderedLock<T> {
    /// Wraps `value` as a lock named `name` at `(class, sub)` rank.
    #[must_use]
    pub fn new(name: &'static str, class: u32, sub: u32, value: T) -> OrderedLock<T> {
        OrderedLock {
            name,
            rank: full_rank(class, sub),
            // reap-lint: allow(locks:raw-lock) -- the wrapper the discipline is built on
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, asserting (debug builds) that every rank this
    /// thread already holds is strictly below this one.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                debug_assert!(
                    top_rank < self.rank,
                    "lock-rank inversion: acquiring `{}` (rank {:#x}) while holding `{}` \
                     (rank {:#x}); see the table in reap_serve::locks",
                    self.name,
                    self.rank,
                    top_name,
                    top_rank,
                );
            }
            held.push((self.rank, self.name));
        });
        // reap-lint: allow(locks:unlabeled-acquisition) -- the wrapper's own acquisition; ranks asserted just above
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedGuard {
            guard: Some(guard),
            lock: self,
        }
    }

    /// Condvar wait: releases the guard into `cv`, reacquiring when
    /// `cond` turns false. The rank stays on the held stack — the wait
    /// returns with the lock held again, and `Condvar` itself never
    /// takes a second lock.
    pub fn wait_while<'a>(
        &'a self,
        mut guard: OrderedGuard<'a, T>,
        cv: &Condvar,
        cond: impl FnMut(&mut T) -> bool,
    ) -> OrderedGuard<'a, T> {
        debug_assert!(std::ptr::eq(guard.lock, self), "guard from another lock");
        // The Option is Some until drop; if that invariant ever broke,
        // returning the guard untouched degrades to a spurious wakeup
        // rather than a panic.
        if let Some(inner) = guard.guard.take() {
            let inner = cv
                .wait_while(inner, cond)
                .unwrap_or_else(PoisonError::into_inner);
            guard.guard = Some(inner);
        }
        guard
    }

    /// The lock's declared name (assert messages, diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Guard for an [`OrderedLock`]; pops the rank stack on drop.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    /// Invariant: `Some` from construction until drop (briefly taken
    /// inside `wait_while`, restored before it returns).
    guard: Option<MutexGuard<'a, T>>,
    lock: &'a OrderedLock<T>,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            // reap-lint: allow(panic:panic-macro) -- guard invariant: Some outside wait_while internals
            None => unreachable!("guard invariant"),
        }
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            // reap-lint: allow(panic:panic-macro) -- guard invariant: Some outside wait_while internals
            None => unreachable!("guard invariant"),
        }
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards usually drop LIFO, but Rust allows out-of-order
            // drops (mem::drop, struct fields): remove by identity, not
            // by popping.
            if let Some(at) = held.iter().rposition(|&(r, _)| r == self.lock.rank) {
                held.remove(at);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_serialize_access() {
        let lock = OrderedLock::new("t", 50, 0, 0u32);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *lock.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*lock.lock(), 4000);
    }

    #[test]
    fn upward_nesting_is_fine() {
        let low = OrderedLock::new("low", 1, 0, ());
        let high = OrderedLock::new("high", 2, 0, ());
        let a = low.lock();
        let b = high.lock();
        drop(a); // out-of-order drop is legal
        drop(b);
        // And again, cleanly.
        let _a = low.lock();
        let _b = high.lock();
    }

    #[test]
    fn sub_ranks_order_a_stripe() {
        let stripe: Vec<OrderedLock<u32>> = (0..8)
            .map(|i| OrderedLock::new("stripe", 30, i, i))
            .collect();
        assert!(stripe.windows(2).all(|w| w[0].rank < w[1].rank));
        let guards: Vec<_> = stripe.iter().map(OrderedLock::lock).collect();
        assert_eq!(guards.iter().map(|g| **g).sum::<u32>(), 28);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank inversion")]
    fn downward_nesting_asserts() {
        let low = OrderedLock::new("low", 1, 0, ());
        let high = OrderedLock::new("high", 2, 0, ());
        let _b = high.lock();
        let _a = low.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank inversion")]
    fn descending_stripe_asserts() {
        let a = OrderedLock::new("stripe", 30, 1, ());
        let b = OrderedLock::new("stripe", 30, 0, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn wait_while_returns_with_lock_held() {
        let lock = std::sync::Arc::new(OrderedLock::new("gate", 5, 0, 0usize));
        let cv = std::sync::Arc::new(Condvar::new());
        let (l2, cv2) = (lock.clone(), cv.clone());
        let t = std::thread::spawn(move || {
            let guard = l2.lock();
            let guard = l2.wait_while(guard, &cv2, |v| *v < 3);
            *guard
        });
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            *lock.lock() += 1;
            cv.notify_all();
        }
        assert_eq!(t.join().unwrap(), 3);
    }
}
