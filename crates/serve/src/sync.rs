//! Poison-recovering lock accessors.
//!
//! The serving stack contains a panicked worker instead of dying with it
//! ([`crate::batch`]), which means a thread *can* panic while holding a
//! registry, history, session, or queue lock. The standard library marks the
//! lock poisoned; `lock().unwrap()` would then propagate a panic into every
//! other thread that touches the lock and wedge publish/diagnose forever.
//!
//! All guarded state in this crate is kept consistent *by construction* —
//! writers either finish a logical update before releasing the lock or leave
//! the old value in place — so recovering the guard with
//! [`PoisonError::into_inner`] is safe. These extension traits make that the
//! one idiom for every lock in the crate.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Poison-recovering accessor for [`Mutex`].
pub(crate) trait LockRecover<T> {
    /// Locks, recovering the guard if a previous holder panicked.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockRecover<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-recovering accessors for [`RwLock`].
pub(crate) trait RwRecover<T> {
    /// Acquires a read guard, recovering from poisoning.
    fn read_recover(&self) -> RwLockReadGuard<'_, T>;
    /// Acquires a write guard, recovering from poisoning.
    fn write_recover(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> RwRecover<T> for RwLock<T> {
    fn read_recover(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_recover(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `Condvar::wait` that recovers a poisoned guard instead of panicking.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn mutex_recovers_after_a_panicked_holder() {
        let shared = Arc::new(Mutex::new(7usize));
        let inner = Arc::clone(&shared);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = inner.lock().unwrap();
            panic!("holder dies with the lock");
        }));
        assert!(shared.lock().is_err(), "lock is poisoned");
        assert_eq!(*shared.lock_recover(), 7, "recovered guard still works");
        *shared.lock_recover() = 8;
        assert_eq!(*shared.lock_recover(), 8);
    }

    #[test]
    fn rwlock_recovers_after_a_panicked_writer() {
        let shared = Arc::new(RwLock::new(String::from("ok")));
        let inner = Arc::clone(&shared);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = inner.write().unwrap();
            panic!("writer dies with the lock");
        }));
        assert!(shared.read().is_err(), "lock is poisoned");
        assert_eq!(*shared.read_recover(), "ok");
        shared.write_recover().push('!');
        assert_eq!(*shared.read_recover(), "ok!");
    }
}
