// Fixture: the lock fields, their declared order and their accessors —
// the other half of lock_wrapper_user.rs.

use std::sync::{Mutex, MutexGuard};

// lock-order: owner.a < owner.b
pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    // lock-wrapper: lock_a = owner.a
    pub fn lock_a(&self) -> MutexGuard<'_, u32> {
        self.a.lock().unwrap()
    }

    // lock-wrapper: lock_b = owner.b
    pub fn lock_b(&self) -> MutexGuard<'_, u32> {
        self.b.lock().unwrap()
    }
}
