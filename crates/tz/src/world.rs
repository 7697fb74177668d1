//! Normal/secure world tracking.
//!
//! TrustZone logically partitions the platform into a normal and a secure
//! world; each CPU core independently switches between them (§2.1). In the
//! simulation, each OS thread stands in for a core. A thread-local tracker
//! records which world the thread currently executes in, so that secure-side
//! code can assert it is only ever reached through the SMC interface.

use std::cell::Cell;

/// The two TrustZone worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The untrusted normal world (commodity OS, libraries, control plane).
    Normal,
    /// The trusted secure world (OP-TEE and the data plane).
    Secure,
}

thread_local! {
    static CURRENT_WORLD: Cell<World> = const { Cell::new(World::Normal) };
}

/// Per-thread world bookkeeping.
///
/// All functions operate on the calling thread's state; the type is a
/// namespace rather than an instance.
pub struct WorldTracker;

impl WorldTracker {
    /// The world the calling thread currently executes in.
    pub fn current() -> World {
        CURRENT_WORLD.with(|w| w.get())
    }

    /// Whether the calling thread is in the secure world.
    pub fn in_secure_world() -> bool {
        Self::current() == World::Secure
    }

    /// Switch the calling thread to `world`, returning the previous world.
    pub fn switch_to(world: World) -> World {
        CURRENT_WORLD.with(|w| w.replace(world))
    }

    /// Assert that the calling thread is in the secure world.
    ///
    /// Secure-side components call this at their entry points; reaching them
    /// from the normal world without going through the SMC interface is a
    /// protocol violation in the simulation (it would be architecturally
    /// impossible on real hardware).
    pub fn assert_secure(context: &str) {
        assert!(
            Self::in_secure_world(),
            "secure-world code reached from the normal world: {context}"
        );
    }
}

/// RAII guard that switches the calling thread into a world and restores the
/// previous world on drop. Used by the SMC layer to model entry/exit.
pub struct WorldGuard {
    previous: World,
}

impl WorldGuard {
    /// Enter `world` on the calling thread until the guard is dropped.
    pub fn enter(world: World) -> WorldGuard {
        let previous = WorldTracker::switch_to(world);
        WorldGuard { previous }
    }
}

impl Drop for WorldGuard {
    fn drop(&mut self) {
        WorldTracker::switch_to(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_start_in_normal_world() {
        std::thread::spawn(|| {
            assert_eq!(WorldTracker::current(), World::Normal);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn guard_switches_and_restores() {
        std::thread::spawn(|| {
            assert_eq!(WorldTracker::current(), World::Normal);
            {
                let _g = WorldGuard::enter(World::Secure);
                assert!(WorldTracker::in_secure_world());
                {
                    // Nested entry (e.g. a foreign-function call back into the
                    // TEE) still restores correctly.
                    let _g2 = WorldGuard::enter(World::Secure);
                    assert!(WorldTracker::in_secure_world());
                }
                assert!(WorldTracker::in_secure_world());
            }
            assert_eq!(WorldTracker::current(), World::Normal);
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "secure-world code reached")]
    fn assert_secure_panics_in_normal_world() {
        // Run on a dedicated thread so the thread-local state of other tests
        // is untouched.
        let res = std::thread::spawn(|| WorldTracker::assert_secure("unit test")).join();
        if let Err(e) = res {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn world_state_is_per_thread() {
        let _g = WorldGuard::enter(World::Secure);
        std::thread::spawn(|| {
            assert_eq!(WorldTracker::current(), World::Normal);
        })
        .join()
        .unwrap();
        assert!(WorldTracker::in_secure_world());
        drop(_g);
    }
}
