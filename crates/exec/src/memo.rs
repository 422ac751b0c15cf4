//! A pool-scoped memo of deterministic results.
//!
//! The paper's figures ask for many identical simulations: Fig. 16 re-reads
//! Fig. 15's Hard+Sys/Hard/DRVR/UDRVR+PR runs, Fig. 17 its UDRVR+PR runs,
//! and every sweep's baseline point is the baseline array again. A
//! [`Memo`] lets the layer above run each distinct computation once and
//! serve every repeat from the first result.
//!
//! * **Scope.** Every [`crate::ThreadPool`] owns one memo
//!   ([`crate::ThreadPool::memo`]) and drops it with the pool. There is no
//!   process-wide cache: a fresh pool starts empty.
//! * **Key.** A caller-built string, plus the result type. The caller
//!   must render every input that determines the result into the key, and
//!   must only memoize pure functions of those inputs.
//! * **Single flight.** Two threads asking for the same key at once run it
//!   once: the second blocks until the first has stored its value (the
//!   [`OnceLock`] protocol). The computation must therefore never wait on
//!   the pool that owns the memo, or a saturated pool could deadlock. A
//!   computation that panics stores nothing; the next caller runs it again.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One key's value, shared by everyone who asks for it.
type Slot = Arc<OnceLock<Box<dyn Any + Send + Sync>>>;

/// A cheap cloneable handle to a memo of deterministic results; clones
/// share the same entries.
#[derive(Clone, Default)]
pub struct Memo {
    slots: Arc<Mutex<HashMap<(TypeId, String), Slot>>>,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.len())
            .finish()
    }
}

impl Memo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored under `key`, computing it with `run` if nobody has
    /// yet. Returns the value and whether it was served from the memo
    /// (`true`: this call did not run `run`).
    pub fn get_or_run<T, F>(&self, key: String, run: F) -> (T, bool)
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("memo poisoned")
                .entry((TypeId::of::<T>(), key))
                .or_default(),
        );
        let mut ran = false;
        let value = slot.get_or_init(|| {
            ran = true;
            Box::new(run())
        });
        let value = value.downcast_ref::<T>().expect("slots are keyed by type");
        (value.clone(), !ran)
    }

    /// Number of keys asked for so far (stored or in flight).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("memo poisoned").len()
    }

    /// True when no key has been asked for.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Barrier;

    #[test]
    fn repeats_are_served_without_running() {
        let memo = Memo::new();
        let runs = AtomicU32::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::SeqCst);
            42u64
        };
        assert_eq!(memo.get_or_run("a".into(), run), (42, false));
        assert_eq!(memo.get_or_run("a".into(), run), (42, true));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(memo.get_or_run("b".into(), || 7u64), (7, false));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn same_key_of_another_type_is_another_entry() {
        let memo = Memo::new();
        assert_eq!(memo.get_or_run("k".into(), || 1u32), (1, false));
        assert_eq!(memo.get_or_run("k".into(), || "one"), ("one", false));
        assert_eq!(memo.get_or_run("k".into(), || 2u32), (1, true));
    }

    #[test]
    fn concurrent_askers_run_a_key_once() {
        let memo = Memo::new();
        let runs = AtomicU32::new(0);
        let barrier = Barrier::new(4);
        let hits: u32 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, hit) = memo.get_or_run("slow".into(), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            9u8
                        });
                        assert_eq!(v, 9);
                        u32::from(hit)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("asker")).sum()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(hits, 3);
    }

    #[test]
    fn a_panicking_run_stores_nothing() {
        let memo = Memo::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_run("p".into(), || -> u8 { panic!("boom") })
        }));
        assert!(boom.is_err());
        assert_eq!(memo.get_or_run("p".into(), || 3u8), (3, false));
    }
}
