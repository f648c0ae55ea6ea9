//! The snapshot cell behind every shared table of the driver.
//!
//! [`SnapshotCell<T>`] publishes immutable snapshots of `T` as
//! `Arc<T>`. A reader takes the read lock just long enough to clone the
//! current `Arc`, then works on its own snapshot without holding
//! anything: later publishes never change what it sees. Writers
//! serialize on a separate writer mutex, build the next snapshot off to
//! the side, and swap it in under a brief write lock. The previous
//! `Arc` is dropped after the write lock is released, so a reader never
//! waits behind the destructor of a retired snapshot.
//!
//! Keeping the writer mutex apart from the `RwLock` is what lets a
//! writer section span work that must exclude other writers (an
//! eviction sweep's file deletions, a consistent state capture) while
//! readers keep loading the published snapshot.

use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Snapshot cell: `load` clones the current `Arc` under a read lock;
/// `update` publishes a modified clone under the writer mutex.
pub(crate) struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    /// Serializes writers; also the hook for [`SnapshotCell::freeze`].
    writer: Mutex<()>,
    /// Snapshots published so far.
    version: AtomicU64,
}

impl<T> SnapshotCell<T> {
    pub(crate) fn new(value: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(value)),
            writer: Mutex::new(()),
            version: AtomicU64::new(0),
        }
    }

    /// The current snapshot. The returned `Arc` keeps it alive for as
    /// long as the caller holds it, unaffected by later updates.
    pub(crate) fn load(&self) -> Arc<T> {
        self.current.read().clone()
    }

    /// Number of snapshots ever published (0 for a freshly built cell).
    /// A hot path that is claimed to be write-free can assert this does
    /// not move.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(SeqCst)
    }

    /// Publish `next` as the current snapshot. Callers must hold the
    /// writer mutex. The retired snapshot is dropped only after the
    /// write lock is released.
    fn publish(&self, next: Arc<T>) {
        let old = std::mem::replace(&mut *self.current.write(), next);
        self.version.fetch_add(1, SeqCst);
        drop(old);
    }

    /// Replace the snapshot wholesale.
    pub(crate) fn store(&self, value: T) {
        let _g = self.writer.lock();
        self.publish(Arc::new(value));
    }

    /// Run `f` against a clone of the current snapshot and publish the
    /// result. Writers serialize; readers keep their snapshots.
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        self.update_then(f, |r| r)
    }

    /// Like [`SnapshotCell::update`], but runs `after` once the new
    /// snapshot is **published** while **still holding the writer
    /// mutex**. Readers already see the update while `after` runs;
    /// other writers (and [`SnapshotCell::freeze`]) wait until it
    /// returns. Eviction sweeps use this to delete files strictly after
    /// the entry removal is visible yet without opening a window a
    /// frozen state capture could fall into.
    pub(crate) fn update_then<A, B>(
        &self,
        f: impl FnOnce(&mut T) -> A,
        after: impl FnOnce(A) -> B,
    ) -> B
    where
        T: Clone,
    {
        let _g = self.writer.lock();
        let mut next = T::clone(&self.load());
        let a = f(&mut next);
        self.publish(Arc::new(next));
        after(a)
    }

    /// Run `f` with the writer mutex held but **without** mutating: no
    /// update can be published while `f` runs. Consistent multi-table
    /// captures (e.g. `save_state`) use this to pin the snapshot *and*
    /// exclude concurrent sweeps for the duration of the capture.
    pub(crate) fn freeze<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _g = self.writer.lock();
        f(&self.load())
    }

    /// Enter this cell's writer section and hold it until the guard
    /// drops. The closure-based [`SnapshotCell::update_then`] /
    /// [`SnapshotCell::freeze`] can only span *one* cell; multi-cell
    /// transactions (the sharded repository's batches and freezes)
    /// instead collect one guard per cell — always in a fixed order —
    /// work against each guard's [`SnapshotWriter::current`] snapshot,
    /// and publish through the guards before releasing them.
    pub(crate) fn writer(&self) -> SnapshotWriter<'_, T> {
        let guard = self.writer.lock();
        SnapshotWriter { cell: self, current: self.load(), _guard: guard }
    }
}

/// An open writer section on a [`SnapshotCell`] (see
/// [`SnapshotCell::writer`]). While it lives, no other writer can
/// publish to the cell and [`SnapshotCell::freeze`] blocks; readers are
/// unaffected.
pub(crate) struct SnapshotWriter<'a, T> {
    cell: &'a SnapshotCell<T>,
    current: Arc<T>,
    _guard: MutexGuard<'a, ()>,
}

impl<T> SnapshotWriter<'_, T> {
    /// The snapshot that was current when this writer section opened.
    /// No other writer can publish while the section is open, so it
    /// stays current until this guard publishes.
    pub(crate) fn current(&self) -> &Arc<T> {
        &self.current
    }

    /// Publish `next` as the cell's snapshot.
    pub(crate) fn publish(&self, next: T) {
        self.cell.publish(Arc::new(next));
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell").field("current", &*self.load()).finish()
    }
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> Self {
        SnapshotCell::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_returns_published_value() {
        let cell = SnapshotCell::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.update(|v| *v = 2);
        assert_eq!(*cell.load(), 2);
        cell.store(7);
        assert_eq!(*cell.load(), 7);
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn old_snapshot_outlives_update() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.update(|v| v.push(4));
        assert_eq!(*old, vec![1, 2, 3], "held snapshot is immutable");
        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
    }

    /// Every snapshot the writers retire must be dropped exactly once,
    /// and none before its readers are done.
    #[test]
    fn reclamation_is_exact() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token(#[allow(dead_code)] u64);
        impl Clone for Token {
            fn clone(&self) -> Self {
                Token(self.0)
            }
        }
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        let cell = SnapshotCell::new(Token(0));
        for i in 1..=100 {
            let held = cell.load();
            cell.update(|t| t.0 = i);
            drop(held);
        }
        drop(cell);
        // One Token exists per published snapshot (100 update clones)
        // plus the original: every one must be dropped exactly once.
        assert_eq!(DROPS.load(SeqCst), 101);
    }

    /// Readers hammering `load` while a writer churns updates: every
    /// observed snapshot is internally consistent (the two fields always
    /// agree), which fails loudly under use-after-free or torn reads.
    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        #[derive(Clone)]
        struct Pair {
            a: u64,
            b: u64,
        }
        let cell = SnapshotCell::new(Pair { a: 0, b: 0 });
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let p = cell.load();
                        assert_eq!(p.a, p.b, "torn snapshot");
                        assert!(p.a >= last, "snapshots went backwards");
                        last = p.a;
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=5_000 {
                    cell.update(|p| {
                        p.a = i;
                        p.b = i;
                    });
                }
            });
        });
        assert_eq!(cell.load().a, 5_000);
    }

    #[test]
    fn freeze_blocks_writers_but_not_readers() {
        let cell = SnapshotCell::new(10u64);
        cell.freeze(|v| {
            assert_eq!(*v, 10);
            // Readers proceed while frozen.
            assert_eq!(*cell.load(), 10);
        });
        cell.update(|v| *v += 1);
        assert_eq!(*cell.load(), 11);
    }
}
