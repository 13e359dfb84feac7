//! Offline drop-in subset of the `rayon` API.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! the slice of `rayon` it uses: `into_par_iter` (ranges), `par_iter`/
//! `par_chunks`/`par_chunks_mut` (slices), the `map`/`zip`/`enumerate`
//! adapters, the `collect`/`sum`/`reduce`/`for_each` consumers,
//! `par_sort_unstable_by_key`, and `ThreadPoolBuilder` /
//! `ThreadPool::install` / `current_num_threads` — what has a caller in this
//! workspace, nothing kept for completeness.
//!
//! # Execution model
//!
//! Every parallel iterator is a splittable [`Producer`]. A consumer cuts its
//! region into at most 64 (`MAX_PIECES`) pieces of equal length — the boundaries
//! are a function of the region's **length only**, never of the thread count —
//! and combines the per-piece results **strictly in piece order**, so every
//! output, floating-point `sum`/`reduce` included, is bit-identical at any
//! thread count by construction. (It can differ from a plain sequential fold,
//! which associates differently; what is pinned is equality across thread
//! counts.)
//!
//! Who runs the pieces: `threads - 1` workers spawned on `std::thread::scope`
//! plus the calling thread, each claiming the next piece from an atomic
//! cursor until none is left. A region of one piece, a pool of one thread and
//! a region entered from inside another region's piece run inline on the
//! calling thread — no spawn, no atomics. Workers live for one region: there
//! is no global pool (parking borrowed closures on long-lived threads needs
//! `unsafe`), so a region costs one thread spawn and join per worker — tens of
//! microseconds — and is worth entering only around work well above that;
//! thread-locals of a worker are fresh per region.
//!
//! The thread count is `std::thread::available_parallelism()`, overridden by
//! upstream rayon's own `RAYON_NUM_THREADS` (read once), and scoped by
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(|| ...)`.
//! `par_sort_unstable_by_key` is a std sort on the calling thread.
//!
//! Swapping the real `rayon` back in when a registry is reachable requires no
//! source changes.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Most pieces a region is cut into. Enough that the last piece a thread
/// claims is a few percent of its share on any plausible core count, few
/// enough that per-piece bookkeeping (a split, a slot, a cursor bump) stays
/// far below the cost of a piece.
const MAX_PIECES: usize = 64;

/// A splittable source of items: the unit the executor cuts into pieces.
///
/// `len` counts index slots, one item each.
#[allow(clippy::len_without_is_empty)]
pub trait Producer: Send + Sized {
    type Item;
    /// Index slots in this producer.
    fn len(&self) -> usize;
    /// Splits into `[0, mid)` and `[mid, len)`; `mid <= len`.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// The sequential iterator over this producer's items.
    fn into_iter(self) -> impl Iterator<Item = Self::Item>;
}

/// Producers that yield exactly one item per index slot, so positions are
/// meaningful: what `enumerate` and `zip` need (upstream's
/// `IndexedParallelIterator`).
pub trait Indexed: Producer {}

impl Producer for Range<usize> {
    type Item = usize;
    fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let cut = self.start + mid;
        (self.start..cut, cut..self.end)
    }
    fn into_iter(self) -> impl Iterator<Item = usize> {
        self
    }
}
impl Indexed for Range<usize> {}

/// `slice.par_iter()`.
pub struct Iter<'a, T>(&'a [T]);

impl<'a, T: Sync> Producer for Iter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(mid);
        (Iter(l), Iter(r))
    }
    fn into_iter(self) -> impl Iterator<Item = &'a T> {
        self.0.iter()
    }
}
impl<T: Sync> Indexed for Iter<'_, T> {}

/// `slice.par_chunks(size)`.
pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for Chunks<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at((mid * self.size).min(self.slice.len()));
        (Chunks { slice: l, size: self.size }, Chunks { slice: r, size: self.size })
    }
    fn into_iter(self) -> impl Iterator<Item = &'a [T]> {
        self.slice.chunks(self.size)
    }
}
impl<T: Sync> Indexed for Chunks<'_, T> {}

/// `slice.par_chunks_mut(size)`.
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let cut = (mid * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(cut);
        (ChunksMut { slice: l, size: self.size }, ChunksMut { slice: r, size: self.size })
    }
    fn into_iter(self) -> impl Iterator<Item = &'a mut [T]> {
        self.slice.chunks_mut(self.size)
    }
}
impl<T: Send> Indexed for ChunksMut<'_, T> {}

/// `.map(f)`. The closure is shared by every piece, hence the `Arc` (and
/// upstream's `Sync + Send` bound on it).
pub struct Map<P, F> {
    base: P,
    f: Arc<F>,
}

impl<P: Producer, B, F: Fn(P::Item) -> B + Sync + Send> Producer for Map<P, F> {
    type Item = B;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (Map { base: l, f: Arc::clone(&self.f) }, Map { base: r, f: self.f })
    }
    fn into_iter(self) -> impl Iterator<Item = B> {
        let f = self.f;
        self.base.into_iter().map(move |x| f(x))
    }
}
impl<P: Indexed, B, F: Fn(P::Item) -> B + Sync + Send> Indexed for Map<P, F> {}

/// `.enumerate()`. Carries the offset of its first slot so a piece numbers its
/// items by their position in the whole region.
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: Indexed> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Enumerate { base: l, offset: self.offset },
            Enumerate { base: r, offset: self.offset + mid },
        )
    }
    fn into_iter(self) -> impl Iterator<Item = (usize, P::Item)> {
        (self.offset..).zip(self.base.into_iter())
    }
}
impl<P: Indexed> Indexed for Enumerate<P> {}

/// `.zip(other)`. As long as the shorter side.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Indexed, B: Indexed> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(mid);
        let (bl, br) = self.b.split_at(mid);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }
    fn into_iter(self) -> impl Iterator<Item = (A::Item, B::Item)> {
        self.a.into_iter().zip(self.b.into_iter())
    }
}
impl<A: Indexed, B: Indexed> Indexed for Zip<A, B> {}

thread_local! {
    /// Threads a region started from this thread may use: set by
    /// [`ThreadPool::install`], and pinned to 1 on every thread that is
    /// running a region's pieces (so nested regions do not spawn). `None`
    /// means the process default.
    static REGION_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Sets [`REGION_THREADS`] for a scope; restores the previous value on drop,
/// unwinding included.
struct ThreadsGuard(Option<usize>);

impl ThreadsGuard {
    fn set(threads: usize) -> Self {
        ThreadsGuard(REGION_THREADS.replace(Some(threads)))
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        REGION_THREADS.set(self.0);
    }
}

/// `RAYON_NUM_THREADS` when it parses to a positive integer, else
/// `available_parallelism()` (1 if even that is unknown). Read once.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Threads a parallel region entered here would run on (1 inside a region).
pub fn current_num_threads() -> usize {
    REGION_THREADS.get().unwrap_or_else(default_threads)
}

/// How a region of `len` index slots is cut: (slots per piece, pieces). A
/// function of the length alone.
fn piece_grid(len: usize) -> (usize, usize) {
    let piece_len = len.div_ceil(MAX_PIECES).max(1);
    (piece_len, len.div_ceil(piece_len).max(1))
}

/// Workers a region of `len` slots entered here spawns beside the calling
/// thread: none for a single piece, a pool of one, or a region entered from
/// inside another region's piece.
fn helpers(len: usize) -> usize {
    current_num_threads().min(piece_grid(len).1) - 1
}

/// Runs `work` once per piece of `producer` and returns the per-piece results
/// in piece order — the one executor under every consumer.
fn run_pieces<P, R, W>(producer: P, work: W) -> Vec<R>
where
    P: Producer,
    R: Send,
    W: Fn(P) -> R + Sync,
{
    let (piece_len, pieces) = piece_grid(producer.len());
    let workers = helpers(producer.len());
    let mut todo = Vec::with_capacity(pieces);
    let mut rest = producer;
    while rest.len() > piece_len {
        let (piece, tail) = rest.split_at(piece_len);
        todo.push(piece);
        rest = tail;
    }
    todo.push(rest);
    if workers == 0 {
        // Inline: the calling thread runs every piece, front to back.
        return todo.into_iter().map(work).collect();
    }

    // Every piece sits in its own slot and an atomic cursor hands the slots
    // out. A slot's lock is only ever taken by the one thread whose
    // `fetch_add` returned its index, so a claim never waits on another
    // thread — not even on one the OS has descheduled in the middle of its
    // own claim. The cursor itself publishes nothing (the slot's lock hands
    // the piece over), hence `Relaxed`.
    let slots: Vec<Mutex<Option<P>>> = todo.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                return done;
            };
            let piece = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(piece) = piece {
                done.push((index, work(piece)));
            }
        }
    };
    // Regions entered from inside one of this region's pieces run inline.
    let _nested_run_inline = ThreadsGuard::set(1);
    let mut done = std::thread::scope(|scope| {
        // A worker the OS refuses to start is simply one fewer: the caller
        // drains whatever nobody else claims.
        let spawned: Vec<_> = (0..workers)
            .filter_map(|_| {
                let worker = || {
                    REGION_THREADS.set(Some(1));
                    drain()
                };
                std::thread::Builder::new().spawn_scoped(scope, worker).ok()
            })
            .collect();
        let mut done = drain();
        for helper in spawned {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|entry| entry.0);
    done.into_iter().map(|(_, result)| result).collect()
}

/// A parallel iterator: a [`Producer`] plus rayon's adapter and consumer
/// names. Inherent methods (not a trait) so that rayon's 2-argument
/// `reduce(identity, op)` can coexist with `std::iter::Iterator`.
pub struct ParIter<P>(P);

impl<P: Producer> ParIter<P> {
    pub fn map<B, F>(self, f: F) -> ParIter<Map<P, F>>
    where
        F: Fn(P::Item) -> B + Sync + Send,
    {
        ParIter(Map { base: self.0, f: Arc::new(f) })
    }

    pub fn enumerate(self) -> ParIter<Enumerate<P>>
    where
        P: Indexed,
    {
        ParIter(Enumerate { base: self.0, offset: 0 })
    }

    pub fn zip<Q: Indexed>(self, other: ParIter<Q>) -> ParIter<Zip<P, Q>>
    where
        P: Indexed,
    {
        ParIter(Zip { a: self.0, b: other.0 })
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Sync + Send,
    {
        run_pieces(self.0, |piece| piece.into_iter().for_each(&f));
    }

    /// Rayon's fold-with-identity reduce (distinct from `Iterator::reduce`):
    /// each piece folds from `identity()`, and the per-piece values fold, in
    /// piece order, from one more `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        P::Item: Send,
        ID: Fn() -> P::Item + Sync + Send,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync + Send,
    {
        run_pieces(self.0, |piece| piece.into_iter().fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        run_pieces(self.0, |piece| piece.into_iter().sum::<S>()).into_iter().sum()
    }

    /// Collects in index order. A `Result` target yields the first error in
    /// index order; pieces past it still run (as upstream may). Where pieces
    /// end cannot show in a collection, so a region that runs inline is
    /// collected as the one sequential iterator it is, with no per-piece
    /// vectors to concatenate.
    pub fn collect<C>(self) -> C
    where
        P::Item: Send,
        C: FromIterator<P::Item>,
    {
        if helpers(self.0.len()) == 0 {
            return self.0.into_iter().collect();
        }
        run_pieces(self.0, |piece| piece.into_iter().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Conversion into a [`ParIter`] (`(a..b).into_par_iter()`).
pub trait IntoParallelIterator {
    type Item;
    type Producer: Producer<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Producer = Range<usize>;
    fn into_par_iter(self) -> ParIter<Range<usize>> {
        ParIter(self)
    }
}

/// Shared-slice entry points (`par_iter`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<Iter<'_, T>>;
    fn par_chunks(&self, chunk: usize) -> ParIter<Chunks<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<Iter<'_, T>> {
        ParIter(Iter(self))
    }

    fn par_chunks(&self, chunk: usize) -> ParIter<Chunks<'_, T>> {
        assert!(chunk != 0, "chunk size must be non-zero");
        ParIter(Chunks { slice: self, size: chunk })
    }
}

/// Mutable-slice entry points (`par_chunks_mut`, parallel sorts).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<ChunksMut<'_, T>>;
    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F);
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<ChunksMut<'_, T>> {
        assert!(chunk != 0, "chunk size must be non-zero");
        ParIter(ChunksMut { slice: self, size: chunk })
    }

    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F) {
        self.sort_unstable_by_key(key)
    }
}

/// Error type of [`ThreadPoolBuilder::build`]. The shim's build cannot fail
/// (workers are spawned per region, not here); the type exists so call sites
/// keep upstream's `build()?` shape.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// `ThreadPoolBuilder::new().num_threads(n).build()`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` (the default) keeps the process default, as upstream.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool { threads })
    }
}

/// A thread count to run regions under; see [`ThreadPool::install`].
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with every region it enters using this
    /// pool's thread count. (Upstream moves `op` onto a pool thread; the
    /// observable contract — regions inside use this pool — is the same.)
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        let _guard = ThreadsGuard::set(self.threads);
        op()
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, piece_grid, ThreadPoolBuilder, MAX_PIECES};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(op)
    }

    /// Busy work for one item, so pieces finish out of order.
    fn burn(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    /// The threads that ran a region's pieces. Items call [`Crew::arrive`];
    /// where the region must have workers (a pool of more than one thread, more
    /// than one piece) an arrival waits until `want` distinct threads have
    /// shown up, so "the pieces really ran on several threads" is asserted by
    /// [`Crew::check`], not left to how fast the machine is. The wait is
    /// bounded: a region that never gets its workers fails `check` instead of
    /// hanging.
    struct Crew {
        want: usize,
        seen: Mutex<HashSet<std::thread::ThreadId>>,
    }

    impl Crew {
        fn of(threads: usize, len: usize) -> Self {
            let want = if piece_grid(len).1 > 1 { threads.min(2) } else { len.min(1) };
            Crew { want, seen: Mutex::new(HashSet::new()) }
        }

        fn arrive(&self) {
            let me = std::thread::current().id();
            let give_up = Instant::now() + Duration::from_secs(20);
            loop {
                let seen = {
                    let mut seen = self.seen.lock().expect("crew");
                    seen.insert(me);
                    seen.len()
                };
                if seen >= self.want || Instant::now() > give_up {
                    return;
                }
                std::thread::yield_now();
            }
        }

        fn check(&self) {
            let seen = self.seen.lock().expect("crew").len();
            assert!(seen >= self.want, "{seen} thread(s) ran the pieces, wanted {}", self.want);
        }
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let got = (0..100usize).into_par_iter().map(|i| i * i).reduce(|| 0, |a, b| a + b);
        assert_eq!(got, (0..100usize).map(|i| i * i).sum::<usize>());
    }

    #[test]
    fn zip_chunks_and_chunks_mut() {
        let src: Vec<u32> = (0..10).collect();
        let mut dst = vec![0u32; 10];
        let moved: usize = src
            .par_chunks(3)
            .zip(dst.par_chunks_mut(3))
            .map(|(s, d)| {
                d.copy_from_slice(s);
                s.len()
            })
            .sum();
        assert_eq!(moved, 10);
        assert_eq!(src, dst);
    }

    #[test]
    fn enumerate_reduce_argmax() {
        let v = [3.0f32, 9.0, 1.0, 9.0];
        let (pos, _) = v.par_iter().enumerate().map(|(i, &x)| (i, x)).reduce(
            || (usize::MAX, f32::NEG_INFINITY),
            |a, b| if b.1 > a.1 || (b.1 == a.1 && b.0 < a.0) { b } else { a },
        );
        assert_eq!(pos, 1);
    }

    #[test]
    fn par_sort_by_key() {
        let mut v: Vec<u32> = vec![5, 3, 9, 1];
        v.par_sort_unstable_by_key(|&x| std::cmp::Reverse(x));
        assert_eq!(v, vec![9, 5, 3, 1]);
    }

    #[test]
    fn every_worker_of_the_pool_joins_a_region() {
        // 64 one-item pieces, each held until four distinct threads have
        // arrived: the caller and all three workers of a pool of four.
        let crew = Crew { want: 4, seen: Mutex::new(HashSet::new()) };
        in_pool(4, || (0..MAX_PIECES).into_par_iter().for_each(|_| crew.arrive()));
        crew.check();
    }

    #[test]
    fn collect_is_index_ordered_at_any_thread_count() {
        // Early pieces are the slow ones, so with real workers they finish
        // last; the output order must not notice.
        for threads in [1, 2, 3, 8] {
            let crew = Crew::of(threads, 1000);
            let got: Vec<usize> = in_pool(threads, || {
                (0..1000usize)
                    .into_par_iter()
                    .map(|i| {
                        crew.arrive();
                        if i < 100 {
                            burn(20);
                        }
                        i * 3
                    })
                    .collect()
            });
            crew.check();
            assert_eq!(got, (0..1000).map(|i| i * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn collect_into_result_reports_the_first_error_in_index_order() {
        for threads in [1, 4] {
            let crew = Crew::of(threads, 500);
            let got: Result<Vec<usize>, usize> = in_pool(threads, || {
                (0..500usize)
                    .into_par_iter()
                    .map(|i| {
                        crew.arrive();
                        // Later errors are reached first: the late pieces are
                        // the quick ones.
                        burn(if i < 250 { 10 } else { 0 });
                        if i % 100 == 99 {
                            Err(i)
                        } else {
                            Ok(i)
                        }
                    })
                    .collect()
            });
            crew.check();
            assert_eq!(got, Err(99), "{threads} threads");
            let unit: Result<(), usize> =
                in_pool(threads, || (0..500usize).into_par_iter().map(|_| Ok(())).collect());
            assert_eq!(unit, Ok(()));
        }
    }

    #[test]
    fn zipped_chunks_write_every_slot_exactly_once() {
        for (len, chunk) in [(1000usize, 7usize), (64, 1), (65, 1), (5, 8), (0, 3)] {
            let src: Vec<u32> = (0..len as u32).collect();
            for threads in [1, 4] {
                let mut dst = vec![0u32; len];
                let crew = Crew::of(threads, len.div_ceil(chunk));
                let chunks = in_pool(threads, || {
                    src.par_chunks(chunk)
                        .zip(dst.par_chunks_mut(chunk))
                        .enumerate()
                        .map(|(ci, (s, d))| {
                            crew.arrive();
                            burn(5);
                            assert_eq!(s[0] as usize, ci * chunk, "chunk index follows its data");
                            for (slot, &v) in d.iter_mut().zip(s) {
                                *slot += v + 1;
                            }
                            1usize
                        })
                        .sum::<usize>()
                });
                crew.check();
                assert_eq!(chunks, len.div_ceil(chunk));
                let want: Vec<u32> = (1..=len as u32).collect();
                assert_eq!(dst, want, "len {len} chunk {chunk} threads {threads}");
            }
        }
    }

    #[test]
    fn f32_reduce_is_bit_equal_across_thread_counts() {
        // Terms of wildly different magnitude: any change of association
        // changes the bits.
        let terms: Vec<f32> =
            (0..10_000u32).map(|i| (i as f32 * 0.37).sin() * 10f32.powi((i % 9) as i32)).collect();
        let run = |threads| {
            let crew = Crew::of(threads, terms.len());
            let bits = in_pool(threads, || {
                let slow = |(i, &x): (usize, &f32)| {
                    crew.arrive();
                    if i % 100 == 0 {
                        burn(20);
                    }
                    x
                };
                let reduced =
                    terms.par_iter().enumerate().map(slow).reduce(|| 0.0f32, |a, b| a + b);
                let summed: f32 = terms.par_iter().enumerate().map(slow).sum();
                (reduced.to_bits(), summed.to_bits())
            });
            crew.check();
            bits
        };
        let one = run(1);
        assert_eq!(one.0, one.1, "sum and reduce associate alike");
        assert_eq!(run(3), one);
        assert_eq!(run(8), one);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
        let crew = Crew::of(4, hits.len());
        in_pool(4, || {
            hits.par_iter().for_each(|h| {
                crew.arrive();
                burn(5);
                h.fetch_add(1, Ordering::Relaxed);
            })
        });
        crew.check();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_panic_inside_a_piece_reaches_the_caller_with_its_payload() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                in_pool(threads, || {
                    (0..256usize).into_par_iter().for_each(|i| {
                        burn(20);
                        if i == 200 {
                            panic!("piece failed at {i}");
                        }
                    })
                })
            });
            let payload = caught.expect_err("the region must panic");
            let msg = payload.downcast_ref::<String>().expect("panic message");
            assert_eq!(msg, "piece failed at 200", "{threads} threads");
        }
        // The guard restored the thread count on the way out.
        assert_eq!(in_pool(3, current_num_threads), 3);
    }

    #[test]
    fn nested_regions_run_inline_on_whichever_thread_enters_them() {
        let crew = Crew::of(4, 64);
        let inner_threads: Vec<(usize, bool)> = in_pool(4, || {
            assert_eq!(current_num_threads(), 4);
            (0..64usize)
                .into_par_iter()
                .map(|_| {
                    crew.arrive();
                    let outer = std::thread::current().id();
                    let same: Vec<bool> = (0..64usize)
                        .into_par_iter()
                        .map(|_| std::thread::current().id() == outer)
                        .collect();
                    (current_num_threads(), same.into_iter().all(|s| s))
                })
                .collect()
        });
        crew.check();
        assert!(inner_threads.iter().all(|&(n, same)| n == 1 && same));
    }

    #[test]
    fn piece_boundaries_depend_on_length_only() {
        let bounds = |threads: usize, len: usize| {
            in_pool(threads, || super::run_pieces(0..len, |piece| (piece.start, piece.end)))
        };
        for len in [0usize, 1, 63, 64, 65, 240, 1000, 100_000] {
            let one = bounds(1, len);
            assert_eq!(one.len(), piece_grid(len).1);
            assert!(one.len() <= MAX_PIECES);
            assert_eq!(one.first().map(|p| p.0), Some(0));
            assert_eq!(one.last().map(|p| p.1), Some(len));
            assert!(one.windows(2).all(|w| w[0].1 == w[1].0), "pieces tile the region");
            assert_eq!(bounds(2, len), one, "len {len}");
            assert_eq!(bounds(7, len), one, "len {len}");
        }
    }

    #[test]
    fn empty_regions_yield_identities() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.par_iter().map(|&x| x).sum::<u32>(), 0);
        assert_eq!((5..5usize).into_par_iter().collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!((0..0usize).into_par_iter().reduce(|| 0, |a, b| a + b), 0);
    }
}
