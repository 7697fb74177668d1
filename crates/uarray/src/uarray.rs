//! The uArray abstraction (§6.1).
//!
//! A uArray is a contiguous, append-only buffer of same-type records with a
//! producer/consumer lifecycle: **Open** (producer appends), **Produced**
//! (finalized, read-only), **Retired** (consumed, memory reclaimable).
//! Growth is backed by on-demand paging fully inside the TEE: the buffer
//! reserves a virtual extent when it is created and only commits physical
//! pages as the append index advances. Within that extent it never
//! relocates. Past it, this reproduction's `Vec` does: a window array is
//! reserved for the batch that opens it, so every window that outgrows its
//! first batch is copied by [`UArrayWriter::resume`]'s `Vec` growth (once
//! per doubling). Reserving a window's extent up front is ROADMAP item 23.
//!
//! In this reproduction, the virtual reservation is a `Vec` capacity
//! reservation (the host OS commits pages lazily, just as the TEE pager
//! does), and the page commits are charged to the platform's secure-memory
//! budget through [`TeePager`].
//!
//! Primitives produce through a [`UArrayWriter`]: an open uArray bound to
//! its pager and to the invocation's [`CommitBudget`], which the primitive's
//! kernel appends to (the data plane wraps it as the kernel's record sink).
//! A writer that is dropped unsealed gives all its pages back, so production
//! is fail-closed.

use crate::pager::{PageError, TeePager, PAGE_SIZE};
use std::cell::Cell;

/// Identifier of a uArray, unique within one data plane.
///
/// The data plane mints monotonically increasing identifiers for audit
/// records (§7); opaque references handed to the control plane are a
/// *separate*, randomized namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UArrayId(pub u64);

impl UArrayId {
    /// The next id in sequence.
    pub fn next(self) -> UArrayId {
        UArrayId(self.0 + 1)
    }
}

/// Lifecycle state of a uArray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UArrayState {
    /// Being appended to by its producer primitive.
    Open,
    /// Production finished; read-only.
    Produced,
    /// Consumed; memory is subject to reclamation.
    Retired,
}

/// Error returned on operations that violate the uArray lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UArrayError {
    /// Appending to a uArray that is not `Open`.
    NotOpen(UArrayState),
    /// The TEE pager could not commit more secure memory.
    OutOfSecureMemory(PageError),
    /// Committing more pages would exceed the producer's [`CommitBudget`].
    OverBudget {
        /// Bytes the commit asked for.
        requested: u64,
        /// Bytes the budget had left.
        left: u64,
    },
}

impl std::fmt::Display for UArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UArrayError::NotOpen(s) => write!(f, "uArray is not open (state {s:?})"),
            UArrayError::OutOfSecureMemory(e) => write!(f, "{e}"),
            UArrayError::OverBudget { requested, left } => {
                write!(f, "commit of {requested} B exceeds the producer's budget ({left} B left)")
            }
        }
    }
}

impl std::error::Error for UArrayError {}

/// The bytes of secure memory one invocation may still commit — the calling
/// tenant's remaining quota when the invocation began. Every open writer of
/// the invocation draws it down as its pages commit, so a producer that
/// would overrun the quota stops at the page that crosses it instead of
/// finishing first and finding out afterwards.
#[derive(Debug)]
pub struct CommitBudget {
    left: Cell<u64>,
}

impl CommitBudget {
    /// A budget of `bytes`.
    pub fn new(bytes: u64) -> Self {
        CommitBudget { left: Cell::new(bytes) }
    }

    /// No limit (an owner without a quota).
    pub fn unlimited() -> Self {
        CommitBudget::new(u64::MAX)
    }

    /// Bytes still available.
    pub fn left(&self) -> u64 {
        self.left.get()
    }

    fn take(&self, bytes: u64) -> Result<(), UArrayError> {
        let left = self.left.get();
        if bytes > left {
            return Err(UArrayError::OverBudget { requested: bytes, left });
        }
        self.left.set(left - bytes);
        Ok(())
    }

    fn give_back(&self, bytes: u64) {
        self.left.set(self.left.get().saturating_add(bytes));
    }
}

/// A contiguous, virtually unbounded, append-only buffer of `T` records.
#[derive(Debug)]
pub struct UArray<T> {
    id: UArrayId,
    data: Vec<T>,
    state: UArrayState,
    /// Bytes of secure memory committed for this uArray (page-rounded).
    committed_bytes: u64,
    /// Simulated nanoseconds spent committing pages for this uArray.
    paging_nanos: u64,
}

impl<T: Copy> UArray<T> {
    /// Create an open uArray with an initial virtual reservation of
    /// `reserve_items` records. Appending beyond the reservation extends it
    /// (still without relocating committed data in the modelled TEE). The
    /// reproduction's `Vec` relocates then, and that is not rare: every
    /// window array that outgrows the batch that opened it is copied by
    /// [`UArrayWriter::resume`]'s growth (see the module docs and ROADMAP
    /// item 23).
    pub fn with_reservation(id: UArrayId, reserve_items: usize) -> Self {
        UArray {
            id,
            data: Vec::with_capacity(reserve_items),
            state: UArrayState::Open,
            committed_bytes: 0,
            paging_nanos: 0,
        }
    }

    /// Create a sealed uArray of at most `items` records whose contents are
    /// streamed straight into the reserved destination by `fill` — the
    /// zero-copy ingest path.
    ///
    /// Pages for the whole extent are committed **before** any record is
    /// written — through the same page accounting [`UArrayWriter`] grows
    /// by — so a secure-memory failure is all-or-nothing: the error
    /// returns with no pages charged and no partially populated array ever
    /// existing. (The incremental [`append`]/[`extend_from_slice`] path, by
    /// contrast, keeps the committed prefix — right for producers whose
    /// output size is unknown, wrong for ingest, where the batch size is
    /// known up front and a half-ingested batch must not survive.)
    ///
    /// `fill` appends into a buffer pre-reserved for `items` records; the
    /// reservation guarantees no reallocation, so the records land in their
    /// final location. Should `fill` produce more than `items` records, the
    /// surplus is dropped to keep the page accounting truthful.
    ///
    /// [`append`]: UArray::append
    /// [`extend_from_slice`]: UArray::extend_from_slice
    pub fn produce_exact(
        id: UArrayId,
        items: usize,
        pager: &TeePager,
        fill: impl FnOnce(&mut Vec<T>),
    ) -> Result<Self, UArrayError> {
        let mut array = UArray::with_reservation(id, 0);
        array.commit_to(items, pager, &CommitBudget::unlimited())?;
        array.data.reserve_exact(items);
        fill(&mut array.data);
        array.data.truncate(items);
        array.seal();
        Ok(array)
    }

    /// The uArray's identifier.
    pub fn id(&self) -> UArrayId {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> UArrayState {
        self.state
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the uArray holds no records.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of secure memory committed on behalf of this uArray.
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// Simulated nanoseconds this uArray spent in the TEE pager.
    pub fn paging_nanos(&self) -> u64 {
        self.paging_nanos
    }

    /// Read-only view of the records. Valid in every state (consumers read
    /// `Produced` uArrays; tests may inspect `Open` ones).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Append one record. Fails if the uArray is not `Open` or secure memory
    /// is exhausted.
    #[inline]
    pub fn append(&mut self, item: T, pager: &TeePager) -> Result<(), UArrayError> {
        if self.state != UArrayState::Open {
            return Err(UArrayError::NotOpen(self.state));
        }
        self.commit_to(self.data.len() + 1, pager, &CommitBudget::unlimited())?;
        self.data.push(item);
        Ok(())
    }

    /// Append a slice of records in one go (the common case for primitives
    /// producing output in bulk).
    pub fn extend_from_slice(&mut self, items: &[T], pager: &TeePager) -> Result<(), UArrayError> {
        if self.state != UArrayState::Open {
            return Err(UArrayError::NotOpen(self.state));
        }
        self.commit_to(self.data.len() + items.len(), pager, &CommitBudget::unlimited())?;
        self.data.extend_from_slice(items);
        Ok(())
    }

    /// Commit whole pages so the array can hold `items` records, drawing the
    /// growth from `budget`. Pages commit before the records they back are
    /// written; on failure nothing changes.
    fn commit_to(
        &mut self,
        items: usize,
        pager: &TeePager,
        budget: &CommitBudget,
    ) -> Result<(), UArrayError> {
        let needed = (items * std::mem::size_of::<T>()) as u64;
        if needed <= self.committed_bytes {
            return Ok(());
        }
        let target = needed.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let growth = target - self.committed_bytes;
        budget.take(growth)?;
        match pager.commit_pages(growth / PAGE_SIZE) {
            Ok(nanos) => {
                self.committed_bytes = target;
                self.paging_nanos += nanos;
                Ok(())
            }
            Err(e) => {
                budget.give_back(growth);
                Err(UArrayError::OutOfSecureMemory(e))
            }
        }
    }

    /// Cut the array back to its first `len` records and give back the
    /// pages they no longer reach; returns the bytes released. How an
    /// append that did not stand is undone.
    pub fn truncate(&mut self, len: usize, pager: &TeePager) -> u64 {
        self.data.truncate(len);
        let kept = TeePager::pages_for((self.data.len() * std::mem::size_of::<T>()) as u64);
        let released = self.committed_bytes - kept * PAGE_SIZE;
        pager.release_pages(released / PAGE_SIZE);
        self.committed_bytes -= released;
        released
    }

    /// Finalize production: the uArray becomes read-only.
    pub fn seal(&mut self) {
        if self.state == UArrayState::Open {
            self.state = UArrayState::Produced;
        }
    }

    /// Mark the uArray as consumed. The records stay readable until the
    /// allocator actually reclaims the backing memory (reclamation is a
    /// uGroup-level decision).
    pub fn retire(&mut self) {
        self.state = UArrayState::Retired;
    }

    /// Drop the record storage and release the committed pages back to the
    /// pager. Called by the allocator when the uArray is reclaimed.
    pub fn reclaim(&mut self, pager: &TeePager) -> u64 {
        let released = self.committed_bytes;
        pager.release_pages(released / PAGE_SIZE);
        self.committed_bytes = 0;
        self.data = Vec::new();
        released
    }
}

/// An open uArray being produced in place (§6.1).
///
/// The lifecycle is **reserve → append → commit-per-page → seal**. `reserve`
/// sets aside the array's extent (virtual: nothing is committed yet).
/// Appends write records straight into their final location; whenever the
/// append index crosses a page boundary the pages behind it are committed
/// through the pager and drawn from the invocation's [`CommitBudget`] —
/// on-demand paging, no second copy. `seal` names the array and hands it
/// over as `Produced`; `into_open` hands it back still open, to grow again
/// later through `resume`. A writer may also `take_over` a sealed array
/// whose consumer holds its only handle — an input its command list
/// consumes — and rewrite it in its own pages (`records_mut`): the output
/// is sealed under a new id with the input's pages, and no page is
/// committed twice. A writer dropped instead — its producer failed
/// mid-way, on the budget, the secure-memory carve-out or anything else —
/// releases every page it had committed: production is fail-closed. (The
/// pages an array brought to `resume` or `take_over` are not the writer's
/// to release: they stay with the array's own ledger entry.)
pub struct UArrayWriter<'a, T: Copy> {
    array: UArray<T>,
    /// Records the committed pages can hold; an append past it commits more.
    backed: usize,
    /// Records the array held when the writer took it: a drop gives back
    /// only the pages committed after them.
    base: usize,
    pager: &'a TeePager,
    budget: &'a CommitBudget,
}

impl<'a, T: Copy> UArrayWriter<'a, T> {
    /// Open a writer with room for `items` records. `items` may be an upper
    /// bound (only pages actually appended to are ever committed). The
    /// reservation never exceeds what the budget and the carve-out could
    /// back, so a hostile size cannot make it allocate beyond them.
    pub fn reserve(items: usize, pager: &'a TeePager, budget: &'a CommitBudget) -> Self {
        let secure = pager.secure_mem();
        let backable = budget.left().min(secure.budget().saturating_sub(secure.in_use()));
        let record = std::mem::size_of::<T>().max(1) as u64;
        let cap = items.min(usize::try_from(backable / record).unwrap_or(usize::MAX));
        UArrayWriter {
            array: UArray::with_reservation(UArrayId::default(), cap),
            backed: 0,
            base: 0,
            pager,
            budget,
        }
    }

    /// Take up an open array to append to it under `budget`: the uArray
    /// grows in place. An array that is not `Open` — sealed, consumed — is
    /// refused.
    pub fn resume(
        array: UArray<T>,
        pager: &'a TeePager,
        budget: &'a CommitBudget,
    ) -> Result<Self, UArrayError> {
        if array.state != UArrayState::Open {
            return Err(UArrayError::NotOpen(array.state));
        }
        let backed = array.committed_bytes as usize / std::mem::size_of::<T>().max(1);
        Ok(UArrayWriter { base: array.len(), array, backed, pager, budget })
    }

    /// Take over a sealed array to rewrite it in place under `budget`: the
    /// array opens again with its records and committed pages, which its
    /// sealed output keeps. An array that is not `Produced` — still open,
    /// or consumed — is refused. The paging time it took to commit them
    /// was its producer's, so the output counts only its own.
    pub fn take_over(
        mut array: UArray<T>,
        pager: &'a TeePager,
        budget: &'a CommitBudget,
    ) -> Result<Self, UArrayError> {
        if array.state != UArrayState::Produced {
            return Err(UArrayError::NotOpen(array.state));
        }
        array.state = UArrayState::Open;
        array.paging_nanos = 0;
        Self::resume(array, pager, budget)
    }

    /// The records appended so far, to rewrite in place.
    pub fn records_mut(&mut self) -> &mut [T] {
        &mut self.array.data
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Bytes of secure memory committed so far (page-rounded).
    pub fn committed_bytes(&self) -> u64 {
        self.array.committed_bytes
    }

    /// Commit the pages behind the next `more` records.
    #[cold]
    fn back(&mut self, more: usize) -> Result<(), UArrayError> {
        self.array.commit_to(self.array.data.len() + more, self.pager, self.budget)?;
        self.backed = self.array.committed_bytes as usize / std::mem::size_of::<T>().max(1);
        Ok(())
    }

    /// Append one record, committing the page it starts if need be.
    #[inline]
    pub fn push(&mut self, record: T) -> Result<(), UArrayError> {
        if self.array.data.len() == self.backed {
            self.back(1)?;
        }
        self.array.data.push(record);
        Ok(())
    }

    /// Append a run of records, committing the pages it reaches in one
    /// stride.
    #[inline]
    pub fn extend_from_slice(&mut self, records: &[T]) -> Result<(), UArrayError> {
        if self.array.data.len() + records.len() > self.backed {
            self.back(records.len())?;
        }
        self.array.data.extend_from_slice(records);
        Ok(())
    }

    /// Finalize production under `id`: the array becomes read-only.
    pub fn seal(self, id: UArrayId) -> UArray<T> {
        let mut array = self.into_open(id);
        array.seal();
        array
    }

    /// Stop appending and hand the array back under `id`, still open.
    pub fn into_open(mut self, id: UArrayId) -> UArray<T> {
        let mut array = std::mem::replace(&mut self.array, UArray::with_reservation(id, 0));
        self.base = 0;
        array.id = id;
        array
    }
}

impl<T: Copy> Drop for UArrayWriter<'_, T> {
    fn drop(&mut self) {
        // After `seal` or `into_open` this holds an empty stand-in with
        // nothing committed.
        self.array.truncate(self.base, self.pager);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbt_tz::{CostModel, SecureMemory, TzStats};
    use std::sync::Arc;

    fn pager(budget: u64) -> TeePager {
        TeePager::new(
            Arc::new(SecureMemory::new(budget)),
            Arc::new(TzStats::new()),
            CostModel::hikey(),
        )
    }

    #[test]
    fn append_and_read_back() {
        let p = pager(1 << 20);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(1), 16);
        for i in 0..100u32 {
            a.append(i, &p).unwrap();
        }
        assert_eq!(a.len(), 100);
        assert_eq!(a.as_slice()[42], 42);
        assert!(!a.is_empty());
        assert_eq!(a.id(), UArrayId(1));
    }

    #[test]
    fn produce_exact_commits_full_extent_and_seals() {
        let p = pager(1 << 20);
        let a: UArray<u32> = UArray::produce_exact(UArrayId(9), 2000, &p, |dst| {
            dst.extend(0..2000u32);
        })
        .unwrap();
        assert_eq!(a.len(), 2000);
        assert_eq!(a.as_slice()[1234], 1234);
        assert_eq!(a.state(), UArrayState::Produced);
        // 2000 * 4 bytes = 8000 bytes -> two pages, charged up front.
        assert_eq!(a.committed_bytes(), 2 * PAGE_SIZE);
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
        assert!(a.paging_nanos() > 0);
    }

    #[test]
    fn produce_exact_truncates_overproduction() {
        let p = pager(1 << 20);
        let a: UArray<u32> = UArray::produce_exact(UArrayId(9), 4, &p, |dst| {
            dst.extend(0..100u32);
        })
        .unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.committed_bytes(), PAGE_SIZE);
    }

    #[test]
    fn produce_exact_oom_leaks_nothing() {
        let p = pager(PAGE_SIZE);
        // 2000 u32s need two pages; only one is available. The reservation
        // happens before any record is produced, so the fill closure must
        // never run and the pager accounting must be untouched.
        let ran = std::cell::Cell::new(false);
        let r: Result<UArray<u32>, _> = UArray::produce_exact(UArrayId(3), 2000, &p, |dst| {
            ran.set(true);
            dst.extend(0..2000u32);
        });
        assert!(matches!(r, Err(UArrayError::OutOfSecureMemory(_))));
        assert!(!ran.get());
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn produce_exact_commits_what_a_writer_commits_for_the_same_records() {
        // One page-commit path: the up-front extent and a writer appending
        // the same records page by page charge the same pages (in one
        // commit instead of three).
        let records: Vec<u32> = (0..2500).collect();
        let (p1, p2) = (pager(1 << 20), pager(1 << 20));
        let exact = UArray::produce_exact(UArrayId(1), records.len(), &p1, |dst| {
            dst.extend_from_slice(&records)
        })
        .unwrap();
        let budget = CommitBudget::unlimited();
        let mut writer = UArrayWriter::reserve(records.len(), &p2, &budget);
        for chunk in records.chunks(1000) {
            writer.extend_from_slice(chunk).unwrap();
        }
        let written = writer.seal(UArrayId(1));
        assert_eq!(exact.as_slice(), written.as_slice());
        assert_eq!(exact.committed_bytes(), written.committed_bytes());
        assert_eq!(p1.committed_bytes(), p2.committed_bytes());
        assert_eq!(exact.state(), written.state());
    }

    #[test]
    fn produce_exact_empty_commits_no_pages() {
        let p = pager(1 << 20);
        let a: UArray<u32> = UArray::produce_exact(UArrayId(0), 0, &p, |_| {}).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.committed_bytes(), 0);
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn committed_bytes_are_page_rounded_and_charged() {
        let p = pager(1 << 20);
        let mut a: UArray<u64> = UArray::with_reservation(UArrayId(0), 0);
        a.append(1, &p).unwrap();
        assert_eq!(a.committed_bytes(), PAGE_SIZE);
        assert_eq!(p.committed_bytes(), PAGE_SIZE);
        // Fill exactly one page of u64s, still one page.
        let fill: Vec<u64> = (0..(PAGE_SIZE as usize / 8 - 1) as u64).collect();
        a.extend_from_slice(&fill, &p).unwrap();
        assert_eq!(a.committed_bytes(), PAGE_SIZE);
        // One more record spills to the second page.
        a.append(7, &p).unwrap();
        assert_eq!(a.committed_bytes(), 2 * PAGE_SIZE);
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn lifecycle_enforced() {
        let p = pager(1 << 20);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(0), 4);
        a.append(1, &p).unwrap();
        a.seal();
        assert_eq!(a.state(), UArrayState::Produced);
        assert!(matches!(a.append(2, &p), Err(UArrayError::NotOpen(UArrayState::Produced))));
        a.retire();
        assert_eq!(a.state(), UArrayState::Retired);
        assert!(matches!(a.append(2, &p), Err(UArrayError::NotOpen(UArrayState::Retired))));
        // Data still readable until reclamation.
        assert_eq!(a.as_slice(), &[1]);
    }

    #[test]
    fn seal_is_idempotent_and_does_not_unretire() {
        let p = pager(1 << 20);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(0), 4);
        a.append(1, &p).unwrap();
        a.retire();
        a.seal();
        assert_eq!(a.state(), UArrayState::Retired);
    }

    #[test]
    fn reclaim_releases_pages() {
        let p = pager(1 << 20);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(0), 0);
        let data: Vec<u32> = (0..10_000).collect();
        a.extend_from_slice(&data, &p).unwrap();
        let committed = a.committed_bytes();
        assert!(committed >= 10_000 * 4);
        assert_eq!(p.committed_bytes(), committed);
        a.retire();
        let released = a.reclaim(&p);
        assert_eq!(released, committed);
        assert_eq!(p.committed_bytes(), 0);
        assert_eq!(a.committed_bytes(), 0);
    }

    #[test]
    fn out_of_memory_truncates_to_committed_prefix() {
        // Budget of 2 pages of u32s.
        let p = pager(2 * PAGE_SIZE);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(0), 0);
        let data: Vec<u32> = (0..10_000).collect();
        let err = a.extend_from_slice(&data, &p).unwrap_err();
        assert!(matches!(err, UArrayError::OutOfSecureMemory(_)));
        // The visible records fit exactly in the committed pages.
        assert_eq!(a.len() * 4, a.committed_bytes() as usize);
        assert!(a.committed_bytes() <= 2 * PAGE_SIZE);
        // The prefix that survived is intact.
        for (i, v) in a.as_slice().iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn growth_does_not_relocate_within_reservation() {
        let p = pager(1 << 24);
        let mut a: UArray<u32> = UArray::with_reservation(UArrayId(0), 1 << 20);
        a.append(0, &p).unwrap();
        let base = a.as_slice().as_ptr();
        let data: Vec<u32> = (1..100_000).collect();
        a.extend_from_slice(&data, &p).unwrap();
        assert_eq!(a.as_slice().as_ptr(), base, "uArray relocated within its reservation");
    }

    #[test]
    fn paging_nanos_accumulate() {
        let p = pager(1 << 24);
        let mut a: UArray<u64> = UArray::with_reservation(UArrayId(0), 0);
        let data: Vec<u64> = (0..100_000).collect();
        a.extend_from_slice(&data, &p).unwrap();
        assert!(a.paging_nanos() > 0);
    }

    // ----- the in-place producer -----------------------------------------

    /// A 12-byte record: 341 of them fill one page with 4 bytes to spare.
    type Rec = [u32; 3];

    #[test]
    fn writer_commits_pages_as_the_append_index_crosses_them() {
        let p = pager(1 << 20);
        let budget = CommitBudget::unlimited();
        let mut w: UArrayWriter<Rec> = UArrayWriter::reserve(1_000, &p, &budget);
        assert_eq!(p.committed_bytes(), 0, "a reservation commits nothing");
        for i in 0..341u32 {
            w.push([i; 3]).unwrap();
            assert_eq!(w.committed_bytes(), PAGE_SIZE);
        }
        w.push([341; 3]).unwrap();
        assert_eq!(w.committed_bytes(), 2 * PAGE_SIZE);
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
        // A bulk append commits everything it needs in one stride.
        w.extend_from_slice(&[[7; 3]; 600]).unwrap();
        assert_eq!(w.len(), 942);
        assert_eq!(w.committed_bytes(), 3 * PAGE_SIZE);
        let a = w.seal(UArrayId(5));
        assert_eq!((a.id(), a.state(), a.len()), (UArrayId(5), UArrayState::Produced, 942));
        assert_eq!(a.as_slice()[341], [341; 3]);
        // Sealing hands the pages over with the array; nothing is released.
        assert_eq!(p.committed_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn writer_accounts_exactly_like_a_bulk_copy_at_page_boundary_lengths() {
        for n in [0usize, 1, 340, 341, 342, 682, 683, 5_000] {
            let records: Vec<Rec> = (0..n as u32).map(|i| [i; 3]).collect();
            let (p1, p2) = (pager(1 << 20), pager(1 << 20));
            let mut bulk: UArray<Rec> = UArray::with_reservation(UArrayId(1), n);
            bulk.extend_from_slice(&records, &p1).unwrap();
            let budget = CommitBudget::unlimited();
            let mut w: UArrayWriter<Rec> = UArrayWriter::reserve(n, &p2, &budget);
            for r in &records {
                w.push(*r).unwrap();
            }
            let produced = w.seal(UArrayId(1));
            assert_eq!(produced.as_slice(), bulk.as_slice(), "n = {n}");
            assert_eq!(produced.committed_bytes(), bulk.committed_bytes(), "n = {n}");
            assert_eq!(produced.paging_nanos(), bulk.paging_nanos(), "n = {n}");
            assert_eq!(p2.committed_bytes(), p1.committed_bytes(), "n = {n}");
        }
    }

    #[test]
    fn writer_does_not_relocate_within_its_reservation() {
        let p = pager(1 << 24);
        let budget = CommitBudget::unlimited();
        let mut w: UArrayWriter<u32> = UArrayWriter::reserve(100_000, &p, &budget);
        w.push(0).unwrap();
        let base = w.array.as_slice().as_ptr();
        for i in 1..100_000 {
            w.push(i).unwrap();
        }
        assert_eq!(w.array.as_slice().as_ptr(), base);
    }

    #[test]
    fn a_budget_trip_mid_production_releases_every_page() {
        let p = pager(1 << 20);
        let budget = CommitBudget::new(3 * PAGE_SIZE);
        let mut w: UArrayWriter<u32> = UArrayWriter::reserve(10_000, &p, &budget);
        let err = (0..10_000u32).find_map(|i| w.push(i).err()).expect("the budget trips");
        assert_eq!(err, UArrayError::OverBudget { requested: PAGE_SIZE, left: 0 });
        // Three pages of records landed before the fourth was refused.
        assert_eq!(w.len(), 3 * PAGE_SIZE as usize / 4);
        assert_eq!(p.committed_bytes(), 3 * PAGE_SIZE);
        drop(w);
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn a_budget_is_shared_by_every_writer_drawing_on_it() {
        let p = pager(1 << 20);
        let budget = CommitBudget::new(2 * PAGE_SIZE);
        let mut a: UArrayWriter<u32> = UArrayWriter::reserve(16, &p, &budget);
        let mut b: UArrayWriter<u32> = UArrayWriter::reserve(16, &p, &budget);
        a.push(1).unwrap();
        b.push(2).unwrap();
        assert_eq!(budget.left(), 0);
        let mut c: UArrayWriter<u32> = UArrayWriter::reserve(16, &p, &budget);
        assert!(matches!(c.push(3), Err(UArrayError::OverBudget { .. })));
        drop((a, b, c));
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn secure_memory_exhaustion_mid_production_is_fail_closed_too() {
        let p = pager(2 * PAGE_SIZE);
        let budget = CommitBudget::new(10 * PAGE_SIZE);
        let mut w: UArrayWriter<u32> = UArrayWriter::reserve(10_000, &p, &budget);
        let err = (0..10_000u32).find_map(|i| w.push(i).err()).expect("the carve-out runs out");
        assert!(matches!(err, UArrayError::OutOfSecureMemory(_)));
        // The refused stride went back to the budget.
        assert_eq!(budget.left(), 8 * PAGE_SIZE);
        drop(w);
        assert_eq!(p.committed_bytes(), 0);
    }

    #[test]
    fn a_hostile_reservation_is_clamped_to_what_could_be_backed() {
        let p = pager(4 * PAGE_SIZE);
        let budget = CommitBudget::unlimited();
        let mut w: UArrayWriter<u64> = UArrayWriter::reserve(usize::MAX, &p, &budget);
        assert!(w.array.data.capacity() <= 4 * PAGE_SIZE as usize / 8);
        w.push(1).unwrap();
        let small = CommitBudget::new(PAGE_SIZE);
        let w2: UArrayWriter<u64> = UArrayWriter::reserve(usize::MAX, &p, &small);
        assert!(w2.array.data.capacity() <= PAGE_SIZE as usize / 8);
    }

    #[test]
    fn a_resumed_writer_grows_in_place_and_gives_back_only_its_own_pages() {
        let p = pager(1 << 20);
        let budget = CommitBudget::unlimited();
        let mut w: UArrayWriter<u32> = UArrayWriter::reserve(1_500, &p, &budget);
        w.extend_from_slice(&[1; 1_500]).unwrap(); // 6 000 B: 2 pages
        let open = w.into_open(UArrayId(3));
        assert_eq!((open.state(), open.len()), (UArrayState::Open, 1_500));
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE, "handed back with its pages");
        let mut w = UArrayWriter::resume(open, &p, &budget).unwrap();
        w.extend_from_slice(&[2; 1_000]).unwrap(); // 10 000 B: 3 pages
        let mut grown = w.into_open(UArrayId(3));
        assert_eq!(
            (grown.id(), grown.as_slice()[1_500], p.committed_bytes()),
            (UArrayId(3), 2, 3 * PAGE_SIZE)
        );
        // Undoing the second append gives back the page it started.
        assert_eq!(grown.truncate(1_500, &p), PAGE_SIZE);
        assert_eq!((grown.len(), grown.committed_bytes()), (1_500, 2 * PAGE_SIZE));
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
        // A resumed writer dropped mid-way gives back only what it committed.
        let mut w = UArrayWriter::resume(grown, &p, &budget).unwrap();
        w.extend_from_slice(&[3; 2_000]).unwrap();
        drop(w);
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
        // A sealed array is never taken up again.
        let sealed: UArray<u32> = UArrayWriter::reserve(1, &p, &budget).seal(UArrayId(4));
        assert!(matches!(
            UArrayWriter::resume(sealed, &p, &budget),
            Err(UArrayError::NotOpen(UArrayState::Produced))
        ));
    }

    #[test]
    fn a_taken_over_array_is_rewritten_in_its_own_pages() {
        let p = pager(1 << 20);
        let budget = CommitBudget::new(0);
        let unlimited = CommitBudget::unlimited();
        let mut w: UArrayWriter<u32> = UArrayWriter::reserve(2_000, &p, &unlimited);
        w.extend_from_slice(&(0..2_000).rev().collect::<Vec<_>>()).unwrap(); // 2 pages
        let input = w.seal(UArrayId(1));
        let base = input.as_slice().as_ptr();
        // Rewriting in place commits nothing, so even a spent budget does.
        let mut w = UArrayWriter::take_over(input, &p, &budget).unwrap();
        w.records_mut().sort_unstable();
        let output = w.seal(UArrayId(2));
        assert_eq!(
            (output.id(), output.state(), output.len()),
            (UArrayId(2), UArrayState::Produced, 2_000)
        );
        assert_eq!(output.as_slice().as_ptr(), base, "the records never moved");
        assert!(output.as_slice().windows(2).all(|w| w[0] < w[1]));
        assert_eq!((output.committed_bytes(), output.paging_nanos()), (2 * PAGE_SIZE, 0));
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE, "no page committed twice");
        // Dropped unsealed, a taking writer gives back only what it grew by:
        // the pages it took stay with the input's ledger entry.
        let mut w = UArrayWriter::take_over(output, &p, &unlimited).unwrap();
        w.extend_from_slice(&[7; 1_000]).unwrap(); // 12 000 B: a third page
        assert_eq!(p.committed_bytes(), 3 * PAGE_SIZE);
        drop(w);
        assert_eq!(p.committed_bytes(), 2 * PAGE_SIZE);
        // Only a sealed array is taken over: not an open one, not a consumed one.
        let open = UArrayWriter::<u32>::reserve(1, &p, &unlimited).into_open(UArrayId(3));
        assert!(matches!(
            UArrayWriter::take_over(open, &p, &unlimited),
            Err(UArrayError::NotOpen(UArrayState::Open))
        ));
        let mut retired = UArrayWriter::<u32>::reserve(1, &p, &unlimited).seal(UArrayId(4));
        retired.retire();
        assert!(matches!(
            UArrayWriter::take_over(retired, &p, &unlimited),
            Err(UArrayError::NotOpen(UArrayState::Retired))
        ));
    }
}
