//! TEE memory management for StreamBox-TZ (§6 of the paper).
//!
//! High-velocity streams inside a TEE rule out the usual engine design of
//! many small heap objects indexed by hash tables and served by a generic
//! allocator. StreamBox-TZ instead builds its data plane around:
//!
//! * **uArrays** — contiguous, virtually unbounded, append-only buffers for
//!   same-type records. A uArray is `Open` while its producer appends,
//!   `Produced` once finalized, and `Retired` when its consumer is done and
//!   its memory may be reclaimed. Growth never relocates: each uArray
//!   reserves a large virtual range up front and commits physical pages on
//!   demand inside the TEE.
//! * **uGroups** — the allocator co-locates uArrays that will be consumed
//!   consecutively into a uGroup and reclaims from the front of the group,
//!   which keeps the physical layout compact with trivial bookkeeping.
//! * **One ledger** — the [`Allocator`] is the only record of a live uArray:
//!   one entry per array holds its uGroup, owner, committed bytes and
//!   retired flag, and a uGroup keeps only its members' placement order. The
//!   data plane hands over an invocation's outputs in one call
//!   ([`Allocator::admit`], all-or-nothing against the owner's quota) and
//!   gets freed arrays back from one call ([`Allocator::retire`], or
//!   [`Allocator::release_owner`] when a tenant departs).
//! * **Consumption hints** — the untrusted control plane may annotate
//!   invocations with *consumed-after* and *consumed-in-parallel* hints;
//!   the allocator uses them to choose uGroup placement. Hints are
//!   untrusted: they only influence placement (never integrity), and
//!   misleading hints at worst waste memory / delay results (§6.2).
//! * **A TEE pager** — pages are committed against the secure-memory budget
//!   (`sbt-tz`), charging the TEE paging cost, which is much cheaper than a
//!   round trip through a commodity OS (validated by Figure 11).
//!
//! The crate is generic over record types; the data plane instantiates it
//! for events and intermediate record layouts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod hints;
pub mod pager;
pub mod uarray;
pub mod ugroup;
pub mod vspace;

pub use allocator::{
    Allocator, AllocatorConfig, MemoryReport, OwnerTeardown, PlacementPolicy, QuotaError,
};
pub use hints::{ConsumptionHint, HintSet};
pub use pager::{PageError, TeePager, PAGE_SIZE};
pub use uarray::{CommitBudget, UArray, UArrayError, UArrayId, UArrayState, UArrayWriter};
pub use ugroup::{UGroup, UGroupId};
pub use vspace::VirtualSpace;
