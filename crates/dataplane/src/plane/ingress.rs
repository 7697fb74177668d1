//! Ingress: event batches and watermarks enter a tenant's namespace.
//!
//! A batch enters through one decrypt-and-parse loop (`decode_batch`).
//! A `WindowedIngress`, what the engine sends, cuts it straight into its
//! windows: each window's slice is appended to the one array of the
//! tenant's window map that the batch's (window, side, lane) names, so
//! each event's pages are committed once, in the window array it stays in.
//! This is the data plane's only windowing; an `Invoke` of `Segment` is
//! refused. A raw `Ingress`, what the single-call `DataPlane::ingress`
//! returns, keeps the batch as an array of its own, unwindowed.

use super::call::Staged;
use super::invoke::Output;
use super::{DataPlane, TenantState, WindowKey, WindowSlot};
use crate::command::{Command, Reply};
use crate::error::DataPlaneError;
use crate::opaque::OpaqueRef;
use crate::params::InvokeOutput;
use crate::stats::InvocationBreakdown;
use crate::store::StoredData;
use parking_lot::Mutex;
use sbt_attest::{AuditRecord, DataRef, UArrayRef};
use sbt_crypto::AesCtr;
use sbt_primitives as prim;
use sbt_telemetry::{decrypt_span_payload, LatencyKind, SpanKind};
use sbt_types::{
    infallible, Event, PowerEvent, PrimitiveKind, TenantId, Watermark, WindowSpec, EVENT_BYTES,
    POWER_EVENT_BYTES,
};
use sbt_uarray::{CommitBudget, HintSet, TeePager, UArray, UArrayId, UArrayWriter, PAGE_SIZE};
use std::collections::btree_map::Entry;
use std::time::Instant;

/// The fixed decrypt window of zero-copy ingest, in bytes.
///
/// A multiple of both event layouts (lcm(12, 16) = 48) and of the AES block
/// size, so every window holds whole events and starts on a CTR block
/// boundary.
const WIRE_CHUNK: usize = 4080;

/// The events one decrypt window parses into: 340 generic events, or 255
/// power events projected onto the generic layout.
const CHUNK_EVENTS: usize = WIRE_CHUNK / EVENT_BYTES;

/// A batch as it arrived: its wire bytes and how to read them.
#[derive(Clone, Copy)]
pub(super) struct Batch<'p> {
    /// The wire bytes.
    pub(super) payload: &'p [u8],
    /// Whether the payload is encrypted under the source key.
    pub(super) encrypted: bool,
    /// Whether the payload holds 16-byte power events.
    pub(super) is_power: bool,
    /// CTR block offset the source encrypted the payload at.
    pub(super) keystream_block: u32,
}

/// The id of a window array a batch opened, until the batch has reached
/// all its windows and names the new ones in window order.
const UNNAMED: UArrayId = UArrayId(u64::MAX);

/// A window array a command list appends to: out of the tenant's window
/// map from the list's first append to it until the list commits (back
/// into the map) or unwinds (cut back to `before`).
pub(super) struct Held {
    pub(super) key: WindowKey,
    pub(super) id: UArrayId,
    pub(super) opaque: OpaqueRef,
    pub(super) array: UArray<Event>,
    /// Its length when the list took it: 0 for an array the list opened
    /// (a window array in the map always holds an event).
    pub(super) before: usize,
    /// Its bytes in the allocator's ledger; the pages above are the list's.
    pub(super) ledgered: u64,
}

impl Batch<'_> {
    /// The bytes of one event on the wire.
    fn record_bytes(&self) -> usize {
        if self.is_power {
            POWER_EVENT_BYTES
        } else {
            EVENT_BYTES
        }
    }
}

impl DataPlane {
    /// Ingest a batch of events whose bytes have arrived in the secure world
    /// (through trusted IO or copied in via the OS — that cost is charged by
    /// the engine through `sbt_tz::IoChannel`).
    ///
    /// `encrypted` payloads are decrypted with the source key; `is_power`
    /// selects the 16-byte power-event layout, which is projected onto the
    /// generic layout for the shared primitives.
    ///
    /// `keystream_block` is the CTR block offset at which this payload was
    /// encrypted by the source (the source advances it per batch).
    ///
    /// The batch is decrypted and parsed in one serial pass inside this one
    /// crossing; multi-core ingest comes from concurrent batches. A
    /// one-command list.
    pub fn ingress(
        &self,
        tenant: TenantId,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let cmd = Command::Ingress { payload, encrypted, is_power, keystream_block };
        match self.call_one(tenant, cmd)? {
            Reply::Ingress(ingested) => Ok(ingested),
            other => unreachable!("ingress replied {other:?}"),
        }
    }

    /// The bytes a batch of `events` events commits on ingress: its
    /// page-rounded size, which the ingress pre-check charges against the
    /// tenant's headroom. Appended to its windows' open arrays, a batch
    /// fills their part-filled last pages first, so it commits at most
    /// this, plus a page for each further window it touches (and a copy
    /// per window an event of a sliding spec falls in). The charge cannot
    /// count those pages: an encrypted batch does not show its windows
    /// before it is decrypted.
    pub fn ingress_charge(events: u64) -> u64 {
        TeePager::pages_for(events * EVENT_BYTES as u64) * PAGE_SIZE
    }

    /// The body of an `Ingress` command: the batch's array is registered
    /// at once, its counter moves and record are staged in `list`.
    pub(super) fn run_ingress(
        &self,
        list: &mut Staged<'_>,
        batch: Batch<'_>,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let ingest_start = self.telemetry.tracer().start();
        let (tenant, ts) = (list.tenant, list.ts);
        let (n_events, _) = self.admit_batch(tenant, &batch)?;
        // Zero-copy ingest: the destination uArray is reserved first (pages
        // committed up front, all-or-nothing), then each decrypt window is
        // appended to it as it is parsed.
        let id = self.next_id();
        let mut decrypt_nanos = 0;
        let data = UArray::produce_exact(id, n_events, &self.pager, |dst| {
            (decrypt_nanos, _) = infallible(self.decode_batch(ts, &batch, |events, _| {
                dst.extend_from_slice(events);
                Ok(())
            }));
        })
        .map(StoredData::Events)?;
        let producer = PrimitiveKind::Ingress.code() as u64;
        let (id, ingested) = self.commit_output(list, producer, data, &HintSet::none(), None)?;
        self.stage_batch(list, &batch, id, n_events, decrypt_nanos, ingest_start);
        Ok(ingested)
    }

    /// The body of a `WindowedIngress` command: each decrypt window is cut
    /// by the Segment kernel straight into the window arrays of `side` and
    /// `lane`, each appended to in place (and opened by the first batch to
    /// reach it), drawing on the headroom page by page. Their growth is
    /// charged to the tenant at once; the batch's counter moves, its
    /// `Ingress` record and one `Windowing` record per window (naming the
    /// array it appended to) are staged in `list`. Returns the batch's
    /// event count and its windows' arrays, in window order.
    pub(super) fn run_windowed_ingress(
        &self,
        list: &mut Staged<'_>,
        batch: Batch<'_>,
        spec: WindowSpec,
        (side, lane): (u8, u32),
    ) -> Result<(usize, Vec<InvokeOutput>), DataPlaneError> {
        let ingest_start = self.telemetry.tracer().start();
        let (tenant, ts) = (list.tenant, list.ts);
        let (n_events, headroom) = self.admit_batch(tenant, &batch)?;
        // The spec's fields come straight from the control plane: a zero
        // size or slide would mean a window per microsecond or an unbounded
        // replication loop inside the TEE.
        if !spec.is_well_formed() {
            return Err(DataPlaneError::BadArguments("malformed window spec"));
        }
        // The batch id names the batch on the trail; no array is stored
        // under it.
        let id = self.next_id();
        let budget = CommitBudget::new(headroom);
        let (mut open, mut taken) = (Vec::new(), Vec::new());
        let decoded = self.decode_batch(ts, &batch, |events, after| {
            prim::segment_into(events, &spec, &mut open, |win, at_most| {
                let mut held = self.hold(list, (win, side, lane))?;
                let array =
                    std::mem::replace(&mut held.array, UArray::with_reservation(UNNAMED, 0));
                let paging = array.paging_nanos();
                let writer = if array.is_empty() {
                    UArrayWriter::reserve(at_most + after, &self.pager, &budget)
                } else {
                    UArrayWriter::resume(array, &self.pager, &budget)?
                };
                taken.push((held, paging));
                Ok(Output(writer))
            })
        });
        // The arrays go back to the list whatever happened: an unwind cuts
        // them back. The ones the batch opened are named now, in window
        // order, whatever order its events met them in.
        let mut memory_nanos = 0;
        let mut outputs = Vec::with_capacity(open.len());
        let mut windowing = Vec::with_capacity(open.len());
        for (win, writer) in open {
            let at = taken.iter().position(|(h, _)| h.key.0 == win).expect("taken");
            let (mut held, paging) = taken.swap_remove(at);
            if held.id == UNNAMED {
                held.id = self.next_id();
                held.opaque = ts.lock().refs.mint(held.id);
            }
            held.array = writer.0.into_open(held.id);
            memory_nanos += held.array.paging_nanos() - paging;
            let (opaque, len) = (held.opaque, held.array.len());
            outputs.push(InvokeOutput { opaque, len, window: Some(win) });
            windowing.push(AuditRecord::Windowing {
                ts_ms: self.now_ms(),
                input: UArrayRef(id.0 as u32),
                win_no: win.0 as u16,
                output: UArrayRef(held.id.0 as u32),
            });
            list.held.push(held);
        }
        let (decrypt_nanos, route_nanos) = decoded?;
        self.charge_growth(list)?;
        self.stage_batch(list, &batch, id, n_events, decrypt_nanos, ingest_start);
        list.records.extend(windowing);
        self.stats
            .record_invocation(InvocationBreakdown { compute_nanos: route_nanos, memory_nanos });
        Ok((n_events, outputs))
    }

    /// Take window array `key` for `list` to append to: the one the list
    /// already holds, else the tenant's open one, else — the first batch to
    /// reach it — a new one, charged at its first growth. An array another
    /// list holds is refused.
    fn hold(&self, list: &mut Staged<'_>, key: WindowKey) -> Result<Held, DataPlaneError> {
        if let Some(at) = list.held.iter().position(|h| h.key == key) {
            return Ok(list.held.swap_remove(at));
        }
        let mut t = list.ts.lock();
        match t.windows.entry(key) {
            Entry::Occupied(mut slot) => {
                let slot = slot.get_mut();
                let array = slot.array.take().ok_or(DataPlaneError::BadArguments(
                    "another command list is appending to this window array",
                ))?;
                let (before, ledgered) = (array.len(), array.committed_bytes());
                Ok(Held { key, id: slot.id, opaque: slot.opaque, array, before, ledgered })
            }
            Entry::Vacant(slot) => {
                // Held from the start; its commit or unwind fills the slot
                // in or removes it.
                let (id, opaque) = (UNNAMED, OpaqueRef(0));
                slot.insert(WindowSlot { id, opaque, array: None });
                let array = UArray::with_reservation(id, 0);
                Ok(Held { key, id, opaque, array, before: 0, ledgered: 0 })
            }
        }
    }

    /// Charge the growth of the window arrays `list` holds to its tenant,
    /// all or nothing against the quota: an array it opened is admitted to
    /// the ledger, one it grew is resized there.
    fn charge_growth(&self, list: &mut Staged<'_>) -> Result<(), DataPlaneError> {
        let owner = list.tenant.owner_tag();
        let mut alloc = self.alloc.lock();
        let growth: u64 = list.held.iter().map(|h| h.array.committed_bytes() - h.ledgered).sum();
        if growth > alloc.allocator.owner_headroom(owner) {
            return Err(DataPlaneError::QuotaExceeded);
        }
        let producer = PrimitiveKind::Segment.code() as u64;
        for h in &mut list.held {
            let bytes = h.array.committed_bytes();
            if !alloc.allocator.resize(h.id, bytes) {
                alloc
                    .allocator
                    .admit(owner, producer, &[(h.id, bytes)], &HintSet::none())
                    .map_err(|_| DataPlaneError::QuotaExceeded)?;
            }
            h.ledgered = bytes;
        }
        Ok(())
    }

    /// The checks a batch passes before any secure memory moves: the
    /// payload is whole events, and their page-rounded size
    /// ([`ingress_charge`](DataPlane::ingress_charge)) fits the tenant's
    /// headroom — a cheap early check; the admission stays the authority.
    /// Returns the batch's event count and the headroom read.
    fn admit_batch(
        &self,
        tenant: TenantId,
        batch: &Batch<'_>,
    ) -> Result<(usize, u64), DataPlaneError> {
        let record_bytes = batch.record_bytes();
        if !batch.payload.len().is_multiple_of(record_bytes) {
            return Err(DataPlaneError::BadIngress(if batch.is_power {
                "power payload not a whole event"
            } else {
                "payload not a whole event"
            }));
        }
        let n_events = batch.payload.len() / record_bytes;
        let headroom = self.alloc.lock().allocator.owner_headroom(tenant.owner_tag());
        if Self::ingress_charge(n_events as u64) > headroom {
            return Err(DataPlaneError::QuotaExceeded);
        }
        Ok((n_events, headroom))
    }

    /// The one decrypt-and-parse loop of both ingress commands: each
    /// 4 080-byte chunk of the payload is decrypted into a stack window,
    /// parsed into a stack array of events and handed to `take`, with the
    /// number of the batch's events after it. No staging heap allocation
    /// on either path.
    ///
    /// Decrypts under the calling tenant's current-epoch source key: a
    /// batch encrypted under another tenant's key (or a stale epoch)
    /// decrypts to garbage values — the wire format is position-based, so
    /// garbage still parses, just never into meaningful records.
    ///
    /// Returns the nanoseconds spent decrypting and parsing (0 for a
    /// cleartext batch), and those spent in `take`.
    fn decode_batch<E>(
        &self,
        ts: &Mutex<TenantState>,
        batch: &Batch<'_>,
        mut take: impl FnMut(&[Event], usize) -> Result<(), E>,
    ) -> Result<(u64, u64), E> {
        let ctr = batch.encrypted.then(|| {
            let t = ts.lock();
            AesCtr::new(&t.keys.source_key, &t.keys.source_nonce)
        });
        let record_bytes = batch.record_bytes();
        let mut left = batch.payload.len() / record_bytes;
        let mut window = [0u8; WIRE_CHUNK];
        let mut events = [Event::default(); CHUNK_EVENTS];
        let (mut decode_nanos, mut take_nanos) = (0, 0);
        let mut mark = Instant::now();
        for (i, chunk) in batch.payload.chunks(WIRE_CHUNK).enumerate() {
            let cleartext: &[u8] = match &ctr {
                Some(ctr) => {
                    let block = batch.keystream_block.wrapping_add((i * (WIRE_CHUNK / 16)) as u32);
                    ctr.apply_keystream_into(chunk, &mut window[..chunk.len()], block);
                    &window[..chunk.len()]
                }
                None => chunk,
            };
            let n = cleartext.len() / record_bytes;
            // from_bytes only fails on short input; every record is whole.
            if batch.is_power {
                for (event, rec) in events.iter_mut().zip(cleartext.chunks_exact(record_bytes)) {
                    *event = PowerEvent::from_bytes(rec).unwrap().to_generic();
                }
            } else {
                for (event, rec) in events.iter_mut().zip(cleartext.chunks_exact(record_bytes)) {
                    *event = Event::from_bytes(rec).unwrap();
                }
            }
            left -= n;
            let parsed = Instant::now();
            decode_nanos += (parsed - mark).as_nanos() as u64;
            take(&events[..n], left)?;
            mark = Instant::now();
            take_nanos += (mark - parsed).as_nanos() as u64;
        }
        Ok((if batch.encrypted { decode_nanos } else { 0 }, take_nanos))
    }

    /// Stage an ingested batch in `list` — its ingest counts and its
    /// `Ingress` record under `id` — and record its decrypt time, its
    /// ingest-to-store latency (call entry to registered output) and, for
    /// an encrypted batch, one decrypt span carrying the same decrypt time.
    /// The telemetry is a relaxed no-op while disabled; the counts move at
    /// the list's commit.
    fn stage_batch(
        &self,
        list: &mut Staged<'_>,
        batch: &Batch<'_>,
        id: UArrayId,
        n_events: usize,
        decrypt_nanos: u64,
        ingest_start: u64,
    ) {
        let tenant = list.tenant.0;
        self.stats.record_decrypt(decrypt_nanos);
        list.events += n_events as u64;
        list.bytes += batch.payload.len() as u64;
        list.records.push(AuditRecord::Ingress {
            ts_ms: self.now_ms(),
            data: DataRef::UArray(UArrayRef(id.0 as u32)),
        });
        let tracer = self.telemetry.tracer();
        self.telemetry.record_latency(
            tenant,
            LatencyKind::IngestToStore,
            tracer.elapsed_since(ingest_start),
        );
        if batch.encrypted {
            // One span per batch, its payload packing the batch tag and the
            // batch's event count.
            tracer.record_at(
                SpanKind::Decrypt,
                tenant,
                ingest_start,
                decrypt_nanos,
                decrypt_span_payload(id.0, n_events as u64),
            );
        }
    }

    /// Ingest a watermark (watermarks are control metadata, not protected
    /// data, but they are audited because freshness attestation depends on
    /// them). A one-command list.
    pub fn ingress_watermark(&self, tenant: TenantId, wm: Watermark) -> Result<(), DataPlaneError> {
        self.call_one(tenant, Command::Watermark(wm)).map(drop)
    }

    /// The body of a `Watermark` command: its record is staged in `list`.
    pub(super) fn run_watermark(&self, list: &mut Staged<'_>, wm: Watermark) {
        list.records.push(AuditRecord::Ingress {
            ts_ms: self.now_ms(),
            data: DataRef::Watermark(wm.event_time.as_millis() as u32),
        });
    }
}
