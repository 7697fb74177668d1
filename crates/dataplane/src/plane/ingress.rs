//! Ingress: event batches and watermarks enter a tenant's namespace.

use super::call::Staged;
use super::DataPlane;
use crate::command::{Command, Reply};
use crate::error::DataPlaneError;
use crate::params::InvokeOutput;
use crate::store::StoredData;
use sbt_attest::{AuditRecord, DataRef, UArrayRef};
use sbt_crypto::AesCtr;
use sbt_telemetry::{decrypt_span_payload, LatencyKind, SpanKind};
use sbt_types::{Event, PowerEvent, PrimitiveKind, TenantId, Watermark};
use sbt_uarray::{TeePager, UArray, PAGE_SIZE};
use std::time::Instant;

/// The fixed decrypt window of zero-copy ingest, in bytes.
///
/// A multiple of both event layouts (lcm(12, 16) = 48) and of the AES block
/// size, so every window holds whole events and starts on a CTR block
/// boundary.
const WIRE_CHUNK: usize = 4080;

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
    /// page-rounded destination size, which the ingress pre-check charges
    /// against the tenant's headroom. Segmenting it into one window commits
    /// as much again.
    pub fn ingress_charge(events: u64) -> u64 {
        TeePager::pages_for(events * sbt_types::EVENT_BYTES as u64) * PAGE_SIZE
    }

    /// The body of an `Ingress` command: the batch's array is registered
    /// at once, its counter moves and record are staged in `list`.
    pub(super) fn run_ingress(
        &self,
        list: &mut Staged<'_>,
        payload: &[u8],
        encrypted: bool,
        is_power: bool,
        keystream_block: u32,
    ) -> Result<InvokeOutput, DataPlaneError> {
        let ingest_start = self.telemetry.tracer().start();
        let (tenant, ts) = (list.tenant, list.ts);
        // Wire-format check first: the payload either is whole events or the
        // batch is rejected before any secure memory moves.
        let record_bytes =
            if is_power { sbt_types::POWER_EVENT_BYTES } else { sbt_types::EVENT_BYTES };
        if !payload.len().is_multiple_of(record_bytes) {
            return Err(DataPlaneError::BadIngress(if is_power {
                "power payload not a whole event"
            } else {
                "payload not a whole event"
            }));
        }
        let n_events = payload.len() / record_bytes;
        // Cheap early quota check before decrypting and parsing: the batch
        // will commit its page-rounded destination size, which must fit the
        // tenant's headroom (the admission stays the authority).
        let estimate = Self::ingress_charge(n_events as u64);
        if estimate > self.alloc.lock().allocator.owner_headroom(tenant.owner_tag()) {
            return Err(DataPlaneError::QuotaExceeded);
        }
        // Decrypt under the calling tenant's current-epoch source key: a
        // batch encrypted under another tenant's key (or a stale epoch)
        // decrypts to garbage values — the wire format is position-based, so
        // garbage still parses, just never into meaningful records.
        let ctr = if encrypted {
            let t = ts.lock();
            Some(AesCtr::new(&t.keys.source_key, &t.keys.source_nonce))
        } else {
            None
        };

        // Zero-copy ingest: the destination uArray is reserved first (pages
        // committed up front, all-or-nothing), then ciphertext is decrypted
        // through a fixed stack window directly into it. No staging heap
        // allocation of the payload on either path.
        let decrypt_start = Instant::now();
        let id = self.next_id();
        let data = UArray::produce_exact(id, n_events, &self.pager, |dst| {
            let mut window = [0u8; WIRE_CHUNK];
            for (i, chunk) in payload.chunks(WIRE_CHUNK).enumerate() {
                let cleartext: &[u8] = match &ctr {
                    Some(ctr) => {
                        let block = keystream_block.wrapping_add((i * (WIRE_CHUNK / 16)) as u32);
                        ctr.apply_keystream_into(chunk, &mut window[..chunk.len()], block);
                        &window[..chunk.len()]
                    }
                    None => chunk,
                };
                if is_power {
                    for rec in cleartext.chunks_exact(sbt_types::POWER_EVENT_BYTES) {
                        // from_bytes only fails on short input; rec is whole.
                        dst.push(PowerEvent::from_bytes(rec).unwrap().to_generic());
                    }
                } else {
                    for rec in cleartext.chunks_exact(sbt_types::EVENT_BYTES) {
                        dst.push(Event::from_bytes(rec).unwrap());
                    }
                }
            }
        })
        .map(StoredData::Events)?;
        let decrypt_nanos = if encrypted { decrypt_start.elapsed().as_nanos() as u64 } else { 0 };
        let (id, opaque, len) =
            self.register_output(tenant, ts, data, PrimitiveKind::Ingress.code() as u64, None)?;
        // The decrypt work is counted as done; the ingest counts, the
        // tenant's and the plane's, move at the list's commit.
        self.stats.record_decrypt(decrypt_nanos);
        list.events += n_events as u64;
        list.bytes += payload.len() as u64;
        list.records.push(AuditRecord::Ingress {
            ts_ms: self.now_ms(),
            data: DataRef::UArray(UArrayRef(id.0 as u32)),
        });
        // Ingest-to-store latency (call entry to registered output) plus a
        // decrypt span carrying the measured decrypt time. Both are relaxed
        // no-ops while telemetry is disabled.
        self.telemetry.record_latency(
            tenant.0,
            LatencyKind::IngestToStore,
            self.telemetry.tracer().elapsed_since(ingest_start),
        );
        if encrypted {
            // One span per batch, its payload packing the batch tag and the
            // batch's event count.
            self.telemetry.tracer().record_at(
                SpanKind::Decrypt,
                tenant.0,
                ingest_start,
                decrypt_nanos,
                decrypt_span_payload(id.0, n_events as u64),
            );
        }
        Ok(InvokeOutput { opaque, len, window: None })
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
