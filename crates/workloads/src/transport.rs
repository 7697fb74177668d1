//! The source→edge transport.
//!
//! The paper's Generator sends event streams to the engine over ZeroMQ TCP;
//! when the source→edge link is untrusted the stream is encrypted with
//! 128-bit AES. This module models that link in-memory: events are
//! serialized to their wire format, optionally encrypted, and handed to the
//! consumer together with the number of bytes that crossed the link (so
//! harnesses can model link-bandwidth ceilings such as HiKey's ~20 MB/s
//! USB-Ethernet or a common 1 GbE uplink).

use crate::datasets::StreamChunk;
use sbt_crypto::{AesCtr, Key128, KeySet, MasterSecret, Nonce};
use sbt_types::{Event, PowerEvent, TenantId};
use std::sync::Arc;

/// Whether the stream is encrypted on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Cleartext events (trusted source→edge link).
    Cleartext,
    /// AES-128-CTR encrypted events (untrusted link).
    Encrypted,
}

/// Transport configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Wire format of the link.
    pub format: WireFormat,
    /// Link bandwidth in bytes per second, or `None` for an unconstrained
    /// link. Only used by harnesses that model ingestion ceilings.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig { format: WireFormat::Encrypted, bandwidth_bytes_per_sec: None }
    }
}

/// A delivered message: the wire bytes plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The payload exactly as it crossed the link. Shared (`Arc`) so ingest
    /// tasks on the receiver's worker threads can hold it without copying
    /// the batch.
    pub wire_bytes: Arc<Vec<u8>>,
    /// Whether the payload is encrypted.
    pub encrypted: bool,
    /// CTR keystream block offset at which the payload was encrypted (the
    /// receiver needs it to decrypt; meaningless for cleartext payloads).
    pub keystream_block: u32,
    /// True if this delivery carries 16-byte power events rather than
    /// generic 12-byte events.
    pub is_power: bool,
    /// Number of events in the payload.
    pub event_count: usize,
}

impl Delivery {
    /// Simulated time to push this delivery through a link of the given
    /// bandwidth, in nanoseconds.
    pub fn transfer_nanos(&self, bandwidth_bytes_per_sec: u64) -> u64 {
        if bandwidth_bytes_per_sec == 0 {
            return 0;
        }
        (self.wire_bytes.len() as u128 * 1_000_000_000u128 / bandwidth_bytes_per_sec as u128) as u64
    }
}

/// The source side of the link: serializes and (optionally) encrypts chunks.
pub struct Channel {
    config: ChannelConfig,
    key: Key128,
    nonce: Nonce,
    next_block: u32,
}

impl Channel {
    /// Create a channel. The key/nonce pair is shared with the edge TEE
    /// (installed by the cloud consumer at deployment time).
    pub fn new(config: ChannelConfig, key: Key128, nonce: Nonce) -> Self {
        Channel { config, key, nonce, next_block: 0 }
    }

    /// Create an encrypted channel provisioned with a tenant's derived key
    /// set: the source encrypts under exactly the key the TEE will derive
    /// for that `(tenant, epoch)`, so no tenant's traffic is readable under
    /// any other tenant's (or epoch's) key.
    pub fn encrypted_for(keys: &KeySet) -> Self {
        Channel::new(ChannelConfig::default(), keys.source_key, keys.source_nonce)
    }

    /// Convenience for harnesses playing the provisioner role: the encrypted
    /// channel of one tenant at one key epoch, derived from the shared
    /// master secret.
    pub fn for_tenant(master: &MasterSecret, tenant: TenantId, epoch: u32) -> Self {
        Channel::encrypted_for(&master.tenant_keys(tenant.0, epoch))
    }

    /// Create an encrypted channel with the demo master secret's default-
    /// tenant keys (single-pipeline examples/tests).
    pub fn encrypted_demo() -> Self {
        Channel::for_tenant(&MasterSecret::demo(), TenantId::DEFAULT, 0)
    }

    /// Create a cleartext channel (trusted link).
    pub fn cleartext() -> Self {
        Channel::new(
            ChannelConfig { format: WireFormat::Cleartext, bandwidth_bytes_per_sec: None },
            [0u8; 16],
            [0u8; 16],
        )
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The symmetric key shared with the TEE (the consumer side needs it to
    /// decrypt; in a deployment it would be provisioned, not read off the
    /// channel).
    pub fn key(&self) -> (Key128, Nonce) {
        (self.key, self.nonce)
    }

    /// Serialize and send one chunk, returning the delivery as it appears on
    /// the wire.
    pub fn send(&mut self, chunk: &StreamChunk) -> Delivery {
        let is_power = !chunk.power_events.is_empty();
        let mut payload = if is_power {
            PowerEvent::slice_to_bytes(&chunk.power_events)
        } else {
            Event::slice_to_bytes(&chunk.events)
        };
        let keystream_block = self.next_block;
        let encrypted = match self.config.format {
            WireFormat::Cleartext => false,
            WireFormat::Encrypted => {
                let ctr = AesCtr::new(&self.key, &self.nonce);
                ctr.apply_keystream_at(&mut payload, self.next_block);
                // Advance the counter past this payload so subsequent chunks
                // use fresh keystream blocks.
                self.next_block = self.next_block.wrapping_add(payload.len().div_ceil(16) as u32);
                true
            }
        };
        Delivery {
            event_count: chunk.len(),
            wire_bytes: Arc::new(payload),
            encrypted,
            is_power,
            keystream_block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::synthetic_stream;
    use sbt_types::Watermark;

    fn chunk(n: usize) -> StreamChunk {
        synthetic_stream(1, n, 100, 3).remove(0)
    }

    #[test]
    fn cleartext_send_is_plain_wire_format() {
        let mut ch = Channel::cleartext();
        let c = chunk(100);
        let d = ch.send(&c);
        assert!(!d.encrypted);
        assert_eq!(d.event_count, 100);
        assert_eq!(Event::slice_from_bytes(&d.wire_bytes), c.events);
    }

    #[test]
    fn encrypted_send_round_trips_with_shared_key() {
        let mut ch = Channel::encrypted_demo();
        let c = chunk(100);
        let d = ch.send(&c);
        assert!(d.encrypted);
        assert_ne!(Event::slice_from_bytes(&d.wire_bytes), c.events);
        // The TEE, holding the shared key, decrypts block 0 onward.
        let (key, nonce) = ch.key();
        let ctr = AesCtr::new(&key, &nonce);
        let mut plain = d.wire_bytes.as_ref().clone();
        ctr.apply_keystream_at(&mut plain, d.keystream_block);
        assert_eq!(Event::slice_from_bytes(&plain), c.events);
    }

    #[test]
    fn successive_sends_use_distinct_keystream() {
        let mut ch = Channel::encrypted_demo();
        let c = chunk(10);
        let d1 = ch.send(&c);
        let d2 = ch.send(&c);
        // Same plaintext, different keystream offset => different ciphertext.
        assert_ne!(d1.wire_bytes, d2.wire_bytes);
    }

    #[test]
    fn tenant_channels_use_disjoint_keystreams() {
        let master = MasterSecret::demo();
        let c = chunk(64);
        let d1 = Channel::for_tenant(&master, TenantId(1), 0).send(&c);
        let d2 = Channel::for_tenant(&master, TenantId(2), 0).send(&c);
        let d1e1 = Channel::for_tenant(&master, TenantId(1), 1).send(&c);
        // Same plaintext, same block offset — different tenants and epochs
        // produce different ciphertexts.
        assert_ne!(d1.wire_bytes, d2.wire_bytes);
        assert_ne!(d1.wire_bytes, d1e1.wire_bytes);
        // And each decrypts only under its own derived key.
        let ks = master.tenant_keys(1, 0);
        let mut plain = d1.wire_bytes.as_ref().clone();
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut plain, 0);
        assert_eq!(Event::slice_from_bytes(&plain), c.events);
        let mut cross = d2.wire_bytes.as_ref().clone();
        AesCtr::new(&ks.source_key, &ks.source_nonce).apply_keystream_at(&mut cross, 0);
        assert_ne!(Event::slice_from_bytes(&cross), c.events);
    }

    #[test]
    fn power_chunks_are_flagged() {
        let chunks = crate::datasets::power_grid_stream(1, 50, 5, 4, 1);
        let mut ch = Channel::cleartext();
        let d = ch.send(&chunks[0]);
        assert!(d.is_power);
        assert_eq!(d.event_count, 50);
        assert_eq!(PowerEvent::slice_from_bytes(&d.wire_bytes), chunks[0].power_events);
    }

    #[test]
    fn transfer_time_scales_with_bandwidth() {
        let d = Delivery {
            wire_bytes: Arc::new(vec![0; 1_000_000]),
            encrypted: false,
            is_power: false,
            event_count: 0,
            keystream_block: 0,
        };
        // 1 MB over 20 MB/s is 50 ms; over 125 MB/s (1 GbE) it is 8 ms.
        assert_eq!(d.transfer_nanos(20_000_000), 50_000_000);
        assert_eq!(d.transfer_nanos(125_000_000), 8_000_000);
        assert_eq!(d.transfer_nanos(0), 0);
    }

    #[test]
    fn empty_chunk_sends_empty_payload() {
        let mut ch = Channel::encrypted_demo();
        let c = StreamChunk {
            events: vec![],
            power_events: vec![],
            watermark: Watermark::from_secs(1),
        };
        let d = ch.send(&c);
        assert!(d.wire_bytes.is_empty());
        assert_eq!(d.event_count, 0);
    }
}
