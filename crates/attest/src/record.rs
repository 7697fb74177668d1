//! Audit record types and their row-format serialization (Figure 6).
//!
//! A record carries a data-plane timestamp (32-bit, milliseconds of
//! processing time), a 16-bit op code, and a record-kind-specific payload:
//!
//! * **Ingress/Egress** — the uArray id that entered or left the TEE, or the
//!   watermark value that was ingested;
//! * **Windowing** — input uArray, monotonically increasing window sequence
//!   number and output uArray;
//! * **Execution** — the primitive that ran, its input and output uArray
//!   ids, and any consumption hints supplied by the control plane.
//!
//! uArray ids in records are the data plane's monotonically increasing
//! internal identifiers (not the random opaque references handed to the
//! control plane), which is what makes delta encoding effective.

use sbt_types::PrimitiveKind;

/// A data-plane-internal uArray identifier as carried in audit records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UArrayRef(pub u32);

/// Ports kept inline in a [`PortList`] before spilling to the heap.
/// Operators have at most four ports in practice, so execution records
/// normally allocate nothing.
pub const INLINE_PORTS: usize = 4;

/// A small fixed-capacity list of uArray ports.
///
/// [`AuditRecord::Execution`] carries one of these for its inputs and one
/// for its outputs. Up to [`INLINE_PORTS`] entries live inline in the record
/// itself — the common append path performs no heap allocation. Longer
/// lists (a reduce over more than four window arrays, or a `Concat` or
/// `MergeK` over more than four inputs) spill to a `Vec` transparently.
#[derive(Clone, Default)]
pub struct PortList {
    inline: [UArrayRef; INLINE_PORTS],
    len: u8,
    /// Authoritative storage once non-empty; `inline`/`len` are then unused.
    spill: Vec<UArrayRef>,
}

impl PortList {
    /// An empty list (allocates nothing).
    pub const fn new() -> Self {
        PortList { inline: [UArrayRef(0); INLINE_PORTS], len: 0, spill: Vec::new() }
    }

    /// Append a port, spilling to the heap past [`INLINE_PORTS`] entries.
    pub fn push(&mut self, port: UArrayRef) {
        if self.spill.is_empty() {
            if (self.len as usize) < INLINE_PORTS {
                self.inline[self.len as usize] = port;
                self.len += 1;
                return;
            }
            self.spill.reserve(INLINE_PORTS * 2);
            self.spill.extend_from_slice(&self.inline[..self.len as usize]);
        }
        self.spill.push(port);
    }

    /// The ports as a slice.
    pub fn as_slice(&self) -> &[UArrayRef] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for PortList {
    type Target = [UArrayRef];
    fn deref(&self) -> &[UArrayRef] {
        self.as_slice()
    }
}

impl PartialEq for PortList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PortList {}

impl std::hash::Hash for PortList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for PortList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<const N: usize> From<[UArrayRef; N]> for PortList {
    fn from(ports: [UArrayRef; N]) -> Self {
        ports.into_iter().collect()
    }
}

impl From<Vec<UArrayRef>> for PortList {
    fn from(ports: Vec<UArrayRef>) -> Self {
        if ports.len() > INLINE_PORTS {
            PortList { inline: [UArrayRef(0); INLINE_PORTS], len: 0, spill: ports }
        } else {
            ports.into_iter().collect()
        }
    }
}

impl From<&[UArrayRef]> for PortList {
    fn from(ports: &[UArrayRef]) -> Self {
        ports.iter().copied().collect()
    }
}

impl FromIterator<UArrayRef> for PortList {
    fn from_iter<I: IntoIterator<Item = UArrayRef>>(iter: I) -> Self {
        let mut list = PortList::new();
        for port in iter {
            list.push(port);
        }
        list
    }
}

impl<'a> IntoIterator for &'a PortList {
    type Item = &'a UArrayRef;
    type IntoIter = std::slice::Iter<'a, UArrayRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One consumption hint's fields, as split from (and joined back into) its
/// 64-bit record value by [`split_hint`] and [`join_hint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HintWord {
    /// Consumed after the predecessor with this id (bits 0–62).
    After(u64),
    /// One of `k` siblings consumed in parallel (k in bits 32–62, index in
    /// bits 0–31).
    Parallel { k: u32, index: u32 },
}

/// Split a hint's record value: the kind in bit 63, then its fields (the
/// layout of `sbt_uarray::ConsumptionHint::encode`). Every `u64` splits.
#[inline]
pub(crate) fn split_hint(raw: u64) -> HintWord {
    if raw >> 63 == 0 {
        HintWord::After(raw)
    } else {
        HintWord::Parallel { k: ((raw >> 32) & 0x7FFF_FFFF) as u32, index: raw as u32 }
    }
}

/// The inverse of [`split_hint`] for fields in range: an id below 2⁶³, a
/// `k` below 2³¹.
#[inline]
pub(crate) fn join_hint(hint: HintWord) -> u64 {
    match hint {
        HintWord::After(id) => id,
        HintWord::Parallel { k, index } => (1 << 63) | ((k as u64) << 32) | index as u64,
    }
}

/// The payload of an ingress record: either a data uArray or a watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRef {
    /// A data uArray with the given internal id.
    UArray(UArrayRef),
    /// A watermark carrying the given event time in milliseconds.
    Watermark(u32),
}

/// Why a tenant left the platform, as recorded in its final audit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepartureReason {
    /// The tenant was drained: ingest stopped, remaining windows ran to the
    /// last watermark, then the tenant was torn down.
    Drained,
    /// The tenant was evicted immediately; in-flight state was discarded.
    Evicted,
}

impl DepartureReason {
    /// Encode as the byte stored in the record's payload.
    pub fn code(self) -> u8 {
        match self {
            DepartureReason::Drained => 0,
            DepartureReason::Evicted => 1,
        }
    }

    /// Decode a payload byte. Returns `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<DepartureReason> {
        match code {
            0 => Some(DepartureReason::Drained),
            1 => Some(DepartureReason::Evicted),
            _ => None,
        }
    }
}

impl std::fmt::Display for DepartureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepartureReason::Drained => write!(f, "drained"),
            DepartureReason::Evicted => write!(f, "evicted"),
        }
    }
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditRecord {
    /// Data or a watermark entered the TEE.
    Ingress {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// What was ingested.
        data: DataRef,
    },
    /// A result uArray left the TEE (encrypted and signed).
    Egress {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// The externalized uArray.
        data: UArrayRef,
    },
    /// The Windowing primitive assigned (part of) an input uArray to a
    /// window, producing a new per-window uArray.
    Windowing {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// The input uArray being segmented.
        input: UArrayRef,
        /// The window sequence number.
        win_no: u16,
        /// The per-window output uArray.
        output: UArrayRef,
    },
    /// A trusted primitive executed.
    Execution {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// Which primitive ran.
        op: PrimitiveKind,
        /// Input uArray ids (watermark inputs are recorded by their ingress
        /// uArray id as in the paper's Listing 1). Kept inline: operators
        /// have ≤ [`INLINE_PORTS`] ports.
        inputs: PortList,
        /// Output uArray ids, inline like `inputs`.
        outputs: PortList,
        /// Encoded consumption hints supplied with the invocation.
        hints: Vec<u64>,
    },
    /// The tenant's key material advanced to a new epoch. Every record after
    /// this one (and the segment carrying it) is signed under the new
    /// epoch's derived key.
    Rekey {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// The epoch the tenant advanced to.
        epoch: u32,
    },
    /// The tenant departed the platform (drained or evicted). This is the
    /// final record of the tenant's trail.
    Departure {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// Why the tenant left.
        reason: DepartureReason,
    },
    /// A checkpoint boundary: the tenant's state was sealed into snapshot
    /// `seq` (`resumed == false`), or serving resumed from that snapshot
    /// after a crash (`resumed == true`). `hash` is the SHA-256 of the
    /// snapshot *plaintext*, chaining the snapshot content into the signed
    /// trail: a resume record whose `(seq, hash)` does not match the last
    /// sealed checkpoint is a rollback and the verifier rejects the trail.
    Checkpoint {
        /// Data-plane timestamp, milliseconds.
        ts_ms: u32,
        /// The checkpoint sequence number (monotone per tenant).
        seq: u64,
        /// Whether this record marks a resume from the snapshot rather than
        /// its creation.
        resumed: bool,
        /// SHA-256 of the snapshot plaintext.
        hash: [u8; 32],
    },
}

/// Op code of [`AuditRecord::Rekey`] rows (outside the primitive code space).
pub const OP_CODE_REKEY: u16 = 30;
/// Op code of [`AuditRecord::Departure`] rows (outside the primitive code
/// space).
pub const OP_CODE_DEPARTURE: u16 = 31;
/// Op code of [`AuditRecord::Checkpoint`] rows (outside the primitive code
/// space).
pub const OP_CODE_CHECKPOINT: u16 = 32;

impl AuditRecord {
    /// The record's data-plane timestamp.
    pub fn ts_ms(&self) -> u32 {
        match self {
            AuditRecord::Ingress { ts_ms, .. }
            | AuditRecord::Egress { ts_ms, .. }
            | AuditRecord::Windowing { ts_ms, .. }
            | AuditRecord::Execution { ts_ms, .. }
            | AuditRecord::Rekey { ts_ms, .. }
            | AuditRecord::Departure { ts_ms, .. }
            | AuditRecord::Checkpoint { ts_ms, .. } => *ts_ms,
        }
    }

    /// The op code stored in the record's `Op` field.
    pub fn op_code(&self) -> u16 {
        match self {
            AuditRecord::Ingress { .. } => PrimitiveKind::Ingress.code(),
            AuditRecord::Egress { .. } => PrimitiveKind::Egress.code(),
            AuditRecord::Windowing { .. } => PrimitiveKind::Segment.code(),
            AuditRecord::Execution { op, .. } => op.code(),
            AuditRecord::Rekey { .. } => OP_CODE_REKEY,
            AuditRecord::Departure { .. } => OP_CODE_DEPARTURE,
            AuditRecord::Checkpoint { .. } => OP_CODE_CHECKPOINT,
        }
    }

    /// Size of the record's uncompressed row format (Figure 6) in bytes,
    /// without serializing: the one statement of the row layout's size.
    /// The streaming encoder accounts raw bandwidth with it at append time.
    #[inline]
    pub fn row_len(&self) -> usize {
        // op(2) + ts(4) + variant payload.
        6 + match self {
            AuditRecord::Ingress { .. } | AuditRecord::Egress { .. } => 5,
            AuditRecord::Windowing { .. } => 10,
            AuditRecord::Execution { inputs, outputs, hints, .. } => {
                6 + 4 * (inputs.len() + outputs.len()) + 8 * hints.len()
            }
            AuditRecord::Rekey { .. } => 4,
            AuditRecord::Departure { .. } => 1,
            AuditRecord::Checkpoint { .. } => 41,
        }
    }

    /// Serialize into the uncompressed row format (Figure 6). This is the
    /// "raw" byte volume that Figure 12 compares compression against.
    pub fn to_row_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.op_code().to_le_bytes());
        out.extend_from_slice(&self.ts_ms().to_le_bytes());
        match self {
            AuditRecord::Ingress { data, .. } => match data {
                DataRef::UArray(id) => {
                    out.push(0);
                    out.extend_from_slice(&id.0.to_le_bytes());
                }
                DataRef::Watermark(wm) => {
                    out.push(1);
                    out.extend_from_slice(&wm.to_le_bytes());
                }
            },
            AuditRecord::Egress { data, .. } => {
                out.push(0);
                out.extend_from_slice(&data.0.to_le_bytes());
            }
            AuditRecord::Windowing { input, win_no, output, .. } => {
                out.extend_from_slice(&input.0.to_le_bytes());
                out.extend_from_slice(&win_no.to_le_bytes());
                out.extend_from_slice(&output.0.to_le_bytes());
            }
            AuditRecord::Execution { inputs, outputs, hints, .. } => {
                out.extend_from_slice(&(inputs.len() as u16).to_le_bytes());
                for i in inputs {
                    out.extend_from_slice(&i.0.to_le_bytes());
                }
                out.extend_from_slice(&(outputs.len() as u16).to_le_bytes());
                for o in outputs {
                    out.extend_from_slice(&o.0.to_le_bytes());
                }
                out.extend_from_slice(&(hints.len() as u16).to_le_bytes());
                for h in hints {
                    out.extend_from_slice(&h.to_le_bytes());
                }
            }
            AuditRecord::Rekey { epoch, .. } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            AuditRecord::Departure { reason, .. } => {
                out.push(reason.code());
            }
            AuditRecord::Checkpoint { seq, resumed, hash, .. } => {
                out.push(u8::from(*resumed));
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(hash);
            }
        }
    }

    /// Total row-format size of a batch of records, in bytes.
    pub fn raw_size(records: &[AuditRecord]) -> usize {
        records.iter().map(AuditRecord::row_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_and_op_codes() {
        let r = AuditRecord::Ingress { ts_ms: 5, data: DataRef::UArray(UArrayRef(9)) };
        assert_eq!(r.ts_ms(), 5);
        assert_eq!(r.op_code(), PrimitiveKind::Ingress.code());

        let r = AuditRecord::Execution {
            ts_ms: 10,
            op: PrimitiveKind::Sort,
            inputs: [UArrayRef(1)].into(),
            outputs: [UArrayRef(2)].into(),
            hints: vec![],
        };
        assert_eq!(r.op_code(), PrimitiveKind::Sort.code());
        assert_eq!(r.ts_ms(), 10);

        let r = AuditRecord::Windowing {
            ts_ms: 3,
            input: UArrayRef(1),
            win_no: 7,
            output: UArrayRef(2),
        };
        assert_eq!(r.op_code(), PrimitiveKind::Segment.code());

        let r = AuditRecord::Egress { ts_ms: 8, data: UArrayRef(4) };
        assert_eq!(r.op_code(), PrimitiveKind::Egress.code());
    }

    /// The row bytes of `r`, whose length [`AuditRecord::row_len`] states.
    fn row(r: &AuditRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        r.to_row_bytes(&mut buf);
        assert_eq!(buf.len(), r.row_len(), "{r:?}");
        buf
    }

    #[test]
    fn row_bytes_have_expected_sizes() {
        // op(2) + ts(4) + tag(1) + id(4)
        let ingress = AuditRecord::Ingress { ts_ms: 1, data: DataRef::UArray(UArrayRef(2)) };
        assert_eq!(row(&ingress).len(), 11);
        assert_eq!(row(&AuditRecord::Ingress { ts_ms: 1, data: DataRef::Watermark(9) }).len(), 11);
        assert_eq!(row(&AuditRecord::Egress { ts_ms: 1, data: UArrayRef(2) }).len(), 11);

        // op(2) + ts(4) + in(4) + win(2) + out(4)
        let windowing = AuditRecord::Windowing {
            ts_ms: 1,
            input: UArrayRef(1),
            win_no: 0,
            output: UArrayRef(2),
        };
        assert_eq!(row(&windowing).len(), 16);

        // op(2) + ts(4) + cnt(2) + 2*4 + cnt(2) + 4 + cnt(2) + 8
        let execution = AuditRecord::Execution {
            ts_ms: 1,
            op: PrimitiveKind::Sum,
            inputs: [UArrayRef(1), UArrayRef(2)].into(),
            outputs: [UArrayRef(3)].into(),
            hints: vec![42],
        };
        assert_eq!(row(&execution).len(), 32);
    }

    #[test]
    fn lifecycle_records_have_dedicated_codes_and_rows() {
        let rekey = AuditRecord::Rekey { ts_ms: 4, epoch: 2 };
        assert_eq!(rekey.ts_ms(), 4);
        assert_eq!(rekey.op_code(), OP_CODE_REKEY);
        // op(2) + ts(4) + epoch(4)
        assert_eq!(row(&rekey).len(), 10);

        let dep = AuditRecord::Departure { ts_ms: 9, reason: DepartureReason::Evicted };
        assert_eq!(dep.op_code(), OP_CODE_DEPARTURE);
        // op(2) + ts(4) + reason(1)
        assert_eq!(row(&dep).len(), 7);

        let ckpt = AuditRecord::Checkpoint { ts_ms: 12, seq: 3, resumed: false, hash: [0xAB; 32] };
        assert_eq!(ckpt.op_code(), OP_CODE_CHECKPOINT);
        assert_eq!(ckpt.ts_ms(), 12);
        // op(2) + ts(4) + resumed(1) + seq(8) + hash(32)
        assert_eq!(row(&ckpt).len(), 47);

        // The lifecycle codes stay clear of every primitive's code.
        assert!(PrimitiveKind::from_code(OP_CODE_REKEY).is_none());
        assert!(PrimitiveKind::from_code(OP_CODE_DEPARTURE).is_none());
        assert!(PrimitiveKind::from_code(OP_CODE_CHECKPOINT).is_none());
        for reason in [DepartureReason::Drained, DepartureReason::Evicted] {
            assert_eq!(DepartureReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(DepartureReason::from_code(9), None);
    }

    #[test]
    fn hint_words_split_and_join() {
        for raw in [0, 42, (1 << 63) - 1, 1 << 63, (1 << 63) | (25 << 32) | 24, u64::MAX] {
            assert_eq!(join_hint(split_hint(raw)), raw, "{raw:#x}");
        }
        assert_eq!(split_hint(7), HintWord::After(7));
        assert_eq!(split_hint((1 << 63) | (4 << 32) | 3), HintWord::Parallel { k: 4, index: 3 });
    }

    #[test]
    fn raw_size_sums_rows() {
        let records = vec![
            AuditRecord::Ingress { ts_ms: 1, data: DataRef::Watermark(100) },
            AuditRecord::Egress { ts_ms: 2, data: UArrayRef(1) },
        ];
        assert_eq!(AuditRecord::raw_size(&records), 11 + 11);
    }
}
