//! Parameters and outputs of the single `InvokePrimitive` entry function.
//!
//! The interface is deliberately narrow and shared-nothing: the control
//! plane passes plain values (primitive identity, opaque references, scalar
//! parameters, encoded hints) and receives plain values back (opaque
//! references plus per-output metadata). No pointers or shared state cross
//! the boundary.

use crate::opaque::OpaqueRef;
use sbt_types::{EventTime, WindowId};

/// Scalar parameters a primitive may need beyond its input arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrimitiveParams {
    /// No parameters.
    None,
    /// Value band for `FilterBand` (inclusive).
    Band {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// Event-time range for `FilterTime` (half-open).
    TimeRange {
        /// Start (inclusive).
        start: EventTime,
        /// End (exclusive).
        end: EventTime,
    },
    /// K for `TopK` / `TopKPerKey`.
    K(usize),
    /// Sampling period for `Sample`.
    Every(usize),
}

/// Metadata about one output uArray returned from an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeOutput {
    /// The opaque reference the control plane uses to name this output.
    pub opaque: OpaqueRef,
    /// Number of records in the output.
    pub len: usize,
    /// The window this output belongs to: set on the window arrays a
    /// `WindowedIngress` replies, `None` for an ingested batch and an
    /// invocation's output.
    pub window: Option<WindowId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_compare_by_value() {
        assert_eq!(PrimitiveParams::Band { lo: 1, hi: 2 }, PrimitiveParams::Band { lo: 1, hi: 2 });
        assert_ne!(PrimitiveParams::K(3), PrimitiveParams::K(4));
    }
}
