//! The record sink primitives produce into inside the TEE.
//!
//! A primitive's kernel appends to a [`RecordSink`]; here that sink is an
//! open [`UArrayWriter`], so records are written once, in their final
//! location, pages committing as the append index crosses them. The newtype
//! exists because neither the trait (`sbt_types`) nor the writer
//! (`sbt_uarray`) is this crate's, and keeping them apart keeps the uArray
//! layer free of the record model.

use sbt_types::RecordSink;
use sbt_uarray::{UArrayError, UArrayWriter};

/// An output uArray under production.
pub(crate) struct Output<'a, T: Copy>(pub(crate) UArrayWriter<'a, T>);

impl<T: Copy> RecordSink<T> for Output<'_, T> {
    type Error = UArrayError;

    #[inline]
    fn push(&mut self, record: T) -> Result<(), UArrayError> {
        self.0.push(record)
    }

    #[inline]
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), UArrayError> {
        self.0.extend_from_slice(records)
    }
}
