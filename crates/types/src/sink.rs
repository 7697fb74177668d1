//! Where a trusted primitive's output records go.
//!
//! Every primitive kernel is one pass that appends its output to a
//! [`RecordSink`]. Inside the data plane the sink is an open uArray writer,
//! so records land in their final location and pages are committed as the
//! append index advances; everywhere else (benchmarks, baselines, tests) the
//! sink is a `Vec`, and the `Vec`-returning primitive functions are the same
//! kernels run over it. The trait lives here, with the record types, so that
//! the primitives need not know uArrays and uArrays need not know
//! primitives.

use std::convert::Infallible;

/// An append-only destination for same-type records.
///
/// An append either lands the whole record (or slice) or fails; a kernel
/// propagates the first failure and stops, leaving cleanup to the sink's
/// owner.
pub trait RecordSink<T> {
    /// Why an append can fail (`Infallible` for heap sinks).
    type Error;

    /// Append one record.
    fn push(&mut self, record: T) -> Result<(), Self::Error>;

    /// Append a run of records in one go.
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), Self::Error>;
}

impl<T: Copy> RecordSink<T> for Vec<T> {
    type Error = Infallible;

    #[inline]
    fn push(&mut self, record: T) -> Result<(), Infallible> {
        Vec::push(self, record);
        Ok(())
    }

    #[inline]
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), Infallible> {
        Vec::extend_from_slice(self, records);
        Ok(())
    }
}

/// A sink that keeps no records, only how many it was given. Running a
/// kernel over it is that kernel's counting pre-pass: the exact size of the
/// output, for a producer that reserves before it writes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecordCount(pub usize);

impl<T> RecordSink<T> for RecordCount {
    type Error = Infallible;

    #[inline]
    fn push(&mut self, _record: T) -> Result<(), Infallible> {
        self.0 += 1;
        Ok(())
    }

    #[inline]
    fn extend_from_slice(&mut self, records: &[T]) -> Result<(), Infallible> {
        self.0 += records.len();
        Ok(())
    }
}

/// Unwrap the result of a kernel run over a sink that cannot fail.
#[inline]
pub fn infallible<R>(result: Result<R, Infallible>) -> R {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vec_keeps_the_records_and_a_count_only_counts_them() {
        let mut kept: Vec<u32> = Vec::new();
        let mut count = RecordCount::default();
        for sink in [&mut kept as &mut dyn RecordSink<u32, Error = Infallible>, &mut count] {
            infallible(sink.push(7));
            infallible(sink.extend_from_slice(&[8, 9]));
        }
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(count, RecordCount(3));
    }
}
