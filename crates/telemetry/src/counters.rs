//! The one counter mechanism: a counter set is declared once.
//!
//! [`counters!`](crate::counters!) takes a set's fields, each with its doc
//! comment, and generates the set (one relaxed `AtomicU64` per field,
//! private to the declaring module, which moves them in its `record_*`
//! helpers), its snapshot type, `snapshot()`, a saturating `delta_since`
//! and `export`, which emits every field to the registry under its name.
//! A set declared `in "section"` is a [`CounterSource`](crate::CounterSource)
//! for that section; a set whose section depends on the instance, or that
//! sits beside gauges, leaves `in` out and its owner calls `export`.

/// Declare a counter set and its snapshot type; see the
/// [module docs](mod@crate::counters).
#[macro_export]
macro_rules! counters {
    (
        $(#[$set_meta:meta])*
        $set_vis:vis struct $set:ident $(in $section:literal)? {
            $( $(#[$field_meta:meta])* $field:ident ),* $(,)?
        }
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
    ) => {
        $(#[$set_meta])*
        #[derive(Debug, Default)]
        $set_vis struct $set {
            $( $(#[$field_meta])* $field: ::std::sync::atomic::AtomicU64, )*
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        #[allow(dead_code)]
        impl $set {
            /// A zeroed counter set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Every counter's current value (relaxed loads: exact per
            /// counter, not an atomic cut across them).
            pub fn snapshot(&self) -> $snap {
                use ::std::sync::atomic::Ordering::Relaxed;
                $snap { $( $field: self.$field.load(Relaxed), )* }
            }

            /// Emit every counter under its field name.
            pub fn export(&self, emit: &mut dyn FnMut(&str, i64)) {
                let snapshot = self.snapshot();
                $( emit(stringify!($field), snapshot.$field as i64); )*
            }
        }

        #[allow(dead_code)]
        impl $snap {
            /// Counter-wise difference `self - earlier` (saturating), for
            /// measuring a window of execution.
            pub fn delta_since(&self, earlier: &$snap) -> $snap {
                $snap { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }
        }

        $(impl $crate::CounterSource for $set {
            fn section(&self) -> String {
                $section.to_string()
            }

            fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
                self.export(emit)
            }
        })?
    };
}
