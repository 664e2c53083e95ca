//! Linear sketch substrates: Count-Sketch and Count-Min.
//!
//! The WM-Sketch (paper §5.1) *is* a Count-Sketch whose cells hold gradient
//! accumulations instead of counts, so the Count-Sketch here is the core
//! data structure of the whole reproduction. The Count-Min sketch backs two
//! baselines: the Count-Min frequent-features classifier (§7.2) and the
//! paired-Count-Min relative-deltoid detector the paper compares against in
//! Figure 10 (§8.2).
//!
//! Both sketches are *linear*: `sketch(a·x + b·y) = a·sketch(x) + b·sketch(y)`,
//! which is what lets gradient updates be applied directly in sketch space.

#![warn(missing_docs)]

pub mod countmin;
pub mod countsketch;
pub mod median;

pub use countmin::{CountMinSketch, CountMinUpdate};
pub use countsketch::CountSketch;
pub use median::{
    median_abs_exceeds, median_inplace, median_network_inplace, median_select_inplace,
    signed_median_estimate, NETWORK_MAX_DEPTH,
};
pub use wmsketch_hashing::codec::{self, CodecError, SnapshotCodec};
