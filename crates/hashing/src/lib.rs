//! Hash families used throughout the WM-Sketch reproduction.
//!
//! The paper's sketches need, per sketch row `j`, a pair of hash functions
//! `h_j : [d] -> [width]` (bucket assignment) and `σ_j : [d] -> {-1, +1}`
//! (random sign). The theoretical analysis assumes `Θ(log(d/δ))`-wise
//! independence, but the authors' implementation — and ours, by default —
//! uses fast 3-wise-independent **tabulation hashing** (paper, Appendix B).
//! For theory-faithful experiments we also provide a genuinely k-wise
//! independent **polynomial hash family** over the Mersenne prime `2^61 - 1`
//! (Carter–Wegman construction).
//!
//! String features (e.g. token bigrams in the streaming-PMI application,
//! §8.3 of the paper) are first reduced to 32-bit identifiers with
//! **MurmurHash3 (x86_32)**, exactly as the reference implementation does.
//!
//! Everything here is deterministic given a seed, which keeps every
//! experiment in this repository reproducible.
//!
//! # Plan walks
//!
//! The update hot paths (margin gathers, gradient scatters, median-buffer
//! fills) are plain scalar loops over a [`CoordPlan`]'s cached
//! coordinates, run in row order with one multiply and one add per cell
//! (never an FMA), so every plan walk is bit-identical to the naive
//! per-row traversal it replaces. Sketches whose depth is 1 additionally
//! skip the median machinery entirely (a 1-row "median" is just
//! `sign · cell`); that fast path lives with the consumers in
//! `wmsketch-sketch` and `wmsketch-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fastmap;
pub mod mix;
pub mod murmur3;
pub mod poly;
pub mod row_hasher;
pub mod tabulation;

pub use codec::{CodecError, Reader, SnapshotCodec, Writer};
pub use fastmap::{FastBuildHasher, FastHashMap, FastHashSet};
pub use mix::{fast_range, splitmix64, SplitMix64};
pub use murmur3::murmur3_32;
pub use poly::PolyHash;
pub use row_hasher::{BucketSign, CoordPlan, HashFamilyKind, RowHasher, RowHashers};
pub use tabulation::TabulationHash;
