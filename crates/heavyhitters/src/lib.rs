//! Heavy-hitter and top-K substrates.
//!
//! The paper's baselines and the AWM-Sketch's *active set* all need
//! efficiently-updatable ordered summaries:
//!
//! * [`IndexedHeap`] — a binary min-heap over dense, stable entry slots
//!   supporting `O(log n)` change-key and remove-by-key. Heap order is
//!   kept over `u32` slot ids with a dense slot → position array, and the
//!   one key → slot hash map is touched only on insert and remove, so a
//!   caller holding a slot reprioritizes an entry with no hashing. The
//!   workhorse under everything else here.
//! * [`TopKWeights`] — "the heap" of Algorithms 2–4: the top-K features by
//!   absolute weight, with exact stored weights kept beside their heap
//!   slots; one lookup per feature ([`TopKWeights::find`]), then reads
//!   and writes by slot.
//! * [`SpaceSaving`] — the Metwally et al. Space-Saving algorithm backing
//!   the paper's "SS" frequent-features baseline and the MacroBase-style
//!   heavy-hitters explanation baseline (Fig. 8).

#![warn(missing_docs)]

pub mod indexed_heap;
pub mod spacesaving;
pub mod topk;

pub use indexed_heap::IndexedHeap;
pub use spacesaving::{SpaceSaving, SsEntry};
pub use topk::{Offer, TopKWeights, WeightEntry};
