//! Seeded end-to-end and per-layer benchmark of the HRIS serving stack.
//!
//! Four workloads separate the layers: `city` (local inference dominates),
//! `metro` (reference search and the reference→segment index dominate, the
//! archive overflowing the network's projection memo), `city-sharded` (the
//! `city` inputs through the scatter-gather router) and `live` (a paced
//! writer publishing sliding-window epochs under a querying client). See
//! `README.md` beside this crate for the metrics and what each should move.

pub mod bench;
pub mod heap;
pub mod inputs;
pub mod live;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;
