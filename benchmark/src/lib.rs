//! Whole-system benchmark of the Céu reproduction: compile, react, serve
//! and world workloads, driven from outside through each layer's public
//! API, with end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` in this directory.

mod alloc;
pub mod compare;
pub mod gen;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
