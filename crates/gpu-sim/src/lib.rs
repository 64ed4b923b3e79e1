//! A software SIMT device model: the GPU substrate of Paresy-rs.
//!
//! The paper's fast implementation targets an Nvidia A100 with CUDA and the
//! WarpCore hash set. Neither a GPU nor mature Rust GPU tooling is
//! available in this reproduction, so this crate provides the closest
//! software equivalent that exercises the same algorithmic structure:
//!
//! * [`Device`] — a "device" with a fixed number of hardware threads that
//!   executes *kernels*: data-parallel loops over an index space, launched
//!   in grid/block style and executed by scoped OS threads spawned per
//!   launch (crossbeam-scoped). Kernels must be free of data-dependent branching
//!   across items in the same way CUDA kernels are — each item writes only
//!   to its own chunk of the output buffer.
//! * [`hashset`] — a WarpCore-style concurrent hash set used for the
//!   global uniqueness check: a lock-free open-addressing table for
//!   single-word keys and a sharded exact table for multi-word keys.
//! * [`DeviceStats`] — counters (kernel launches, items executed,
//!   hash-set insertions) that the benchmark harness reports.
//!
//! # Example
//!
//! ```
//! use gpu_sim::Device;
//!
//! let device = Device::with_threads(4);
//! let mut out = vec![0u64; 1024];
//! // One "thread" per output element: a trivially data-parallel kernel.
//! device.launch_chunks("square", &mut out, 1, |i, chunk| {
//!     chunk[0] = (i as u64) * (i as u64);
//! });
//! assert_eq!(out[10], 100);
//! assert_eq!(device.stats().kernel_launches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod hashset;
mod stats;

pub use device::{Device, DeviceConfig};
pub use stats::DeviceStats;
