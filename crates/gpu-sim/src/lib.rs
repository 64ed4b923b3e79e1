//! A software SIMT device model: the GPU substrate of Paresy-rs.
//!
//! The paper's fast implementation targets an Nvidia A100 with CUDA and the
//! WarpCore hash set. Neither a GPU nor mature Rust GPU tooling is
//! available in this reproduction, so this crate provides the closest
//! software equivalent that exercises the same algorithmic structure:
//!
//! * [`Device`] — a "device" with a fixed number of hardware threads that
//!   executes *kernels*: data-parallel loops over the rows of an output
//!   matrix, launched in grid/block style and executed by scoped OS
//!   threads spawned per launch ([`for_each_span`]). One kernel item is a
//!   *warp* of [`WARP_LANES`] consecutive rows that run in lock-step, so a
//!   kernel can bit-slice the warp into the 64 lanes of a `u64`. Kernels
//!   must be free of data-dependent branching across rows in the same way
//!   CUDA kernels are, and each item writes only to its own warp of the
//!   output buffer. Thread blocks ([`DeviceConfig::block_size`]) and the
//!   item counter are in rows.
//! * [`for_each_span`] — the span executor under every parallel loop of
//!   the workspace: it cuts a buffer into fixed-size spans and runs them
//!   inline or on scoped threads that claim spans in ascending order.
//! * [`hashset`] — a WarpCore-style concurrent hash set used for the
//!   global uniqueness check: a lock-free open-addressing table for
//!   single-word keys and a sharded exact table for multi-word keys.
//! * [`DeviceStats`] — counters (kernel launches, rows executed,
//!   hash-set insertions) that the benchmark harness reports.
//!
//! # Example
//!
//! ```
//! use gpu_sim::Device;
//!
//! let device = Device::with_threads(4);
//! let mut out = vec![0u64; 1024];
//! // One row per output element, 16 warps of 64 rows each: a trivially
//! // data-parallel kernel.
//! device.launch_chunks("square", &mut out, 1, 1024, |base, warp| {
//!     for (lane, x) in warp.iter_mut().enumerate() {
//!         let i = (base + lane) as u64;
//!         *x = i * i;
//!     }
//! });
//! assert_eq!(out[10], 100);
//! assert_eq!(device.stats().kernel_launches, 1);
//! assert_eq!(device.stats().items_executed, 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod hashset;
mod stats;

pub use device::{for_each_span, Device, DeviceConfig, WARP_LANES};
pub use stats::DeviceStats;
