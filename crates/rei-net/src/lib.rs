//! The TCP JSONL serving front-end of the synthesis service.
//!
//! `rei-service` shards, caches and survives restarts, but on its own it
//! has no transport. This crate puts a network listener in front of a
//! [`ShardRouter`](rei_service::ShardRouter):
//!
//! ```text
//!  clients ── TCP ──► accept loop ──► bounded handler pool
//!                                          │  one thread per live
//!                                          ▼  connection
//!  stdin (paresy serve) ──────────► serve_connection: one loop
//!                                  per connection, woken by input
//!                                  lines and completed jobs (JSONL
//!                                  in, JSONL out; ordered or
//!                                  streaming answers; control verbs
//!                                  ping/hello/metrics/trace/
//!                                  prometheus/mode/session.open/
//!                                  session.close/shutdown; refine
//!                                  requests)
//!                                          │
//!                                          ▼
//!                                  FairShare admission
//!                                  (per-tenant token buckets,
//!                                   in-flight caps, weighted DRR
//!                                   lanes; over-limit → explicit
//!                                   "rejected": rate_limited)
//!                                          │
//!                                          ▼
//!                                  ShardRouter (consistent-hash
//!                                  ring over the pools)
//! ```
//!
//! Everything is threads, mutexes and condvars — no async runtime, like
//! the rest of the workspace. The [`protocol`] module holds the wire
//! format; [`serve_connection`] is the connection loop that TCP and the
//! CLI's stdin serve mode share; [`NetServer`] is the listener;
//! [`install_shutdown_signals`] turns Ctrl-C and an
//! orchestrator's SIGTERM into the same graceful drain the `shutdown`
//! control verb performs.
//!
//! # Example
//!
//! ```
//! use rei_net::{NetConfig, NetServer};
//! use rei_service::{RouterConfig, ServiceConfig, ShardRouter};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let router = ShardRouter::start(RouterConfig::identical(2, ServiceConfig::new(1))).unwrap();
//! let server = NetServer::bind(NetConfig::new("127.0.0.1:0"), router).unwrap();
//! let addr = server.local_addr();
//! let serving = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = std::net::TcpStream::connect(addr).unwrap();
//! client
//!     .write_all(b"{\"id\": \"a\", \"pos\": [\"0\", \"00\"], \"neg\": [\"1\"]}\n{\"op\": \"shutdown\"}\n")
//!     .unwrap();
//! // Every line is answered in input order: the answer, then the
//! // shutdown ack.
//! let lines: Vec<String> = BufReader::new(client).lines().map(|l| l.unwrap()).collect();
//! assert!(lines[0].contains("\"status\":\"solved\""), "{lines:?}");
//! assert!(lines[1].contains("\"op\":\"shutdown\""), "{lines:?}");
//! let snapshot = serving.join().unwrap();
//! assert_eq!(snapshot.admission.admitted, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
mod server;
mod signal;

pub use server::{serve_connection, NetConfig, NetServer};
pub use signal::{install_shutdown_signals, shutdown_tripped};
