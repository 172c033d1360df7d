//! # camj-serve — the CamJ request executor and estimation daemon
//!
//! One executor answers every request, wherever it comes from:
//! [`handler::execute`] turns a [`Request`] plus a design source into
//! a typed [`Outcome`]. The `camj` CLI runs it in-process against a
//! fresh estimate cache; `camj serve` keeps it behind a long-lived
//! daemon whose requests all share one warm, content-addressed
//! [`EstimateCache`](camj_core::energy::EstimateCache), so a repeated
//! design point costs a cache lookup instead of a rebuild.
//!
//! The pieces, bottom-up:
//!
//! * [`protocol`] — newline-delimited JSON frames: [`Request`] in,
//!   `point`/`result`/`error`/`done` [`Frame`]s out, all id-tagged,
//!   with path-qualified rejection of malformed lines (never a
//!   disconnect, never a panic);
//! * [`tier`] — the on-disk cache tier under `--cache-dir`:
//!   content-addressed, version-stamped, digest-verified entries,
//!   written through on every compute (`fsync` + atomic rename), so
//!   warm starts survive daemon restarts and corruption degrades to a
//!   recompute, never a wrong answer;
//! * [`handler`] — the shared executor (design loading, target,
//!   objective, constraint and search-knob resolution, every request
//!   kind), plus the daemon's request dedup: identical in-flight
//!   requests join one computation slot and completed responses replay
//!   from memory;
//! * [`server`] — blocking I/O: a thread-per-connection accept loop
//!   (TCP, or `--stdio` for tests/CI) feeding a bounded job queue with
//!   backpressure into a fixed worker pool, each job wrapped in
//!   `catch_unwind` so a panicking request answers with an `error`
//!   frame while the daemon stays up;
//! * [`client`] — the `camj --connect` side: one request, collect
//!   frames until `done`.
//!
//! Observability rides the `obs_core` facade: `serve.request` spans,
//! `serve.accept` counters/spans, `serve.queue_wait` backpressure
//! spans, `serve.dedup.hit` counters, and the estimate cache's
//! `cache.tier.*` hit/miss/store counters, all visible through the
//! daemon-level `--trace`/`--metrics` flags.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod handler;
pub mod protocol;
pub mod server;
pub mod tier;

pub use client::roundtrip;
pub use handler::{execute, Answer, Design, Outcome, SharedState};
pub use protocol::{Frame, FrameKind, Request, RequestKind};
pub use server::{serve_stdio, serve_tcp, ServeConfig};
pub use tier::{DiskTier, TierStats};
