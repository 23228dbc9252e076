//! Sweep-as-a-service: a long-lived loopback gateway over the experiment
//! sweep engine, with a content-addressed result cache.
//!
//! The figure binaries rerun every sweep cell from scratch on each
//! invocation, even though a cell's [`bc_system::RunReport`] is a pure
//! function of its configuration — the determinism suite proves that
//! `--jobs` never changes a report byte. This crate turns
//! that purity into a service:
//!
//! * [`gateway`] — accepts sweep/cell jobs as JSON over loopback HTTP,
//!   schedules them onto a worker pool, streams per-cell progress, and
//!   supports cancellation;
//! * [`Cas`] — the result store ([`bc_experiments::cas`], shared with
//!   the figure binaries' `--cache-dir`) memoizes every completed cell
//!   under `sha256(canonical_config ⊕ code revision)`, so resubmitting a
//!   sweep serves stored bytes instead of re-simulating;
//! * [`http`] / [`client`] — the minimal HTTP/1.1 dialect both ends
//!   speak, `TcpListener`/`TcpStream` only.
//!
//! Canonical config/report encoding lives in [`bc_experiments::schema`];
//! this crate only hashes and transports those bytes. The `bc-serve`
//! binary wires it together (`--addr`, `--cache-dir`, `--jobs`, and a
//! `--smoke` self-check used by CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod gateway;
pub mod http;

pub use bc_experiments::cas::{Cas, CasStats};
pub use gateway::{Gateway, JobState, Runner};
pub use http::{Request, Response, Server};
