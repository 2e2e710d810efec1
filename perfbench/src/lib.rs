//! Served-campaign benchmark for `dream serve`.
//!
//! One run boots the campaign service in-process (`Server::bind` +
//! `spawn`, fresh store), drives one workload from a single client
//! process, checks every delivered row against the scalar serial oracle,
//! and prints its metrics. A traced run (`--trace 1`) additionally times
//! calls into each layer's public functions from outside the program.
//!
//! * [`workload`] — the four workloads, their specs and seeds;
//! * [`topology`] — in-process server topologies;
//! * [`client`] — single-attempt fetches with host-time stamps;
//! * [`digest`] — the row-correctness gate and the oracle;
//! * [`run`] — one run: set-up, warm-up, timed rounds, replay phase;
//! * [`layers`] — the traced run's per-layer measurements;
//! * [`probe`] — the phase probe;
//! * [`stats`] — medians and tail percentiles.

pub mod client;
pub mod digest;
pub mod layers;
pub mod probe;
pub mod run;
pub mod stats;
pub mod topology;
pub mod workload;
