//! `ys-simnet` — network substrate: links, switched fabrics, shared buses,
//! and the era link-rate catalog.
//!
//! The paper's performance claims (Figure 1 striping, §2 scalability, §7
//! geographic access) are all statements about *which serialization resource
//! a transfer waits on*. This crate provides exactly those resources as
//! passive queueing models:
//!
//! * [`link::Link`] — FIFO serialization + propagation;
//! * [`fabric::Fabric`] — non-blocking crossbar, contention at ports;
//! * [`fabric::SharedBus`] — a single shared serialization point (PCI-X);
//! * [`catalog`] — FC 1/2 Gb/s, GbE, 10 GbE, PCI-X, OC-48/192/768, WAN.
//!
//! Orchestration (who sends what when) lives in `ys-core`; these models just
//! answer "when does it arrive".

pub mod catalog;
pub mod fabric;
pub mod link;

pub use fabric::{Fabric, PortId, SharedBus};
pub use link::{DuplexLink, Link, LinkSpec, Transfer};
