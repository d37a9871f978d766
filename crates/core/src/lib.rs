//! `ys-core` — the paper's system: YottaYotta-style *NetStorage*, a storage
//! machine built as a distributed-memory parallel computer of controller
//! blades, reproduced over deterministic simulated hardware.
//!
//! * [`config`] — cluster configuration and the era cost model;
//! * [`cluster`] — [`BladeCluster`]: the single-site machine (§2, §3, §6).
//!   `cluster/mod.rs` is the data path — load balancing, per-tenant QoS
//!   admission via `ys-qos` (`read_as`/`write_as`), pooled coherent cache,
//!   N-way write-back replication, DMSD mapping, readahead, RAID destage,
//!   and `charge_io_plan`, the one function that charges disk I/O. Its
//!   other concerns are their own impl modules: `cluster/volumes.rs`
//!   (volume lifecycle, snapshots, migration, charge-back),
//!   `cluster/integrity.rs` (keys, media tags, corruption injection, scrub
//!   verify/repair) and `cluster/lifecycle.rs` (blade and disk failure,
//!   drain, revive, heal, health);
//! * [`fastpath`] — the Figure 1 high-speed striped stream engine (§2.3, §8);
//! * [`rebuild`] — distributed, fault-tolerant RAID rebuild (§2.4, §6.3);
//! * [`services`] — load-balanced PIT-copy/backup services (§2.4);
//! * [`legacy`] — the traditional dual-controller baseline array the paper
//!   argues against;
//! * [`netstorage`] — [`NetStorage`]: multiple sites as one data image,
//!   policy-driven geographic replication, migration, disaster recovery (§7).

pub mod admin;
pub mod cluster;
pub mod config;
pub mod fastpath;
pub mod frontend;
pub mod legacy;
pub mod netstorage;
pub mod rebuild;
pub mod services;

pub use admin::{AdminError, AdminOp, AdminOutcome, ManagementPlane};
pub use cluster::{BladeCluster, ClusterError, ClusterStats, Completion, PageVerify, RaidGroup, ReadMismatch};
pub use config::{ClusterConfig, CostModel, EncryptionConfig, LoadBalance};
pub use fastpath::{deliver_stream, deliver_stream_traced, FastPathConfig, StreamResult};
pub use frontend::{BlockReply, BlockTarget, FileReply, FileServer, TargetStats};
pub use legacy::{LegacyArray, LegacyConfig, LegacyMode, LegacyStats};
pub use netstorage::{DisasterReport, GeoStats, NetError, NetStorage, NetStorageConfig, SiteReport, SystemReport};
pub use rebuild::Rebuilder;
pub use services::{run_service, ServiceJob, ServiceResult};
