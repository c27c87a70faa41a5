//! The one-import facade: everything a typical CluDistream program
//! touches, re-exported under a single path.
//!
//! Covers the four workflows end to end — *simulate* a star
//! ([`Simulation`], [`Transport`], [`WindowSpec`]), *run it for real*
//! over sockets ([`TcpTransport`], [`CoordinatorRun`], [`SiteRun`]),
//! *serve* the model read-side ([`SnapshotHandle`], [`ModelSnapshot`],
//! [`score`]), and *observe* all of it ([`Obs`], [`Registry`]):
//!
//! ```no_run
//! use cludistream::prelude::*;
//! use std::sync::Arc;
//!
//! # let streams = Vec::new();
//! let serving = Arc::new(SnapshotHandle::new());
//! let _report = Simulation::star(2)
//!     .with_streams(streams)
//!     .with_updates_per_site(5_000)
//!     .with_snapshots(Arc::clone(&serving))
//!     .run()?;
//! if let Some(snapshot) = serving.load() {
//!     let batch = Batch::from_records(&[Vector::from_slice(&[0.5])]);
//!     let scores = score(&snapshot.mixture, &batch, 1)?;
//!     println!("record 0 -> component {}", scores.labels()[0]);
//! }
//! # Ok::<(), cludistream::CludiError>(())
//! ```

pub use crate::config::Config;
pub use crate::coordinator::{Coordinator, CoordinatorConfig};
pub use crate::driver::{DeliveryMode, DriverConfig, RecordStream, Simulation, StarReport};
pub use crate::error::CludiError;
pub use crate::remote::RemoteSite;
pub use crate::runtime::{
    run_site, serve, CoordinatorRun, CoordinatorRunBuilder, HealthAlert, SiteRun, SiteRunBuilder,
    SocketConfig, TcpTransport,
};
pub use crate::serving::{
    score_snapshot, ModelSnapshot, SnapshotGroup, SnapshotHandle, SnapshotMember, SnapshotMembers,
};
pub use crate::transport::{RunRecipe, SimnetTransport, Transport};
pub use crate::windows::WindowSpec;
pub use cludistream_gmm::{
    score, score_record, Batch, CovarianceType, Gaussian, Mixture, Scores,
};
pub use cludistream_linalg::Vector;
pub use cludistream_obs::{AlertKind, AlertRule, AlertSet, Obs, Registry};
