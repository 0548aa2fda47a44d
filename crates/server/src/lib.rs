//! # tdals-server
//!
//! The multi-tenant serving layer: many concurrent approximation flows
//! over one shared, capacity-bounded worker pool.
//!
//! The library crates end at a single [`Flow`](tdals_core::api::Flow)
//! session; this crate turns that into a service. A [`Scheduler`] owns
//! a total thread budget (a [`SlotPool`](tdals_core::par::SlotPool))
//! and admits [`FlowJob`]s into a priority-aware FIFO queue; each job
//! becomes an isolated session that leases a fair share of the pool,
//! runs its flow at exactly that width, and streams
//! [`FlowEvent`](tdals_core::api::FlowEvent)s through its
//! [`SessionHandle`]. Because every optimizer is bit-identical at any
//! thread count, scheduling decisions can never change a tenant's
//! result — the property `tdals serve-batch` turns into byte-identical
//! results files at any `--total-threads`.
//!
//! # Example
//!
//! ```
//! use tdals_circuits::Benchmark;
//! use tdals_server::{FlowJob, Scheduler, SchedulerConfig};
//!
//! let scheduler = Scheduler::new(SchedulerConfig::new(2)).expect("non-zero budget");
//! let job = FlowJob::benchmark(Benchmark::Int2float)
//!     .with_bound(0.05)
//!     .with_scale(6, 2)
//!     .with_vectors(256);
//! let solo = job.run_direct(1).expect("valid job");
//! let session = scheduler.submit(job).expect("admitted");
//! let outcome = session.result().expect("completed");
//! scheduler.drain();
//! assert_eq!(outcome.netlist, solo.netlist); // co-tenancy changes nothing
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod job;
pub mod protocol;
pub mod scheduler;

pub use client::{roundtrip, run_jobs, ClientError};
pub use daemon::{connect, connect_retry, ConnectError, Daemon, DaemonConfig, Listener, Stream};
pub use job::{
    check_bound, parse_worker_count, results_document, results_document_from_records,
    session_record, session_record_fields, FlowJob, JobBudget, JobSource, Manifest, ManifestError,
    MAX_POPULATION, MAX_VECTORS,
};
pub use protocol::{
    as_error, error_frame, event_from_json, event_to_json, read_frame, write_frame, Connection,
    ErrorCode, FrameError, Request, DEFAULT_MAX_FRAME_LEN, PROTOCOL_SCHEMA,
};
pub use scheduler::{
    Scheduler, SchedulerConfig, ServerError, SessionError, SessionHandle, SessionStatus,
};
