//! The session scheduler: N concurrent [`FlowJob`]s over one shared,
//! capacity-bounded worker pool.
//!
//! # Architecture
//!
//! The scheduler owns a [`SlotPool`] sized to its total thread budget.
//! Every submitted job becomes a *session* on its own OS thread; the
//! session first leases 1..=cap slots from the pool (queueing in
//! priority-then-FIFO order — the pool grants only the head of the
//! line, so nothing starves), then runs its flow at exactly
//! `lease.width()` worker threads, then returns the slots. Because
//! every optimizer produces a bit-identical [`FlowOutcome`] at any
//! thread count,
//! lease widths are purely a throughput decision: co-tenancy can never
//! leak into a session's result.
//!
//! # Isolation
//!
//! Sessions share nothing but the slot budget. A session that panics is
//! caught on its own thread (the lease returns by drop, the failure is
//! reported as a typed [`SessionError::Panicked`]); a cancelled or
//! deadline-expired session stops within one optimizer iteration and
//! frees its slots; none of it perturbs a co-tenant's outcome — the
//! determinism suite in `tests/server.rs` holds digests bit-identical
//! to solo runs under exactly these mixes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use tdals_core::api::{CancelFlag, FlowError, FlowEvent, FlowOutcome, Observer};
use tdals_core::par::SlotPool;

use crate::job::FlowJob;

/// Typed admission/configuration errors of the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerError {
    /// The scheduler was configured with a zero total thread budget.
    NoWorkers,
    /// The per-session slot cap is zero: no session could ever run.
    ZeroSessionCap,
    /// A job requested zero worker threads.
    ZeroThreads {
        /// Name of the rejected job.
        job: String,
    },
    /// A job asked for more of a knob that sizes memory than a session
    /// may allocate: `population` above
    /// [`MAX_POPULATION`](crate::MAX_POPULATION) or `vectors` above
    /// [`MAX_VECTORS`](crate::MAX_VECTORS).
    AboveLimit {
        /// Name of the rejected job.
        job: String,
        /// The knob, as spelled in manifests and wire frames.
        knob: &'static str,
        /// What the job asked for.
        requested: usize,
        /// The largest accepted value.
        limit: usize,
    },
    /// A job requested more per-session threads than any lease can
    /// grant (the per-session cap bounded by the pool total).
    ThreadsExceedLease {
        /// Name of the rejected job.
        job: String,
        /// Threads the job asked for.
        requested: usize,
        /// Largest lease the scheduler will ever grant one session.
        lease_cap: usize,
    },
    /// The OS refused to spawn the session thread.
    Spawn {
        /// The underlying error.
        error: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::NoWorkers => {
                f.write_str("scheduler has a zero thread budget; configure 1 or more")
            }
            ServerError::ZeroSessionCap => {
                f.write_str("per-session slot cap is zero; no session could run")
            }
            ServerError::ZeroThreads { job } => {
                write!(f, "job `{job}`: 0 worker threads cannot evaluate anything")
            }
            ServerError::AboveLimit {
                job,
                knob,
                requested,
                limit,
            } => write!(
                f,
                "job `{job}`: {knob} {requested} is above the limit of {limit}"
            ),
            ServerError::ThreadsExceedLease {
                job,
                requested,
                lease_cap,
            } => write!(
                f,
                "job `{job}`: requested {requested} thread(s) but the lease cap is {lease_cap}"
            ),
            ServerError::Spawn { error } => write!(f, "spawning session thread: {error}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Why a session produced no [`FlowOutcome`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionError {
    /// The flow rejected the job's configuration.
    Flow(FlowError),
    /// The session panicked; the panic was contained on the session's
    /// own thread and its slots were returned.
    Panicked(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Flow(e) => write!(f, "flow error: {e}"),
            SessionError::Panicked(message) => write!(f, "session panicked: {message}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Flow(e) => Some(e),
            SessionError::Panicked(_) => None,
        }
    }
}

/// A session's lifecycle phase, as reported by
/// [`SessionHandle::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionStatus {
    /// Waiting in line for a slot lease.
    Queued,
    /// Holding a lease and running its flow.
    Running {
        /// Worker threads the session's lease granted — `0` for the
        /// unleased wind-down of a cancelled-while-queued session, so
        /// summing `Running` widths never exceeds the pool budget.
        threads: usize,
    },
    /// Finished with a [`FlowOutcome`].
    Completed,
    /// Finished with a typed [`FlowError`].
    Failed,
    /// The session panicked (contained; see [`SessionError::Panicked`]).
    Panicked,
}

/// Scheduler configuration: the shared pool budget and the per-session
/// lease cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// Total worker slots shared by every session.
    pub total_threads: usize,
    /// Most slots one session may lease; `None` means the whole pool
    /// (a lone session uses every core; co-tenants split evenly).
    pub session_cap: Option<usize>,
}

impl SchedulerConfig {
    /// A scheduler over `total_threads` shared worker slots.
    pub fn new(total_threads: usize) -> SchedulerConfig {
        SchedulerConfig {
            total_threads,
            session_cap: None,
        }
    }

    /// Caps how many slots one session may lease.
    pub fn with_session_cap(mut self, cap: usize) -> SchedulerConfig {
        self.session_cap = Some(cap);
        self
    }
}

enum SessionState {
    Queued,
    Running {
        threads: usize,
        admitted: Option<usize>,
    },
    Done {
        // Boxed: a FlowOutcome carries whole netlists, and the other
        // variants are a few words.
        result: Box<Result<FlowOutcome, SessionError>>,
        admitted: Option<usize>,
    },
}

struct SessionShared {
    name: String,
    cancel: CancelFlag,
    events: Mutex<Vec<FlowEvent>>,
    state: Mutex<SessionState>,
    cv: Condvar,
}

impl SessionShared {
    fn state(&self) -> std::sync::MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One tenant's view of its submitted session: `status` / `poll_events`
/// / `cancel` / `result`, fully isolated from every co-tenant. Cloning
/// yields another handle to the same session (the daemon clones one per
/// blocked waiter); clones share the one event buffer, so each event is
/// delivered to exactly one [`SessionHandle::poll_events`] caller.
#[derive(Clone)]
pub struct SessionHandle {
    shared: Arc<SessionShared>,
    index: usize,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("name", &self.shared.name)
            .field("index", &self.index)
            .field("status", &self.status())
            .finish()
    }
}

impl SessionHandle {
    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Submission index within this scheduler (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current lifecycle phase.
    pub fn status(&self) -> SessionStatus {
        match &*self.shared.state() {
            SessionState::Queued => SessionStatus::Queued,
            SessionState::Running { threads, .. } => SessionStatus::Running { threads: *threads },
            SessionState::Done { result, .. } => match &**result {
                Ok(_) => SessionStatus::Completed,
                Err(SessionError::Flow(_)) => SessionStatus::Failed,
                Err(SessionError::Panicked(_)) => SessionStatus::Panicked,
            },
        }
    }

    /// Order in which this session was granted its lease, if it has
    /// been admitted yet: the observable face of the priority-then-FIFO
    /// queue.
    pub fn admission_index(&self) -> Option<usize> {
        match &*self.shared.state() {
            SessionState::Queued => None,
            SessionState::Running { admitted, .. } => *admitted,
            SessionState::Done { admitted, .. } => *admitted,
        }
    }

    /// Requests cooperative cancellation: a running session stops
    /// within one optimizer iteration, and a *queued* session abandons
    /// its place in line promptly (it never waits for a co-tenant to
    /// free a slot) and winds down unleased — either way the session
    /// still reports a feasible best with
    /// [`StopReason::Cancelled`](tdals_core::api::StopReason::Cancelled).
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// Drains the [`FlowEvent`]s emitted since the last poll, in
    /// emission order. The session's stream is monotone and ends with
    /// the same terminal events a solo flow emits.
    ///
    /// Events buffer until polled, so a long-lived caller that never
    /// polls pays memory proportional to the session's iteration
    /// count; poll periodically (or once after [`SessionHandle::result`])
    /// to keep it flat.
    pub fn poll_events(&self) -> Vec<FlowEvent> {
        std::mem::take(
            &mut *self
                .shared
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// The session's result if it has finished.
    pub fn try_result(&self) -> Option<Result<FlowOutcome, SessionError>> {
        match &*self.shared.state() {
            SessionState::Done { result, .. } => Some((**result).clone()),
            _ => None,
        }
    }

    /// Blocks until the session finishes and returns its result.
    pub fn result(&self) -> Result<FlowOutcome, SessionError> {
        let mut state = self.shared.state();
        loop {
            if let SessionState::Done { result, .. } = &*state {
                return (**result).clone();
            }
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct SchedCounters {
    active: usize,
}

struct SchedShared {
    counters: Mutex<SchedCounters>,
    cv: Condvar,
    /// Serializes the unleased wind-downs of cancelled-while-queued
    /// sessions: each still runs its (immediately-stopping) flow to
    /// produce the contract outcome, and holding this lock caps that
    /// off-budget work at one thread, however many tenants cancel.
    winddown: Mutex<()>,
}

/// The multi-tenant session scheduler (see the module docs). Cloning
/// yields another handle to the same scheduler.
#[derive(Clone)]
pub struct Scheduler {
    pool: SlotPool,
    lease_cap: usize,
    shared: Arc<SchedShared>,
    next_index: Arc<Mutex<usize>>,
}

impl Scheduler {
    /// Builds a scheduler from `config`.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoWorkers`] for a zero thread budget,
    /// [`ServerError::ZeroSessionCap`] for a zero per-session cap.
    pub fn new(config: SchedulerConfig) -> Result<Scheduler, ServerError> {
        if config.total_threads == 0 {
            return Err(ServerError::NoWorkers);
        }
        let session_cap = config.session_cap.unwrap_or(config.total_threads);
        if session_cap == 0 {
            return Err(ServerError::ZeroSessionCap);
        }
        Ok(Scheduler {
            pool: SlotPool::new(config.total_threads),
            lease_cap: session_cap.min(config.total_threads),
            shared: Arc::new(SchedShared {
                counters: Mutex::new(SchedCounters { active: 0 }),
                cv: Condvar::new(),
                winddown: Mutex::new(()),
            }),
            next_index: Arc::new(Mutex::new(0)),
        })
    }

    /// Total worker slots the scheduler shares across sessions.
    pub fn total_threads(&self) -> usize {
        self.pool.total()
    }

    /// Slots not currently leased to any session.
    pub fn available_threads(&self) -> usize {
        self.pool.available()
    }

    /// Largest lease one session can ever be granted.
    pub fn lease_cap(&self) -> usize {
        self.lease_cap
    }

    /// Sessions currently waiting in line for a lease.
    pub fn waiting_sessions(&self) -> usize {
        self.pool.waiting()
    }

    /// Sessions submitted but not yet finished (queued or running).
    pub fn active_sessions(&self) -> usize {
        self.shared
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .active
    }

    /// Checks a job against this scheduler's admission rules without
    /// submitting it.
    ///
    /// # Errors
    ///
    /// The same typed [`ServerError`]s [`Scheduler::submit`] reports.
    pub fn validate(&self, job: &FlowJob) -> Result<(), ServerError> {
        job.validate()?;
        match job.threads {
            Some(0) => Err(ServerError::ZeroThreads {
                job: job.name.clone(),
            }),
            Some(n) if n > self.lease_cap => Err(ServerError::ThreadsExceedLease {
                job: job.name.clone(),
                requested: n,
                lease_cap: self.lease_cap,
            }),
            _ => Ok(()),
        }
    }

    /// Admits a job: it queues for a slot lease (priority first, FIFO
    /// within a priority) and runs on its own session thread once
    /// granted. Returns immediately with the session's handle.
    ///
    /// # Errors
    ///
    /// [`Scheduler::validate`]'s typed errors, or
    /// [`ServerError::Spawn`] if the OS refuses a thread.
    pub fn submit(&self, job: FlowJob) -> Result<SessionHandle, ServerError> {
        self.submit_inner(job, None)
    }

    /// [`Scheduler::submit`] with an extra observer that receives the
    /// session's events synchronously on the session thread (the
    /// buffered [`SessionHandle::poll_events`] stream is fed either
    /// way). A panicking observer is contained like any other session
    /// panic.
    pub fn submit_observed(
        &self,
        job: FlowJob,
        observer: impl Observer + Send + 'static,
    ) -> Result<SessionHandle, ServerError> {
        self.submit_inner(job, Some(Box::new(observer)))
    }

    fn submit_inner(
        &self,
        job: FlowJob,
        extra: Option<Box<dyn Observer + Send>>,
    ) -> Result<SessionHandle, ServerError> {
        self.validate(&job)?;
        let index = {
            let mut next = self
                .next_index
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let i = *next;
            *next += 1;
            i
        };
        let budget = job.budget.to_budget();
        let shared = Arc::new(SessionShared {
            name: job.name.clone(),
            cancel: budget.cancel_flag(),
            events: Mutex::new(Vec::new()),
            state: Mutex::new(SessionState::Queued),
            cv: Condvar::new(),
        });
        {
            let mut counters = self
                .shared
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            counters.active += 1;
        }
        let width_max = job.threads.unwrap_or(self.lease_cap).min(self.lease_cap);
        let pool = self.pool.clone();
        let sched = Arc::clone(&self.shared);
        let session = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("tdals-session-{index}"))
            .spawn(move || {
                // A raised cancel flag withdraws a *queued* session
                // from the lease line promptly; it then winds down
                // unleased at width 1 — the pre-raised flag stops the
                // flow before its first iteration, so the only cost is
                // the context build, and a cancelled tenant never sits
                // blocked behind a long-running co-tenant just to learn
                // it should stop.
                let cancel = session.cancel.clone();
                let lease = pool
                    .lease_or_abort(1, width_max, job.priority, &move || cancel.is_cancelled())
                    .expect("admission validated the lease range");
                // Cancelled while queued: the wind-down run is unleased
                // (it must not wait on co-tenants), so serialize those
                // runs — the off-budget cost is capped at one thread
                // however many tenants cancel at once.
                let winddown = match &lease {
                    Some(_) => None,
                    None => Some(
                        sched
                            .winddown
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner),
                    ),
                };
                let width = lease.as_ref().map_or(1, |l| l.width());
                // Admission order is the pool's grant sequence, stamped
                // under the pool lock — anything assigned after the
                // grant returns would race concurrent grants. A
                // cancelled-while-queued session was never admitted,
                // and its status reports 0 threads: it holds no pool
                // slots, so Running widths always sum within the
                // budget (the wind-down itself runs at width 1).
                let admitted = lease.as_ref().map(|l| l.sequence() as usize);
                *session.state() = SessionState::Running {
                    threads: lease.as_ref().map_or(0, |l| l.width()),
                    admitted,
                };
                let mut obs = SessionObserver {
                    events: &session.events,
                    extra,
                };
                let ran = catch_unwind(AssertUnwindSafe(|| job.run_with(width, budget, &mut obs)));
                drop(obs);
                // Slots return before the result is published, so an
                // observer that sees `Done` can also rely on the pool
                // being drained of this session.
                drop(lease);
                drop(winddown);
                let result = match ran {
                    Ok(Ok(outcome)) => Ok(outcome),
                    Ok(Err(e)) => Err(SessionError::Flow(e)),
                    // `&*payload`, not `&payload`: the latter would
                    // unsize the Box itself into `dyn Any` and every
                    // downcast would miss.
                    Err(payload) => Err(SessionError::Panicked(panic_message(&*payload))),
                };
                *session.state() = SessionState::Done {
                    result: Box::new(result),
                    admitted,
                };
                session.cv.notify_all();
                let mut counters = sched
                    .counters
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                counters.active -= 1;
                sched.cv.notify_all();
            });
        if let Err(e) = spawned {
            let mut counters = self
                .shared
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            counters.active -= 1;
            return Err(ServerError::Spawn {
                error: e.to_string(),
            });
        }
        Ok(SessionHandle { shared, index })
    }

    /// Blocks until every submitted session has finished (the pool is
    /// idle and all slots are back).
    pub fn drain(&self) {
        let mut counters = self
            .shared
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while counters.active > 0 {
            counters = self
                .shared
                .cv
                .wait(counters)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Feeds a session's events into its poll buffer and the optional
/// tenant observer.
struct SessionObserver<'a> {
    events: &'a Mutex<Vec<FlowEvent>>,
    extra: Option<Box<dyn Observer + Send>>,
}

impl Observer for SessionObserver<'_> {
    fn on_event(&mut self, event: &FlowEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
        if let Some(extra) = self.extra.as_mut() {
            extra.on_event(event);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
