//! The worker supervisor: one `tdals serve` daemon per shard, driven
//! over the wire protocol.
//!
//! The daemons come from one of two places ([`Daemons`]): the
//! supervisor spawns one `tdals serve --listen 127.0.0.1:0` child per
//! shard, or it is given the addresses of daemons already running.
//! Either way each shard gets one client thread that runs the shard's
//! sub-manifest through [`run_jobs`] — the very conversation
//! `tdals submit` has — and returns the shard-local results document,
//! ready for [`merge`](crate::merge::merge).
//!
//! A spawned child that dies (before its startup banner, or by breaking
//! its connection before every record arrived) is killed, replaced once,
//! and the whole shard re-driven: safe because results are seed-driven,
//! so the re-run yields the same bytes the first run would have. An
//! error frame is the daemon's considered answer and is never retried,
//! and daemons the supervisor did not spawn are never restarted.
//!
//! Progress frames from every shard are multiplexed through a
//! caller-supplied callback with a `shard` tag. Their order across
//! shards is wall-clock (it is a progress stream on stderr); the
//! results documents do not depend on it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Sender;
use std::thread::JoinHandle;
use std::time::Duration;

use tdals_obs::clock::{self, Instant};
use tdals_obs::trace;

use tdals_bench::json::Json;
use tdals_server::{
    connect_retry, results_document_from_records, roundtrip, run_jobs, ClientError, Connection,
    FlowJob, Manifest, Request, Stream, PROTOCOL_SCHEMA,
};

use crate::plan::ShardPlan;
use crate::ClusterError;

/// Environment hook for the crash-restart soak: when set to a shard
/// number, that shard's **first** spawned child is killed right after
/// spawning, forcing the supervisor down the restart path. The restart
/// must still converge to byte-identical output — which is what the
/// `shard-soak` CI job asserts.
pub const CRASH_SHARD_ENV: &str = "TDALS_CLUSTER_CRASH_SHARD";

/// How many trailing child stderr lines are kept for diagnostics.
const STDERR_TAIL: usize = 20;

/// Where each shard's daemon comes from.
#[derive(Debug, Clone)]
pub enum Daemons {
    /// Spawn one `tdals serve` child per shard from this `tdals`
    /// binary (a coordinator CLI passes its own `current_exe`), and
    /// shut it down with the `shutdown` verb once its shard is done.
    Spawn(PathBuf),
    /// Drive daemons that are already running, one address per shard.
    /// Extra addresses are tolerated: the plan may hold fewer shards
    /// than requested when the manifest is small.
    Connect(Vec<String>),
}

/// Supervision knobs.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SupervisorOptions {
    /// Per-shard wall-clock limit. A shard that blows it is reported as
    /// [`ClusterError::Timeout`] (its spawned child killed) — no
    /// restart, since a re-run would spend the same time again. `None`
    /// means unbounded.
    pub timeout: Option<Duration>,
    /// Worker pool width of each spawned child (`--total-threads`);
    /// `None` lets each child pick its own core count. Results are
    /// width-invariant either way.
    pub total_threads: Option<usize>,
    /// Dial retries per given daemon ([`connect_retry`]).
    pub retries: usize,
    /// Forward per-session progress frames to the callback.
    pub progress: bool,
}

impl SupervisorOptions {
    /// Defaults: no timeout, child-chosen widths, no dial retries, no
    /// progress forwarding.
    pub fn new() -> SupervisorOptions {
        SupervisorOptions::default()
    }

    /// Sets the per-shard wall-clock limit.
    pub fn with_timeout(mut self, timeout: impl Into<Option<Duration>>) -> SupervisorOptions {
        self.timeout = timeout.into();
        self
    }

    /// Sets the pool width of each spawned child.
    pub fn with_total_threads(mut self, total: impl Into<Option<usize>>) -> SupervisorOptions {
        self.total_threads = total.into();
        self
    }

    /// Sets the dial retry budget for given daemons.
    pub fn with_retries(mut self, retries: usize) -> SupervisorOptions {
        self.retries = retries;
        self
    }

    /// Enables progress-frame forwarding.
    pub fn with_progress(mut self, progress: bool) -> SupervisorOptions {
        self.progress = progress;
        self
    }
}

/// The frame forwarded per session event, tagged with its shard.
fn shard_frame(shard: usize, session: usize, name: &str, event: Json) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("shard".into(), Json::Num(shard as f64)),
        ("session".into(), Json::Num(session as f64)),
        ("name".into(), Json::Str(name.into())),
        ("event".into(), event),
    ])
}

/// Runs every shard of `plan` on its own daemon and returns one
/// results-document text per shard, in shard order. Session progress
/// frames stream through `on_frame` when
/// [`SupervisorOptions::progress`] is set; each shard's daemon `stats`
/// summary (a frame with a `stats` member) streams through it always.
///
/// # Errors
///
/// [`ClusterError::Plan`] when too few addresses are given;
/// [`ClusterError::Io`] when a child cannot be spawned;
/// [`ClusterError::Worker`] when a spawned shard's child dies twice;
/// [`ClusterError::Protocol`] for a dial failure, an error frame, a
/// malformed reply or a given daemon's broken connection;
/// [`ClusterError::Timeout`]. Shards run to their own end; the
/// lowest-numbered failing shard's error wins.
pub fn run_shards(
    manifest: &Manifest,
    plan: &ShardPlan,
    daemons: &Daemons,
    opts: &SupervisorOptions,
    on_frame: &mut dyn FnMut(&Json),
) -> Result<Vec<String>, ClusterError> {
    let count = plan.shard_count();
    // The flows run in the daemons; the coordinator's trace covers what
    // *this* process does: the supervision window.
    let _span = trace::span(trace::cat::FLOW, "shard-supervise").arg("shards", count as u64);
    if let Daemons::Connect(specs) = daemons {
        if specs.len() < count {
            return Err(ClusterError::Plan {
                what: format!(
                    "{} daemon address(es) for a {count}-shard plan; pass one --connect \
                     address per shard",
                    specs.len()
                ),
            });
        }
    }
    let (frames_tx, frames_rx) = std::sync::mpsc::channel::<Json>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count)
            .map(|shard| {
                let frames = frames_tx.clone();
                scope.spawn(move || {
                    let jobs = plan.manifest_for(manifest, shard).jobs;
                    let _span = trace::span(trace::cat::PAR, format!("shard-{shard}"))
                        .arg("jobs", jobs.len() as u64);
                    let deadline = opts.timeout.map(|limit| clock::now() + limit);
                    let shard = Shard {
                        index: shard,
                        jobs,
                        deadline,
                        opts,
                        frames,
                    };
                    match daemons {
                        Daemons::Spawn(exe) => shard.run_spawned(exe),
                        Daemons::Connect(specs) => shard.run_given(&specs[shard.index]),
                    }
                })
            })
            .collect();
        drop(frames_tx);
        // Multiplex frames until every shard thread has dropped its
        // sender (i.e. finished), then collect in shard order.
        while let Ok(frame) = frames_rx.recv() {
            on_frame(&frame);
        }
        let mut docs = Vec::with_capacity(count);
        let mut first_error: Option<ClusterError> = None;
        for (shard, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(doc)) => docs.push(doc),
                Ok(Err(e)) => first_error = first_error.or(Some(e)),
                Err(_) => {
                    first_error = first_error.or(Some(ClusterError::Protocol {
                        shard,
                        what: "shard client thread panicked".into(),
                    }))
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(docs),
        }
    })
}

/// One shard's client: its jobs, its deadline, and where its frames go.
struct Shard<'a> {
    index: usize,
    jobs: Vec<FlowJob>,
    deadline: Option<Instant>,
    opts: &'a SupervisorOptions,
    frames: Sender<Json>,
}

impl Shard<'_> {
    /// Runs the shard on a daemon somebody else runs: no restarts, every
    /// failure is the shard's error.
    fn run_given(&self, spec: &str) -> Result<String, ClusterError> {
        let stream =
            connect_retry(spec, self.opts.retries).map_err(|e| ClusterError::Protocol {
                shard: self.index,
                what: e.to_string(),
            })?;
        self.drive(&mut Connection::new(stream))
            .map_err(|e| self.error(e))
    }

    /// Runs the shard on a spawned child, replacing the child once if it
    /// dies before every record arrived.
    fn run_spawned(&self, exe: &std::path::Path) -> Result<String, ClusterError> {
        let mut attempt = 0;
        loop {
            let mut child =
                ServeChild::spawn(exe, self.index, attempt, self.jobs.len(), self.opts)?;
            let death = match child.connect() {
                Ok(mut conn) => match self.drive(&mut conn) {
                    Ok(doc) => {
                        child.shut_down(conn);
                        return Ok(doc);
                    }
                    Err(ClientError::Transport(what)) => what,
                    Err(e) => return Err(self.error(e)),
                },
                Err(what) => what,
            };
            let status = child.kill();
            if attempt > 0 {
                return Err(ClusterError::Worker {
                    shard: self.index,
                    status,
                    what: format!("{death}; {}", child.tail_text()),
                });
            }
            // Deterministic re-run of the whole shard on a fresh child.
            tdals_obs::metrics().shard_restarts.incr();
            attempt += 1;
        }
    }

    /// The shard's conversation with its daemon: run the jobs, report
    /// the daemon's stats, and return the shard-local results document.
    fn drive(&self, conn: &mut Connection<Stream>) -> Result<String, ClientError> {
        let progress = self.opts.progress;
        let rows = run_jobs(
            &mut |request| roundtrip(conn, request),
            &self.jobs,
            None,
            self.deadline,
            &mut |i, name, event| {
                if progress {
                    let _ = self.frames.send(shard_frame(self.index, i, name, event));
                }
            },
        )?;
        // Per-shard stats for the merge report, best-effort: an older
        // daemon answers `unknown-verb` and the summary is skipped.
        if let Ok(reply) = roundtrip(conn, &Request::Stats) {
            let _ = self.frames.send(Json::Obj(vec![
                ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
                ("shard".into(), Json::Num(self.index as f64)),
                (
                    "stats".into(),
                    reply.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]));
        }
        Ok(format!("{}\n", results_document_from_records(rows)))
    }

    fn error(&self, error: ClientError) -> ClusterError {
        match error {
            ClientError::TimedOut => ClusterError::Timeout {
                shard: self.index,
                seconds: self.opts.timeout.map_or(0, |t| t.as_secs()),
            },
            other => ClusterError::Protocol {
                shard: self.index,
                what: other.to_string(),
            },
        }
    }
}

/// A spawned `tdals serve` child, killed when dropped.
struct ServeChild {
    child: Child,
    /// The address from the startup banner; `None` when the child died
    /// before printing it.
    spec: Option<String>,
    /// Drains the child's stderr and hands back its last lines.
    reader: Option<JoinHandle<VecDeque<String>>>,
    /// The last stderr lines, once the child is dead and `reader` joined.
    tail: VecDeque<String>,
}

fn push_tail(tail: &mut VecDeque<String>, line: String) {
    if tail.len() == STDERR_TAIL {
        tail.pop_front();
    }
    tail.push_back(line);
}

impl ServeChild {
    /// Spawns the child and reads its banner (`serve: listening on
    /// <addr> with ...`); everything else on its stderr goes to the
    /// diagnostic tail. The child admits all `jobs` of its shard at
    /// once, however many that is.
    fn spawn(
        exe: &std::path::Path,
        shard: usize,
        attempt: usize,
        jobs: usize,
        opts: &SupervisorOptions,
    ) -> Result<ServeChild, ClusterError> {
        let mut command = Command::new(exe);
        command
            .args(["serve", "--listen", "127.0.0.1:0", "--max-sessions"])
            .arg(jobs.max(1).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(total) = opts.total_threads {
            command.arg("--total-threads").arg(total.to_string());
        }
        let mut child = command.spawn().map_err(|e| ClusterError::Io {
            what: format!("spawning shard {shard} daemon {}: {e}", exe.display()),
        })?;
        // The crash-soak hook: only ever the first attempt, so the
        // restart is allowed to converge.
        if attempt == 0 && std::env::var(CRASH_SHARD_ENV).is_ok_and(|s| s == shard.to_string()) {
            let _ = child.kill();
        }

        let mut tail = VecDeque::with_capacity(STDERR_TAIL);
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut spec = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                spec = rest.split(" with ").next().map(str::to_owned);
                break;
            }
            push_tail(&mut tail, line);
        }
        // Keep draining so the child never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                push_tail(&mut tail, line);
            }
            tail
        });
        Ok(ServeChild {
            child,
            spec,
            reader: Some(reader),
            tail: VecDeque::new(),
        })
    }

    /// Dials the child. An error means it is dead.
    fn connect(&self) -> Result<Connection<Stream>, String> {
        let spec = self
            .spec
            .as_deref()
            .ok_or("daemon exited before listening")?;
        let stream = connect_retry(spec, 0).map_err(|e| e.to_string())?;
        Ok(Connection::new(stream))
    }

    /// Stops a child whose shard is done with the `shutdown` verb,
    /// falling back to a kill.
    fn shut_down(mut self, mut conn: Connection<Stream>) {
        let stopped = roundtrip(&mut conn, &Request::Shutdown).is_ok();
        drop(conn);
        if stopped {
            let _ = self.child.wait();
        }
    }

    /// Kills the child and returns how it ended.
    fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let status = match self.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unknown status: {e}"),
        };
        if let Some(reader) = self.reader.take() {
            self.tail = reader.join().unwrap_or_default();
        }
        status
    }

    /// The child's last stderr lines; call after [`ServeChild::kill`].
    fn tail_text(&self) -> String {
        if self.tail.is_empty() {
            "daemon wrote nothing else to stderr".into()
        } else {
            format!(
                "last stderr lines:\n{}",
                Vec::from(self.tail.clone()).join("\n")
            )
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill();
    }
}
