//! The client side of the wire protocol: one batch conversation with a
//! daemon.
//!
//! `tdals submit` and the shard supervisor run a batch against a daemon
//! the same way, so the loop lives here once: submit every job in
//! order, drain each session's events and poll its result until all
//! are done, then number the records by submission order. The daemon
//! ships each record without its `job` index; prepending the local
//! index reassembles exactly the rows `serve-batch` writes, which is
//! what keeps a daemon-run results file byte-identical to a local one.

use std::io::{Read, Write};
use std::time::Duration;

use tdals_bench::json::Json;
use tdals_obs::clock::{self, Instant};

use crate::job::{u64_from_json, FlowJob};
use crate::protocol::{as_error, Connection, Request};

/// Why a conversation with a daemon failed. The variants matter to a
/// supervisor: a broken transport may mean the daemon died (worth a
/// restart), an error frame is the daemon's considered answer (not).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The connection broke: a send or read failed, or the daemon
    /// closed it mid-conversation.
    Transport(String),
    /// The daemon answered with an error frame.
    Daemon {
        /// The wire error code (`rejected`, `queue-full`, ...).
        code: String,
        /// The daemon's message.
        message: String,
    },
    /// A reply lacks a member the protocol promises.
    Malformed(String),
    /// The caller's deadline passed with sessions still running.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(what) | ClientError::Malformed(what) => f.write_str(what),
            ClientError::Daemon { code, message } => write!(f, "daemon: {code}: {message}"),
            ClientError::TimedOut => f.write_str("deadline passed with sessions still running"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Sends one request and reads the daemon's reply, turning an error
/// frame into [`ClientError::Daemon`].
///
/// # Errors
///
/// [`ClientError::Transport`] when the frame cannot be sent or no reply
/// arrives; [`ClientError::Daemon`] for an error frame.
pub fn roundtrip<S: Read + Write>(
    conn: &mut Connection<S>,
    request: &Request,
) -> Result<Json, ClientError> {
    conn.send(&request.to_json())
        .map_err(|e| ClientError::Transport(format!("sending to daemon: {e}")))?;
    let frame = conn
        .receive()
        .map_err(|e| ClientError::Transport(format!("reading from daemon: {e}")))?
        .ok_or_else(|| ClientError::Transport("daemon closed the connection".into()))?;
    if let Some((code, message)) = as_error(&frame) {
        return Err(ClientError::Daemon {
            code: code.into(),
            message: message.into(),
        });
    }
    Ok(frame)
}

/// Runs `jobs` on the daemon behind `conn` and returns one record per
/// job in submission order, each with its local `job` index prepended:
/// the rows [`results_document_from_records`](crate::results_document_from_records)
/// turns into `serve-batch`'s document for the same jobs.
///
/// Every session's events are drained (even when `on_event` ignores
/// them, so the daemon's buffers stay flat) and handed to
/// `on_event(index, name, event)` in arrival order. Results are polled
/// without blocking, so a `deadline` is checked between polls.
///
/// # Errors
///
/// Any [`roundtrip`] error, [`ClientError::Malformed`] for a submit
/// reply without a session id, [`ClientError::TimedOut`] once the
/// deadline passes.
pub fn run_jobs<S: Read + Write>(
    conn: &mut Connection<S>,
    jobs: &[FlowJob],
    tenant: Option<&str>,
    deadline: Option<Instant>,
    on_event: &mut dyn FnMut(usize, &str, Json),
) -> Result<Vec<Json>, ClientError> {
    let mut sessions = Vec::with_capacity(jobs.len());
    for job in jobs {
        let reply = roundtrip(
            conn,
            &Request::Submit {
                job: job.clone(),
                tenant: tenant.map(str::to_owned),
            },
        )?;
        let id = reply
            .get("session")
            .and_then(u64_from_json)
            .ok_or_else(|| ClientError::Malformed("daemon reply is missing `session`".into()))?;
        sessions.push(id);
    }

    let mut pump_events = |conn: &mut Connection<S>, i: usize| -> Result<(), ClientError> {
        let reply = roundtrip(
            conn,
            &Request::Events {
                session: sessions[i],
            },
        )?;
        if let Some(Json::Arr(items)) = reply.get("events") {
            for event in items {
                on_event(i, &jobs[i].name, event.clone());
            }
        }
        Ok(())
    };
    let mut records: Vec<Option<Json>> = vec![None; sessions.len()];
    loop {
        if deadline.is_some_and(|d| clock::now() >= d) {
            return Err(ClientError::TimedOut);
        }
        let mut pending = false;
        for i in 0..sessions.len() {
            if records[i].is_some() {
                continue;
            }
            pump_events(conn, i)?;
            let reply = roundtrip(
                conn,
                &Request::Result {
                    session: sessions[i],
                    wait: false,
                },
            )?;
            if reply.get("done") == Some(&Json::Bool(true)) {
                records[i] = Some(reply.get("record").cloned().unwrap_or(Json::Null));
                // One more drain: the events that landed between the
                // last poll and the session finishing.
                pump_events(conn, i)?;
            } else {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    Ok(records
        .into_iter()
        .enumerate()
        .map(|(i, record)| {
            let mut members = vec![("job".to_owned(), Json::Num(i as f64))];
            if let Some(Json::Obj(fields)) = record {
                members.extend(fields);
            }
            Json::Obj(members)
        })
        .collect())
}
