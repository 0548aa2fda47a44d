//! The client side of the wire protocol: one batch conversation with a
//! daemon.
//!
//! `tdals serve-batch`, `tdals submit` and the shard supervisor all run
//! a batch the same way, so the loop lives here once: submit every job
//! in order, poll each session's result and drain its events until all
//! are done, then number the records by submission order. The daemon
//! ships each record without its `job` index; prepending the local
//! index reassembles the rows of the results document. `serve-batch`
//! talks to a daemon in its own process ([`Daemon::call`]), the others
//! over a socket ([`roundtrip`]); every row comes from the same
//! daemon code either way, which is what makes their results files
//! byte-identical.
//!
//! [`Daemon::call`]: crate::Daemon::call

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

/// Sends one request and reads the daemon's reply over a socket.
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
    check_reply(frame)
}

/// Turns an error frame into [`ClientError::Daemon`] and passes any
/// other reply through: the one rule both transports ([`roundtrip`] and
/// [`Daemon::call`](crate::Daemon::call)) share.
pub(crate) fn check_reply(frame: Json) -> Result<Json, ClientError> {
    if let Some((code, message)) = as_error(&frame) {
        return Err(ClientError::Daemon {
            code: code.into(),
            message: message.into(),
        });
    }
    Ok(frame)
}

/// Runs `jobs` on a daemon and returns one record per job in submission
/// order, each with its local `job` index prepended: the rows
/// [`results_document_from_records`](crate::results_document_from_records)
/// turns into the results document for the same jobs.
///
/// `send` is the transport: one request in, the reply (or error) out —
/// [`roundtrip`] over a socket, or [`Daemon::call`](crate::Daemon::call)
/// for a daemon in this process.
///
/// Every session's events are drained (even when `on_event` ignores
/// them, so the daemon's buffers stay flat) and handed to
/// `on_event(index, name, event)` in arrival order. Results are polled
/// without blocking, so a `deadline` is checked between polls.
///
/// # Errors
///
/// Any error from `send`; [`ClientError::Malformed`] for a submit reply
/// without a session id or a finished result without an object
/// `record`; [`ClientError::TimedOut`] once the deadline passes.
pub fn run_jobs(
    send: &mut dyn FnMut(&Request) -> Result<Json, ClientError>,
    jobs: &[FlowJob],
    tenant: Option<&str>,
    deadline: Option<Instant>,
    on_event: &mut dyn FnMut(usize, &str, Json),
) -> Result<Vec<Json>, ClientError> {
    let mut sessions = Vec::with_capacity(jobs.len());
    for job in jobs {
        let reply = send(&Request::Submit {
            job: job.clone(),
            tenant: tenant.map(str::to_owned),
        })?;
        let id = reply
            .get("session")
            .and_then(u64_from_json)
            .ok_or_else(|| ClientError::Malformed("daemon reply is missing `session`".into()))?;
        sessions.push(id);
    }

    let mut records: Vec<Option<Vec<(String, Json)>>> = vec![None; sessions.len()];
    loop {
        if deadline.is_some_and(|d| clock::now() >= d) {
            return Err(ClientError::TimedOut);
        }
        let mut pending = false;
        for (i, &session) in sessions.iter().enumerate() {
            if records[i].is_some() {
                continue;
            }
            let reply = send(&Request::Result {
                session,
                wait: false,
            })?;
            if reply.get("done") == Some(&Json::Bool(true)) {
                let Some(Json::Obj(fields)) = reply.get("record") else {
                    return Err(ClientError::Malformed(format!(
                        "daemon result for session {session} has no `record` object"
                    )));
                };
                records[i] = Some(fields.clone());
            } else {
                pending = true;
            }
            // Polled after the result, so a finished session's last
            // events are in this reply.
            let reply = send(&Request::Events { session })?;
            if let Some(Json::Arr(items)) = reply.get("events") {
                for event in items {
                    on_event(i, &jobs[i].name, event.clone());
                }
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
        .map(|(i, fields)| {
            let mut members = vec![("job".to_owned(), Json::Num(i as f64))];
            members.extend(fields.expect("the poll loop ends once every record is in"));
            Json::Obj(members)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_circuits::Benchmark;

    /// A scripted daemon: every session finishes on its first result
    /// poll with `record` as the record member (absent when `None`).
    fn fake(record: Option<Json>) -> impl FnMut(&Request) -> Result<Json, ClientError> {
        move |request| {
            let mut reply = vec![("session".to_owned(), Json::Num(0.0))];
            match request {
                Request::Submit { .. } => {}
                Request::Result { .. } => {
                    reply.push(("done".into(), Json::Bool(true)));
                    if let Some(record) = &record {
                        reply.push(("record".into(), record.clone()));
                    }
                }
                Request::Events { .. } => reply.push(("events".into(), Json::Arr(Vec::new()))),
                other => panic!("unexpected request {other:?}"),
            }
            Ok(Json::Obj(reply))
        }
    }

    fn run(record: Option<Json>) -> Result<Vec<Json>, ClientError> {
        let jobs = [FlowJob::benchmark(Benchmark::Int2float)];
        run_jobs(&mut fake(record), &jobs, None, None, &mut |_, _, _| {})
    }

    #[test]
    fn finished_result_without_an_object_record_is_malformed() {
        // Control: a well-formed record becomes a row with its index.
        let record = Json::Obj(vec![("name".into(), Json::Str("a".into()))]);
        let rows = run(Some(record)).expect("well-formed replies");
        assert_eq!(rows[0].get("job"), Some(&Json::Num(0.0)));
        assert_eq!(rows[0].get("name"), Some(&Json::Str("a".into())));

        for record in [None, Some(Json::Null), Some(Json::Str("x".into()))] {
            let err = run(record.clone()).expect_err("no row from a broken reply");
            assert!(
                matches!(err, ClientError::Malformed(_)),
                "{record:?}: {err:?}"
            );
        }
    }
}
