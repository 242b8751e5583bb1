//! The always-on checking daemon behind `sebmc serve`.
//!
//! [`serve_on`] turns a bound [`TcpListener`] plus a
//! [`ServiceConfig`] into a long-running server: one
//! [`ServiceHandle`] worker pool shared by every connection, one
//! lightweight thread per connection speaking the line-delimited JSON
//! protocol (see `docs/protocol.md` and [`frames`]). Each connection
//! is a distinct *client* to the scheduler (its id feeds the queue's
//! fairness tie-break), submissions go through the same [`JobSpec`]
//! decoding as job files and the batch CLI, and finished reports are
//! pushed back over the submitting connection as they land — a
//! connection only ever sees its own jobs.
//!
//! Shutdown is protocol-driven: any client may send
//! `{"op":"shutdown","mode":"graceful"|"now"}`. Graceful stops
//! accepting connections and submissions, runs every queued job to
//! completion, and delivers every report before the server returns;
//! `now` additionally fires the service cancel token so running jobs
//! stop at their next safe point (still producing reports — the
//! one-job-one-report invariant holds through shutdown). Reports whose
//! connection vanished before delivery are returned in
//! [`ServeSummary::leftover`], so nothing is silently dropped.

use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sebmc_logic::json::Json;
use sebmc_telemetry::Telemetry;

use crate::handle::{ServiceHandle, ShutdownMode};
use crate::protocol::{frames, LineEvent, LineReader};
use crate::report::JobReport;
use crate::spec::JobSpec;
use crate::ServiceConfig;

/// `stop` value: accepting connections and submissions.
const RUN: u8 = 0;
/// `stop` value: graceful shutdown requested.
const STOP_GRACEFUL: u8 = 1;
/// `stop` value: immediate shutdown requested.
const STOP_NOW: u8 = 2;

/// Tunables of the accept/read loops (defaults suit both production
/// and tests; they only trade shutdown latency against idle CPU).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// How often the accept loop polls the (non-blocking) listener and
    /// the stop flag.
    pub accept_poll: Duration,
    /// Per-connection socket read timeout: the cadence at which a
    /// connection thread interleaves report pushes with request reads.
    pub client_read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            accept_poll: Duration::from_millis(25),
            client_read_timeout: Duration::from_millis(50),
        }
    }
}

/// What a server run amounted to, returned by [`serve_on`] after
/// shutdown completes.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Submissions accepted (cache hits included).
    pub jobs_submitted: usize,
    /// Frames refused: malformed, overloaded, or after shutdown began.
    pub jobs_rejected: usize,
    /// Reports pushed to their submitting connections.
    pub reports_delivered: usize,
    /// Finished reports whose connection was gone before delivery
    /// (sorted by job id).
    pub leftover: Vec<JobReport>,
    /// Result-cache `(hits, misses)`, when the cache was enabled.
    pub cache: Option<(u64, u64)>,
    /// How long the server ran, accept to drained.
    pub uptime: Duration,
}

impl ServeSummary {
    /// One-line JSON rendering (the `sebmc serve` exit summary).
    pub fn to_json(&self) -> String {
        let cache = self.cache.map_or("null".to_string(), |(h, m)| {
            format!("{{\"hits\":{h},\"misses\":{m}}}")
        });
        format!(
            "{{\"uptime_ms\":{},\"connections\":{},\"jobs_submitted\":{},\"jobs_rejected\":{},\
             \"reports_delivered\":{},\"leftover\":{},\"cache\":{}}}",
            self.uptime.as_millis(),
            self.connections,
            self.jobs_submitted,
            self.jobs_rejected,
            self.reports_delivered,
            self.leftover.len(),
            cache
        )
    }
}

/// Shared submission/delivery counters.
#[derive(Default)]
struct Counters {
    submitted: AtomicUsize,
    rejected: AtomicUsize,
    delivered: AtomicUsize,
}

/// Joins and drops every connection thread that has already exited,
/// so a long-lived server holds handles (and unreleased thread stacks)
/// only for connections that are still open.
fn reap_finished(conns: &mut Vec<thread::JoinHandle<()>>) {
    for done in conns.extract_if(.., |c| c.is_finished()) {
        let _ = done.join();
    }
}

/// Runs the daemon on an already-bound listener until a client sends a
/// shutdown command, then drains (see the module docs) and returns the
/// run's summary. The listener is consumed and closed on shutdown.
pub fn serve_on(
    listener: TcpListener,
    mut config: ServiceConfig,
    opts: ServeOptions,
) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let workers = config.workers.max(1);
    let cache_enabled = config.result_cache_bytes.is_some();
    let cancel = config.cancel.clone();
    // The daemon always carries telemetry — the `stats` frame must
    // answer even when the operator configured none.
    let telemetry = match &config.telemetry {
        Some(t) => Arc::clone(t),
        None => {
            let t = Arc::new(Telemetry::new());
            config.telemetry = Some(Arc::clone(&t));
            t
        }
    };
    let started = Instant::now();
    let handle = Arc::new(ServiceHandle::start(config));
    let stop = Arc::new(AtomicU8::new(RUN));
    let counters = Arc::new(Counters::default());

    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut connections = 0usize;
    let mut next_client: u64 = 1;
    while stop.load(Ordering::Relaxed) == RUN {
        match listener.accept() {
            Ok((stream, _peer)) => {
                reap_finished(&mut conns);
                connections += 1;
                let client_id = next_client;
                next_client += 1;
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                let telemetry = Arc::clone(&telemetry);
                let read_timeout = opts.client_read_timeout;
                conns.push(
                    thread::Builder::new()
                        .name(format!("sebmc-conn-{client_id}"))
                        .spawn(move || {
                            connection_loop(
                                stream,
                                client_id,
                                &handle,
                                &stop,
                                &counters,
                                &telemetry,
                                workers,
                                cache_enabled,
                                read_timeout,
                            );
                        })
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Idle beat: keep the depth gauge honest even while no
                // submission or pickup is moving it.
                telemetry.metrics.queue_depth.set(handle.pending() as u64);
                thread::sleep(opts.accept_poll);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // New connections are refused from here on.
    drop(listener);
    let mode = if stop.load(Ordering::Relaxed) == STOP_NOW {
        cancel.cancel();
        ShutdownMode::Now
    } else {
        ShutdownMode::Graceful
    };
    // Connection threads exit once every report they own is delivered
    // (graceful: jobs run to completion first; now: cancellation turns
    // them into prompt Unknown reports).
    for c in conns {
        let _ = c.join();
    }
    let cache = handle.cache_stats();
    let leftover = handle.shutdown(mode);
    telemetry.flush();
    Ok(ServeSummary {
        connections,
        jobs_submitted: counters.submitted.load(Ordering::Relaxed),
        jobs_rejected: counters.rejected.load(Ordering::Relaxed),
        reports_delivered: counters.delivered.load(Ordering::Relaxed),
        leftover,
        cache,
        uptime: started.elapsed(),
    })
}

fn write_line(out: &mut TcpStream, line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// One connection: greet, then interleave pushing finished reports
/// with serving requests until the peer hangs up — or shutdown has
/// begun *and* every job this connection submitted has been delivered.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    stream: TcpStream,
    client_id: u64,
    handle: &ServiceHandle,
    stop: &AtomicU8,
    counters: &Counters,
    telemetry: &Telemetry,
    workers: usize,
    cache_enabled: bool,
    read_timeout: Duration,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let Ok(mut out) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    if write_line(&mut out, &frames::hello(workers, cache_enabled)).is_err() {
        return;
    }
    // Jobs submitted on this connection whose reports are still owed.
    let mut owed: Vec<usize> = Vec::new();
    loop {
        let mut i = 0;
        while i < owed.len() {
            match handle.try_take(owed[i]) {
                Some(report) => {
                    if write_line(&mut out, &frames::report(&report)).is_err() {
                        return;
                    }
                    counters.delivered.fetch_add(1, Ordering::Relaxed);
                    owed.swap_remove(i);
                }
                None => i += 1,
            }
        }
        // The exit check sits on the *empty-read* path, not before the
        // read: frames the client pipelined behind its shutdown command
        // still get read and answered (with a clean `error` for
        // submissions) during one final read-timeout window, instead of
        // the connection closing under the client's write.
        match reader.read_line() {
            LineEvent::Timeout => {
                if stop.load(Ordering::Relaxed) != RUN && owed.is_empty() {
                    return;
                }
            }
            LineEvent::Eof => return,
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let reply = handle_frame(
                    &line, client_id, handle, stop, counters, telemetry, &mut owed,
                );
                if write_line(&mut out, &reply).is_err() {
                    return;
                }
            }
        }
    }
}

/// Decodes and executes one client frame, returning the response
/// frame. Frames with an `"op"` are commands; anything else is a
/// [`JobSpec`] submission.
fn handle_frame(
    line: &str,
    client_id: u64,
    handle: &ServiceHandle,
    stop: &AtomicU8,
    counters: &Counters,
    telemetry: &Telemetry,
    owed: &mut Vec<usize>,
) -> String {
    let frame = match Json::parse(line) {
        Ok(f) => f,
        Err(e) => return frames::error(&format!("bad frame: {e}")),
    };
    match frame.get("op").and_then(Json::as_str) {
        Some("ping") => frames::pong(),
        Some("stats") => frames::stats(&telemetry.snapshot_json()),
        Some("shutdown") => match frame
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("graceful")
        {
            "graceful" => {
                stop.store(STOP_GRACEFUL, Ordering::Relaxed);
                frames::shutdown_ack("graceful")
            }
            "now" => {
                stop.store(STOP_NOW, Ordering::Relaxed);
                frames::shutdown_ack("now")
            }
            other => frames::error(&format!("unknown shutdown mode: {other}")),
        },
        Some(other) => frames::error(&format!("unknown op: {other}")),
        None => {
            if stop.load(Ordering::Relaxed) != RUN {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                return frames::error("shutting down");
            }
            match JobSpec::from_json(&frame).and_then(JobSpec::into_job) {
                Err(e) => {
                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                    frames::error(&e)
                }
                Ok(job) => match handle.submit_for_client(job, client_id) {
                    Ok(id) => {
                        counters.submitted.fetch_add(1, Ordering::Relaxed);
                        owed.push(id);
                        frames::accepted(id)
                    }
                    Err(e) => {
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        frames::error(&e.to_string())
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reap_finished_joins_exited_threads_and_keeps_live_ones() {
        let (release, wait) = mpsc::channel::<()>();
        let mut conns: Vec<thread::JoinHandle<()>> = (0..4).map(|_| thread::spawn(|| {})).collect();
        conns.push(thread::spawn(move || {
            let _ = wait.recv();
        }));
        let deadline = Instant::now() + Duration::from_secs(10);
        while conns[..4].iter().any(|c| !c.is_finished()) {
            assert!(Instant::now() < deadline, "short threads never exited");
            thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut conns);
        assert_eq!(conns.len(), 1, "only the blocked thread is kept");
        assert!(!conns[0].is_finished());
        release.send(()).unwrap();
        conns.pop().unwrap().join().unwrap();
        reap_finished(&mut conns);
        assert!(conns.is_empty());
    }
}
