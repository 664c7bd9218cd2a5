//! The exposition service: a zero-dependency HTTP responder over
//! `std::net::TcpListener` serving `/metrics`, `/healthz` and `/fleet`.
//!
//! Consistency model (DESIGN.md §16): the run loop owns an
//! [`ObsPublisher`] and, at each tick boundary, renders the tick's
//! [`ObsSnapshot`] into the three response bodies and swaps them into a
//! mutex-guarded cell. The server thread only ever *reads* (clones) those
//! prerendered strings — it never touches telemetry, the fleet, or any
//! search state — so attaching a server cannot perturb a run: the
//! observe-only guarantee (observed == unobserved, bit-for-bit) holds by
//! construction and is asserted end-to-end by `tests/obs.rs` and the
//! `obs_smoke` gate.
//!
//! The single `thread::Builder` spawn below is the crate's only OS thread
//! and is confined behind a justified `a3cs::allow(thread-spawn)` waiver:
//! it performs no search work, only socket I/O over immutable strings.

use crate::expo::{render_health, render_prometheus};
use crate::rollup::{Aggregator, ObsSnapshot};
use a3cs_core::{GuardedRun, RobustnessLog};
use a3cs_fleet::{Fleet, FleetReport, SessionId, SessionReport, SessionState, TickObserver};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Response bodies prerendered by the publisher; the server thread only
/// clones them.
#[derive(Default)]
struct Published {
    ready: bool,
    metrics_text: String,
    health_json: String,
    fleet_json: String,
}

struct Shared {
    published: Mutex<Published>,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Published> {
        // A panic while holding this lock can only come from String clone
        // OOM; recovering the guard keeps the server serving either way.
        self.published.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to the running exposition service. Dropping (or calling
/// [`ObsServer::shutdown`]) stops the accept loop and joins the thread.
pub struct ObsServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `127.0.0.1:0` (ephemeral port) and start the server thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/clone and thread-spawn failures.
    pub fn bind_ephemeral() -> io::Result<ObsServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            published: Mutex::new(Published::default()),
            shutdown: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        // a3cs::allow(thread-spawn): the exposition server is observe-only
        // — it serves prerendered strings over sockets and never executes
        // search work, so it cannot interact with the deterministic pool's
        // chunking or reduction order.
        let handle = thread::Builder::new()
            .name("a3cs-obs".to_string())
            .spawn(move || serve(&listener, &thread_shared))?;
        Ok(ObsServer {
            shared,
            addr,
            handle: Some(handle),
        })
    }

    /// The bound address (ephemeral port chosen by the OS).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A publisher feeding this server, with rolling windows of
    /// `window` publishes.
    #[must_use]
    pub fn publisher(&self, window: usize) -> ObsPublisher {
        ObsPublisher {
            shared: Arc::clone(&self.shared),
            agg: Aggregator::new(window),
        }
    }

    /// Stop accepting, wake the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Self-connect so the blocking `accept` observes the flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

/// Tick-boundary publisher: aggregates, renders, and swaps the response
/// bodies the server thread serves. Implements [`TickObserver`], so it
/// can be attached to a [`Fleet`] directly.
pub struct ObsPublisher {
    shared: Arc<Shared>,
    agg: Aggregator,
}

impl ObsPublisher {
    /// Aggregate `report` plus the current telemetry state into a
    /// snapshot and publish it as the served `/metrics`, `/healthz` and
    /// `/fleet` bodies.
    pub fn publish_report(&mut self, report: &FleetReport) {
        let snapshot = self.agg.publish(report);
        let metrics_text = render_prometheus(&snapshot);
        let (_, health_json) = render_health(Some(&snapshot));
        let fleet_json = report.to_json();
        let mut cell = self.shared.lock();
        cell.ready = true;
        cell.metrics_text = metrics_text;
        cell.health_json = health_json;
        cell.fleet_json = fleet_json;
    }

    /// Publish a solo (non-fleet) run through the same path, mirrored as
    /// a single-session [`FleetReport`] (see [`solo_report`]). Hook this
    /// into [`a3cs_core::CoSearch::run_guarded_observed`].
    pub fn publish_solo(&mut self, name: &str, run: &GuardedRun) {
        let report = solo_report(name, run);
        self.publish_report(&report);
    }

    /// Publishes performed so far.
    #[must_use]
    pub fn publishes(&self) -> u64 {
        self.agg.publishes()
    }

    /// The last snapshot's aggregation state, for inspection in tests.
    #[must_use]
    pub fn aggregator(&self) -> &Aggregator {
        &self.agg
    }

    /// Aggregate without serving (headless mode), returning the snapshot.
    pub fn aggregate_only(&mut self, report: &FleetReport) -> ObsSnapshot {
        self.agg.publish(report)
    }
}

impl TickObserver for ObsPublisher {
    fn on_tick(&mut self, fleet: &Fleet<'_>) {
        self.publish_report(&fleet.report_snapshot());
    }
}

/// Mirror a solo [`GuardedRun`] as a single-session [`FleetReport`]:
/// session id 0, state `running` (solo observation stops before
/// `finish`), `ticks` carrying the outer-loop iteration and a pool budget
/// of 0 (no fleet pool).
#[must_use]
pub fn solo_report(name: &str, run: &GuardedRun) -> FleetReport {
    let robustness = run.robustness().clone();
    let mut event_totals: BTreeMap<String, usize> = BTreeMap::new();
    for event in &robustness.events {
        *event_totals.entry(event.kind.label().to_string()).or_insert(0) += 1;
    }
    FleetReport {
        sessions: vec![SessionReport {
            id: SessionId::new(0),
            name: name.to_string(),
            state: SessionState::Running,
            steps: run.steps(),
            restarts: 0,
            result: None,
            robustness,
            fleet_events: RobustnessLog::new(),
            checkpoint_bytes_written: run.checkpoint_bytes_written(),
            checkpoint_restores: run.checkpoint_restores(),
            checkpoint_delta_frames: run.checkpoint_delta_frames(),
            checkpoint_quarantined: run.checkpoint_quarantined(),
            phase_stalls: run.phase_stalls(),
        }],
        ticks: run.iteration(),
        pool_budget: 0,
        total_faults: 0,
        event_totals,
    }
}

fn serve(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        handle_connection(&mut stream, shared);
    }
}

/// Read the request head (request line + headers, up to 8 KiB), route it,
/// and write exactly one response. Any parse problem gets a 400.
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let mut buf = [0u8; 8192];
    let mut used = 0usize;
    let head_end = loop {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break None,
            Ok(n) => {
                used += n;
                if let Some(pos) = find_head_end(&buf[..used]) {
                    break Some(pos);
                }
                if used == buf.len() {
                    break None;
                }
            }
            Err(_) => break None,
        }
    };
    let Some(head_end) = head_end else {
        write_response(stream, 400, "Bad Request", "text/plain; charset=utf-8", "bad request\n");
        return;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        write_response(
            stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
        return;
    }
    let (ready, metrics, health, fleet) = {
        let cell = shared.lock();
        (
            cell.ready,
            cell.metrics_text.clone(),
            cell.health_json.clone(),
            cell.fleet_json.clone(),
        )
    };
    match path {
        "/metrics" => {
            if ready {
                write_response(
                    stream,
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &metrics,
                );
            } else {
                write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "text/plain; charset=utf-8",
                    "no snapshot published yet\n",
                );
            }
        }
        "/healthz" => {
            if ready {
                write_response(stream, 200, "OK", "application/json", &health);
            } else {
                let (_, body) = render_health(None);
                write_response(stream, 503, "Service Unavailable", "application/json", &body);
            }
        }
        "/fleet" => {
            if ready {
                write_response(stream, 200, "OK", "application/json", &fleet);
            } else {
                write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    "{\"ready\":false}",
                );
            }
        }
        _ => write_response(
            stream,
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /healthz or /fleet\n",
        ),
    }
}

/// Position just past the `\r\n\r\n` (or `\n\n`) ending the request head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

fn write_response(stream: &mut TcpStream, code: u16, reason: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Best-effort: a hung-up client is the client's problem, never ours.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection_handles_both_line_endings() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let code: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .unwrap_or_default()
            .to_string();
        (code, body)
    }

    #[test]
    fn server_routes_and_lifecycle() {
        let server = ObsServer::bind_ephemeral().expect("bind");
        let addr = server.addr();

        let (code, _) = get(addr, "/metrics");
        assert_eq!(code, 503, "unready before the first publish");
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 503);
        assert_eq!(body, "{\"ready\":false}");

        let mut publisher = server.publisher(8);
        let report = FleetReport {
            sessions: Vec::new(),
            ticks: 5,
            pool_budget: 2,
            total_faults: 0,
            event_totals: BTreeMap::new(),
        };
        publisher.publish_report(&report);

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.starts_with("# HELP a3cs_obs_publishes_total"));
        assert!(body.contains("\na3cs_fleet_ticks 5\n"));
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert!(body.starts_with("{\"ready\":true,"));
        let (code, body) = get(addr, "/fleet");
        assert_eq!(code, 200);
        assert_eq!(body, report.to_json());

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);

        // shutdown joins the server thread; returning at all proves the
        // accept loop observed the flag and exited.
        server.shutdown();
    }
}
