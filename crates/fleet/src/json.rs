//! Schema-versioned, byte-stable JSON persistence for [`FleetReport`]
//! (DESIGN.md §16).
//!
//! The rendering is hand-rolled (no serde) so every byte is under this
//! module's control: object keys appear in a fixed order, maps are
//! `BTreeMap`-sorted, optional values serialize as `null`, and floats are
//! printed with Rust's shortest-round-trip `Display` (identical bits in →
//! identical bytes out, with non-finite values mapped to `null`). Two
//! bit-identical fleet runs therefore persist byte-identical reports —
//! which is also what makes the live `/fleet` endpoint of `a3cs-obs`
//! directly comparable against a run's own final report.
//!
//! The schema is versioned by the top-level `"schema"` field; additions
//! bump [`FLEET_REPORT_SCHEMA`] and may only append keys.

use crate::{FleetReport, SessionReport, SessionState};
use a3cs_core::{CoSearchResult, RobustnessEvent};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Version stamped into the `"schema"` field of every serialized report.
/// v2 appended the per-session `checkpoint_delta_frames` and
/// `checkpoint_quarantined` counters (durable delta checkpointing).
pub const FLEET_REPORT_SCHEMA: u32 = 2;

impl FleetReport {
    /// Serialize the report as schema-versioned, byte-stable JSON (one
    /// line, no trailing newline). See the module docs for the stability
    /// contract.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{FLEET_REPORT_SCHEMA},\"ticks\":{},\"pool_budget\":{},\"total_faults\":{},\"sessions\":[",
            self.ticks, self.pool_budget, self.total_faults
        );
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            session_json(s, &mut out);
        }
        out.push_str("],\"event_totals\":{");
        for (i, (label, n)) in self.event_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(label, &mut out);
            let _ = write!(out, ":{n}");
        }
        out.push_str("}}");
        out
    }

    /// Write [`FleetReport::to_json`] (plus a trailing newline) to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors from the write.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut json = self.to_json();
        json.push('\n');
        std::fs::write(path, json)
    }
}

fn session_json(s: &SessionReport, out: &mut String) {
    let _ = write!(out, "{{\"id\":{},\"name\":", s.id.index());
    json_string(&s.name, out);
    out.push_str(",\"state\":");
    json_string(s.state.label(), out);
    out.push_str(",\"failure\":");
    match &s.state {
        SessionState::Failed(failure) => json_string(&failure.to_string(), out),
        _ => out.push_str("null"),
    }
    out.push_str(",\"backoff_until\":");
    match s.state {
        SessionState::Backoff { until_tick } => {
            let _ = write!(out, "{until_tick}");
        }
        _ => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"steps\":{},\"restarts\":{},\"checkpoint_bytes_written\":{},\"checkpoint_restores\":{},\"checkpoint_delta_frames\":{},\"checkpoint_quarantined\":{},\"result\":",
        s.steps,
        s.restarts,
        s.checkpoint_bytes_written,
        s.checkpoint_restores,
        s.checkpoint_delta_frames,
        s.checkpoint_quarantined
    );
    match &s.result {
        Some(result) => result_json(result, out),
        None => out.push_str("null"),
    }
    out.push_str(",\"robustness\":");
    events_json(&s.robustness.events, out);
    out.push_str(",\"fleet_events\":");
    events_json(&s.fleet_events.events, out);
    out.push('}');
}

fn result_json(r: &CoSearchResult, out: &mut String) {
    let _ = write!(out, "{{\"steps\":{},\"best_score\":{},\"final_score\":{}", r.steps, json_f64(f64::from(r.best_score())), json_f64(f64::from(r.final_score())));
    let _ = write!(
        out,
        ",\"fps\":{},\"dsp_used\":{},\"bram_kb_used\":{},\"feasible\":{},\"chunks\":{}",
        json_f64(r.report.fps),
        r.report.dsp_used,
        r.report.bram_kb_used,
        r.report.feasible,
        r.accelerator.chunks.len()
    );
    out.push_str(",\"arch\":[");
    for (i, op) in r.arch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&op.to_string(), out);
    }
    out.push_str("],\"score_curve\":");
    curve_json(&r.score_curve, out);
    out.push_str(",\"alpha_entropy_curve\":");
    curve_json(&r.alpha_entropy_curve, out);
    out.push('}');
}

fn curve_json(curve: &[(u64, f32)], out: &mut String) {
    out.push('[');
    for (i, &(steps, value)) in curve.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{steps},{}]", json_f64(f64::from(value)));
    }
    out.push(']');
}

fn events_json(events: &[RobustnessEvent], out: &mut String) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"iteration\":{},\"kind\":", e.iteration);
        json_string(e.kind.label(), out);
        out.push_str(",\"detail\":");
        json_string(&e.detail, out);
        out.push('}');
    }
    out.push(']');
}

/// Shortest-round-trip decimal for a finite float, `null` otherwise.
/// `f32` values are widened through `f64` losslessly before formatting, so
/// identical `f32` bits always print identical bytes.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping, byte-compatible with the telemetry
/// crate's serializer.
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionFailure, SessionId};
    use a3cs_core::{RobustnessEventKind, RobustnessLog};
    use std::collections::BTreeMap;

    fn sample_report() -> FleetReport {
        let mut robustness = RobustnessLog::new();
        robustness.push(7, RobustnessEventKind::FaultInjected, "abort at 7");
        let mut fleet_events = RobustnessLog::new();
        fleet_events.push(
            9,
            RobustnessEventKind::SessionRestarted,
            "restart 1 of 1 scheduled for tick 10",
        );
        let mut event_totals = BTreeMap::new();
        event_totals.insert("fault-injected".to_string(), 1);
        event_totals.insert("session-restarted".to_string(), 1);
        FleetReport {
            sessions: vec![
                SessionReport {
                    id: SessionId::new(0),
                    name: "alpha \"one\"".to_string(),
                    state: SessionState::Failed(SessionFailure::Panicked("boom".to_string())),
                    steps: 120,
                    restarts: 1,
                    result: None,
                    robustness,
                    fleet_events,
                    checkpoint_bytes_written: 2048,
                    checkpoint_restores: 1,
                    checkpoint_delta_frames: 6,
                    checkpoint_quarantined: 2,
                    phase_stalls: 3,
                },
                SessionReport {
                    id: SessionId::new(1),
                    name: "beta".to_string(),
                    state: SessionState::Backoff { until_tick: 12 },
                    steps: 0,
                    restarts: 0,
                    result: None,
                    robustness: RobustnessLog::new(),
                    fleet_events: RobustnessLog::new(),
                    checkpoint_bytes_written: 0,
                    checkpoint_restores: 0,
                    checkpoint_delta_frames: 0,
                    checkpoint_quarantined: 0,
                    phase_stalls: 0,
                },
            ],
            ticks: 42,
            pool_budget: 2,
            total_faults: 1,
            event_totals,
        }
    }

    #[test]
    fn fleet_report_json_golden() {
        let want = concat!(
            "{\"schema\":2,\"ticks\":42,\"pool_budget\":2,\"total_faults\":1,\"sessions\":[",
            "{\"id\":0,\"name\":\"alpha \\\"one\\\"\",\"state\":\"failed\",",
            "\"failure\":\"panicked: boom\",\"backoff_until\":null,\"steps\":120,\"restarts\":1,",
            "\"checkpoint_bytes_written\":2048,\"checkpoint_restores\":1,",
            "\"checkpoint_delta_frames\":6,\"checkpoint_quarantined\":2,\"result\":null,",
            "\"robustness\":[{\"iteration\":7,\"kind\":\"fault-injected\",\"detail\":\"abort at 7\"}],",
            "\"fleet_events\":[{\"iteration\":9,\"kind\":\"session-restarted\",",
            "\"detail\":\"restart 1 of 1 scheduled for tick 10\"}]},",
            "{\"id\":1,\"name\":\"beta\",\"state\":\"backoff\",\"failure\":null,",
            "\"backoff_until\":12,\"steps\":0,\"restarts\":0,\"checkpoint_bytes_written\":0,",
            "\"checkpoint_restores\":0,\"checkpoint_delta_frames\":0,\"checkpoint_quarantined\":0,",
            "\"result\":null,\"robustness\":[],\"fleet_events\":[]}],",
            "\"event_totals\":{\"fault-injected\":1,\"session-restarted\":1}}",
        );
        assert_eq!(sample_report().to_json(), want);
    }

    #[test]
    fn json_is_deterministic_and_write_appends_newline() {
        let report = sample_report();
        assert_eq!(report.to_json(), report.to_json());
        let path = std::env::temp_dir()
            .join(format!("a3cs_fleet_json_{}.json", std::process::id()));
        report.write_json(&path).expect("temp write succeeds");
        let bytes = std::fs::read_to_string(&path).expect("readable back");
        assert_eq!(bytes, format!("{}\n", report.to_json()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
