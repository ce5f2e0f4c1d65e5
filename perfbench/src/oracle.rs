//! The correctness oracle: every reply of the run against the library mirror, every
//! certificate through `pw_check`, the reader's flip events against the mirror's, and
//! the server's counters against the mirror's.  In a traced run the same replay
//! records the spans.

use crate::inputs::Inputs;
use crate::load::{Digest, Record, SetupLog, Window};
use crate::mirror::{Expected, Mirror, Totals};
use crate::trace::Tracer;
use pw_check::{Claim, Problem};
use pw_decide::{Certificate, Decision, DecisionRequest};
use pw_serve::{Json, ServerConfig};
use std::collections::HashMap;

/// Timed ops a traced run records spans and probes for; later ops are only checked.
pub const TRACE_OPS: usize = 2000;

pub struct Checked {
    /// Timed ops that failed: a non-2xx status, a transport error, a typed decision
    /// error, a reply that differs from the mirror's, a certificate `pw_check`
    /// rejects, or a flip event that differs from the mirror's.
    pub failed: usize,
    /// Everything else that makes the run incorrect.
    pub faults: Vec<String>,
    /// Certificates `pw_check` verified.
    pub certificates: usize,
    /// Server and mirror memo counters agree on every database.
    pub counters_match: bool,
    /// Mirror totals after the warm-up and after the last op.
    pub warm_totals: Totals,
    pub end_totals: Totals,
    /// Mirror totals around the traced ops (traced runs).
    pub traced_totals: Option<(Totals, Totals)>,
    /// Rows of each timed op's database after the op, in op order (unknown for ops
    /// the oracle answered from its per-body cache).
    pub rows: Vec<usize>,
}

/// The part of a database's counters the op sequence fixes: the memo's lookups,
/// entries and evictions.  Two requests of one batch may compute the same memo key at
/// once, turning a hit into a miss, so only the sum of hits and misses is fixed.  The
/// engine counters (busy clocks, steals, idle polls, peak queue) depend on how the
/// scheduler ran, so they are reported, not compared.
fn comparable(memo: &Json) -> Option<[u64; 3]> {
    let count = |key: &str| memo.get(key)?.as_u64();
    Some([
        count("hits")? + count("misses")?,
        count("entries")?,
        count("evictions")?,
    ])
}

/// Does the certificate establish the decision's answer to `request`?
fn certificate_holds(request: &DecisionRequest, decision: &Decision) -> bool {
    let (Ok(answer), Some(certificate)) = (&decision.answer, &decision.certificate) else {
        return false;
    };
    let problem = match request {
        DecisionRequest::Membership { view, instance } => Problem::Membership { view, instance },
        DecisionRequest::Uniqueness { view, instance } => Problem::Uniqueness { view, instance },
        DecisionRequest::Containment { left, right } => Problem::Containment { left, right },
        DecisionRequest::Possibility { view, facts } => Problem::Possibility { view, facts },
        DecisionRequest::Certainty { view, facts } => Problem::Certainty { view, facts },
    };
    pw_check::verify(
        &Claim {
            problem,
            answer: *answer,
        },
        certificate,
    )
    .is_ok()
}

/// The mirror's verdict on one op body: its reply's digest, and whether every
/// decision in it is definite (and, when certified, verified).
#[derive(Clone, Copy)]
struct Verdict {
    reply: Digest,
    sound: bool,
}

fn passes(record: &Record, verdict: Verdict) -> bool {
    record.status == 200 && record.reply == verdict.reply && verdict.sound
}

fn judge(expected: &Expected, certified: bool, certificates: &mut usize) -> Verdict {
    let definite = expected.outcomes.iter().all(|o| o.answer.is_ok());
    let verified = !certified
        || expected
            .requests
            .iter()
            .zip(&expected.outcomes)
            .all(|(request, outcome)| {
                *certificates += 1;
                certificate_holds(request, outcome)
            });
    Verdict {
        reply: Digest::of(&expected.reply),
        sound: definite && verified,
    }
}

pub fn check(
    inputs: &Inputs,
    config: &ServerConfig,
    log: &SetupLog,
    window: &Window,
    tracer: &mut Tracer,
) -> Result<Checked, String> {
    let workload = inputs.workload;
    let mut mirror = Mirror::new(config, tracer.traced() && workload.certifies());
    let mut faults = Vec::new();

    let mut setup = Vec::new();
    for text in &inputs.registrations {
        setup.push(mirror.register(text)?);
    }
    if let Some(text) = &inputs.subscription {
        setup.push(mirror.subscribe(text)?);
    }
    if setup != log.replies {
        faults.push("set-up replies differ from the mirror's".into());
    }

    let warm = log.warm.len();
    let mut known: HashMap<usize, Verdict> = HashMap::new();
    let mut certificates = 0;
    let mut failed = 0;
    let mut warm_totals = mirror.totals();
    let mut traced_totals: Option<(Totals, Totals)> = None;
    let mut sample_decision = None;
    let mut rows = Vec::new();
    for (n, record) in log.warm.iter().chain(&window.records).enumerate() {
        let timed = n >= warm;
        if n == warm {
            warm_totals = mirror.totals();
        }
        let record_op = tracer.traced() && timed && n - warm < TRACE_OPS;
        if record_op && traced_totals.is_none() {
            traced_totals = Some((mirror.totals(), Totals::default()));
        }
        let verdict = if record.shed() {
            // Refused before any session saw it: nothing to replay.
            None
        } else {
            match known.get(&record.body) {
                Some(&verdict) if workload.stateless() && !record_op => Some(verdict),
                _ => {
                    let body = inputs.body(record.body);
                    let root = tracer.begin_op(n, record_op);
                    let expected = mirror.op(&body.path, &body.text, tracer)?;
                    tracer.end_op(root);
                    if tracer.recording() {
                        tracer.sample("serve.json.bytes_in", body.text.len() as f64);
                        tracer.sample("serve.json.bytes_out", expected.reply.len() as f64);
                        match &expected.delta {
                            Some((prev, delta)) => Mirror::probe_delta(prev, delta, tracer),
                            None => mirror.probe_decide(&body.path, &expected, tracer),
                        }
                    }
                    if timed {
                        rows.push(expected.rows);
                    }
                    let verdict = judge(&expected, workload.certifies(), &mut certificates);
                    if sample_decision.is_none() && workload.certifies() {
                        sample_decision = expected
                            .requests
                            .iter()
                            .zip(&expected.outcomes)
                            .find(|(r, o)| {
                                matches!(r, DecisionRequest::Membership { .. })
                                    && o.answer == Ok(true)
                            })
                            .map(|(r, o)| (r.clone(), o.clone()));
                    }
                    known.insert(record.body, verdict);
                    Some(verdict)
                }
            }
        };
        if record_op {
            if let Some((_, after)) = &mut traced_totals {
                *after = mirror.totals();
            }
        }
        if !verdict.is_some_and(|v| passes(record, v)) {
            if timed {
                failed += 1;
            } else {
                faults.push(format!("warm-up op {n} differs from the mirror"));
            }
        }
    }
    let end_totals = mirror.totals();

    if inputs.subscription.is_some() {
        let got = &window.events;
        if !got.iter().enumerate().all(|(i, e)| e.seq == i as u64 + 1) {
            faults.push("flip events are not contiguous".into());
        }
        if window.dropped != 0 {
            faults.push(format!(
                "the reader's queue dropped {} events",
                window.dropped
            ));
        }
        if window.poll_errors != 0 {
            faults.push(format!("{} long-polls failed", window.poll_errors));
        }
        failed += mirror.events.len().abs_diff(got.len())
            + got
                .iter()
                .zip(&mirror.events)
                .filter(|(event, mirrored)| event.text != **mirrored)
                .count();
    }

    // Counter cross-check: with one sender the mirror replays the server's exact op
    // sequence, so the counters it fixes must agree.  Two concurrent senders
    // interleave arbitrarily, so point-decide only reports the comparison.
    let mut counters_match = true;
    for (i, body) in window.stats.iter().enumerate() {
        let json = Json::parse(body).map_err(|e| format!("stats reply: {e}"))?;
        let server = json.get("memo").and_then(comparable);
        let mirrored = mirror.memo_json(i as u64 + 1).as_ref().and_then(comparable);
        if server.is_none() || server != mirrored {
            counters_match = false;
            if !workload.stateless() {
                faults.push(format!(
                    "database {}: server counters {server:?} differ from the mirror's {mirrored:?}",
                    i + 1
                ));
            }
        }
    }

    if let Err(fault) = self_test(window, sample_decision, workload.certifies()) {
        faults.push(fault);
    }
    Ok(Checked {
        failed,
        faults,
        certificates,
        counters_match,
        warm_totals,
        end_totals,
        traced_totals,
        rows,
    })
}

/// The oracle must count a tampered reply, a flipped verdict and a forged certificate
/// as failures.
fn self_test(
    window: &Window,
    sample_decision: Option<(DecisionRequest, Decision)>,
    certified: bool,
) -> Result<(), String> {
    let (record, text) = window
        .sample
        .as_ref()
        .ok_or("self-test: no reply to tamper with")?;
    let verdict = Verdict {
        reply: Digest::of(text),
        sound: true,
    };
    if !passes(record, verdict) {
        return Err("self-test: the sampled reply does not match its own record".into());
    }
    let mut bytes = text.clone().into_bytes();
    let at = bytes
        .iter()
        .position(u8::is_ascii_alphanumeric)
        .ok_or("self-test: nothing to tamper with")?;
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    let forged = Record {
        reply: Digest::of(&String::from_utf8(bytes).expect("ASCII swap keeps UTF-8")),
        ..record.clone()
    };
    if passes(&forged, verdict) {
        return Err("self-test: a tampered reply passed the oracle".into());
    }
    if !certified {
        return Ok(());
    }
    let (request, decision) =
        sample_decision.ok_or("self-test: no certified membership to forge")?;
    if !certificate_holds(&request, &decision) {
        return Err("self-test: the sampled certificate does not verify".into());
    }
    let flipped = Decision {
        answer: decision.answer.clone().map(|answer| !answer),
        ..decision.clone()
    };
    let forged = Decision {
        certificate: Some(Certificate::Exhaustive),
        ..decision
    };
    if certificate_holds(&request, &flipped) || certificate_holds(&request, &forged) {
        return Err("self-test: a forged verdict or certificate passed pw_check".into());
    }
    Ok(())
}
