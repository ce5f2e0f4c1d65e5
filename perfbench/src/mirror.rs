//! The library mirror: the benchmark's replica of `pw-serve`'s handlers for the routes
//! it drives, assembled from the server's own public parts (`pw_serve::wire`,
//! `pw_serve::Json`) over `pw_decide::Session`s configured exactly as the server
//! configures its own.  Each handler calls the library in the order `server.rs` does;
//! the oracle compares every wire reply with the mirror's, and the traced run wraps
//! each call in a span.
//!
//! Not mirrored, because the benchmark never sends them: delta windows, `"flush"`,
//! `"standing": true` decide batches (so the legacy standing list stays empty) and
//! `x-deadline-ms`.

use crate::trace::Tracer;
use pw_core::{CDatabase, Delta};
use pw_decide::{Budget, Decision, DecisionRequest, EngineConfig, Session};
use pw_serve::{wire, Json, ServerConfig};
use std::time::Instant;

struct Entry {
    db: CDatabase,
    session: Session,
    flips_emitted: u64,
    /// Traced point-decide only: an uncertified twin, timed on the same batches to
    /// price certification.
    plain: Option<Session>,
    /// Traced point-decide only: a twin that decides each request alone, timing the
    /// problems one by one.
    single: Option<Session>,
}

/// What the mirror answered for one op.
pub struct Expected {
    pub reply: String,
    pub requests: Vec<DecisionRequest>,
    pub outcomes: Vec<Decision>,
    /// `decide_all`'s wall time in microseconds (decide ops).
    pub decide_us: f64,
    /// The database before a delta op, and the delta (probed by the traced run).
    pub delta: Option<(CDatabase, Delta)>,
    /// Rows of the op's database after the op.
    pub rows: usize,
}

fn rows(db: &CDatabase) -> usize {
    db.tables().iter().map(|t| t.len()).sum()
}

/// Totals over the mirror sessions, in the units of the per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_entries: u64,
    pub busy_total_ns: u64,
    pub busy_max_ns: u64,
    pub steals: u64,
    pub sat_hits: u64,
    pub sat_misses: u64,
    pub sat_entries: u64,
}

pub struct Mirror {
    config: ServerConfig,
    twins: bool,
    entries: Vec<Entry>,
    subscriptions: u64,
    /// The flip events of the subscription, in delivery order.
    pub events: Vec<String>,
}

fn schema_version() -> (String, Json) {
    ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION))
}

/// The server's `with_body`: parse, then check the schema version.
fn parse_body(text: &str) -> Result<Json, String> {
    let body = Json::parse(text).map_err(|e| e.to_string())?;
    wire::check_schema_version(&body).map_err(|e| e.0)?;
    Ok(body)
}

fn field<'a>(body: &'a Json, name: &str) -> Result<&'a Json, String> {
    body.get(name)
        .ok_or_else(|| format!("missing field '{name}'"))
}

fn array<'a>(body: &'a Json, name: &str) -> Result<&'a [Json], String> {
    field(body, name)?
        .as_array()
        .ok_or_else(|| format!("'{name}' is not an array"))
}

/// The per-problem metric a single-request decide is sampled under.
pub fn problem_metric(request: &DecisionRequest) -> &'static str {
    match request {
        DecisionRequest::Membership { .. } => "decide.membership.us",
        DecisionRequest::Uniqueness { .. } => "decide.uniqueness.us",
        DecisionRequest::Containment { .. } => "decide.containment.us",
        DecisionRequest::Possibility { .. } => "decide.possibility.us",
        DecisionRequest::Certainty { .. } => "decide.certainty.us",
    }
}

impl Mirror {
    /// `twins`: build the uncertified and single-request twin sessions too.
    pub fn new(config: &ServerConfig, twins: bool) -> Mirror {
        Mirror {
            config: config.clone(),
            twins,
            entries: Vec::new(),
            subscriptions: 0,
            events: Vec::new(),
        }
    }

    fn entry(&self, id: u64) -> Result<usize, String> {
        usize::try_from(id)
            .ok()
            .and_then(|id| id.checked_sub(1))
            .filter(|&index| index < self.entries.len())
            .ok_or_else(|| format!("no database with id {id}"))
    }

    fn decode_requests(
        &self,
        items: &[Json],
        db: &CDatabase,
    ) -> Result<Vec<DecisionRequest>, String> {
        let resolve = |id: u64| self.entry(id).ok().map(|i| self.entries[i].db.clone());
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                wire::decode_request(item, db, &resolve).map_err(|e| format!("requests[{i}]: {e}"))
            })
            .collect()
    }

    /// Answer one op body sent to `path`.
    pub fn op(&mut self, path: &str, text: &str, tracer: &mut Tracer) -> Result<Expected, String> {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match segments.as_slice() {
            ["v1", "databases", id, route] => {
                let id = id
                    .parse::<u64>()
                    .map_err(|_| format!("bad database id in {path}"))?;
                match *route {
                    "decide" => self.decide(id, text, tracer),
                    "delta" => self.delta(id, text, tracer),
                    _ => Err(format!("unmirrored route {path}")),
                }
            }
            _ => Err(format!("unmirrored route {path}")),
        }
    }

    /// `POST /v1/databases`.
    pub fn register(&mut self, text: &str) -> Result<String, String> {
        let body = parse_body(text)?;
        let db = wire::decode_cdatabase(field(&body, "database")?).map_err(|e| e.0)?;
        let certify = body.get("certify").and_then(Json::as_bool).unwrap_or(false);
        let session = |certify: bool| {
            let mut cfg = EngineConfig::with_threads(
                self.config.session_threads.max(1),
                Budget(self.config.budget),
            );
            cfg.certify = certify;
            Session::new(&cfg)
        };
        let tables = db.table_count();
        let entry = Entry {
            db,
            session: session(certify),
            flips_emitted: 0,
            plain: self.twins.then(|| session(false)),
            single: self.twins.then(|| session(certify)),
        };
        self.entries.push(entry);
        Ok(Json::Object(vec![
            schema_version(),
            ("id".into(), Json::Int(self.entries.len() as i64)),
            ("tables".into(), Json::Int(tables as i64)),
        ])
        .to_string())
    }

    /// `POST /v1/subscriptions` without a window.
    pub fn subscribe(&mut self, text: &str) -> Result<String, String> {
        let body = parse_body(text)?;
        let db_id = field(&body, "database")?
            .as_u64()
            .ok_or("'database' is not an id")?;
        let index = self.entry(db_id)?;
        let db = self.entries[index].db.clone();
        let requests = self.decode_requests(array(&body, "requests")?, &db)?;
        let (ids, baselines) = self.entries[index]
            .session
            .register_standing(&db, &requests);
        self.subscriptions += 1;
        Ok(Json::Object(vec![
            schema_version(),
            ("id".into(), Json::Int(self.subscriptions as i64)),
            ("database".into(), Json::Int(db_id as i64)),
            (
                "request_ids".into(),
                Json::Array(ids.iter().map(|&id| Json::Int(id as i64)).collect()),
            ),
            (
                "baseline".into(),
                Json::Array(baselines.iter().map(wire::encode_decision).collect()),
            ),
            ("window".into(), Json::Null),
        ])
        .to_string())
    }

    /// `POST /v1/databases/{id}/decide`.
    fn decide(&mut self, id: u64, text: &str, tracer: &mut Tracer) -> Result<Expected, String> {
        let body = tracer.span("serve.json.parse", || parse_body(text))?;
        let index = self.entry(id)?;
        let db = self.entries[index].db.clone();
        let items = array(&body, "requests")?;
        let requests = tracer.span("serve.wire.decode", || self.decode_requests(items, &db))?;
        let session = &self.entries[index].session;
        let start = Instant::now();
        let outcomes = tracer.span("decide.batch.decide_all", || session.decide_all(&requests));
        let decide_us = start.elapsed().as_secs_f64() * 1e6;
        let tree = tracer.span("serve.wire.encode", || {
            Json::Object(vec![
                schema_version(),
                (
                    "outcomes".into(),
                    Json::Array(outcomes.iter().map(wire::encode_decision).collect()),
                ),
            ])
        });
        let reply = tracer.span("serve.json.emit", || tree.to_string());
        Ok(Expected {
            reply,
            requests,
            outcomes,
            decide_us,
            delta: None,
            rows: rows(&db),
        })
    }

    /// `POST /v1/databases/{id}/delta` without a window: `redecide_all` over the
    /// (empty) legacy standing list, then `push_delta` for the subscriptions.
    fn delta(&mut self, id: u64, text: &str, tracer: &mut Tracer) -> Result<Expected, String> {
        let body = tracer.span("serve.json.parse", || parse_body(text))?;
        let delta = tracer.span("serve.wire.decode", || {
            wire::decode_delta(field(&body, "delta")?).map_err(|e| e.0)
        })?;
        let index = self.entry(id)?;
        let entry = &mut self.entries[index];
        let prev = entry.db.clone();
        let session = &mut entry.session;
        let redecision = tracer
            .span("decide.batch.redecide_all", || {
                session.redecide_all(&prev, &delta, &[])
            })
            .map_err(|e| e.to_string())?;
        let update = if session.standing_db().is_some() {
            tracer
                .span("decide.batch.push_delta", || session.push_delta(&delta))
                .ok()
        } else {
            None
        };
        entry.db = redecision.db;
        let rows = rows(&entry.db);
        let (flips, redecided, skipped) = match &update {
            Some(u) => (u.flips.as_slice(), u.redecided, u.skipped),
            None => (&[] as &[_], 0, 0),
        };
        tracer.sample("decide.batch.redecided", redecided as f64);
        tracer.sample("decide.batch.skipped", skipped as f64);
        let seq_base = entry.flips_emitted;
        entry.flips_emitted += flips.len() as u64;
        let noop = redecision.change.is_noop();
        let events = &mut self.events;
        let tree = tracer.span("serve.wire.encode", || {
            // The fan-out to the one subscription, numbered by its own sequence.
            for flip in flips {
                let seq = events.len() as u64 + 1;
                events.push(wire::encode_flip(seq, flip).to_string());
            }
            Json::Object(vec![
                schema_version(),
                ("noop".into(), Json::Bool(noop)),
                ("buffered".into(), Json::Bool(false)),
                (
                    "outcomes".into(),
                    Json::Array(
                        redecision
                            .outcomes
                            .iter()
                            .map(wire::encode_decision)
                            .collect(),
                    ),
                ),
                (
                    "flips".into(),
                    Json::Array(
                        flips
                            .iter()
                            .enumerate()
                            .map(|(i, f)| wire::encode_flip(seq_base + i as u64 + 1, f))
                            .collect(),
                    ),
                ),
                ("redecided".into(), Json::Int(redecided as i64)),
                ("skipped".into(), Json::Int(skipped as i64)),
            ])
        });
        let reply = tracer.span("serve.json.emit", || tree.to_string());
        Ok(Expected {
            reply,
            requests: Vec::new(),
            outcomes: redecision.outcomes,
            decide_us: 0.0,
            delta: Some((prev, delta)),
            rows,
        })
    }

    /// The traced run's extra calls after a decide op, outside its op time: the
    /// uncertified twin on the same batch (`decide.certify.us`) and each request alone
    /// (`decide.<problem>.us`).  Without twins a single-request batch is its own
    /// per-problem sample.
    pub fn probe_decide(&self, path: &str, expected: &Expected, tracer: &mut Tracer) {
        let Some(entry) = path
            .split('/')
            .nth(3)
            .and_then(|id| id.parse::<u64>().ok())
            .and_then(|id| self.entry(id).ok())
            .map(|i| &self.entries[i])
        else {
            return;
        };
        if let Some(plain) = &entry.plain {
            if entry.session.engine().config().certify {
                let start = Instant::now();
                plain.decide_all(&expected.requests);
                let plain_us = start.elapsed().as_secs_f64() * 1e6;
                tracer.sample("decide.certify.us", expected.decide_us - plain_us);
            }
        }
        match &entry.single {
            Some(single) => {
                for request in &expected.requests {
                    tracer.time(problem_metric(request), || {
                        single.decide_all(std::slice::from_ref(request))
                    });
                }
            }
            None => {
                if let [request] = expected.requests.as_slice() {
                    tracer.sample(problem_metric(request), expected.decide_us);
                }
            }
        }
    }

    /// The traced run's extra calls after a delta op: the delta applied once more to
    /// the same database (`core.delta.*`), and the post-delta coupling graph built from
    /// scratch (`core.database.*`).
    pub fn probe_delta(prev: &CDatabase, delta: &Delta, tracer: &mut Tracer) {
        let Ok((next, change)) = tracer.time("core.delta.apply_us", || prev.apply(delta)) else {
            return;
        };
        tracer.sample("core.delta.dirty_groups", change.dirty_groups.len() as f64);
        let rebuilt = CDatabase::new(next.tables().to_vec());
        let groups = tracer.time("core.database.shard_groups_us", || {
            rebuilt.shard_groups().len()
        });
        tracer.sample("core.database.groups", groups as f64);
    }

    /// Counters summed over the main sessions (the ones mirroring the server's).
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for entry in &self.entries {
            let engine = entry.session.engine();
            let (memo, stats, sat) = (
                engine.memo_stats(),
                engine.stats(),
                engine.sat_cache().stats(),
            );
            t.memo_hits += memo.hits;
            t.memo_misses += memo.misses;
            t.memo_entries += memo.entries as u64;
            t.busy_total_ns += stats.busy_total_ns;
            t.busy_max_ns = t.busy_max_ns.max(stats.busy_max_ns);
            t.steals += stats.steals_succeeded;
            t.sat_hits += sat.hits;
            t.sat_misses += sat.misses;
            t.sat_entries += sat.entries as u64;
        }
        t
    }

    /// Database `id`'s memo counters as `GET …/stats` encodes them.
    pub fn memo_json(&self, id: u64) -> Option<Json> {
        let engine = self.entries.get(self.entry(id).ok()?)?.session.engine();
        Some(wire::encode_memo_stats(&engine.memo_stats()))
    }
}
