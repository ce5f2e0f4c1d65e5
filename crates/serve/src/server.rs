//! The service: a bounded-admission HTTP front end over [`pw_decide::Session`]s.
//!
//! ## Shape
//!
//! One OS thread accepts connections; a small fixed pool of worker threads serves
//! them, one request per connection.  Admission is a bounded queue
//! ([`std::sync::mpsc::sync_channel`]) between the two: when every worker is busy and
//! the queue is full, the accept thread *sheds* the connection with `429 Too Many
//! Requests` and a `Retry-After` header instead of queueing it unboundedly — latency
//! under overload is a refusal, never a hang.  During shutdown the same path sheds
//! with `503 Service Unavailable` while the workers drain the connections already
//! admitted.
//!
//! ## State
//!
//! Each registered c-database gets a `DbEntry` with two locks.  `state` guards the
//! `DbState`: a long-lived [`Session`] (so repeated and incremental decisions hit the
//! engine's caches), the legacy `"standing": true` request list, the delta window, the
//! flip routes and the counters.  The session's standing database — bound at
//! registration — is the **only** authoritative value of the database: every delta is
//! applied exactly once, by `Session::push_delta`.  `snapshot` is the one published
//! copy of that value, a clone of the same handle written after each applied delta,
//! for the cross-database containment resolver: a decide on one database reads a
//! peer's snapshot and never takes a peer's state lock, so two cross-referencing
//! decides cannot deadlock.
//!
//! Lock order is `state → registry → subscriptions → snapshot → flip queue`.  `state`
//! is held for a whole decide/delta/subscribe cycle; the others are held briefly and
//! never while acquiring another lock.
//!
//! ## Standing queries
//!
//! `POST /v1/subscriptions` registers decision requests as **standing queries** on a
//! database's session ([`pw_decide::Session`]'s subscription index), optionally
//! configuring a [`DeltaWindow`] over the database's mutation stream.  Each applied
//! delta then runs `Session::push_delta`, and the verdict flips fan out to the
//! subscriptions' bounded flip queues; `GET /v1/subscriptions/{id}/flips` long-polls
//! those queues.  A full queue drops its *oldest* events and counts them in `dropped`
//! — a slow consumer learns how much it missed, and the newest flips (the current
//! verdicts) always survive.
//!
//! ## Robustness
//!
//! Sockets carry read/write timeouts, bodies and heads are size-capped before
//! parsing, malformed JSON or wire values answer `400` with a typed error body, and a
//! panic inside a handler is caught at the worker boundary and answered with `500` —
//! the worker survives.

use crate::http::{read_request, write_response, Request};
use crate::json::Json;
use crate::wire;
use pw_core::{CDatabase, Delta, DeltaWindow};
use pw_decide::{Budget, DecisionRequest, EngineConfig, Session, VerdictFlip};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].  [`ServerConfig::default`] is sized for a smoke test
/// or a small deployment; every field has a `pw-serve` command-line flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Admitted-but-unserved connections the queue holds before shedding with `429`.
    pub queue_depth: usize,
    /// Request body cap in bytes; larger bodies are refused with `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout (a stalled client is answered `408` and dropped).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Per-request search budget of every database session.
    pub budget: u64,
    /// Engine threads per database session.
    pub session_threads: usize,
    /// Lame-duck window after shutdown starts: connections arriving within it are
    /// refused with a typed `503` + `Retry-After` instead of a connection reset.
    pub lame_duck: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            budget: 1_000_000,
            session_threads: 2,
            lame_duck: Duration::from_millis(500),
        }
    }
}

/// One registered database (see the module-level "State" notes).
struct DbEntry {
    /// Everything a decide/delta/subscribe cycle reads or writes; held for the cycle.
    state: Mutex<DbState>,
    /// The published copy of the session's standing database, read by other
    /// databases' containment resolvers.
    snapshot: Mutex<CDatabase>,
}

struct DbState {
    /// The long-lived session.  Its standing set is bound at registration, so
    /// [`Session::standing_db`] always holds the database's current value.
    session: Session,
    /// The legacy `"standing": true` list, as *wire* request objects re-decoded
    /// against the current value after every delta — a decoded
    /// [`pw_decide::DecisionRequest`] pins the version it was decoded against, and the
    /// wire form is the cheap, always-current spelling.
    standing: Vec<Json>,
    /// The delta window governing this database's mutation stream, when a
    /// subscription configured one: deltas buffer here and apply compacted.
    window: Option<DeltaWindow>,
    /// Verdict-flip routing: standing request id → the subscription to notify.
    routes: HashMap<u64, Arc<Subscription>>,
    deltas_received: u64,
    deltas_applied: u64,
    flips_emitted: u64,
}

impl DbState {
    /// The database's current (and only authoritative) value.
    fn db(&self) -> &CDatabase {
        self.session
            .standing_db()
            .expect("the standing set is bound at registration")
    }
}

/// Events a slow long-poller can lag behind before the oldest are dropped (and
/// counted in the response's `dropped` field).
const FLIP_QUEUE_CAP: usize = 1024;

/// One standing-query subscription: which database feeds it, which standing request
/// ids it covers, and the bounded queue its flip events wait in until a long-poll
/// drains them.
struct Subscription {
    db_id: u64,
    request_ids: Vec<u64>,
    queue: Mutex<FlipQueue>,
    /// Signalled when events arrive; `flips` long-polls wait on it.
    ready: Condvar,
}

struct FlipQueue {
    events: VecDeque<Json>,
    next_seq: u64,
    dropped: u64,
}

impl Subscription {
    /// Enqueue one flip event under the subscription's own sequence numbering,
    /// dropping the oldest beyond the cap, and wake the long-pollers.
    fn push_flip(&self, flip: &VerdictFlip) {
        let mut queue = lock(&self.queue);
        let seq = queue.next_seq;
        queue.next_seq += 1;
        let event = wire::encode_flip(seq, flip);
        if queue.events.len() >= FLIP_QUEUE_CAP {
            queue.events.pop_front();
            queue.dropped += 1;
        }
        queue.events.push_back(event);
        self.ready.notify_all();
    }
}

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    stopping: AtomicBool,
    next_id: AtomicU64,
    next_sub_id: AtomicU64,
    registry: Mutex<HashMap<u64, Arc<DbEntry>>>,
    subscriptions: Mutex<HashMap<u64, Arc<Subscription>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server.  Dropping the handle does *not* stop it; POST `/v1/shutdown` (or
/// [`Server::shutdown`]) initiates a graceful drain, and [`Server::join`] waits for
/// it to finish.
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start the accept and worker threads.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr,
            stopping: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_sub_id: AtomicU64::new(0),
            registry: Mutex::new(HashMap::new()),
            subscriptions: Mutex::new(HashMap::new()),
            config,
        });

        let (tx, rx) = sync_channel::<TcpStream>(shared.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            // `tx` moves in here; when this loop exits the sender drops, the channel
            // disconnects, and the workers exit once the queue is drained — that drop
            // *is* the graceful-drain mechanism.
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                if accept_shared.stopping.load(Ordering::SeqCst) {
                    shed(
                        &accept_shared,
                        stream,
                        503,
                        "shutting-down",
                        "server is shutting down",
                    );
                    break;
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        shed(
                            &accept_shared,
                            stream,
                            429,
                            "overloaded",
                            "admission queue is full, retry later",
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Lame duck: for a short window, clients racing the shutdown still get a
            // typed 503 + Retry-After instead of a connection reset.
            let _ = listener.set_nonblocking(true);
            let gone = std::time::Instant::now() + accept_shared.config.lame_duck;
            while std::time::Instant::now() < gone {
                match listener.accept() {
                    Ok((stream, _)) => {
                        shed(
                            &accept_shared,
                            stream,
                            503,
                            "shutting-down",
                            "server is shutting down",
                        );
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });

        Ok(Server {
            shared,
            accept,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiate a graceful shutdown: stop admitting, drain admitted connections.
    /// Equivalent to `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Wait until the accept thread and every worker have exited (i.e. the drain is
    /// complete).
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Flag the stop and poke the blocking `accept` with a throwaway connection so it
/// observes the flag now rather than at the next organic arrival.
fn request_shutdown(shared: &Shared) {
    if !shared.stopping.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Refuse a connection that was never admitted.  Runs on its own thread so a slow
/// peer cannot stall the accept loop; drains whatever request bytes the client
/// already sent (so the refusal is not lost to a connection reset), then answers
/// `status` with `Retry-After`.
fn shed(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    status: u16,
    code: &'static str,
    message: &str,
) {
    let body = error_body(code, message);
    let write_timeout = shared.config.write_timeout;
    std::thread::spawn(move || {
        // Accepted during a nonblocking lame-duck accept, the socket may need
        // resetting to blocking before the timed reads below behave.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.set_write_timeout(Some(write_timeout));
        let mut sink = [0u8; 4096];
        for _ in 0..64 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let _ = write_response(
            &mut stream,
            status,
            &[("retry-after", "1".to_string())],
            body.as_bytes(),
        );
    });
}

fn worker_loop(shared: &Arc<Shared>, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = lock(rx).recv();
        let Ok(mut stream) = next else { return };
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(shared, &mut stream)));
        if outcome.is_err() {
            // The handler panicked; the connection may not have been answered yet.
            let _ = write_response(
                &mut stream,
                500,
                &[],
                error_body("internal", "request handler panicked").as_bytes(),
            );
        }
    }
}

fn serve_connection(shared: &Shared, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let (status, extra, body) = match read_request(stream, shared.config.max_body_bytes) {
        Ok(request) => handle(shared, &request),
        Err(e) => (e.status, Vec::new(), error_body(e.code, &e.message)),
    };
    let _ = write_response(stream, status, &extra, body.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain any unread bytes so closing does not reset the connection under the
    // response we just wrote.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

type Reply = (u16, Vec<(&'static str, String)>, String);

fn ok_reply(status: u16, body: Json) -> Reply {
    (status, Vec::new(), body.to_string())
}

fn error_reply(status: u16, code: &str, message: &str) -> Reply {
    (status, Vec::new(), error_body(code, message))
}

fn error_body(code: &str, message: &str) -> String {
    Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        (
            "error".into(),
            Json::Object(vec![
                ("code".into(), Json::str(code)),
                ("message".into(), Json::str(message)),
            ]),
        ),
    ])
    .to_string()
}

fn handle(shared: &Shared, request: &Request) -> Reply {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            ok_reply(200, Json::Object(vec![("status".into(), Json::str("ok"))]))
        }
        ("POST", ["v1", "shutdown"]) => {
            request_shutdown(shared);
            ok_reply(
                200,
                Json::Object(vec![
                    ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
                    ("status".into(), Json::str("draining")),
                ]),
            )
        }
        ("POST", ["v1", "databases"]) => with_body(request, |body| register(shared, body)),
        ("POST", ["v1", "databases", id, "decide"]) => match parse_id(id) {
            Some(id) => with_body(request, |body| decide(shared, id, request, body)),
            None => bad_id(id),
        },
        ("POST", ["v1", "databases", id, "delta"]) => match parse_id(id) {
            Some(id) => with_body(request, |body| delta(shared, id, body)),
            None => bad_id(id),
        },
        ("GET", ["v1", "databases", id, "stats"]) => match parse_id(id) {
            Some(id) => stats(shared, id),
            None => bad_id(id),
        },
        ("POST", ["v1", "subscriptions"]) => with_body(request, |body| subscribe(shared, body)),
        ("GET", ["v1", "subscriptions", sid, "flips"]) => match parse_id(sid) {
            Some(sid) => flips(shared, sid, request),
            None => error_reply(
                400,
                "bad-request",
                &format!("{sid:?} is not a subscription id"),
            ),
        },
        (_, ["healthz"]) | (_, ["v1", "shutdown" | "databases" | "subscriptions", ..]) => (
            405,
            Vec::new(),
            error_body(
                "method-not-allowed",
                &format!("{} is not supported on {}", request.method, request.path),
            ),
        ),
        _ => error_reply(404, "not-found", &format!("no route for {}", request.path)),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse::<u64>().ok()
}

fn bad_id(text: &str) -> Reply {
    error_reply(
        400,
        "bad-request",
        &format!("{text:?} is not a database id"),
    )
}

/// Parse the body as JSON (the HTTP layer already enforced the byte cap), check the
/// schema version, and hand the tree to `f`.
fn with_body(request: &Request, f: impl FnOnce(&Json) -> Reply) -> Reply {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return error_reply(400, "bad-request", "body is not valid UTF-8"),
    };
    let body = match Json::parse(text) {
        Ok(b) => b,
        Err(e) => return error_reply(400, "bad-request", &e.to_string()),
    };
    if let Err(e) = wire::check_schema_version(&body) {
        return error_reply(400, "bad-request", &e.0);
    }
    f(&body)
}

fn entry_of(shared: &Shared, id: u64) -> Option<Arc<DbEntry>> {
    lock(&shared.registry).get(&id).cloned()
}

/// The containment right-hand-side resolver: brief registry + snapshot locks, never a
/// peer's state lock (see the module-level lock order).
fn db_of(shared: &Shared, id: u64) -> Option<CDatabase> {
    let entry = entry_of(shared, id)?;
    let db = lock(&entry.snapshot).clone();
    Some(db)
}

fn register(shared: &Shared, body: &Json) -> Reply {
    let Some(db_json) = body.get("database") else {
        return error_reply(400, "bad-request", "missing field 'database'");
    };
    let db = match wire::decode_cdatabase(db_json) {
        Ok(db) => db,
        Err(e) => return error_reply(400, "bad-request", &e.0),
    };
    let certify = body.get("certify").and_then(Json::as_bool).unwrap_or(false);
    let mut cfg = EngineConfig::with_threads(
        shared.config.session_threads.max(1),
        Budget(shared.config.budget),
    );
    cfg.certify = certify;
    let mut session = Session::new(&cfg);
    // Bind the standing set now: from here on the session's standing database is the
    // database's one authoritative value.  An empty set decides nothing.
    session.register_standing(&db, &[]);
    let tables = db.table_count();
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    lock(&shared.registry).insert(
        id,
        Arc::new(DbEntry {
            snapshot: Mutex::new(db),
            state: Mutex::new(DbState {
                session,
                standing: Vec::new(),
                window: None,
                routes: HashMap::new(),
                deltas_received: 0,
                deltas_applied: 0,
                flips_emitted: 0,
            }),
        }),
    );
    ok_reply(
        201,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("id".into(), Json::Int(id as i64)),
            ("tables".into(), Json::Int(tables as i64)),
        ]),
    )
}

/// The per-request deadline: the `x-deadline-ms` header wins, then a `deadline_ms`
/// body field; absent both, the session's configured (un)limits apply.
fn deadline_of(request: &Request, body: &Json) -> Result<Option<Duration>, String> {
    let text = request
        .header("x-deadline-ms")
        .map(str::to_string)
        .or_else(|| body.get("deadline_ms").map(|j| j.to_string()));
    match text {
        None => Ok(None),
        Some(t) => match t.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
            _ => Err(format!(
                "deadline {t:?} is not a positive integer of milliseconds"
            )),
        },
    }
}

fn decide(shared: &Shared, id: u64, request: &Request, body: &Json) -> Reply {
    let Some(entry) = entry_of(shared, id) else {
        return error_reply(404, "not-found", &format!("no database with id {id}"));
    };
    let deadline = match deadline_of(request, body) {
        Ok(d) => d,
        Err(message) => return error_reply(400, "bad-request", &message),
    };
    let Some(requests_json) = body.get("requests").and_then(Json::as_array) else {
        return error_reply(400, "bad-request", "missing array field 'requests'");
    };
    let standing = body
        .get("standing")
        .and_then(Json::as_bool)
        .unwrap_or(false);

    let mut state = lock(&entry.state);
    let requests = match decode_requests(shared, requests_json, state.db()) {
        Ok(requests) => requests,
        Err(message) => return error_reply(400, "bad-request", &message),
    };
    let outcomes = match deadline {
        Some(d) => state.session.decide_all_within(&requests, d),
        None => state.session.decide_all(&requests),
    };
    if standing {
        state.standing = requests_json.to_vec();
    }
    ok_reply(
        200,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            (
                "outcomes".into(),
                Json::Array(outcomes.iter().map(wire::encode_decision).collect()),
            ),
        ]),
    )
}

/// Decode wire requests against `db`, resolving containment right-hand sides through
/// the published snapshots; the error names the offending position.
fn decode_requests(
    shared: &Shared,
    requests_json: &[Json],
    db: &CDatabase,
) -> Result<Vec<DecisionRequest>, String> {
    let resolve = |rid: u64| db_of(shared, rid);
    requests_json
        .iter()
        .enumerate()
        .map(|(i, rj)| {
            wire::decode_request(rj, db, &resolve).map_err(|e| format!("requests[{i}]: {e}"))
        })
        .collect()
}

fn delta(shared: &Shared, id: u64, body: &Json) -> Reply {
    let Some(entry) = entry_of(shared, id) else {
        return error_reply(404, "not-found", &format!("no database with id {id}"));
    };
    let flush = body.get("flush").and_then(Json::as_bool).unwrap_or(false);
    let incoming = match body.get("delta") {
        Some(j) => match wire::decode_delta(j) {
            Ok(d) => Some(d),
            Err(e) => return error_reply(400, "bad-request", &e.0),
        },
        None if flush => None,
        None => return error_reply(400, "bad-request", "missing field 'delta'"),
    };

    let mut guard = lock(&entry.state);
    let state = &mut *guard;
    if incoming.is_some() {
        state.deltas_received += 1;
    }
    // Window gate: with a window configured, deltas buffer until the window emits a
    // compacted batch (on its own cadence, or forced now by `"flush": true`).
    let applied: Delta = match (state.window.as_mut(), incoming) {
        (None, Some(delta)) => delta,
        (None, None) => return error_reply(400, "bad-request", "'flush' requires a delta window"),
        (Some(window), incoming) => {
            let emitted = match incoming {
                Some(delta) => match window.push(delta) {
                    Ok(emitted) => emitted,
                    Err(e) => return error_reply(400, "bad-delta", &e.to_string()),
                },
                None => None,
            };
            let emitted = match emitted {
                Some(d) => Some(d),
                None if flush => window.flush(),
                None => None,
            };
            match emitted {
                Some(d) => d,
                None => return ok_reply(200, buffered_reply(window.pending())),
            }
        }
    };

    let update = match state.session.push_delta(&applied) {
        Ok(update) => update,
        Err(e) => {
            // A window validated this delta before emitting it, so `apply` accepting
            // it is the expected case; on the unexpected rejection, rebase the window
            // over the unchanged database so the two cannot drift apart.
            if let Some(kind) = state.window.as_ref().map(DeltaWindow::kind) {
                state.window = Some(DeltaWindow::new(state.db(), kind));
            }
            return error_reply(400, "bad-delta", &e.to_string());
        }
    };
    *lock(&entry.snapshot) = update.db.clone();
    state.deltas_applied += 1;

    let seq_base = state.flips_emitted;
    state.flips_emitted += update.flips.len() as u64;
    for flip in &update.flips {
        if let Some(sub) = state.routes.get(&flip.request_id) {
            sub.push_flip(flip);
        }
    }
    // The legacy list, decoded against the new value (its spelling never names a
    // version) and decided afresh: clean groups replay from the memo.
    let standing = match decode_requests(shared, &state.standing, &update.db) {
        Ok(requests) => requests,
        Err(message) => {
            return error_reply(
                500,
                "internal",
                &format!("the standing list no longer decodes: {message}"),
            )
        }
    };
    let outcomes = state.session.decide_all(&standing);
    drop(guard);
    ok_reply(
        200,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("noop".into(), Json::Bool(update.change.is_noop())),
            ("buffered".into(), Json::Bool(false)),
            (
                "outcomes".into(),
                Json::Array(outcomes.iter().map(wire::encode_decision).collect()),
            ),
            (
                "flips".into(),
                Json::Array(
                    update
                        .flips
                        .iter()
                        .enumerate()
                        .map(|(i, f)| wire::encode_flip(seq_base + i as u64 + 1, f))
                        .collect(),
                ),
            ),
            ("redecided".into(), Json::Int(update.redecided as i64)),
            ("skipped".into(), Json::Int(update.skipped as i64)),
        ]),
    )
}

/// The `POST …/delta` reply while a window is buffering: nothing applied yet.
fn buffered_reply(pending: usize) -> Json {
    Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("noop".into(), Json::Bool(true)),
        ("buffered".into(), Json::Bool(true)),
        ("pending".into(), Json::Int(pending as i64)),
        ("outcomes".into(), Json::Array(Vec::new())),
        ("flips".into(), Json::Array(Vec::new())),
        ("redecided".into(), Json::Int(0)),
        ("skipped".into(), Json::Int(0)),
    ])
}

/// `POST /v1/subscriptions` — register standing queries over a database and open a
/// flip subscription, optionally configuring a delta window on the database's
/// mutation stream.
fn subscribe(shared: &Shared, body: &Json) -> Reply {
    let Some(db_id) = body.get("database").and_then(Json::as_u64) else {
        return error_reply(400, "bad-request", "missing integer field 'database'");
    };
    let Some(entry) = entry_of(shared, db_id) else {
        return error_reply(404, "not-found", &format!("no database with id {db_id}"));
    };
    let Some(requests_json) = body.get("requests").and_then(Json::as_array) else {
        return error_reply(400, "bad-request", "missing array field 'requests'");
    };
    if requests_json.is_empty() {
        return error_reply(400, "bad-request", "'requests' must not be empty");
    }
    let window = match body.get("window") {
        None => None,
        Some(wj) => match wire::decode_window(wj) {
            Ok(kind) => Some(kind),
            Err(e) => return error_reply(400, "bad-request", &e.0),
        },
    };

    let mut guard = lock(&entry.state);
    let state = &mut *guard;
    let db = state.db().clone();
    let requests = match decode_requests(shared, requests_json, &db) {
        Ok(requests) => requests,
        Err(message) => return error_reply(400, "bad-request", &message),
    };
    if let Some(kind) = window {
        // Replacing a window is only safe while it holds nothing: buffered deltas are
        // phrased against the virtual row counts and would be lost wholesale.
        match &state.window {
            Some(active) if active.pending() > 0 => {
                return error_reply(
                    409,
                    "window-busy",
                    &format!(
                        "the active delta window holds {} buffered deltas; flush before reconfiguring",
                        active.pending()
                    ),
                );
            }
            _ => state.window = Some(DeltaWindow::new(&db, kind)),
        }
    }
    let (ids, baselines) = state.session.register_standing(&db, &requests);
    let sub_id = shared.next_sub_id.fetch_add(1, Ordering::SeqCst) + 1;
    let sub = Arc::new(Subscription {
        db_id,
        request_ids: ids.clone(),
        queue: Mutex::new(FlipQueue {
            events: VecDeque::new(),
            next_seq: 1,
            dropped: 0,
        }),
        ready: Condvar::new(),
    });
    lock(&shared.subscriptions).insert(sub_id, Arc::clone(&sub));
    for &rid in &ids {
        state.routes.insert(rid, Arc::clone(&sub));
    }
    drop(guard);
    ok_reply(
        201,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("id".into(), Json::Int(sub_id as i64)),
            ("database".into(), Json::Int(db_id as i64)),
            (
                "request_ids".into(),
                Json::Array(ids.iter().map(|&rid| Json::Int(rid as i64)).collect()),
            ),
            (
                "baseline".into(),
                Json::Array(baselines.iter().map(wire::encode_decision).collect()),
            ),
            (
                "window".into(),
                match window {
                    Some(kind) => wire::encode_window(kind),
                    None => Json::Null,
                },
            ),
        ]),
    )
}

/// `GET /v1/subscriptions/{id}/flips` — long-poll the subscription's flip queue.
/// Query parameters: `timeout_ms` (0–10000, default 0 = answer immediately) and
/// `max` (1–256 events per response, default 64).
fn flips(shared: &Shared, sid: u64, request: &Request) -> Reply {
    let Some(sub) = lock(&shared.subscriptions).get(&sid).cloned() else {
        return error_reply(404, "not-found", &format!("no subscription with id {sid}"));
    };
    let mut timeout_ms: u64 = 0;
    let mut max: usize = 64;
    for pair in request.query.split('&').filter(|s| !s.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "timeout_ms" => match value.parse::<u64>() {
                Ok(ms) => timeout_ms = ms.min(10_000),
                Err(_) => {
                    return error_reply(
                        400,
                        "bad-request",
                        &format!("timeout_ms {value:?} is not an integer"),
                    )
                }
            },
            "max" => match value.parse::<usize>() {
                Ok(m) if m >= 1 => max = m.min(256),
                _ => {
                    return error_reply(
                        400,
                        "bad-request",
                        &format!("max {value:?} is not a positive integer"),
                    )
                }
            },
            _ => {
                return error_reply(
                    400,
                    "bad-request",
                    &format!("unknown query parameter {key:?}"),
                )
            }
        }
    }
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut queue = lock(&sub.queue);
    // Wait in short slices so shutdown is observed promptly even mid-poll.
    while queue.events.is_empty() && !shared.stopping.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let slice = (deadline - now).min(Duration::from_millis(250));
        queue = sub
            .ready
            .wait_timeout(queue, slice)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
    let take = queue.events.len().min(max);
    let events: Vec<Json> = queue.events.drain(..take).collect();
    let dropped = queue.dropped;
    queue.dropped = 0;
    let pending = queue.events.len();
    drop(queue);
    ok_reply(
        200,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("id".into(), Json::Int(sid as i64)),
            (
                "request_ids".into(),
                Json::Array(
                    sub.request_ids
                        .iter()
                        .map(|&rid| Json::Int(rid as i64))
                        .collect(),
                ),
            ),
            ("events".into(), Json::Array(events)),
            ("dropped".into(), Json::Int(dropped as i64)),
            ("pending".into(), Json::Int(pending as i64)),
        ]),
    )
}

fn stats(shared: &Shared, id: u64) -> Reply {
    let Some(entry) = entry_of(shared, id) else {
        return error_reply(404, "not-found", &format!("no database with id {id}"));
    };
    let subscriptions = lock(&shared.subscriptions)
        .values()
        .filter(|s| s.db_id == id)
        .count();
    let state = lock(&entry.state);
    let engine_stats = state.session.engine().stats();
    let memo_stats = state.session.engine().memo_stats();
    let (window_pending, window_spec) = match &state.window {
        Some(w) => (w.pending() as i64, wire::encode_window(w.kind())),
        None => (0, Json::Null),
    };
    ok_reply(
        200,
        Json::Object(vec![
            ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
            ("engine".into(), wire::encode_engine_stats(&engine_stats)),
            ("memo".into(), wire::encode_memo_stats(&memo_stats)),
            (
                "standing_requests".into(),
                Json::Int(state.standing.len() as i64),
            ),
            (
                "subscribed_requests".into(),
                Json::Int(state.session.standing_len() as i64),
            ),
            ("subscriptions".into(), Json::Int(subscriptions as i64)),
            (
                "deltas_received".into(),
                Json::Int(state.deltas_received as i64),
            ),
            (
                "deltas_applied".into(),
                Json::Int(state.deltas_applied as i64),
            ),
            (
                "flips_emitted".into(),
                Json::Int(state.flips_emitted as i64),
            ),
            ("window_pending".into(), Json::Int(window_pending)),
            ("window".into(), window_spec),
        ]),
    )
}

/// A tiny blocking HTTP client for the smoke binary and the loopback tests: one
/// request, one response, connection closed.  Not a general client — it reads the
/// whole response into memory and follows nothing.
pub mod client {
    use super::*;

    /// A parsed response.
    #[derive(Clone, Debug)]
    pub struct Response {
        /// HTTP status code.
        pub status: u16,
        /// Lowercased header `(name, value)` pairs.
        pub headers: Vec<(String, String)>,
        /// The body as text.
        pub body: String,
    }

    impl Response {
        /// The first header named `name` (lowercase), if present.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// Parse the body as JSON.
        pub fn json(&self) -> Result<Json, crate::json::JsonError> {
            Json::parse(&self.body)
        }
    }

    /// Send one request and read the response to EOF.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// POST a JSON body.
    pub fn post_json(addr: SocketAddr, path: &str, body: &Json) -> io::Result<Response> {
        request(addr, "POST", path, &[], &body.to_string())
    }

    /// GET a path.
    pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
        request(addr, "GET", path, &[], "")
    }

    fn parse_response(raw: &[u8]) -> io::Result<Response> {
        let text = String::from_utf8_lossy(raw);
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
        let headers = lines
            .filter_map(|line| {
                line.split_once(':')
                    .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            })
            .collect();
        Ok(Response {
            status,
            headers,
            body: body.to_string(),
        })
    }
}
