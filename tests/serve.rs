//! Loopback integration tests for `pw-serve`: a real server on `127.0.0.1`, a real
//! TCP client, and the library as the oracle.
//!
//! * **Bit-identical answers** — a wire batch covering all five decision problems
//!   (plus one delta → re-decide cycle over standing requests) must produce, for
//!   every request, exactly the JSON the wire encoder derives from the in-process
//!   [`batch::Session`] run of the same workload: answers, strategies, certificates
//!   and error shapes alike.
//! * **The delta path** — subscribe, `"standing": true`, valid and rejected deltas:
//!   every reply, long-polled flip and memo counter equals a library session driven
//!   through `register_standing` + `push_delta`, and a containment in a separately
//!   registered, equal-valued database is never rebound to the mutated one.
//! * **Bounded admission** — with one worker and a depth-1 queue, a third concurrent
//!   client is refused immediately with `429` and a `Retry-After` header, never
//!   queued or hung; after shutdown begins, late clients get a typed `503` while
//!   admitted work drains.
//! * **Typed refusals** — malformed JSON and oversized bodies answer `400`/`413`
//!   error bodies, and the server survives to serve the next request.

use possible_worlds::core::Delta;
use possible_worlds::decide::{batch, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    member_instance, non_member_instance, random_ctable, random_gtable, TableParams,
};
use pw_serve::json::Json;
use pw_serve::{client, wire, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn params(seed: u64) -> TableParams {
    TableParams {
        rows: 4,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        lame_duck: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// The engine configuration the server builds for a registered database — answers
/// compared against the wire must come from an identically configured session.
fn server_session() -> batch::Session {
    let config = ServerConfig::default();
    batch::Session::new(&EngineConfig::with_threads(
        config.session_threads,
        Budget(config.budget),
    ))
}

fn register(addr: std::net::SocketAddr, db: &CDatabase) -> u64 {
    let body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("database".into(), wire::encode_cdatabase(db)),
    ]);
    let response = client::post_json(addr, "/v1/databases", &body).expect("register reachable");
    assert_eq!(response.status, 201, "register: {}", response.body);
    response
        .json()
        .expect("register body is JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("register body has an id")
}

fn request_json(problem: &str, field: &str, payload: Json) -> Json {
    Json::Object(vec![
        ("problem".to_string(), Json::str(problem)),
        (field.to_string(), payload),
    ])
}

#[test]
fn wire_answers_are_bit_identical_to_the_library() {
    // A mixed-class workload: a c-table and a g-table, plus a second database for
    // containment's right-hand side.
    let db = CDatabase::new([
        random_ctable("R", &params(11)),
        random_gtable("S", &params(12)),
    ]);
    let right = CDatabase::new([
        random_ctable("R", &params(21)),
        random_gtable("S", &params(22)),
    ]);
    let yes = member_instance(&db, &params(31));
    let no = non_member_instance(&db, &params(32));

    // The oracle: the same five requests through the library, on a session
    // configured exactly like the server's.
    let requests = vec![
        batch::DecisionRequest::Membership {
            view: View::identity(db.clone()),
            instance: yes.clone(),
        },
        batch::DecisionRequest::Uniqueness {
            view: View::identity(db.clone()),
            instance: yes.clone(),
        },
        batch::DecisionRequest::Containment {
            left: View::identity(db.clone()),
            right: View::identity(right.clone()),
        },
        batch::DecisionRequest::Possibility {
            view: View::identity(db.clone()),
            facts: no.clone(),
        },
        batch::DecisionRequest::Certainty {
            view: View::identity(db.clone()),
            facts: yes.clone(),
        },
    ];
    let session = server_session();
    let expected = session.decide_all(&requests);

    let server = Server::start(quiet_config()).expect("server starts");
    let addr = server.local_addr();
    let db_id = register(addr, &db);
    let right_id = register(addr, &right);

    let wire_requests = vec![
        request_json("membership", "instance", wire::encode_instance(&yes)),
        request_json("uniqueness", "instance", wire::encode_instance(&yes)),
        request_json("containment", "right", Json::Int(right_id as i64)),
        request_json("possibility", "facts", wire::encode_instance(&no)),
        request_json("certainty", "facts", wire::encode_instance(&yes)),
    ];
    let decide_body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("standing".into(), Json::Bool(true)),
        ("requests".into(), Json::Array(wire_requests)),
    ]);
    let response = client::post_json(addr, &format!("/v1/databases/{db_id}/decide"), &decide_body)
        .expect("decide reachable");
    assert_eq!(response.status, 200, "decide: {}", response.body);
    let outcomes = response.json().expect("decide body is JSON");
    let outcomes = outcomes
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("decide body has outcomes");
    assert_eq!(outcomes.len(), expected.len());
    for (i, (wire_outcome, lib_outcome)) in outcomes.iter().zip(&expected).enumerate() {
        assert_eq!(
            *wire_outcome,
            wire::encode_decision(lib_outcome),
            "request {i}: wire and library disagree"
        );
    }

    // One delta → re-decide cycle: the standing requests replay against the mutated
    // database on both sides of the wire.
    let delta = Delta::new()
        .insert(
            "R",
            CTuple::of_terms([Term::constant(0), Term::constant(1)]),
        )
        .retract("R", 0);
    let expected_redecision = session
        .redecide_all(&db, &delta, &requests)
        .expect("library delta applies");
    let delta_body = Json::Object(vec![
        ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION)),
        ("delta".into(), wire::encode_delta(&delta)),
    ]);
    let response = client::post_json(addr, &format!("/v1/databases/{db_id}/delta"), &delta_body)
        .expect("delta reachable");
    assert_eq!(response.status, 200, "delta: {}", response.body);
    let redecided = response.json().expect("delta body is JSON");
    let redecided = redecided
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("delta body has outcomes");
    assert_eq!(redecided.len(), expected_redecision.outcomes.len());
    for (i, (wire_outcome, lib_outcome)) in redecided
        .iter()
        .zip(&expected_redecision.outcomes)
        .enumerate()
    {
        assert_eq!(
            *wire_outcome,
            wire::encode_decision(lib_outcome),
            "standing request {i} after delta: wire and library disagree"
        );
    }

    // Typed refusals on the same live server: malformed JSON is a 400 with an error
    // body, an oversized body a 413 — and the server keeps serving afterwards.
    let bad = client::request(addr, "POST", "/v1/databases", &[], "{oops").expect("400 reachable");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.json().unwrap().get("error").is_some());
    let huge = "x".repeat(2 << 20);
    let too_big =
        client::request(addr, "POST", "/v1/databases", &[], &huge).expect("413 reachable");
    assert_eq!(too_big.status, 413, "{}", too_big.body);
    let health = client::get(addr, "/healthz").expect("healthz reachable");
    assert_eq!(health.status, 200);

    // Graceful shutdown: the 200 acknowledges the drain; a late client inside the
    // lame-duck window gets a typed 503 with Retry-After; join() returns.
    let drain = client::post_json(
        addr,
        "/v1/shutdown",
        &Json::Object(vec![(
            "schema_version".into(),
            Json::Int(wire::SCHEMA_VERSION),
        )]),
    )
    .expect("shutdown reachable");
    assert_eq!(drain.status, 200, "{}", drain.body);
    let late = client::get(addr, "/healthz").expect("late client answered");
    assert_eq!(late.status, 503, "{}", late.body);
    assert_eq!(
        late.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("shutting-down")
    );
    assert!(late.header("retry-after").is_some());
    server.join();
}

#[test]
fn over_capacity_clients_are_shed_with_429_not_hangs() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(5),
        lame_duck: Duration::from_secs(2),
        ..quiet_config()
    };
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();

    // Occupy the single worker: a connection that sends only half a request keeps
    // the worker blocked in its (timed) read.
    let mut stalled_worker = TcpStream::connect(addr).expect("first client connects");
    stalled_worker
        .write_all(b"POST /healthz HTTP/1.1\r\n")
        .expect("partial request sent");
    std::thread::sleep(Duration::from_millis(300));

    // Fill the depth-1 admission queue with a second stalled connection.
    let mut stalled_queue = TcpStream::connect(addr).expect("second client connects");
    stalled_queue
        .write_all(b"POST /healthz HTTP/1.1\r\n")
        .expect("partial request sent");
    std::thread::sleep(Duration::from_millis(300));

    // The third client must be refused now — a typed 429 with Retry-After, not a
    // queue slot and not a hang.
    let shed = client::get(addr, "/healthz").expect("over-capacity client answered");
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert_eq!(
        shed.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("overloaded")
    );
    assert!(shed.header("retry-after").is_some());

    // Release the stalled connections; the worker unblocks and drains the queue.
    drop(stalled_worker);
    drop(stalled_queue);
    std::thread::sleep(Duration::from_millis(200));
    let health = client::get(addr, "/healthz").expect("healthz reachable after the squeeze");
    assert_eq!(health.status, 200, "{}", health.body);

    server.shutdown();
    server.join();
}

/// Two decoupled Codd relations, `R = {1}` and `S = {2}`.  Built once per call, so two
/// calls give equal *values* that are different databases — registered separately on
/// the wire, they are two databases.
fn two_relation_db() -> CDatabase {
    CDatabase::new([
        CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap(),
        CTable::codd("S", 1, [vec![Term::constant(2)]]).unwrap(),
    ])
}

/// The delta-path workload as the wire spells it: certainty of `R(1)` and of `S(2)`,
/// possibility of `R(3)`, containment in the equal-valued peer database `right_id`, and
/// membership of `{R(1), S(2)}`.
fn delta_path_wire(right_id: u64) -> Vec<Json> {
    let mut world = Instance::single("R", rel![[1]]);
    world.insert_relation("S", rel![[2]]);
    vec![
        request_json(
            "certainty",
            "facts",
            wire::encode_instance(&Instance::single("R", rel![[1]])),
        ),
        request_json(
            "certainty",
            "facts",
            wire::encode_instance(&Instance::single("S", rel![[2]])),
        ),
        request_json(
            "possibility",
            "facts",
            wire::encode_instance(&Instance::single("R", rel![[3]])),
        ),
        request_json("containment", "right", Json::Int(right_id as i64)),
        request_json("membership", "instance", wire::encode_instance(&world)),
    ]
}

/// [`delta_path_wire`] as library requests over `db`, containment's right over `right`.
fn delta_path_requests(db: &CDatabase, right: &CDatabase) -> Vec<batch::DecisionRequest> {
    let view = || View::identity(db.clone());
    let mut world = Instance::single("R", rel![[1]]);
    world.insert_relation("S", rel![[2]]);
    vec![
        batch::DecisionRequest::Certainty {
            view: view(),
            facts: Instance::single("R", rel![[1]]),
        },
        batch::DecisionRequest::Certainty {
            view: view(),
            facts: Instance::single("S", rel![[2]]),
        },
        batch::DecisionRequest::Possibility {
            view: view(),
            facts: Instance::single("R", rel![[3]]),
        },
        batch::DecisionRequest::Containment {
            left: view(),
            right: View::identity(right.clone()),
        },
        batch::DecisionRequest::Membership {
            view: view(),
            instance: world,
        },
    ]
}

fn encoded(outcomes: &[batch::DecisionOutcome]) -> Json {
    Json::Array(outcomes.iter().map(wire::encode_decision).collect())
}

fn post_ok(addr: std::net::SocketAddr, path: &str, body: Vec<(String, Json)>, status: u16) -> Json {
    let mut members = vec![("schema_version".into(), Json::Int(wire::SCHEMA_VERSION))];
    members.extend(body);
    let response = client::post_json(addr, path, &Json::Object(members)).expect("reachable");
    assert_eq!(response.status, status, "{path}: {}", response.body);
    response.json().expect("reply is JSON")
}

/// The whole delta path against a library mirror: register (plus an equal-valued
/// second database) → subscribe → `"standing": true` decide → valid delta → rejected
/// delta → valid delta.  Every reply's `outcomes`, `flips`, `redecided` and `skipped`,
/// the subscription's long-polled flips and the `/stats` memo counters must equal a
/// [`batch::Session`] driven through `register_standing` + `push_delta` and
/// `decide_all`.  Containment in the equal-valued peer must flip to `false` when the
/// delta makes the two databases differ.  Ends with the `409 window-busy` refusal.
#[test]
fn delta_path_matches_a_library_session_bit_for_bit() {
    // One engine thread on both sides: batches run sequentially, so even the memo
    // hit/miss counters are deterministic.
    let config = ServerConfig {
        session_threads: 1,
        ..quiet_config()
    };
    let mut mirror = batch::Session::new(&EngineConfig::with_threads(1, Budget(config.budget)));
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();
    let (a, b) = (two_relation_db(), two_relation_db());
    let a_id = register(addr, &a);
    let b_id = register(addr, &b);
    mirror.register_standing(&a, &[]);

    let requests = delta_path_wire(b_id);
    let reply = post_ok(
        addr,
        "/v1/subscriptions",
        vec![
            ("database".into(), Json::Int(a_id as i64)),
            ("requests".into(), Json::Array(requests.clone())),
        ],
        201,
    );
    let sub_id = reply
        .get("id")
        .and_then(Json::as_u64)
        .expect("subscription id");
    let (ids, baselines) = mirror.register_standing(&a, &delta_path_requests(&a, &b));
    assert_eq!(
        reply.get("request_ids"),
        Some(&Json::Array(
            ids.iter().map(|&id| Json::Int(id as i64)).collect()
        ))
    );
    assert_eq!(reply.get("baseline"), Some(&encoded(&baselines)));

    let decide_path = format!("/v1/databases/{a_id}/decide");
    let reply = post_ok(
        addr,
        &decide_path,
        vec![
            ("standing".into(), Json::Bool(true)),
            ("requests".into(), Json::Array(requests)),
        ],
        200,
    );
    let expected = mirror.decide_all(&delta_path_requests(&a, &b));
    assert_eq!(reply.get("outcomes"), Some(&encoded(&expected)));

    let delta_path = format!("/v1/databases/{a_id}/delta");
    let mut flips_emitted = 0u64;
    let mut mirror_events = Vec::new();
    let mut push = |mirror: &mut batch::Session, delta: &Delta| -> Json {
        let reply = post_ok(
            addr,
            &delta_path,
            vec![("delta".into(), wire::encode_delta(delta))],
            200,
        );
        let update = mirror.push_delta(delta).expect("library delta applies");
        let legacy = mirror.decide_all(&delta_path_requests(&update.db, &b));
        let flips: Vec<Json> = update
            .flips
            .iter()
            .map(|f| {
                flips_emitted += 1;
                mirror_events.push(wire::encode_flip(mirror_events.len() as u64 + 1, f));
                wire::encode_flip(flips_emitted, f)
            })
            .collect();
        assert_eq!(
            reply.get("noop"),
            Some(&Json::Bool(update.change.is_noop()))
        );
        assert_eq!(reply.get("outcomes"), Some(&encoded(&legacy)));
        assert_eq!(reply.get("flips"), Some(&Json::Array(flips)));
        assert_eq!(
            reply.get("redecided").and_then(Json::as_u64),
            Some(update.redecided as u64)
        );
        assert_eq!(
            reply.get("skipped").and_then(Json::as_u64),
            Some(update.skipped as u64)
        );
        reply
    };

    // R gains 3: possibility of R(3) flips to true; membership and containment in the
    // equal-valued peer flip to false; certainty of S(2) is skipped outright.
    let reply = push(
        &mut mirror,
        &Delta::new().insert("R", CTuple::of_terms([Term::constant(3)])),
    );
    let outcomes = reply.get("outcomes").and_then(Json::as_array).unwrap();
    assert_eq!(outcomes[3].get("answer"), Some(&Json::Bool(false)));
    assert_eq!(
        reply.get("flips").and_then(Json::as_array).unwrap().len(),
        3
    );
    assert_eq!(reply.get("skipped").and_then(Json::as_u64), Some(1));

    // A retract of a row that does not exist is refused and changes nothing.
    let bad = Delta::new().retract("R", 99);
    post_ok(
        addr,
        &delta_path,
        vec![("delta".into(), wire::encode_delta(&bad))],
        400,
    );
    assert!(mirror.push_delta(&bad).is_err());

    // R loses 1: certainty of R(1) flips to false.
    let reply = push(&mut mirror, &Delta::new().retract("R", 0));
    assert_eq!(
        reply.get("flips").and_then(Json::as_array).unwrap().len(),
        1
    );

    let polled = client::get(addr, &format!("/v1/subscriptions/{sub_id}/flips"))
        .expect("flips reachable")
        .json()
        .expect("flips reply is JSON");
    assert_eq!(polled.get("events"), Some(&Json::Array(mirror_events)));

    let stats = client::get(addr, &format!("/v1/databases/{a_id}/stats"))
        .expect("stats reachable")
        .json()
        .expect("stats reply is JSON");
    assert_eq!(
        stats.get("memo"),
        Some(&wire::encode_memo_stats(&mirror.engine().memo_stats()))
    );
    for (field, value) in [
        ("standing_requests", 5),
        ("subscribed_requests", 5),
        ("deltas_received", 3),
        ("deltas_applied", 2),
        ("flips_emitted", 4),
    ] {
        assert_eq!(
            stats.get(field).and_then(Json::as_u64),
            Some(value),
            "{field}"
        );
    }

    // A window holding a buffered delta refuses to be replaced.
    let windowed = |status| {
        post_ok(
            addr,
            "/v1/subscriptions",
            vec![
                ("database".into(), Json::Int(a_id as i64)),
                ("requests".into(), Json::Array(delta_path_wire(b_id))),
                (
                    "window".into(),
                    Json::parse(r#"{"kind":"tumbling","size":2}"#).unwrap(),
                ),
            ],
            status,
        )
    };
    windowed(201);
    let reply = post_ok(
        addr,
        &delta_path,
        vec![(
            "delta".into(),
            wire::encode_delta(&Delta::new().insert("S", CTuple::of_terms([Term::constant(5)]))),
        )],
        200,
    );
    assert_eq!(reply.get("buffered"), Some(&Json::Bool(true)));
    let refusal = windowed(409);
    assert_eq!(
        refusal
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("window-busy")
    );

    server.shutdown();
    server.join();
}
