//! Seeded inputs: what each workload registers, subscribes and sends.
//!
//! Everything here is a function of `(workload, seed, seconds)`.  The server only ever
//! receives the generated JSON bodies; the oracle decodes the same bodies through the
//! library.  Point-decide picks op `k`'s batch, and hard-decide builds op `k`'s body,
//! from `(seed, k)` when the op is sent, so neither holds an op sequence in memory;
//! delta-stream stores its stream.

use crate::stats::fnv1a;
use pw_core::{CDatabase, CTable};
use pw_relational::{Constant, Instance, Relation, Tuple};
use pw_serve::{wire, Json};
use pw_workloads::{
    coupled_heavy_membership, decoupled_multirelation, flip_sparse_stream, member_instance,
    non_member_instance, random_codd_table, random_ctable, random_etable, random_gtable,
    stringify_database, stringify_instance, SkewedParams, StreamProblem, TableParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// The three traffic mixes (README.md says why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointDecide,
    HardDecide,
    DeltaStream,
}

/// How set-up warms a fresh server: `first` ops, then rounds of `round` ops until the
/// servers' memo entry count stops changing, at most `max_rounds` rounds.  Hard-decide
/// never repeats a request, so its memo grows on every op: it warms a fixed `first`.
pub struct WarmUp {
    pub first: usize,
    pub round: usize,
    pub max_rounds: usize,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point-decide" => Some(Workload::PointDecide),
            "hard-decide" => Some(Workload::HardDecide),
            "delta-stream" => Some(Workload::DeltaStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointDecide => "point-decide",
            Workload::HardDecide => "hard-decide",
            Workload::DeltaStream => "delta-stream",
        }
    }

    /// Closed-loop threads that send ops.
    pub fn senders(self) -> usize {
        match self {
            Workload::PointDecide => 2,
            Workload::HardDecide | Workload::DeltaStream => 1,
        }
    }

    /// Client threads in all: the senders plus the delta-stream flip reader.
    pub fn clients(self) -> usize {
        self.senders() + usize::from(self == Workload::DeltaStream)
    }

    /// Replies depend only on the request body, not on earlier ops, so the oracle may
    /// compute each distinct body's reply once.
    pub fn stateless(self) -> bool {
        self == Workload::PointDecide
    }

    /// Its databases are registered with `"certify": true`.
    pub fn certifies(self) -> bool {
        self == Workload::PointDecide
    }

    pub fn warm_up(self, distinct_bodies: usize) -> WarmUp {
        match self {
            // One pass over every distinct batch puts every pooled request in the memo.
            Workload::PointDecide => WarmUp {
                first: distinct_bodies,
                round: 32,
                max_rounds: 8,
            },
            // One op per database.
            Workload::HardDecide => WarmUp {
                first: HARD_GRAPHS.len(),
                round: 0,
                max_rounds: 0,
            },
            Workload::DeltaStream => WarmUp {
                first: 64,
                round: 64,
                max_rounds: 4,
            },
        }
    }
}

/// One HTTP request the load generator sends.
pub struct Body<'a> {
    pub path: Cow<'a, str>,
    pub text: Cow<'a, str>,
}

/// The inputs of one run.  They are generated once: the table generators number
/// variables from a process-wide counter, so a second generation in the same process
/// differs in its variable names.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// `POST /v1/databases` bodies; a fresh server hands out ids 1, 2, … in order.
    pub registrations: Vec<String>,
    /// The `POST /v1/subscriptions` body (delta-stream only).
    pub subscription: Option<String>,
    /// The stored op bodies end to end, each its path then its text: point-decide's
    /// distinct batches, or delta-stream's deltas in stream order.  Hard-decide stores
    /// none; it builds each body from its id.  One buffer, so [`Inputs::bytes`] is exact.
    store: String,
    /// Where each stored body's path and text end in `store`.
    ends: Vec<(usize, usize)>,
    /// FNV-1a over the registrations, the subscription and the first `HASH_OPS` ops.
    pub hash: u64,
}

/// Ops the input hash covers.
const HASH_OPS: usize = 1000;

/// Deltas per second of window that delta-stream generates: a bound on the rate, so
/// a run never exhausts the stream.  `flip_sparse_stream` builds the whole stream in
/// one call, so it cannot be generated op by op.
const STREAM_MAX_RATE: usize = 3000;

impl Inputs {
    /// The id of the body op `k` sends (warm-up takes a prefix of the sequence), or
    /// `None` once the sequence has run out.
    pub fn sequence(&self, k: usize) -> Option<usize> {
        match self.workload {
            // Warm-up sends every batch once; then batches are drawn uniformly.
            Workload::PointDecide if k < POINT_BATCHES => Some(k),
            Workload::PointDecide => {
                Some((splitmix(mix(self.seed, 99) ^ k as u64) % POINT_BATCHES as u64) as usize)
            }
            Workload::HardDecide => Some(k),
            Workload::DeltaStream => (k < self.ends.len()).then_some(k),
        }
    }

    /// The body with id `id`.
    pub fn body(&self, id: usize) -> Body<'_> {
        match self.workload {
            Workload::HardDecide => hard_body(self.seed, id),
            _ => {
                let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev].1);
                let (path, text) = self.ends[id];
                Body {
                    path: Cow::Borrowed(&self.store[start..path]),
                    text: Cow::Borrowed(&self.store[path..text]),
                }
            }
        }
    }

    /// Distinct bodies a run can send (`None`: a fresh one per op, without end).
    pub fn distinct_bodies(&self) -> Option<usize> {
        (self.workload != Workload::HardDecide).then_some(self.ends.len())
    }

    /// Heap bytes the inputs hold.
    pub fn bytes(&self) -> usize {
        let texts: usize = self
            .registrations
            .iter()
            .chain(&self.subscription)
            .map(String::capacity)
            .sum();
        texts + self.store.capacity() + self.ends.capacity() * std::mem::size_of::<(usize, usize)>()
    }
}

pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let (registrations, subscription, bodies) = match workload {
        Workload::PointDecide => point_decide(seed),
        Workload::HardDecide => hard_decide(),
        Workload::DeltaStream => delta_stream(seed, STREAM_MAX_RATE * (seconds as usize + 4)),
    };
    let mut store = String::with_capacity(
        bodies
            .iter()
            .map(|body| body.path.len() + body.text.len())
            .sum(),
    );
    let mut ends = Vec::with_capacity(bodies.len());
    for body in bodies {
        store.push_str(&body.path);
        let path = store.len();
        store.push_str(&body.text);
        ends.push((path, store.len()));
    }
    let mut inputs = Inputs {
        workload,
        seed,
        registrations,
        subscription,
        store,
        ends,
        hash: 0,
    };
    let mut hash = fnv1a(&[], None);
    for text in inputs.registrations.iter().chain(&inputs.subscription) {
        hash = fnv1a(text.as_bytes(), Some(hash));
    }
    for id in (0..HASH_OPS).map_while(|k| inputs.sequence(k)) {
        let body = inputs.body(id);
        hash = fnv1a(body.path.as_bytes(), Some(hash));
        hash = fnv1a(body.text.as_bytes(), Some(hash));
    }
    inputs.hash = hash;
    inputs
}

type Generated = (Vec<String>, Option<String>, Vec<Body<'static>>);

/// Distinct `/decide` batches of point-decide; the sequence draws from them with repeats.
const POINT_BATCHES: usize = 256;
/// Member instances per point-decide database (request variants per problem).
const POINT_VARIANTS: u64 = 3;
/// Size of the point-decide c-table and of each decoupled relation.
const POINT_CTABLE_ROWS: usize = 3;
const POINT_CTABLE_NULLS: f64 = 0.15;
const POINT_DECOUPLED_ROWS: usize = 3;
const POINT_DECOUPLED_NULLS: f64 = 0.3;
/// The hard-decide databases: one per graph seed, `HARD_HEAVY` vertices (the knob
/// that sizes each search) with extra edges at `HARD_EDGE_DENSITY`.
const HARD_GRAPHS: [u64; 3] = [0, 1, 4];
const HARD_HEAVY: usize = 10;
const HARD_EDGE_DENSITY: f64 = 0.2;
/// The delta-stream database: one decoupled relation per shard group.
const STREAM_RELATIONS: usize = 64;
const STREAM_ROWS: usize = 6;

const PROBLEMS: [&str; 5] = [
    "membership",
    "uniqueness",
    "containment",
    "possibility",
    "certainty",
];

fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ 0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb))
}

/// The splitmix64 finaliser: a well-spread hash of `x`.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn schema_version() -> (String, Json) {
    ("schema_version".into(), Json::Int(wire::SCHEMA_VERSION))
}

fn register_body(db: &CDatabase, certify: bool) -> String {
    Json::Object(vec![
        schema_version(),
        ("database".into(), wire::encode_cdatabase(db)),
        ("certify".into(), Json::Bool(certify)),
    ])
    .to_string()
}

/// A request asking `problem` about an instance (`instance` for membership and
/// uniqueness, `facts` for possibility and certainty).
fn ask(problem: &str, instance: &Instance) -> Json {
    let field = match problem {
        "membership" | "uniqueness" => "instance",
        _ => "facts",
    };
    Json::Object(vec![
        ("problem".into(), Json::str(problem)),
        (field.into(), wire::encode_instance(instance)),
    ])
}

fn contained_in(right: u64) -> Json {
    Json::Object(vec![
        ("problem".into(), Json::str("containment")),
        ("right".into(), Json::Int(right as i64)),
    ])
}

/// The first `keep` facts of every relation of `instance`.
fn first_facts(instance: &Instance, keep: usize) -> Instance {
    let mut out = Instance::new();
    for (name, rel) in instance.iter() {
        let mut small = Relation::empty(rel.arity());
        for fact in rel.iter().take(keep) {
            small.insert(fact.clone()).expect("arity preserved");
        }
        out.insert_relation(name.clone(), small);
    }
    out
}

/// Every request point-decide may ask one database: `POINT_VARIANTS` member instances
/// and one non-member across the four instance problems, plus containment in each of
/// `rights`.
fn point_pool(
    members: &[Instance],
    non_member: &Instance,
    rights: &[u64],
) -> Vec<(&'static str, Json)> {
    let mut pool = Vec::new();
    for instance in members.iter().chain([non_member]) {
        pool.push(("membership", ask("membership", instance)));
        pool.push(("possibility", ask("possibility", &first_facts(instance, 2))));
        pool.push(("certainty", ask("certainty", &first_facts(instance, 1))));
    }
    for instance in members.iter().take(2) {
        pool.push(("uniqueness", ask("uniqueness", instance)));
    }
    for &right in rights {
        pool.push(("containment", contained_in(right)));
    }
    pool
}

/// Point-decide: five certifying databases (Codd, e-, g- and c-tables with string
/// constants, and an 8-relation decoupled database) and `POINT_BATCHES` batches of
/// 5–8 small requests, each covering all five problems.
fn point_decide(seed: u64) -> Generated {
    type Build = fn(&str, &TableParams) -> CTable;
    let singles: [Build; 4] = [
        random_codd_table,
        random_etable,
        random_gtable,
        random_ctable,
    ];
    let mut registrations = Vec::new();
    let mut pools = Vec::new();
    for (k, build) in singles.iter().enumerate() {
        // Containment with a c-table on the left enumerates worlds: keep that table
        // small enough for the enumeration to stay a small request.
        let ctable = k == 3;
        let params = TableParams {
            rows: if ctable { POINT_CTABLE_ROWS } else { 8 },
            arity: 3,
            constants: 8,
            null_density: if ctable { POINT_CTABLE_NULLS } else { 0.3 },
            seed: mix(seed, k as u64),
        };
        let db = CDatabase::single(build("T", &params));
        let members: Vec<Instance> = (0..POINT_VARIANTS)
            .map(|v| {
                let p = TableParams {
                    seed: params.seed.wrapping_add(100 + v),
                    ..params
                };
                stringify_instance(&member_instance(&db, &p))
            })
            .collect();
        let non_member = stringify_instance(&non_member_instance(&db, &params));
        registrations.push(register_body(&stringify_database(&db), true));
        // Containment in the Codd database (same relation name and arity, so the
        // question is a real one), and the e-table in itself: the shapes the paper
        // decides by freezing.  A g-table on the right enumerates worlds.
        let rights = if k == 1 { vec![2, 1] } else { vec![1] };
        pools.push(point_pool(&members, &non_member, &rights));
    }
    let params = TableParams {
        rows: POINT_DECOUPLED_ROWS,
        arity: 2,
        constants: 4,
        null_density: POINT_DECOUPLED_NULLS,
        seed: mix(seed, 4),
    };
    let db = decoupled_multirelation(8, &params);
    let members: Vec<Instance> = (0..POINT_VARIANTS)
        .map(|v| {
            let p = TableParams {
                seed: params.seed.wrapping_add(100 + v),
                ..params
            };
            member_instance(&db, &p)
        })
        .collect();
    registrations.push(register_body(&db, true));
    pools.push(point_pool(
        &members,
        &non_member_instance(&db, &params),
        &[5],
    ));

    let mut rng = StdRng::seed_from_u64(mix(seed, 99));
    let bodies: Vec<Body> = (0..POINT_BATCHES)
        .map(|_| {
            let db = rng.gen_range(0..pools.len());
            let pool = &pools[db];
            let mut requests = Vec::new();
            for wanted in PROBLEMS {
                let choices: Vec<&Json> = pool
                    .iter()
                    .filter(|(problem, _)| *problem == wanted)
                    .map(|(_, r)| r)
                    .collect();
                requests.push(choices[rng.gen_range(0..choices.len())].clone());
            }
            for _ in 0..rng.gen_range(0..4usize) {
                requests.push(pool[rng.gen_range(0..pool.len())].1.clone());
            }
            Body {
                path: format!("/v1/databases/{}/decide", db + 1).into(),
                text: Json::Object(vec![
                    schema_version(),
                    ("requests".into(), Json::Array(requests)),
                ])
                .to_string()
                .into(),
            }
        })
        .collect();
    (registrations, None, bodies)
}

/// Hard-decide: i-tables whose membership question is a 3-colouring refutation
/// (`coupled_heavy_membership`), registered plain.  Each op is a fresh membership
/// request (`hard_body`).
fn hard_decide() -> Generated {
    let registrations = HARD_GRAPHS
        .iter()
        .map(|&graph| {
            let params = SkewedParams {
                heavy: HARD_HEAVY,
                edge_density: HARD_EDGE_DENSITY,
                seed: graph,
                ..SkewedParams::default()
            };
            register_body(&coupled_heavy_membership(&params).0, false)
        })
        .collect();
    (registrations, None, Vec::new())
}

/// Hard-decide op `k`: does `{c, c+1, c+2}` form a world of database `k mod 3`, where
/// `c` is `3k` past a seeded offset?  No three distinct constants do, so each search is
/// exhaustive, and by genericity its tree has the same shape whichever constants are
/// asked.  The constants differ for every `k`, so no request repeats.  The graphs are
/// fixed (`HARD_GRAPHS`), so the seed changes the requests, not the work per request.
fn hard_body(seed: u64, k: usize) -> Body<'static> {
    let first = 1 + (splitmix(mix(seed, 10)) >> 24) as i64 + 3 * k as i64;
    let mut colours = Relation::empty(1);
    for c in first..first + 3 {
        colours
            .insert(Tuple::new([Constant::Int(c)]))
            .expect("arity 1");
    }
    let instance = Instance::single("R", colours);
    Body {
        path: format!("/v1/databases/{}/decide", k % HARD_GRAPHS.len() + 1).into(),
        text: Json::Object(vec![
            schema_version(),
            (
                "requests".into(),
                Json::Array(vec![ask("membership", &instance)]),
            ),
        ])
        .to_string()
        .into(),
    }
}

/// Delta-stream: the flip-sparse stream over `STREAM_RELATIONS` relations, its three
/// standing requests per relation subscribed in one call without a window.
fn delta_stream(seed: u64, len: usize) -> Generated {
    let stream = flip_sparse_stream(STREAM_RELATIONS, STREAM_ROWS, len, seed);
    let requests = stream
        .requests
        .iter()
        .map(|r| {
            let problem = match r.problem {
                StreamProblem::Possibility => "possibility",
                StreamProblem::Certainty => "certainty",
            };
            ask(problem, &r.facts)
        })
        .collect();
    let subscription = Json::Object(vec![
        schema_version(),
        ("database".into(), Json::Int(1)),
        ("requests".into(), Json::Array(requests)),
    ])
    .to_string();
    let bodies = stream
        .deltas
        .iter()
        .map(|delta| Body {
            path: "/v1/databases/1/delta".into(),
            text: Json::Object(vec![
                schema_version(),
                ("delta".into(), wire::encode_delta(delta)),
            ])
            .to_string()
            .into(),
        })
        .collect();
    (
        vec![register_body(&stream.base, false)],
        Some(subscription),
        bodies,
    )
}
