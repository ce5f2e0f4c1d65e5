//! The load side: an in-process `pw_serve::Server` on loopback, its set-up
//! (registration, subscription, warm-up) and the closed-loop clients of the timed
//! window.

use crate::inputs::Inputs;
use crate::stats::{self, fnv1a};
use pw_serve::{client, Json, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A reply's length and FNV-1a hash: the oracle compares replies through these, so
/// a run need not keep every reply body in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(text: &str) -> Digest {
        Digest {
            len: text.len(),
            hash: fnv1a(text.as_bytes(), None),
        }
    }
}

/// One executed op.
#[derive(Clone, Debug)]
pub struct Record {
    /// The id of the body sent ([`Inputs::body`]).
    pub body: usize,
    pub start: Instant,
    pub end: Instant,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub reply: Digest,
    /// Sequence numbers of the flips a delta reply carried.
    pub flips: Vec<u64>,
}

impl Record {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Refused by admission control (`429`/`503`): never reached a session.
    pub fn shed(&self) -> bool {
        matches!(self.status, 429 | 503)
    }
}

/// One flip event as the long-polling reader received it.
pub struct Event {
    pub seq: u64,
    pub at: Instant,
    pub text: String,
}

/// What set-up sent before the timed window, for the oracle.
pub struct SetupLog {
    /// Replies to the registrations, then to the subscription.
    pub replies: Vec<String>,
    /// The warm-up ops.
    pub warm: Vec<Record>,
}

pub struct Live {
    server: Server,
    addr: SocketAddr,
    subscription: Option<u64>,
    pub log: SetupLog,
}

/// POST `text` to `path` and insist on `status`.
fn post(addr: SocketAddr, path: &str, text: &str, status: u16) -> Result<String, String> {
    let reply =
        client::request(addr, "POST", path, &[], text).map_err(|e| format!("POST {path}: {e}"))?;
    if reply.status != status {
        return Err(format!(
            "POST {path}: status {} ({})",
            reply.status, reply.body
        ));
    }
    Ok(reply.body)
}

fn id_of(reply: &str) -> Option<u64> {
    Json::parse(reply).ok()?.get("id")?.as_u64()
}

/// The `seq` of every flip in a delta reply.
fn flip_seqs(reply: &str) -> Vec<u64> {
    if !reply.contains("\"seq\":") {
        return Vec::new();
    }
    Json::parse(reply)
        .ok()
        .and_then(|j| {
            j.get("flips")?.as_array().map(|flips| {
                flips
                    .iter()
                    .filter_map(|f| f.get("seq")?.as_u64())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Send one op; the reply body comes back beside its record.
fn send(addr: SocketAddr, inputs: &Inputs, body: usize) -> (Record, String) {
    let op = inputs.body(body);
    let start = Instant::now();
    let result = client::request(addr, "POST", &op.path, &[], &op.text);
    let end = Instant::now();
    let (status, text) = match result {
        Ok(reply) => (reply.status, reply.body),
        Err(_) => (0, String::new()),
    };
    let record = Record {
        body,
        start,
        end,
        status,
        reply: Digest::of(&text),
        flips: flip_seqs(&text),
    };
    (record, text)
}

impl Live {
    /// Start a server with `config`, register, subscribe and warm it up.
    pub fn start(inputs: &Inputs, config: &ServerConfig) -> Result<Live, String> {
        let server = Server::start(config.clone()).map_err(|e| format!("server start: {e}"))?;
        let mut live = Live {
            addr: server.local_addr(),
            server,
            subscription: None,
            log: SetupLog {
                replies: Vec::new(),
                warm: Vec::new(),
            },
        };
        match live.set_up(inputs) {
            Ok(()) => Ok(live),
            Err(e) => {
                live.stop();
                Err(e)
            }
        }
    }

    fn set_up(&mut self, inputs: &Inputs) -> Result<(), String> {
        for (i, text) in inputs.registrations.iter().enumerate() {
            let reply = post(self.addr, "/v1/databases", text, 201)?;
            if id_of(&reply) != Some(i as u64 + 1) {
                return Err(format!("registration {i} answered {reply}"));
            }
            self.log.replies.push(reply);
        }
        if let Some(text) = &inputs.subscription {
            let reply = post(self.addr, "/v1/subscriptions", text, 201)?;
            self.subscription =
                Some(id_of(&reply).ok_or_else(|| format!("subscription answered {reply}"))?);
            self.log.replies.push(reply);
        }
        let plan = inputs
            .workload
            .warm_up(inputs.distinct_bodies().unwrap_or(0));
        self.warm(inputs, plan.first)?;
        let mut entries = self.memo_entries(inputs)?;
        for _ in 0..plan.max_rounds {
            self.warm(inputs, plan.round)?;
            let now = self.memo_entries(inputs)?;
            if now == entries {
                break;
            }
            entries = now;
        }
        Ok(())
    }

    /// Send the next `n` ops of the sequence, one at a time.
    fn warm(&mut self, inputs: &Inputs, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let k = self.log.warm.len();
            let body = inputs
                .sequence(k)
                .ok_or("the op sequence ran out during warm-up")?;
            let (record, text) = send(self.addr, inputs, body);
            if record.status != 200 {
                return Err(format!("warm-up op {k}: status {} ({text})", record.status));
            }
            self.log.warm.push(record);
        }
        Ok(())
    }

    /// Memo entries summed over every registered database (`GET …/stats`).
    fn memo_entries(&self, inputs: &Inputs) -> Result<u64, String> {
        let mut total = 0;
        for body in self.stats(inputs)? {
            total += Json::parse(&body)
                .ok()
                .and_then(|j| j.get("memo")?.get("entries")?.as_u64())
                .ok_or_else(|| format!("stats answered {body}"))?;
        }
        Ok(total)
    }

    /// `GET /v1/databases/{id}/stats` bodies, by id.
    fn stats(&self, inputs: &Inputs) -> Result<Vec<String>, String> {
        (1..=inputs.registrations.len())
            .map(|id| {
                let path = format!("/v1/databases/{id}/stats");
                match client::get(self.addr, &path) {
                    Ok(reply) if reply.status == 200 => Ok(reply.body),
                    Ok(reply) => Err(format!("GET {path}: status {}", reply.status)),
                    Err(e) => Err(format!("GET {path}: {e}")),
                }
            })
            .collect()
    }

    /// Graceful shutdown; returns once every server thread has exited.
    pub fn stop(self) -> SetupLog {
        self.server.shutdown();
        self.server.join();
        self.log
    }
}

/// The timed window, as the clients saw it.
pub struct Window {
    /// The timed ops, by start time.
    pub records: Vec<Record>,
    /// First send to last reply.
    pub seconds: f64,
    /// Process CPU (user + system) over the window.
    pub cpu_seconds: f64,
    /// Most threads of the process seen runnable at once (sampled every 50 ms).
    pub peak_runnable: usize,
    /// `GET …/stats` bodies after the last timed op, by database id.
    pub stats: Vec<String>,
    /// Flip events the reader received (delta-stream), in arrival order.
    pub events: Vec<Event>,
    /// Events the server reported dropped from the reader's queue.
    pub dropped: u64,
    /// Failed long-polls.
    pub poll_errors: usize,
    /// One full reply body and its record, for the oracle's tamper self-test.
    pub sample: Option<(Record, String)>,
    /// The op sequence ran out before the window ended.
    pub exhausted: bool,
}

impl Window {
    /// Heap bytes the clients' own records of the window hold: the op records, their
    /// flip lists, the reader's events and the sampled reply.  `rss_mb` leaves them out.
    pub fn client_bytes(&self) -> usize {
        let records: usize = self
            .records
            .iter()
            .map(|r| std::mem::size_of::<Record>() + r.flips.capacity() * 8)
            .sum();
        let events: usize = self
            .events
            .iter()
            .map(|e| std::mem::size_of::<Event>() + e.text.capacity())
            .sum();
        records + events + self.sample.as_ref().map_or(0, |(_, text)| text.capacity())
    }
}

/// Run the closed loop for `length`: each sender sends the next op of the sequence as
/// soon as its previous reply is read.
pub fn run_window(live: &Live, inputs: &Inputs, length: Duration) -> Result<Window, String> {
    let next = AtomicUsize::new(live.log.warm.len());
    let exhausted = AtomicBool::new(false);
    let senders_done = AtomicBool::new(false);
    let last_seq = AtomicU64::new(
        live.log
            .warm
            .iter()
            .flat_map(|r| r.flips.iter().copied())
            .max()
            .unwrap_or(0),
    );
    let addr = live.addr;
    let cpu_before = stats::cpu_seconds();
    let start = Instant::now();
    let deadline = start + length;
    let outcome = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !senders_done.load(Ordering::SeqCst) {
                // The sampler itself is running while it counts.
                peak = peak.max(stats::runnable_threads().saturating_sub(1));
                std::thread::sleep(Duration::from_millis(50));
            }
            peak
        });
        let (done, seq) = (&senders_done, &last_seq);
        let reader = live
            .subscription
            .map(|sid| scope.spawn(move || read_flips(addr, sid, done, seq)));
        let senders: Vec<_> = (0..inputs.workload.senders())
            .map(|_| {
                scope.spawn(|| {
                    let mut records = Vec::new();
                    let mut sample = None;
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let Some(body) = inputs.sequence(k) else {
                            exhausted.store(true, Ordering::SeqCst);
                            break;
                        };
                        let (record, text) = send(addr, inputs, body);
                        if let Some(&seq) = record.flips.iter().max() {
                            last_seq.fetch_max(seq, Ordering::SeqCst);
                        }
                        if sample.is_none() && record.status == 200 {
                            sample = Some((record.clone(), text));
                        }
                        records.push(record);
                    }
                    (records, sample)
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut sample = None;
        for sender in senders {
            let (mine, my_sample) = sender.join().expect("sender thread panicked");
            records.extend(mine);
            sample = sample.or(my_sample);
        }
        let cpu_seconds = stats::cpu_seconds() - cpu_before;
        let stats = live.stats(inputs);
        senders_done.store(true, Ordering::SeqCst);
        let flips = reader.map(|r| r.join().expect("reader thread panicked"));
        let peak_runnable = sampler.join().expect("sampler thread panicked");
        (records, sample, cpu_seconds, stats, flips, peak_runnable)
    });
    let (mut records, sample, cpu_seconds, stats, flips, peak_runnable) = outcome;
    records.sort_by_key(|r| r.start);
    let seconds = records
        .iter()
        .map(|r| r.end)
        .max()
        .map_or(0.0, |last| (last - start).as_secs_f64());
    let (events, dropped, poll_errors) = flips.unwrap_or_default();
    Ok(Window {
        records,
        seconds,
        cpu_seconds,
        peak_runnable,
        stats: stats?,
        events,
        dropped,
        poll_errors,
        sample,
        exhausted: exhausted.load(Ordering::SeqCst),
    })
}

/// The delta-stream reader: long-poll the subscription until the senders are done and
/// every flip they were told about has arrived (or 5 s after they finished).
fn read_flips(
    addr: SocketAddr,
    sid: u64,
    senders_done: &AtomicBool,
    last_seq: &AtomicU64,
) -> (Vec<Event>, u64, usize) {
    let path = format!("/v1/subscriptions/{sid}/flips?timeout_ms=100&max=256");
    let mut events: Vec<Event> = Vec::new();
    let mut dropped = 0;
    let mut errors = 0;
    let mut done_at = None;
    loop {
        if senders_done.load(Ordering::SeqCst) {
            let since = *done_at.get_or_insert_with(Instant::now);
            let have = events.last().map_or(0, |e| e.seq);
            if have >= last_seq.load(Ordering::SeqCst) || since.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        let reply = client::get(addr, &path);
        let at = Instant::now();
        let parsed = reply
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| Json::parse(&r.body).ok());
        let Some(body) = parsed else {
            errors += 1;
            continue;
        };
        dropped += body.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        for event in body.get("events").and_then(Json::as_array).unwrap_or(&[]) {
            events.push(Event {
                seq: event.get("seq").and_then(Json::as_u64).unwrap_or(0),
                at,
                text: event.to_string(),
            });
        }
    }
    (events, dropped, errors)
}
