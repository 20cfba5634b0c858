//! End-to-end checks of the `ccs serve` daemon over real TCP: concurrent
//! requests from several connections, mid-request cancellation, graceful
//! shutdown that drains in-flight work before acknowledging, prompt
//! back-to-back responses, and bad lines that leave the connection open.

use ccs::obs::json::{self, Value};
use ccs::serve::{ServeConfig, Server, MAX_LINE_BYTES, REQUEST_SCHEMA};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn instance_text(seed: u64, channels: usize) -> String {
    let cfg = ccs::gen::random::ClusteredWanConfig {
        seed,
        channels,
        ..Default::default()
    };
    ccs::gen::io::instance_to_string(&ccs::gen::random::clustered_wan(&cfg))
}

fn library_text() -> String {
    ccs::gen::io::library_to_string(&ccs::gen::wan::paper_library())
}

fn request_line(id: &str, kind: &str, extra: &[(&str, Value)]) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
    obj.insert("id".to_string(), Value::Str(id.to_string()));
    obj.insert("kind".to_string(), Value::Str(kind.to_string()));
    for (k, v) in extra {
        obj.insert((*k).to_string(), v.clone());
    }
    let mut line = String::new();
    Value::Obj(obj).write_compact(&mut line);
    line
}

fn synth_line(id: &str, seed: u64, channels: usize) -> String {
    request_line(
        id,
        "synth",
        &[
            ("instance", Value::Str(instance_text(seed, channels))),
            ("library", Value::Str(library_text())),
            ("ledger", Value::Bool(true)),
        ],
    )
}

fn start_server(
    workers: usize,
) -> (
    SocketAddr,
    std::thread::JoinHandle<ccs::serve::ServeSummary>,
) {
    let server = Server::bind(ServeConfig {
        listen: Some("127.0.0.1:0".to_string()),
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        Conn {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut buf = String::new();
        assert!(self.reader.read_line(&mut buf).unwrap() > 0, "peer closed");
        json::parse(buf.trim_end()).unwrap()
    }
}

#[test]
fn concurrent_connections_each_get_their_own_responses() {
    let (addr, handle) = start_server(4);
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                let ids: Vec<String> = (0..2).map(|j| format!("c{i}-r{j}")).collect();
                for (j, id) in ids.iter().enumerate() {
                    conn.send(&synth_line(id, 100 + i * 10 + j as u64, 5));
                }
                let mut seen = Vec::new();
                for _ in &ids {
                    let doc = conn.recv();
                    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
                    assert!(doc.get("metrics").unwrap().get("topology").is_some());
                    seen.push(doc.get("id").unwrap().as_str().unwrap().to_string());
                }
                seen.sort();
                assert_eq!(seen, ids, "responses stay on their own connection");
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    // A live stats read before shutting down: inline, full document.
    let mut bye = Conn::open(addr);
    bye.send("{\"op\":\"stats\"}");
    let stats_resp = bye.recv();
    assert_eq!(stats_resp.get("kind").unwrap().as_str(), Some("stats"));
    let stats = stats_resp.get("stats").expect("stats section");
    assert_eq!(
        stats.get("schema").unwrap().as_str(),
        Some(ccs::serve::STATS_SCHEMA)
    );
    assert_eq!(stats.get("served").unwrap().as_num(), Some(8.0));
    let synth_total = stats
        .get("ops")
        .unwrap()
        .get("synth")
        .unwrap()
        .get("total")
        .unwrap()
        .get("lifetime")
        .unwrap();
    assert_eq!(synth_total.get("count").unwrap().as_num(), Some(8.0));
    let p50 = synth_total.get("p50_ns").unwrap().as_num().unwrap();
    let p99 = synth_total.get("p99_ns").unwrap().as_num().unwrap();
    assert!(0.0 < p50 && p50 <= p99, "p50 {p50} p99 {p99}");

    bye.send(&request_line("bye", "shutdown", &[]));
    let ack = bye.recv();
    assert_eq!(ack.get("kind").unwrap().as_str(), Some("shutdown"));
    assert_eq!(ack.get("served").unwrap().as_num(), Some(8.0));
    // The telemetry fields of the ack: uptime, high-watermarks, and
    // cache traffic (one library shared across all eight requests).
    assert!(ack.get("uptime_ns").unwrap().as_num().unwrap() > 0.0);
    assert!(ack.get("inflight_hwm").unwrap().as_num().unwrap() >= 1.0);
    assert!(ack.get("queue_depth_hwm").unwrap().as_num().is_some());
    let hits = ack.get("cache_hits").unwrap().as_num().unwrap();
    let misses = ack.get("cache_misses").unwrap().as_num().unwrap();
    assert_eq!(misses, 1.0, "one shared library, first use builds it");
    assert_eq!(hits, 7.0, "every later request shares the cache");
    assert_eq!(ack.get("rejected").unwrap().as_num(), Some(0.0));

    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 8);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.cache_hits, 7);
    assert_eq!(summary.cache_misses, 1);
    assert!(summary.uptime_ns > 0);
    assert!(summary.inflight_hwm >= 1);
}

#[test]
fn queued_request_cancelled_over_tcp_returns_no_body() {
    // One worker: the slow request occupies it, the victim stays queued
    // until the cancel (processed inline by the reader thread,
    // microseconds later) has already flipped its token.
    let (addr, handle) = start_server(1);
    let mut conn = Conn::open(addr);
    conn.send(&synth_line("slow", 7, 12));
    conn.send(&synth_line("victim", 3, 5));
    conn.send(&request_line(
        "c",
        "cancel",
        &[("target", Value::Str("victim".to_string()))],
    ));
    // Responses in order: cancel ack (inline), slow (served), victim
    // (cancelled without ever starting).
    let ack = conn.recv();
    assert_eq!(ack.get("kind").unwrap().as_str(), Some("cancel"));
    assert_eq!(ack.get("found"), Some(&Value::Bool(true)));
    let slow = conn.recv();
    assert_eq!(slow.get("id").unwrap().as_str(), Some("slow"));
    assert_eq!(slow.get("status").unwrap().as_str(), Some("ok"));
    let victim = conn.recv();
    assert_eq!(victim.get("id").unwrap().as_str(), Some("victim"));
    assert_eq!(victim.get("status").unwrap().as_str(), Some("cancelled"));
    assert!(victim.get("metrics").is_none(), "no body after cancel");
    assert!(victim.get("ledger").is_none());

    conn.send(&request_line("bye", "shutdown", &[]));
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 1);
    assert_eq!(summary.cancelled, 1);
}

#[test]
fn in_flight_request_cancels_mid_run() {
    let (addr, handle) = start_server(1);
    let mut conn = Conn::open(addr);
    // seed 7 / 12 channels takes seconds unoptimized — the cancel lands
    // mid-run with enormous margin.
    conn.send(&synth_line("slow", 7, 12));
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut side = Conn::open(addr);
    side.send(&request_line(
        "c",
        "cancel",
        &[("target", Value::Str("slow".to_string()))],
    ));
    let ack = side.recv();
    assert_eq!(
        ack.get("found"),
        Some(&Value::Bool(true)),
        "still in flight"
    );
    let resp = conn.recv();
    assert_eq!(resp.get("id").unwrap().as_str(), Some("slow"));
    assert_eq!(resp.get("status").unwrap().as_str(), Some("cancelled"));
    assert!(resp.get("metrics").is_none());
    conn.send(&request_line("bye", "shutdown", &[]));
    let summary = handle.join().unwrap();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.served, 0);
}

#[test]
fn shutdown_drains_queued_work_before_acknowledging() {
    let (addr, handle) = start_server(2);
    let mut conn = Conn::open(addr);
    for i in 0..4 {
        conn.send(&synth_line(&format!("r{i}"), 200 + i, 5));
    }
    conn.send(&request_line("bye", "shutdown", &[]));
    // All four queued requests drain to real responses; the shutdown
    // ack arrives last with the final counters.
    let mut ids = Vec::new();
    for _ in 0..4 {
        let doc = conn.recv();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "drained");
        ids.push(doc.get("id").unwrap().as_str().unwrap().to_string());
    }
    let ack = conn.recv();
    assert_eq!(ack.get("kind").unwrap().as_str(), Some("shutdown"));
    assert_eq!(ack.get("served").unwrap().as_num(), Some(4.0));
    ids.sort();
    assert_eq!(ids, vec!["r0", "r1", "r2", "r3"]);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 4);
}

#[test]
fn stdin_style_engine_rejects_after_close() {
    // The "server is shutting down" path: pushes after close are
    // answered with an error, not silently dropped.
    use ccs::serve::{Engine, ResponseSink, Submit};
    use std::sync::{Arc, Mutex};
    #[derive(Default)]
    struct S(Mutex<Vec<String>>);
    impl ResponseSink for S {
        fn send_line(&self, line: &str) {
            self.0.lock().unwrap().push(line.trim_end().to_string());
        }
    }
    let engine = Engine::new(&ServeConfig::default());
    engine.close();
    let sink = Arc::new(S::default());
    let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
    let submit = engine.submit_line(&synth_line("late", 1, 5), &dyn_sink);
    assert_eq!(submit, Submit::Handled);
    let doc = json::parse(&sink.0.lock().unwrap()[0]).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
}

#[test]
fn back_to_back_responses_are_not_held_for_the_peers_ack() {
    // Two pings in one write: the reader thread answers both inline, so
    // the round trip measures only the socket. With Nagle's algorithm
    // on, the second answer waits for the client's delayed ACK of the
    // first (~40 ms per pair on Linux); with TCP_NODELAY it goes out at
    // once (well under a millisecond per pair).
    let (addr, handle) = start_server(1);
    let mut conn = Conn::open(addr);
    // The median round is judged, so a few rounds preempted by sibling
    // tests on a loaded machine cannot fail it.
    let mut rounds: Vec<Duration> = (0..20)
        .map(|round| {
            let a = request_line(&format!("a{round}"), "ping", &[]);
            let b = request_line(&format!("b{round}"), "ping", &[]);
            let start = Instant::now();
            conn.writer
                .write_all(format!("{a}\n{b}\n").as_bytes())
                .unwrap();
            for _ in 0..2 {
                assert_eq!(conn.recv().get("kind").unwrap().as_str(), Some("ping"));
            }
            start.elapsed()
        })
        .collect();
    rounds.sort_unstable();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median ping pair took {median:?} (all rounds: {rounds:?})"
    );
    conn.send(&request_line("bye", "shutdown", &[]));
    handle.join().unwrap();
}

#[test]
fn over_cap_and_invalid_utf8_lines_get_one_error_each() {
    let (addr, handle) = start_server(1);
    let mut conn = Conn::open(addr);
    let mut long = vec![b'x'; MAX_LINE_BYTES + 1];
    long.push(b'\n');
    conn.writer.write_all(&long).unwrap();
    conn.writer.write_all(b"{\"id\":\"\xff\xfe\"}\n").unwrap();
    conn.send(&request_line("p", "ping", &[]));
    // In order, one response per line: the bad lines cannot be tied to
    // a request id, and the ping proves the connection is still open.
    for expected in ["longer than", "not valid UTF-8"] {
        let doc = conn.recv();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("id"), Some(&Value::Null));
        let message = doc.get("error").unwrap().as_str().unwrap();
        assert!(message.contains(expected), "{message}");
    }
    let pong = conn.recv();
    assert_eq!(pong.get("id").unwrap().as_str(), Some("p"));
    assert_eq!(pong.get("kind").unwrap().as_str(), Some("ping"));
    conn.send(&request_line("bye", "shutdown", &[]));
    let ack = conn.recv();
    assert_eq!(ack.get("errors").unwrap().as_num(), Some(2.0));
    assert_eq!(handle.join().unwrap().errors, 2);
}
