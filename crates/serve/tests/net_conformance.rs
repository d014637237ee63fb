//! Transport conformance: the stdin CLI and the TCP front-end speak the
//! same `ocular_serve::protocol`, so the same request stream must produce
//! **byte-identical** response bodies on both — successes, typed errors,
//! malformed lines, everything. Plus the server behaviors no CLI can
//! exhibit: admission-control shedding, HTTP/1.1 keep-alive +
//! pipelining, `/stats`, and clean shutdown.
#![cfg(target_os = "linux")]

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use ocular_core::OcularConfig;
use ocular_serve::json::Json;
use ocular_serve::net::http;
use ocular_serve::net::{RunningServer, Server, ServerConfig};
use ocular_serve::protocol::ErrorCode;
use ocular_serve::{
    AnySnapshot, CandidatePolicy, EngineBuilder, KernelLevel, QuantDtype, ServeConfig, ServeEngine,
    SwapEngine, WireReply,
};
use ocular_sparse::io::read_edge_list;

const EDGES: &str = "100\t7\n100\t8\n200\t7\n200\t8\n300\t55\n300\t56\n400\t55\n400\t56\n";

/// Writes the fixture edge list and trains a snapshot through the real
/// CLI binary, returning (edges path, snapshot path).
fn train_fixture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let edges = dir.join(format!("ocular-net-{tag}-{}.tsv", std::process::id()));
    let snap = dir.join(format!("ocular-net-{tag}-{}.snap", std::process::id()));
    std::fs::write(&edges, EDGES).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--train",
            edges.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
            "--k",
            "2",
            "--iters",
            "30",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {out:?}");
    (edges, snap)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        default_m: 10,
        candidates: CandidatePolicy::Clusters { min_candidates: 50 },
        foldin: OcularConfig {
            lambda: 0.5,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Builds the same engine the CLI's serve/listen modes build (default
/// flags), so both transports sit on identical state.
fn build_engine(edges: &Path, snap: &Path) -> ServeEngine {
    let loaded = AnySnapshot::load_path_full(snap).unwrap();
    let dataset = read_edge_list(edges.to_str().unwrap(), "\t", None)
        .unwrap()
        .into_dataset();
    EngineBuilder::from_loaded(loaded)
        .dataset(dataset)
        .config(serve_cfg())
        .build()
        .unwrap()
}

fn spawn_server(engine: ServeEngine, cfg: ServerConfig) -> RunningServer {
    Server::bind(Arc::new(SwapEngine::new(engine)), "127.0.0.1:0", cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// One keep-alive client connection with split read/write halves.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) {
        self.writer
            .write_all(&http::format_request(method, path, body.as_bytes(), true))
            .unwrap();
    }

    fn recv(&mut self) -> http::HttpResponse {
        http::read_response(&mut self.reader).unwrap()
    }

    fn round_trip(&mut self, method: &str, path: &str, body: &str) -> http::HttpResponse {
        self.send(method, path, body);
        self.recv()
    }
}

/// The request stream both transports must answer identically: every
/// shape, internal and external ids, defaulted and explicit `m`, engine
/// errors, and malformed lines.
const REQUESTS: &[&str] = &[
    r#"{"user": 0}"#,
    r#"{"user": 1, "m": 2}"#,
    r#"{"v": 1, "user_id": 100}"#,
    r#"{"user_id": 300, "m": 1}"#,
    r#"{"basket": [0, 1], "m": 3}"#,
    r#"{"basket_ids": [55, 56]}"#,
    r#"{"user": 99}"#,
    r#"{"user_id": 12345}"#,
    r#"{"basket_ids": [7, 999]}"#,
    r#"{"nope": 1}"#,
    r#"not json at all"#,
    r#"{"v": 9, "user": 0}"#,
    r#"{"user": 0, "basket": [1]}"#,
];

/// `/stats` carries the fold-in solver's counters: solves, iterations and
/// solves that did not reach a stationary point. Cold baskets count, and so
/// does a warm request for a user newer than the snapshot; a warm row
/// lookup and a rejected basket do not.
#[test]
fn stats_count_fold_in_solves() {
    let (edges, snap) = train_fixture("foldstats");
    // a user who arrived after the snapshot was trained
    let grown = format!("{EDGES}500\t7\n500\t55\n");
    std::fs::write(&edges, grown).unwrap();
    let server = spawn_server(build_engine(&edges, &snap), ServerConfig::default());
    let mut client = Client::connect(server.addr());
    let fold_counters = |client: &mut Client| {
        let resp = client.round_trip("GET", "/stats", "");
        let v = Json::parse(String::from_utf8(resp.body).unwrap().trim_end()).unwrap();
        ["fold_ins", "fold_in_iterations", "fold_in_unconverged"]
            .map(|field| v.get(field).and_then(Json::as_u64).expect(field))
    };
    assert_eq!(fold_counters(&mut client), [0, 0, 0]);
    for (body, folds) in [
        (r#"{"user": 0}"#, false),
        (r#"{"basket": [0, 1], "m": 3}"#, true),
        (r#"{"basket_ids": [55, 56]}"#, true),
        (r#"{"basket_ids": [7, 999]}"#, false),
        (r#"{"user_id": 500, "m": 2}"#, true),
    ] {
        let [before, ..] = fold_counters(&mut client);
        let resp = client.round_trip("POST", "/recommend", body);
        let [after, ..] = fold_counters(&mut client);
        assert_eq!(after - before, folds as u64, "{body} -> {}", resp.status);
    }
    let [fold_ins, iterations, unconverged] = fold_counters(&mut client);
    assert_eq!((fold_ins, unconverged), (3, 0));
    assert!(
        (3..=30).contains(&iterations),
        "{iterations} iterations over 3 two-item baskets"
    );
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}

/// A malformed numeric flag is a usage error, never a silent default:
/// `--threads four` must not serve on the default thread count.
#[test]
fn cli_rejects_malformed_numeric_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--model", "unread.snap", "--interactions", "unread.tsv"])
        .args(["--threads", "four"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--threads must be a number, got `four`"),
        "{stderr}"
    );
}

/// A flag no mode reads exits 2 naming it, before any file is touched —
/// `--format text`, `--quantise int8` or the removed `--shards 4` must not
/// be silently ignored.
#[test]
fn cli_rejects_flags_it_does_not_read() {
    for (args, needle) in [
        (
            &["--model", "unread.snap", "--quantise", "int8"][..],
            "--quantise",
        ),
        (
            &[
                "--train",
                "unread.tsv",
                "--snapshot",
                "unwritten.snap",
                "--format",
                "text",
            ],
            "--format is gone",
        ),
        (
            &[
                "--model",
                "unread.snap",
                "--interactions",
                "unread.tsv",
                "--shards",
                "4",
            ],
            "unknown flag --shards",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(needle), "{stderr}");
    }
}

/// A λ that is not finite and non-negative is a typed configuration error
/// in both modes: training writes no snapshot of factors that never left
/// their start, and serving answers no cold basket from an unsolved
/// fold-in.
#[test]
fn cli_rejects_a_lambda_that_is_not_finite_and_non_negative() {
    let (edges, snap) = train_fixture("lambda");
    let unwritten = snap.with_extension("never.snap");
    for lambda in ["nan", "inf", "-1"] {
        let train = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--train", edges.to_str().unwrap()])
            .args(["--snapshot", unwritten.to_str().unwrap()])
            .args(["--k", "2", "--lambda", lambda])
            .output()
            .unwrap();
        let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--model", snap.to_str().unwrap()])
            .args(["--interactions", edges.to_str().unwrap()])
            .args(["--lambda", lambda])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // a closed pipe is fine: the engine is refused before stdin is read
        let _ = serve
            .stdin
            .take()
            .unwrap()
            .write_all(b"{\"basket\": [0, 1], \"m\": 2}\n");
        let serve = serve.wait_with_output().unwrap();
        for (mode, out) in [("train", &train), ("serve", &serve)] {
            assert!(!out.status.success(), "{mode} --lambda {lambda}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("invalid configuration") && stderr.contains("lambda"),
                "{mode} --lambda {lambda}: {stderr}"
            );
        }
        assert!(
            serve.stdout.is_empty(),
            "--lambda {lambda} answered a request"
        );
        assert!(!unwritten.exists(), "--lambda {lambda} wrote a snapshot");
    }
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn cli_and_tcp_serve_byte_identical_bodies() {
    let (edges, snap) = train_fixture("conform");

    // Transport A: the JSON-lines stdin CLI.
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--model",
            snap.to_str().unwrap(),
            "--interactions",
            edges.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin_lines = REQUESTS.join("\n");
    stdin_lines.push('\n');
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin_lines.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "CLI must survive malformed lines");
    let cli_stdout = String::from_utf8(out.stdout).unwrap();
    let cli_lines: Vec<&str> = cli_stdout.lines().collect();
    assert_eq!(
        cli_lines.len(),
        REQUESTS.len(),
        "one response line per request line"
    );

    // Transport B: the TCP front-end over one keep-alive connection.
    let server = spawn_server(build_engine(&edges, &snap), ServerConfig::default());
    let mut client = Client::connect(server.addr());
    for (req, cli_line) in REQUESTS.iter().zip(&cli_lines) {
        let resp = client.round_trip("POST", "/recommend", req);
        let tcp_body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            tcp_body,
            format!("{cli_line}\n"),
            "transports disagree on `{req}`"
        );
        // The HTTP status must agree with the typed reply the body carries.
        let reply = WireReply::decode(cli_line).unwrap();
        assert_eq!(resp.status, reply.http_status(), "status for `{req}`");
        assert!(resp.keep_alive, "keep-alive connection must stay open");
    }

    // Every reply decodes through the shared protocol — no transport
    // invented its own shape.
    for line in &cli_lines {
        WireReply::decode(line).unwrap();
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn full_admission_queue_sheds_with_typed_overloaded_errors() {
    let (edges, snap) = train_fixture("overload");
    // queue_cap 0: every engine request finds the queue full.
    let server = spawn_server(
        build_engine(&edges, &snap),
        ServerConfig {
            queue_cap: 0,
            ..Default::default()
        },
    );
    let mut client = Client::connect(server.addr());
    for _ in 0..5 {
        let resp = client.round_trip("POST", "/recommend", r#"{"user": 0}"#);
        assert_eq!(resp.status, 429);
        let body = String::from_utf8(resp.body).unwrap();
        let WireReply::Err(err) = WireReply::decode(body.trim_end()).unwrap() else {
            panic!("shed response must decode as a wire error: {body}");
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(
            err.message.contains("admission queue full"),
            "{}",
            err.message
        );
        // Shedding answers the request; it never drops the connection.
        assert!(resp.keep_alive);
    }
    // The same connection keeps working for non-engine endpoints.
    let resp = client.round_trip("GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    let stats = server.stats();
    assert_eq!(stats.shed.load(std::sync::atomic::Ordering::Relaxed), 5);
    assert_eq!(stats.served.load(std::sync::atomic::Ordering::Relaxed), 0);
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let (edges, snap) = train_fixture("pipeline");
    let server = spawn_server(build_engine(&edges, &snap), ServerConfig::default());
    let mut client = Client::connect(server.addr());
    // Three requests written back-to-back before reading anything.
    for user in 0..3usize {
        client.send(
            "POST",
            "/recommend",
            &format!("{{\"user\": {user}, \"m\": 1}}"),
        );
    }
    for user in 0..3usize {
        let resp = client.recv();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(
            v.get("user").and_then(Json::as_usize),
            Some(user),
            "response order must match request order: {body}"
        );
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn stats_endpoint_reports_counters_and_latency() {
    let (edges, snap) = train_fixture("stats");
    let server = spawn_server(build_engine(&edges, &snap), ServerConfig::default());
    let mut client = Client::connect(server.addr());
    for user in 0..4usize {
        let resp = client.round_trip("POST", "/recommend", &format!("{{\"user\": {user}}}"));
        assert_eq!(resp.status, 200);
    }
    let resp = client.round_trip("GET", "/stats", "");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).unwrap();
    let v = Json::parse(body.trim_end()).unwrap();
    assert_eq!(v.get("served").and_then(Json::as_u64), Some(4));
    assert_eq!(v.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(v.get("active_connections").and_then(Json::as_u64), Some(1));
    assert!(v.get("requests").and_then(Json::as_u64).unwrap() >= 5);
    let latency = v.get("latency_us").expect("latency_us object");
    assert_eq!(latency.get("count").and_then(Json::as_u64), Some(4));
    for q in ["p50", "p90", "p99", "p999", "max"] {
        assert!(
            latency.get(q).and_then(Json::as_f64).unwrap() > 0.0,
            "{q} must be positive"
        );
    }
    // the scoring representation and the ISA level of its kernel, side by
    // side: the f64 master has one compilation, the baseline
    assert_eq!(v.get("dtype").and_then(Json::as_str), Some("f64"));
    assert_eq!(v.get("kernel").and_then(Json::as_str), Some("baseline"));
    // and which arm the full-catalog scans took: four items are fewer than
    // the cluster policy's floor, so all four requests scanned the catalog,
    // through the f64 master and its k = 2 factors, each in one part
    let scans = v.get("scans").expect("scans object");
    assert_eq!(scans.get("sparse").and_then(Json::as_u64), Some(0));
    assert_eq!(scans.get("dense").and_then(Json::as_u64), Some(4));
    assert_eq!(
        scans.get("active_codes_mean").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(scans.get("split").and_then(Json::as_u64), Some(0));
    // Unknown endpoints answer 404 without killing the connection.
    let resp = client.round_trip("GET", "/nope", "");
    assert_eq!(resp.status, 404);
    let resp = client.round_trip("GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    // Clean shutdown: the I/O thread joins and reports no error.
    server.shutdown().unwrap();

    // a quantized engine names the level this process detected
    let loaded = AnySnapshot::load_path_full(&snap).unwrap();
    let dataset = read_edge_list(edges.to_str().unwrap(), "\t", None)
        .unwrap()
        .into_dataset();
    let int8 = EngineBuilder::from_loaded(loaded)
        .dataset(dataset)
        .config(serve_cfg())
        .quantization(QuantDtype::I8)
        .build()
        .unwrap();
    let server = spawn_server(int8, ServerConfig::default());
    let resp = Client::connect(server.addr()).round_trip("GET", "/stats", "");
    let v = Json::parse(String::from_utf8(resp.body).unwrap().trim_end()).unwrap();
    assert_eq!(v.get("dtype").and_then(Json::as_str), Some("int8"));
    assert_eq!(
        v.get("kernel").and_then(Json::as_str),
        Some(KernelLevel::detect().name())
    );
    server.shutdown().unwrap();
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&snap);
}
