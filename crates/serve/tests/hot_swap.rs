//! Zero-downtime hot swap under load: client threads hammer the TCP
//! front-end over keep-alive connections while the control plane drives
//! repeated `POST /admin/reload` swaps. The guarantees under test are the
//! live-refresh contract from the README:
//!
//! * **zero dropped requests** — every request sent during a swap gets a
//!   well-formed `200` success response (no resets, no errors, no
//!   `reloading` leaking onto the data plane);
//! * **monotone generations** — each connection observes a
//!   non-decreasing `model_generation` sequence, and `/stats` converges
//!   on the final generation with one recorded swap per reload;
//! * **bounded engine lifetime** — the swapped-out engine (and with it
//!   any mmap'd snapshot region it owns, and that region's open file) is
//!   released exactly when the last in-flight borrower drops, never while
//!   a batch is serving.
#![cfg(target_os = "linux")]

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use ocular_core::FactorModel;
use ocular_linalg::Matrix;
use ocular_serve::json::Json;
use ocular_serve::net::{Server, ServerConfig};
use ocular_serve::swap::SwapEngine;
use ocular_serve::{AnySnapshot, EngineBuilder, IndexConfig, ServeEngine, Snapshot};
use ocular_sparse::{Dataset, Triplets};

mod common;
use common::{Client, TestServer};

const N_USERS: usize = 48;
const RELOADS: u64 = 5;

fn dataset() -> Dataset {
    let mut t = Triplets::new(N_USERS, N_USERS);
    for i in 0..N_USERS {
        t.push(i, (i + 1) % N_USERS).unwrap();
        t.push(i, (i + 3) % N_USERS).unwrap();
    }
    Dataset::from_matrix(t.into_csr())
}

fn model() -> FactorModel {
    let factors = |salt: usize| {
        let values = (0..N_USERS * 2).map(|x| 0.1 + ((x + salt) % 7) as f64 * 0.2);
        Matrix::from_vec(N_USERS, 2, values.collect())
    };
    FactorModel::new(factors(0), factors(3), false)
}

fn engine(generation: u64) -> ServeEngine {
    EngineBuilder::from_model(model())
        .dataset(dataset())
        .generation(generation)
        .build()
        .unwrap()
}

/// Parses a `/recommend` response body, panicking on anything that is not
/// a success, and returns the generation stamped on it.
fn generation_of(body: &[u8]) -> u64 {
    let text = String::from_utf8(body.to_vec()).unwrap();
    let v = Json::parse(text.trim_end()).unwrap_or_else(|e| panic!("bad body {text:?}: {e}"));
    assert!(
        v.get("error").is_none(),
        "request errored during hot swap: {text}"
    );
    v.get("model_generation")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response missing model_generation: {text}"))
}

#[test]
fn hot_swap_under_load_drops_nothing_and_keeps_generations_monotone() {
    let swap = Arc::new(SwapEngine::with_reload(
        engine(1),
        Box::new(|current| Ok(engine(current + 1))),
    ));
    // watch every swapped-out engine's lifetime from outside
    let mut retired: Vec<Weak<ServeEngine>> = Vec::new();

    let server = TestServer::new(
        Server::bind(
            Arc::clone(&swap),
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .expect("bind ephemeral port")
        .spawn(),
    );
    let addr = server.addr();

    // closed-loop load: 3 connections, pipelined bursts of 8, until told
    // to stop; every response must be a success with a generation stamp
    let stop = Arc::new(AtomicBool::new(false));
    let loadgen: Vec<_> = (0..3)
        .map(|conn: usize| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut served = 0u64;
                let mut last_gen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..8usize {
                        let user = (conn * 7 + i * 5) % N_USERS;
                        client.send("POST", "/recommend", &format!("{{\"user\": {user}}}"));
                    }
                    for _ in 0..8 {
                        let resp = client.recv();
                        assert_eq!(resp.status, 200, "dropped or errored under swap");
                        let generation = generation_of(&resp.body);
                        assert!(
                            generation >= last_gen,
                            "generation went backwards on one connection: \
                             {generation} after {last_gen}"
                        );
                        last_gen = generation;
                        served += 1;
                    }
                }
                (served, last_gen)
            })
        })
        .collect();

    // the control plane: RELOADS sequential swaps while the load runs
    let mut admin = Client::connect(addr);
    for expect in 2..=(RELOADS + 1) {
        retired.push(Arc::downgrade(&swap.engine()));
        let resp = admin.round_trip("POST", "/admin/reload", "");
        assert_eq!(resp.status, 200, "reload must succeed");
        let body = String::from_utf8(resp.body).unwrap();
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("model_generation").and_then(Json::as_u64),
            Some(expect),
            "each reload bumps the generation by exactly one"
        );
        // and /stats reports the fresh engine at once
        let resp = admin.round_trip("GET", "/stats", "");
        let body = String::from_utf8(resp.body).unwrap();
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(
            v.get("model_generation").and_then(Json::as_u64),
            Some(expect)
        );
        // let a few batches serve on the fresh engine before the next swap
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    for handle in loadgen {
        let (served, last_gen) = handle.join().expect("loadgen thread must not panic");
        assert!(served > 0, "each connection must have been served");
        assert!(last_gen >= 1, "every response carries a generation");
        total += served;
    }
    assert!(total > 0);

    // /stats reconciles: final generation, one swap per reload, idle plane
    let resp = admin.round_trip("GET", "/stats", "");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).unwrap();
    let v = Json::parse(body.trim_end()).unwrap();
    assert_eq!(
        v.get("model_generation").and_then(Json::as_u64),
        Some(RELOADS + 1)
    );
    assert_eq!(v.get("swaps").and_then(Json::as_u64), Some(RELOADS));
    assert_eq!(v.get("reloading").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("served").and_then(Json::as_u64), Some(total));
    assert_eq!(v.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(v.get("bad_requests").and_then(Json::as_u64), Some(0));

    server.shutdown().unwrap();

    // every earlier engine must be gone: it was swapped
    // out and every batch that pinned it has finished — nothing may still
    // hold the (in production, mmap-backed) model alive
    assert_eq!(retired.len() as u64, RELOADS);
    assert!(
        retired.iter().all(|engine| engine.upgrade().is_none()),
        "swapped-out engine still referenced after the last borrower dropped"
    );
    assert_eq!(swap.generation(), RELOADS + 1);
}

/// In-flight pipelined requests written *before* a reload is issued on
/// another connection must all be answered on the connection, in order,
/// successfully — the swap may not invalidate queued work.
#[test]
fn pipelined_requests_survive_a_mid_stream_swap() {
    let swap = Arc::new(SwapEngine::with_reload(
        engine(1),
        Box::new(|current| Ok(engine(current + 1))),
    ));
    let server = TestServer::new(
        Server::bind(Arc::clone(&swap), "127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral port")
            .spawn(),
    );
    let addr = server.addr();

    let mut client = Client::connect(addr);
    const BURST: usize = 24;
    for user in 0..BURST {
        client.send(
            "POST",
            "/recommend",
            &format!("{{\"user\": {}, \"m\": 2}}", user % N_USERS),
        );
    }
    // swap while the burst drains
    let mut admin = Client::connect(addr);
    let resp = admin.round_trip("POST", "/admin/reload", "");
    assert_eq!(resp.status, 200);

    let mut last_gen = 0;
    for user in 0..BURST {
        let resp = client.recv();
        assert_eq!(resp.status, 200);
        let generation = generation_of(&resp.body);
        let text = String::from_utf8(resp.body).unwrap();
        let v = Json::parse(text.trim_end()).unwrap();
        assert_eq!(
            v.get("user").and_then(Json::as_usize),
            Some(user % N_USERS),
            "pipelined order preserved across the swap"
        );
        assert!(generation >= last_gen, "generation monotone within a pipe");
        last_gen = generation;
    }
    server.shutdown().unwrap();
}

/// This process's open descriptors on `path`.
fn descriptors_on(path: &Path) -> usize {
    let path = path.canonicalize().unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| *target == path)
        .count()
}

/// A mapped snapshot region keeps its file open (its checksum is read
/// through it), so every generation loaded from a file holds a descriptor
/// on it. Fifty reloads must leave as many open as the one live generation
/// started with: each swapped-out generation closes its file as it drops.
#[test]
fn reloads_from_a_mapped_snapshot_close_the_files_of_old_generations() {
    let path =
        std::env::temp_dir().join(format!("ocular-hot-swap-fds-{}.snap", std::process::id()));
    AnySnapshot::Ocular(Snapshot::build(model(), &IndexConfig::default()))
        .save_path_full(&path, None, None)
        .unwrap();
    let file = path.clone();
    let mapped = move |generation: u64| {
        EngineBuilder::from_loaded(AnySnapshot::load_path_full(&file)?)
            .dataset(dataset())
            .generation(generation)
            .build()
    };
    let swap = SwapEngine::with_reload(mapped(1).unwrap(), Box::new(move |g| mapped(g + 1)));
    let live = descriptors_on(&path);
    assert_eq!(
        live, 1,
        "the live generation's mapped region holds its file"
    );
    for _ in 0..50 {
        swap.reload().unwrap();
    }
    assert_eq!(swap.generation(), 51);
    assert_eq!(
        descriptors_on(&path),
        live,
        "old generations left files open"
    );
    drop(swap);
    assert_eq!(descriptors_on(&path), 0);
    std::fs::remove_file(&path).unwrap();
}
