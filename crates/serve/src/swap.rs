//! Zero-downtime snapshot hot-swap: a generation-counted handle that
//! atomically replaces the [`ServeEngine`] behind a running server.
//!
//! The live-refresh loop (append deltas → retrain → redeploy) ends here:
//! a freshly trained snapshot is loaded **off the request path** (on the
//! reload caller's thread), built into a complete engine, and
//! then published with one brief write-locked pointer store. Requests in
//! flight keep the `Arc` they grabbed at admission, so they finish
//! against the engine that admitted them — nothing is dropped, nothing
//! is answered half-old/half-new — and the old engine (with its mmap'd
//! snapshot region) is unmapped exactly when the last borrower drops it.
//!
//! Generations are strictly monotone across swaps: a reload that would
//! publish an equal-or-older generation is rejected, so clients watching
//! `model_generation` in responses or `/stats` observe a total order of
//! deployments. At most one reload runs at a time; a second request
//! while one is in flight answers [`ReloadError::Busy`] (wire code
//! `reloading`, HTTP 503) instead of queueing.

use crate::engine::ServeEngine;
use ocular_api::OcularError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// How a reload produces the next engine: called with the currently
/// served generation, must return an engine whose generation is strictly
/// greater (the CLI closure re-loads the snapshot and dataset from disk
/// and stamps `max(snapshot generation, current + 1)`).
pub type ReloadFn = Box<dyn Fn(u64) -> Result<ServeEngine, OcularError> + Send + Sync>;

/// Why a reload did not publish a new engine.
#[derive(Debug)]
pub enum ReloadError {
    /// Another reload is already in flight — retry after it completes.
    Busy,
    /// The handle was built without a reload source ([`SwapEngine::new`]).
    NoSource,
    /// Loading or building the next engine failed; the previous engine
    /// keeps serving untouched.
    Failed(OcularError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Busy => write!(f, "reload already in flight"),
            ReloadError::NoSource => write!(f, "engine has no reload source configured"),
            ReloadError::Failed(e) => write!(f, "reload failed: {e}"),
        }
    }
}

/// The swap handle every transport holds instead of a bare engine.
///
/// [`SwapEngine::engine`] hands out the current `Arc<ServeEngine>`; the
/// caller serves its whole request (or batch) against that pinned engine
/// and drops the `Arc` when done. [`SwapEngine::swap`] publishes a new
/// engine without disturbing pinned ones.
pub struct SwapEngine {
    current: RwLock<Arc<ServeEngine>>,
    reload: Option<ReloadFn>,
    reload_in_flight: AtomicBool,
    swaps: AtomicU64,
}

impl SwapEngine {
    /// Wraps an engine with no reload source — swaps only happen through
    /// explicit [`SwapEngine::swap`] calls (tests, embedded use).
    pub fn new(initial: ServeEngine) -> SwapEngine {
        SwapEngine {
            current: RwLock::new(Arc::new(initial)),
            reload: None,
            reload_in_flight: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
        }
    }

    /// Wraps an engine with a reload source: `POST /admin/reload` and
    /// `SIGHUP` call `reload`, which rebuilds the engine from wherever
    /// the deployment keeps its artifacts (snapshot path + data log).
    pub fn with_reload(initial: ServeEngine, reload: ReloadFn) -> SwapEngine {
        SwapEngine {
            reload: Some(reload),
            ..SwapEngine::new(initial)
        }
    }

    /// The engine currently serving, pinned: callers hold the `Arc`
    /// across their whole request so a concurrent swap never changes the
    /// model mid-request, and the old engine stays mapped until the last
    /// such pin drops.
    pub fn engine(&self) -> Arc<ServeEngine> {
        Arc::clone(&self.current.read().expect("engine lock poisoned"))
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.engine().generation()
    }

    /// Completed swaps since start (reported by `/stats`).
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Whether a reload is currently in flight.
    pub fn reloading(&self) -> bool {
        self.reload_in_flight.load(Ordering::Acquire)
    }

    /// Publishes `next` as the serving engine. Rejects non-monotone
    /// generations (`next.generation() <= current`) without touching the
    /// serving state. Returns the published generation.
    pub fn swap(&self, next: ServeEngine) -> Result<u64, OcularError> {
        let next = Arc::new(next);
        let generation = next.generation();
        let mut current = self.current.write().expect("engine lock poisoned");
        if generation <= current.generation() {
            return Err(OcularError::InvalidConfig(format!(
                "refusing non-monotone hot swap: generation {generation} \
                 does not advance past the serving generation {}",
                current.generation()
            )));
        }
        *current = next;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// Runs the configured reload source and swaps the result in —
    /// synchronously, on the caller's thread (the server calls this from
    /// a dedicated thread so the event loop never blocks on model
    /// loading). One at a time: concurrent calls answer
    /// [`ReloadError::Busy`]. On any failure the previous engine keeps
    /// serving. Returns the newly published generation.
    pub fn reload(&self) -> Result<u64, ReloadError> {
        let reload = self.reload.as_ref().ok_or(ReloadError::NoSource)?;
        if self.reload_in_flight.swap(true, Ordering::AcqRel) {
            return Err(ReloadError::Busy);
        }
        let result = reload(self.generation())
            .and_then(|next| self.swap(next))
            .map_err(ReloadError::Failed);
        self.reload_in_flight.store(false, Ordering::Release);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineBuilder, Request};
    use crate::snapshot::AnySnapshot;
    use ocular_baselines::Popularity;
    use ocular_sparse::{Dataset, Triplets};

    fn engine(generation: u64, n: usize) -> ServeEngine {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i).unwrap();
            t.push(i, (i + 1) % n).unwrap();
        }
        let data = Dataset::from_matrix(t.into_csr());
        EngineBuilder::from_snapshot(AnySnapshot::Other(Box::new(Popularity::fit(&data))))
            .dataset(data)
            .generation(generation)
            .build()
            .unwrap()
    }

    #[test]
    fn swap_publishes_and_pins_stay_on_their_engine() {
        let swap = SwapEngine::new(engine(1, 4));
        let pinned = swap.engine();
        assert_eq!(swap.swap(engine(2, 6)).unwrap(), 2);
        // the pin still serves the old model; fresh grabs see the new one
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.n_users(), 4);
        assert_eq!(swap.generation(), 2);
        assert_eq!(swap.engine().n_users(), 6);
        assert_eq!(swap.swap_count(), 1);
        // the old engine dies exactly when the last pin drops
        let weak = Arc::downgrade(&pinned);
        drop(pinned);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn non_monotone_swaps_are_rejected() {
        let swap = SwapEngine::new(engine(5, 4));
        for stale in [5, 4, 0] {
            let err = swap.swap(engine(stale, 4)).unwrap_err();
            assert!(matches!(err, OcularError::InvalidConfig(_)));
        }
        assert_eq!(swap.generation(), 5);
        assert_eq!(swap.swap_count(), 0);
    }

    #[test]
    fn reload_runs_the_source_and_reports_failures() {
        let swap = SwapEngine::with_reload(
            engine(1, 4),
            Box::new(|current| {
                if current >= 3 {
                    Err(OcularError::Io("artifact store unreachable".into()))
                } else {
                    Ok(engine(current + 1, 4))
                }
            }),
        );
        assert_eq!(swap.reload().unwrap(), 2);
        assert_eq!(swap.reload().unwrap(), 3);
        assert!(matches!(swap.reload(), Err(ReloadError::Failed(_))));
        // the failed reload left generation 3 serving
        assert_eq!(swap.generation(), 3);

        let no_source = SwapEngine::new(engine(1, 4));
        assert!(matches!(no_source.reload(), Err(ReloadError::NoSource)));
    }

    #[test]
    fn a_reload_pointed_at_a_lying_header_keeps_the_old_generation() {
        // files that promise terabytes — checksummed v3 containers whose
        // metadata counts or section table lie, and a text snapshot from
        // before v3 — must come back as typed failures (a count that
        // became a capacity would abort the live process) while generation
        // 1 keeps answering
        let mut counts = Vec::new();
        let mut w = ocular_api::SectionWriter::new("ocular", &mut counts);
        w.put_u64s("meta", &[1_000_000_000_000, 1, 4, 0]);
        w.put_f64s("ufact", &[]);
        w.put_f64s("ifact", &[1.0; 4]);
        w.finish().unwrap();
        let mut table = crate::AnySnapshot::Other(Box::new(Popularity::fit(
            &Dataset::from_matrix(Triplets::new(2, 2).into_csr()),
        )))
        .to_v3_bytes(None, None)
        .unwrap();
        let len = table.len();
        let at = u64::from_le_bytes(table[len - 24..len - 16].try_into().unwrap()) as usize;
        table[at + 16..at + 24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let checksum = ocular_bytes::fnv1a64(&table[..len - 8]);
        table[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        let text = b"ocular-snapshot v2 ocular\nocular-model v1 1000000000000 1 4 0\n".to_vec();
        for (i, bomb) in [counts, table, text].into_iter().enumerate() {
            let path = std::env::temp_dir().join(format!("ocular-bomb-{}-{i}", std::process::id()));
            std::fs::write(&path, bomb).unwrap();
            let source = path.clone();
            let swap = SwapEngine::with_reload(
                engine(1, 4),
                Box::new(move |_| {
                    let loaded = crate::AnySnapshot::load_path_full(&source)?;
                    EngineBuilder::from_loaded(loaded).build()
                }),
            );
            let reloaded = swap.reload();
            assert!(
                matches!(reloaded, Err(ReloadError::Failed(OcularError::Corrupt(_)))),
                "bomb {i}: {reloaded:?}"
            );
            assert_eq!(swap.generation(), 1);
            let served = swap.engine().serve_one(&Request::Warm { user: 0, m: 2 });
            assert!(served.is_ok());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn concurrent_reloads_answer_busy() {
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let swap = Arc::new(SwapEngine::with_reload(
            engine(1, 4),
            Box::new(move |current| {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                Ok(engine(current + 1, 4))
            }),
        ));
        let slow = {
            let swap = Arc::clone(&swap);
            std::thread::spawn(move || swap.reload())
        };
        entered_rx.recv().unwrap();
        // while the first reload holds the guard, a second answers Busy
        // and requests keep being served by the old engine
        assert!(swap.reloading());
        assert!(matches!(swap.reload(), Err(ReloadError::Busy)));
        assert!(swap
            .engine()
            .serve_one(&Request::Warm { user: 0, m: 2 })
            .is_ok());
        release_tx.send(()).unwrap();
        assert_eq!(slow.join().unwrap().unwrap(), 2);
        assert!(!swap.reloading());
    }
}
