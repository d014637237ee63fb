//! A small persistent worker pool for the serving tier.
//!
//! [`rayon`]'s scoped data parallelism fits batch computations that start
//! and finish inside one call; the network front-end instead needs
//! **long-lived** workers that pull submitted jobs off a queue while the
//! I/O thread keeps multiplexing connections, and a split catalog scan
//! needs helpers that are already running when a request arrives — a
//! thread spawned per request costs what the split saves. [`WorkerPool`] is
//! that primitive: N threads draining one shared channel of boxed closures,
//! joined on drop so a server shutdown cannot leak threads.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads executing submitted closures
/// in FIFO submission order (each worker pulls the next job as it becomes
/// free).
///
/// Dropping the pool closes the queue, lets every already-submitted job
/// finish, and joins all workers — a deterministic, leak-free shutdown.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("ocular-worker-{i}"))
                    .spawn(move || loop {
                        // hold the lock only while dequeuing, never while
                        // running the job
                        let job = match receiver.lock().expect("pool queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // queue closed: pool dropped
                        };
                        job();
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job; it runs on the first free worker. Never blocks the
    /// caller (the queue is unbounded — admission control belongs to the
    /// caller, which is exactly what the serving tier's bounded pending
    /// queue does).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool alive while not dropped")
            .send(Box::new(job))
            .expect("workers alive while pool is");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // closing the channel is the shutdown signal…
        drop(self.sender.take());
        // …after which every worker drains remaining jobs and exits
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn executes_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_pending_jobs_then_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // drop happens here: all 50 must still run
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            7
        );
    }
}
