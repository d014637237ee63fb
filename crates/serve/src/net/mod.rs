//! The network serving tier: a hand-rolled non-blocking HTTP/1.1
//! front-end over the [`crate::protocol`] wire format.
//!
//! * [`http`] — the minimal HTTP codec (request parsing, response
//!   framing, a blocking client half for tests);
//! * [`stats`] — lock-free counters and log-bucketed latency histograms
//!   behind `GET /stats`;
//! * [`server`] (Linux only) — the epoll event loop, worker-pool request
//!   coalescing, keep-alive + pipelining, admission control, and the
//!   control plane (`POST /admin/reload` + `SIGHUP` hot swaps through
//!   [`crate::swap::SwapEngine`]).
//!
//! The stdin CLI (`serve` binary) and this TCP tier decode and encode
//! through the same [`crate::protocol`] types, so a request line piped
//! into the CLI and the body of a `POST /recommend` produce byte-identical
//! response bodies — the conformance tests assert exactly that.

pub mod http;
#[cfg(target_os = "linux")]
pub mod server;
pub mod stats;

#[cfg(target_os = "linux")]
pub use server::{RunningServer, Server, ServerConfig, ServerHandle};
pub use stats::{LatencyHistogram, ServerStats};
