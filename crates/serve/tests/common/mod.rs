//! The TCP harness `net_conformance` and `hot_swap` share: a keep-alive
//! client whose reads time out, and a server guard whose teardown has a
//! deadline. With both, a server that stops answering or a dispatch loop
//! that stops draining fails its test instead of blocking it for good.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::sync::mpsc;
use std::time::Duration;

use ocular_serve::net::{http, RunningServer};

/// How long a client read waits for a byte before it fails the test.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a server's shutdown may take before it fails the test.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(60);

/// One keep-alive client connection with split read/write halves.
pub struct Client {
    writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        self.writer
            .write_all(&http::format_request(method, path, body.as_bytes(), true))
            .unwrap();
    }

    pub fn recv(&mut self) -> http::HttpResponse {
        http::read_response(&mut self.reader).unwrap()
    }

    pub fn round_trip(&mut self, method: &str, path: &str, body: &str) -> http::HttpResponse {
        self.send(method, path, body);
        self.recv()
    }
}

/// A running server that is shut down on a helper thread, so its teardown
/// has a deadline: [`TestServer::shutdown`] fails the test when the
/// server is still running [`SHUTDOWN_DEADLINE`] later, instead of
/// blocking in [`RunningServer`]'s join. A failing test unwinds through
/// the drop, which tears down the same way but leaves the failure to the
/// panic already under way.
pub struct TestServer(Option<RunningServer>);

impl TestServer {
    pub fn new(server: RunningServer) -> TestServer {
        TestServer(Some(server))
    }

    /// Shuts the server down, returning what its I/O thread returned.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let server = self.0.take().expect("shut down once");
        shutdown_within_deadline(server)
            .unwrap_or_else(|| panic!("server still running {SHUTDOWN_DEADLINE:?} after shutdown"))
    }
}

impl Deref for TestServer {
    type Target = RunningServer;

    fn deref(&self) -> &RunningServer {
        self.0.as_ref().expect("not shut down")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            // past the deadline, the helper thread is left blocked
            let _ = shutdown_within_deadline(server);
        }
    }
}

/// Runs `server.shutdown()` on a helper thread and waits for it at most
/// [`SHUTDOWN_DEADLINE`]; `None` when it did not return in time.
fn shutdown_within_deadline(server: RunningServer) -> Option<std::io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    let result = rx.recv_timeout(SHUTDOWN_DEADLINE).ok()?;
    helper.join().expect("the helper only sends");
    Some(result)
}
