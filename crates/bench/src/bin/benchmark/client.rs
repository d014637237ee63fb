//! The benchmark's own HTTP/1.1 load generator: keep-alive connections,
//! one thread each, pipelining with a fixed window.

use crate::stats::{p50_p99_us, window_stats, WindowStats};
use ocular_serve::WireReply;
use std::collections::VecDeque;
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One reply in this many is decoded in full and its list length checked;
/// the rest are checked for status and an `"items"` field only.
const DECODE_EVERY: u64 = 64;

/// Accounting of one connection's pipelining window: at most `cap`
/// requests in flight, and responses matched to sends in order.
pub struct Window {
    cap: usize,
    in_flight: VecDeque<(usize, Instant)>,
}

impl Window {
    pub fn new(cap: usize) -> Window {
        Window {
            cap,
            in_flight: VecDeque::with_capacity(cap),
        }
    }

    pub fn can_send(&self) -> bool {
        self.in_flight.len() < self.cap
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Records that stream request `index` left at `at`.
    ///
    /// # Panics
    /// Panics if the window is full.
    pub fn sent(&mut self, index: usize, at: Instant) {
        assert!(self.can_send(), "window of {} exceeded", self.cap);
        self.in_flight.push_back((index, at));
    }

    /// Matches the next response to the oldest outstanding send.
    ///
    /// # Panics
    /// Panics on a response nothing was sent for.
    pub fn received(&mut self) -> (usize, Instant) {
        self.in_flight
            .pop_front()
            .expect("a response arrived with no request in flight")
    }
}

/// A blocking keep-alive connection with a response reader.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // a stuck server must fail the run, not hang it
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        })
    }

    /// Reads one `Content-Length`-framed response; `Ok(None)` on a clean
    /// end of stream between responses.
    fn read_response(&mut self) -> std::io::Result<Option<(u16, Vec<u8>)>> {
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        loop {
            let pending = &self.buf[self.start..];
            if let Some(head_len) = find(pending, b"\r\n\r\n").map(|i| i + 4) {
                let head = std::str::from_utf8(&pending[..head_len])
                    .map_err(|_| bad("response head is not UTF-8"))?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad status line"))?;
                let body_len: usize = head
                    .split("\r\n")
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .ok_or_else(|| bad("response without Content-Length"))?;
                if pending.len() >= head_len + body_len {
                    let body = pending[head_len..head_len + body_len].to_vec();
                    self.start += head_len + body_len;
                    return Ok(Some((status, body)));
                }
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "truncated response")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Whether a reply counts as served: `200`, an `"items"` field, and — on
/// every [`DECODE_EVERY`]th — a full decode carrying exactly `m` items.
fn reply_ok(status: u16, body: &[u8], nth: u64, m: usize) -> bool {
    if status != 200 || find(body, b"\"items\"").is_none() {
        return false;
    }
    if nth % DECODE_EVERY != 0 {
        return true;
    }
    let text = String::from_utf8_lossy(body);
    matches!(WireReply::decode(text.trim_end()), Ok(WireReply::Ok(r)) if r.items.len() == m)
}

/// Samples each connection's buffer holds before it has to grow (enough
/// for 52k req/s over a 20 s window on two connections).
const SAMPLE_CAP: usize = 1 << 19;

/// One served reply: `(microseconds into the window at which it was fully
/// read, send→full-response nanoseconds, saturating at 4.29 s)`.
pub type Sample = (u32, u32);

/// One sample buffer per connection, every page touched. A run makes them
/// before anything else, so what the load generator adds to the process's
/// peak memory is the same 8 MB in every phase, however fast the server
/// answers and wherever the allocator would have put them later.
pub fn sample_buffers(conns: usize) -> Vec<Vec<Sample>> {
    (0..conns)
        .map(|_| {
            let mut buffer = vec![(1, 1); SAMPLE_CAP];
            buffer.clear();
            buffer
        })
        .collect()
}

/// What a closed-loop run measured inside its timed window.
#[derive(Default)]
pub struct LoadResult {
    /// The replies that counted as served.
    pub served: Vec<Sample>,
    /// Responses received inside the window, served or not.
    pub completed: u64,
    /// Of those, the ones that did not count as served, plus requests
    /// lost to a transport error.
    pub failed: u64,
    /// Length of the window.
    pub seconds: f64,
    /// CPU seconds (user + system) this whole process — server threads
    /// and load generator — spent during the window.
    pub cpu_s: f64,
    /// Peak resident set of the process (`VmHWM`) when the window ended:
    /// everything up to and including serving under load, nothing of the
    /// checks that follow.
    pub peak_rss_mb: f64,
    /// The first replies of connection 0, as `(stream index, body)`.
    pub samples: Vec<(usize, Vec<u8>)>,
}

/// Length of the equal slices a load window is cut into.
const SLICE_SECONDS: f64 = 0.5;

impl LoadResult {
    /// The window as both the end-to-end and the traced run read it: from
    /// its least-disturbed slices.
    pub fn window(&self) -> WindowStats {
        let k = ((self.seconds / SLICE_SECONDS).round() as usize).max(1);
        window_stats(&self.served, (self.seconds * 1e6) as u64, k)
    }

    /// `(req/s, p50 µs, p99 µs)` over the whole window, disturbed slices
    /// included: diagnostics printed beside [`LoadResult::window`]'s.
    pub fn whole_window(&self) -> (f64, f64, f64) {
        let rps = self.served.len() as f64 / self.seconds;
        if self.served.is_empty() {
            return (rps, 0.0, 0.0);
        }
        let (p50_us, p99_us) = p50_p99_us(&mut self.latencies_ns());
        (rps, p50_us, p99_us)
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.served.iter().map(|&(_, ns)| u64::from(ns)).collect()
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// User + system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks are 1/100 s on Linux).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name may hold spaces; fields are counted after its ")"
    let after = &stat[stat.rfind(')').expect("comm field") + 2..];
    let mut fields = after.split(' ').skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("tick field")
    };
    (ticks() + ticks()) / 100.0
}

/// The closed-loop load shape.
pub struct ClosedLoop {
    pub conns: usize,
    pub window: usize,
    /// Replies received during the warm-up are not counted.
    pub warmup: Duration,
    pub timed: Duration,
    /// How many of connection 0's first replies to keep.
    pub keep_samples: usize,
    /// The list length every request asks for.
    pub m: usize,
}

/// Closed loop: `conns` connections, each keeping `window` requests in
/// flight and sending its next one when a response arrives. Connection
/// `c` sends stream requests `c, c + conns, …`, wrapping around, and
/// records into `buffers[c]`.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &[Vec<u8>],
    shape: &ClosedLoop,
    buffers: Vec<Vec<Sample>>,
) -> LoadResult {
    assert_eq!(buffers.len(), shape.conns, "one buffer per connection");
    let t_start = Instant::now() + shape.warmup;
    let t_end = t_start + shape.timed;
    let mut cpu_s = 0.0;
    let parts: Vec<LoadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = buffers
            .into_iter()
            .enumerate()
            .map(|(c, buffer)| {
                scope.spawn(move || drive(addr, stream, shape, c, buffer, t_start, t_end))
            })
            .collect();
        std::thread::sleep(t_start.saturating_duration_since(Instant::now()));
        let cpu_before = cpu_seconds();
        std::thread::sleep(t_end.saturating_duration_since(Instant::now()));
        cpu_s = cpu_seconds() - cpu_before;
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = LoadResult {
        seconds: shape.timed.as_secs_f64(),
        cpu_s,
        // before the connections' samples are copied together
        peak_rss_mb: peak_rss_mb(),
        ..Default::default()
    };
    for part in parts {
        total.served.extend(part.served);
        total.completed += part.completed;
        total.failed += part.failed;
        total.samples.extend(part.samples);
    }
    total
}

fn drive(
    addr: SocketAddr,
    stream: &[Vec<u8>],
    shape: &ClosedLoop,
    conn_index: usize,
    buffer: Vec<Sample>,
    t_start: Instant,
    t_end: Instant,
) -> LoadResult {
    let keep_samples = if conn_index == 0 {
        shape.keep_samples
    } else {
        0
    };
    let mut out = LoadResult {
        served: buffer,
        ..Default::default()
    };
    let mut win = Window::new(shape.window);
    let mut next = conn_index;
    let mut received = 0u64;
    let outcome = (|| -> std::io::Result<()> {
        let mut conn = Conn::connect(addr)?;
        loop {
            while win.can_send() {
                let now = Instant::now();
                if now >= t_end {
                    break;
                }
                conn.stream.write_all(&stream[next % stream.len()])?;
                win.sent(next, now);
                next += shape.conns;
            }
            if win.in_flight() == 0 {
                return Ok(());
            }
            let (status, body) = conn
                .read_response()?
                .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof, "server closed"))?;
            let now = Instant::now();
            let (index, sent_at) = win.received();
            let ok = reply_ok(status, &body, received, shape.m);
            received += 1;
            if out.samples.len() < keep_samples {
                out.samples.push((index % stream.len(), body));
            }
            if now >= t_start && now < t_end {
                out.completed += 1;
                if ok {
                    out.served.push((
                        (now - t_start).as_micros() as u32,
                        (now - sent_at).as_nanos().min(u128::from(u32::MAX)) as u32,
                    ));
                } else {
                    out.failed += 1;
                }
            }
        }
    })();
    if let Err(e) = outcome {
        eprintln!("benchmark: connection {conn_index} failed: {e}");
        // everything still in flight is lost, whichever phase it left in
        let lost = win.in_flight().max(1) as u64;
        out.completed += lost;
        out.failed += lost;
    }
    out
}

/// What an open-loop run measured.
pub struct OpenResult {
    /// Due-time→full-response times: a stall is charged to every request
    /// whose send it delayed.
    pub latencies_ns: Vec<u64>,
    /// How late after its due time each request actually left.
    pub late_ns: Vec<u64>,
    pub failed: u64,
}

/// Open loop on one connection: a writer thread sends request `i` at
/// `i / rate` seconds regardless of responses, a reader thread times each
/// response from the moment its request was due.
pub fn open_loop(
    addr: SocketAddr,
    stream: &[Vec<u8>],
    rate: f64,
    seconds: f64,
    m: usize,
) -> std::io::Result<OpenResult> {
    let mut reader = Conn::connect(addr)?;
    let mut writer = reader.stream.try_clone()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 / rate);
    let total = (rate * seconds) as u64;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<u64>> {
            let mut late = Vec::with_capacity(total as usize);
            for i in 0..total {
                let at = due(i);
                // sleep to within a scheduler quantum, then spin: the
                // generator must not be the source of the lateness it reports
                loop {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    if at - now > Duration::from_micros(200) {
                        std::thread::sleep(at - now - Duration::from_micros(150));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                writer.write_all(&stream[i as usize % stream.len()])?;
                late.push((Instant::now() - at).as_nanos() as u64);
            }
            writer.shutdown(Shutdown::Write)?;
            Ok(late)
        });
        let mut latencies_ns = Vec::with_capacity(total as usize);
        let mut failed = 0u64;
        let mut i = 0u64;
        let read_outcome = loop {
            match reader.read_response() {
                Ok(Some((status, body))) => {
                    let now = Instant::now();
                    if reply_ok(status, &body, i, m) {
                        latencies_ns.push(now.saturating_duration_since(due(i)).as_nanos() as u64);
                    } else {
                        failed += 1;
                    }
                    i += 1;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let late_ns = sender.join().expect("open-loop writer panicked")?;
        read_outcome?;
        failed += late_ns.len() as u64 - i.min(late_ns.len() as u64);
        Ok(OpenResult {
            latencies_ns,
            late_ns,
            failed,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn window_never_exceeds_cap_and_matches_every_send_once() {
        let mut rng = StdRng::seed_from_u64(5);
        for cap in [1usize, 4, 16] {
            let mut win = Window::new(cap);
            let t = Instant::now();
            let (mut sent, mut matched) = (0usize, Vec::new());
            for _ in 0..2000 {
                // a random interleaving of "socket writable" and "response read"
                if win.can_send() && rng.gen_bool(0.6) {
                    win.sent(sent, t);
                    sent += 1;
                } else if win.in_flight() > 0 {
                    matched.push(win.received().0);
                }
                assert!(win.in_flight() <= cap);
            }
            while win.in_flight() > 0 {
                matched.push(win.received().0);
            }
            // every send answered exactly once, in send order
            assert_eq!(matched, (0..sent).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "window of 2 exceeded")]
    fn sending_past_the_window_is_a_bug() {
        let mut win = Window::new(2);
        let t = Instant::now();
        win.sent(0, t);
        win.sent(1, t);
        win.sent(2, t);
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn an_unmatched_response_is_a_bug() {
        Window::new(2).received();
    }

    #[test]
    fn reply_check_wants_200_items_and_m_entries_when_decoded() {
        let body = br#"{"user":1,"items":[3,9],"probs":[0.9,0.8],"scored":5,"fallback":false}"#;
        assert!(reply_ok(200, body, 0, 2));
        assert!(!reply_ok(200, body, 0, 3), "decoded reply has 2 items");
        assert!(reply_ok(200, body, 1, 3), "undecoded reply is not counted");
        assert!(!reply_ok(429, body, 1, 2));
        assert!(!reply_ok(
            200,
            br#"{"error":"x","code":"overloaded"}"#,
            1,
            2
        ));
    }

    #[test]
    fn reader_splits_pipelined_responses_across_arbitrary_reads() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let wire =
                b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 429 Too Many\r\ncontent-length: 0\r\n\r\n";
            // byte at a time: every split point is exercised
            for b in wire.iter() {
                s.write_all(&[*b]).unwrap();
            }
        });
        let mut conn = Conn::connect(addr).unwrap();
        assert_eq!(conn.read_response().unwrap(), Some((200, b"abc".to_vec())));
        assert_eq!(conn.read_response().unwrap(), Some((429, Vec::new())));
        assert_eq!(conn.read_response().unwrap(), None);
        server.join().unwrap();
    }
}
