//! The load generator over loopback TCP: a closed loop that sends its
//! next request only after the previous reply. One generator thread
//! drives one connection, so it never has two requests in flight.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// When one request left the client and was answered in full.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the request line was written.
    pub sent: Instant,
    /// When the last byte of the response line arrived.
    pub received: Instant,
}

impl Timing {
    /// Latency from the send to the full response, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.received
            .saturating_duration_since(self.sent)
            .as_secs_f64()
            * 1e3
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends requests one at a time on one connection until `until`: each
/// request comes from `next` and is sent only after the previous reply
/// has arrived in full and `on_reply` has seen it.
pub fn closed_loop<T>(
    addr: SocketAddr,
    until: Instant,
    timeout: Duration,
    mut next: impl FnMut() -> (u64, String),
    mut on_reply: impl FnMut(u64, Timing, &[u8]) -> T,
) -> io::Result<Vec<T>> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
    let mut out = Vec::new();
    let mut line: Vec<u8> = Vec::new();
    while Instant::now() < until {
        let (id, mut req) = next();
        req.push('\n');
        let sent = Instant::now();
        stream.write_all(req.as_bytes())?;
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 || line.last() != Some(&b'\n') {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let received = Instant::now();
        line.pop();
        out.push(on_reply(id, Timing { sent, received }, &line));
    }
    Ok(out)
}
