//! A minimal TCP client for the `rbqa/1` wire protocol.
//!
//! The protocol is asymmetric: request verbs (`decide`/`synthesize`/
//! `execute`/`poll`/`fetch`/`ping`) produce exactly one response line,
//! but successful directives produce *nothing* — so a client cannot
//! blindly read after every send. [`WireClient`] packages the two
//! working patterns:
//!
//! * **replay** ([`WireClient::replay`]): write the whole document,
//!   half-close the write side, read responses until EOF — exactly what
//!   `rbqa-serve`'s offline mode does, so byte parity can be asserted;
//! * **interactive**: [`WireClient::request`] for one-line verbs, and
//!   [`WireClient::sync`] (a `ping` barrier) to flush any pending
//!   directive *errors* after a block of directives.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A blocking client over one wire-protocol connection.
#[derive(Debug)]
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connects to a listening `rbqa-serve`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(WireClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one line (newline appended), in a single write: the socket
    /// is `TCP_NODELAY`, so writing the newline apart would send it as a
    /// second segment and wake the server a second time.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.writer.flush()
    }

    /// Reads one response line; `None` on a clean EOF.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Sends a request verb and reads its one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.read_line()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// The `ping` barrier: directives answer nothing on success, so after
    /// a block of them this flushes the stream and returns any pending
    /// lines (directive errors) that arrived before the pong.
    pub fn sync(&mut self) -> io::Result<Vec<String>> {
        self.send_line("ping")?;
        let mut pending = Vec::new();
        loop {
            let line = self.read_line()?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before the pong",
                )
            })?;
            if line.contains("\"pong\":true") {
                return Ok(pending);
            }
            pending.push(line);
        }
    }

    /// Polls a batch `query_id` until it leaves the pending states and
    /// returns the final poll line (`done` or `error`).
    pub fn poll_until_finished(&mut self, query_id: u64, max_wait: Duration) -> io::Result<String> {
        let started = Instant::now();
        loop {
            let line = self.request(&format!("poll {query_id}"))?;
            let pending =
                line.contains("\"state\":\"queued\"") || line.contains("\"state\":\"running\"");
            if !pending {
                return Ok(line);
            }
            if started.elapsed() > max_wait {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("batch query {query_id} still pending after {max_wait:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Streams a whole request document, half-closes the write side, and
    /// collects every response line until EOF — the replay pattern,
    /// byte-comparable with offline `WireServer::handle_stream`.
    ///
    /// The document is written before any response is read, so this is
    /// for request files whose total response volume fits the socket
    /// buffers (fixtures, smokes); interleave [`WireClient::request`]
    /// calls for anything bigger.
    pub fn replay(mut self, input: &str) -> io::Result<Vec<String>> {
        for line in input.lines() {
            self.send_line(line)?;
        }
        self.writer.shutdown(Shutdown::Write)?;
        let mut responses = Vec::new();
        while let Some(line) = self.read_line()? {
            responses.push(line);
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn each_request_line_goes_out_in_one_write() {
        // A peer blocked in `read` gets each line and its newline in one
        // read; a newline written apart arrives as a segment of its own.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client =
            WireClient::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        let reads = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            let mut reads = Vec::new();
            for _ in 0..1000 {
                let n = peer.read(&mut buf).expect("read");
                reads.push(buf[..n].to_vec());
                peer.write_all(b"ok\n").expect("ack");
            }
            reads
        });
        for _ in 0..1000 {
            client.send_line("ping").expect("send");
            assert_eq!(client.read_line().expect("ack").as_deref(), Some("ok"));
        }
        for read in reads.join().expect("peer thread") {
            assert_eq!(read, b"ping\n", "{:?}", String::from_utf8_lossy(&read));
        }
    }
}
