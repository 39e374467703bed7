//! A minimal blocking client: one request line out, one response line
//! back. Used by the `serve-bench` load generator, the e2e tests, and
//! anything else that wants to poke the server without hand-rolling
//! socket code.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Envelope, ErrorKind, Request, Response, StatsReply};

/// A connected client. Requests are strictly request/response on one
/// connection; open more clients for concurrency.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with a read timeout generous enough for drain-time
    /// stragglers (10 s).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one envelope and reads one response line.
    pub fn call(&mut self, envelope: &Envelope) -> std::io::Result<(Option<u64>, Response)> {
        let line = envelope.to_value().render();
        self.send_raw(&line)
    }

    /// One `stats` round-trip, retrying through `overloaded` sheds (a
    /// flooded queue can refuse it for a moment); any other answer is
    /// an error.
    pub fn stats(&mut self) -> std::io::Result<StatsReply> {
        loop {
            match self.call(&Envelope::new(Request::Stats))?.1 {
                Response::Stats(stats) => return Ok(stats),
                Response::Error(err) if err.kind == ErrorKind::Overloaded => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => return Err(std::io::Error::other(format!("stats drew {other:?}"))),
            }
        }
    }

    /// Sends an arbitrary line (junk welcome — the protocol tests use
    /// this) and reads one response line.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<(Option<u64>, Response)> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads the next response line without sending anything.
    pub fn read_response(&mut self) -> std::io::Result<(Option<u64>, Response)> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparsable response {line:?}: {e}"),
            )
        })
    }

    /// Fire-and-forget send (used to pipeline before reading).
    pub fn send_only(&mut self, envelope: &Envelope) -> std::io::Result<()> {
        let line = envelope.to_value().render();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }
}
