//! A minimal blocking client for the NDJSON protocol — the one
//! implementation `ncl-loadgen`, the integration tests and the examples
//! all share.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ncl_spike::SpikeRaster;
use serde_json::Value;

use crate::protocol::{self, LineReader};

/// Socket timeout policy for one client connection.
///
/// The default applies no timeouts (matching the historical behavior
/// of in-process tests, where a hung server would fail the test
/// harness anyway). Anything talking to a *remote* replica — the
/// router's fan-out, `ncl-loadgen` — should set timeouts so one hung
/// peer cannot wedge the caller forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Cap on waiting for a response line (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Cap on writing a request line (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// The same cap on connect, read and write.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        ClientConfig {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// Maps a socket timeout (surfaced by the OS as `WouldBlock` or
/// `TimedOut` depending on platform) onto a uniform `TimedOut` error
/// naming the peer — so callers can tell "replica hung" apart from
/// "replica refused".
fn mark_timeout(e: std::io::Error, peer: &str, doing: &str) -> std::io::Error {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("timed out {doing} {peer}"),
        )
    } else {
        e
    }
}

/// One blocking NDJSON connection to an `ncl-serve` instance (or a
/// router). The router's pooled backend connections are `NclClient`s
/// too.
#[derive(Debug)]
pub struct NclClient {
    stream: TcpStream,
    /// Reply framing (keeps bytes read past the last returned line).
    lines: LineReader,
    peer: String,
}

impl NclClient {
    /// Connects with no socket timeouts (and `TCP_NODELAY`, so
    /// single-line round trips do not stall behind Nagle).
    ///
    /// # Errors
    ///
    /// Returns the connect/setup error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NclClient> {
        NclClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit timeout policy.
    ///
    /// # Errors
    ///
    /// Returns the connect/setup error; a connect timeout surfaces as
    /// `ErrorKind::TimedOut`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<NclClient> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(&addr)?,
            Some(timeout) => {
                // connect_timeout needs a resolved SocketAddr; try each.
                let mut last = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "peer".to_owned(), |a| a.to_string());
        Ok(NclClient {
            stream,
            lines: LineReader::default(),
            peer,
        })
    }

    /// The connection's socket, for writes that bypass the line framing
    /// (the router's fault injection tears a request mid-line with it).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one request line and returns the trimmed response line,
    /// unparsed.
    ///
    /// After any error the connection may hold a partial request or
    /// response and must be discarded, not reused.
    ///
    /// # Errors
    ///
    /// Returns socket failures (`ErrorKind::TimedOut` when a configured
    /// timeout elapsed), `UnexpectedEof` when the peer closes before the
    /// reply ends, and `InvalidData` for a reply line over 64 MiB.
    pub fn round_trip_line(&mut self, line: &str) -> std::io::Result<String> {
        protocol::write_line(&mut self.stream, line)
            .map_err(|e| mark_timeout(e, &self.peer, "writing to"))?;
        loop {
            if let Some(reply) = self.lines.next_line() {
                return Ok(String::from_utf8_lossy(reply).trim().to_owned());
            }
            match self.lines.fill(&mut self.stream) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("{} closed mid-response", self.peer),
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(mark_timeout(e, &self.peer, "awaiting a reply from")),
            }
        }
    }

    /// Sends one request line and parses the response line.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip_line`], plus `InvalidData` for an
    /// unparseable response.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<Value> {
        let response = self.round_trip_line(line)?;
        serde_json::from_str(&response).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })
    }

    /// Predict round trip for one raster.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn predict(&mut self, id: u64, raster: &SpikeRaster) -> std::io::Result<Value> {
        self.round_trip(&protocol::predict_request_line(id, raster))
    }

    /// Predict round trip carrying a trace context, so the server's
    /// accept/queue-wait/forward/reply spans join the caller's trace.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn predict_traced(
        &mut self,
        id: u64,
        raster: &SpikeRaster,
        ctx: &ncl_obs::TraceContext,
    ) -> std::io::Result<Value> {
        self.round_trip(&protocol::predict_request_line_traced(id, raster, ctx))
    }

    /// Fetches recent kept trace fragments (`traces` op), filtered to
    /// root durations of at least `min_duration_us`, newest first,
    /// capped at `limit`.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn traces(&mut self, min_duration_us: u64, limit: usize) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("traces")),
            ("min_duration_us", Value::from(min_duration_us)),
            ("limit", Value::from(limit as u64)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Stats round trip.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"stats"}"#)
    }

    /// Hot-swap round trip (checkpoint path on the server's filesystem).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn swap(&mut self, path: &str) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("swap")),
            ("path", Value::from(path)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Liveness round trip.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn ping(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"ping"}"#)
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"shutdown"}"#)
    }

    /// Scrapes the metric registry (`metrics` op).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn metrics(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"metrics"}"#)
    }

    /// Replication health probe: role, version and sync stats.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn health(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"health"}"#)
    }

    /// Fetches the delta advancing a replica that holds `base_version`.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn delta(&mut self, base_version: u64) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("delta")),
            ("base_version", Value::from(base_version)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Applies an encoded checkpoint delta to the server's model.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn apply_delta(&mut self, payload: &[u8]) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("apply_delta")),
            ("payload", Value::from(protocol::to_hex(payload))),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Fetches the server's full checkpoint encoding.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn checkpoint(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"checkpoint"}"#)
    }

    /// Applies an encoded full checkpoint to the server's model.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn apply_checkpoint(&mut self, payload: &[u8]) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("apply_checkpoint")),
            ("payload", Value::from(protocol::to_hex(payload))),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Promotes the replica to the fleet's learner under a new fleet
    /// epoch.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn promote(&mut self, epoch: u64) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("promote")),
            ("epoch", Value::from(epoch)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Demotes the replica back to a follower under `epoch`.
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn demote(&mut self, epoch: u64) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("demote")),
            ("epoch", Value::from(epoch)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Registers a replica address with the router (router op).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn join(&mut self, addr: &str) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("join")),
            ("addr", Value::from(addr)),
        ])
        .to_json();
        self.round_trip(&line)
    }

    /// Deregisters backend `id` from the router (router op).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn leave(&mut self, id: u64) -> std::io::Result<Value> {
        let line =
            protocol::object(vec![("op", Value::from("leave")), ("id", Value::from(id))]).to_json();
        self.round_trip(&line)
    }

    /// Lists the router's current backends (router op).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn members(&mut self) -> std::io::Result<Value> {
        self.round_trip(r#"{"op":"members"}"#)
    }

    /// Tells the router that the learner at `epoch` published `version`,
    /// so its sync pass runs now rather than on the next tick (router
    /// op).
    ///
    /// # Errors
    ///
    /// As [`NclClient::round_trip`].
    pub fn published(&mut self, version: u64, epoch: u64) -> std::io::Result<Value> {
        let line = protocol::object(vec![
            ("op", Value::from("published")),
            ("version", Value::from(version)),
            ("epoch", Value::from(epoch)),
        ])
        .to_json();
        self.round_trip(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn read_timeout_surfaces_as_timed_out_not_refused() {
        // A listener that accepts and then goes silent: the classic
        // hung replica. Without a read timeout this would block forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client =
            NclClient::connect_with(addr, ClientConfig::with_timeout(Duration::from_millis(50)))
                .unwrap();
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(
            err.to_string().contains("timed out"),
            "timeout error names the failure mode: {err}"
        );
        drop(hold.join());
    }

    #[test]
    fn oversized_reply_is_invalid_data_not_a_timeout() {
        // The peer answers with a newline-free line past the 64 MiB cap
        // and keeps the connection open.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            use std::io::{Read, Write};
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = stream.read(&mut request);
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..64 {
                stream.write_all(&chunk).unwrap();
            }
            stream.write_all(b"x").unwrap();
            // Hold the connection until the client hangs up.
            let _ = stream.read(&mut request);
        });
        let mut client =
            NclClient::connect_with(addr, ClientConfig::with_timeout(Duration::from_secs(60)))
                .unwrap();
        let err = client.round_trip(r#"{"op":"ping"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn connection_refused_stays_distinct_from_timeout() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let err = NclClient::connect_with(addr, ClientConfig::with_timeout(Duration::from_secs(2)))
            .unwrap_err();
        assert_ne!(
            err.kind(),
            std::io::ErrorKind::TimedOut,
            "a refusal must not masquerade as a hang: {err}"
        );
    }
}
