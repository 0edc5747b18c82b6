//! A synchronous, connection-reusing client for the `hlsh` protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection —
//! concurrency comes from opening more clients, which the server's
//! admission batcher coalesces back into large batch calls). Results
//! decode to exactly the types the in-process batch APIs return.

use std::io::{self, BufReader, BufWriter, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use hlsh_vec::PointId;

use crate::protocol::{
    self, decode_response, read_frame, write_frame, ErrorCode, QueryBlock, Request, Response,
    ServerInfo, WireError,
};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, EOF mid-frame).
    Io(io::Error),
    /// The server answered with an error frame.
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's diagnostic message.
        message: String,
    },
    /// The server's bytes do not parse, or a response of the wrong
    /// kind arrived.
    Protocol(String),
    /// An earlier call on this client hit a framing error (a frame too
    /// large, truncated or with a bad header, or a failed read or
    /// write), so the stream's position is unknown. Every later call
    /// fails with this at once, carrying that first error; connect a
    /// new client.
    Poisoned(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code:?}: {message}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Poisoned(cause) => {
                write!(f, "connection unusable after an earlier framing error: {cause}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A synchronous `hlsh` protocol client over one reused connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The framing error that made the stream unusable, if any.
    poisoned: Option<String>,
}

impl Client {
    /// Connects to a server (TCP, `TCP_NODELAY` on).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Retries [`Client::connect`] until `deadline_in` elapses — the
    /// standard way to wait for a `serve` process that is still
    /// building its index.
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        deadline_in: Duration,
    ) -> io::Result<Self> {
        let deadline = Instant::now() + deadline_in;
        loop {
            match Self::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Self { reader, writer, poisoned: None })
    }

    /// One request/response. A framing error poisons the client: a
    /// reply left partly unread (or a request partly written) leaves the
    /// stream at an unknown position, and reading on would take body
    /// bytes for the next header.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        if let Some(cause) = &self.poisoned {
            return Err(ClientError::Poisoned(cause.clone()));
        }
        let frame = write_frame(&mut self.writer, &req.encode())
            .map_err(WireError::Io)
            .and_then(|()| read_frame(&mut self.reader, protocol::DEFAULT_MAX_FRAME_BYTES));
        let (kind, body) = frame.map_err(|e| {
            self.poisoned = Some(e.to_string());
            ClientError::from(e)
        })?;
        let (kind, body) = check_reply(kind, body)?;
        Ok(decode_response(kind, &body)?)
    }

    /// Asks the server what it is serving.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        match self.roundtrip(&Request::Info)? {
            Response::Info(info) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected info response, got {other:?}"))),
        }
    }

    /// rNNR batch: for each query, the ids within `radius`, ascending —
    /// byte-identical to the server-side in-process
    /// [`query_batch`](hlsh_core::ShardedIndex::query_batch) call.
    ///
    /// Every query must have the same length; the server validates it
    /// against the index dimensionality.
    pub fn query_batch(
        &mut self,
        queries: &[Vec<f32>],
        radius: f64,
    ) -> Result<Vec<Vec<PointId>>, ClientError> {
        let dim = queries.first().map_or(0, Vec::len);
        let req = Request::Rnnr { radius, queries: QueryBlock::pack(queries, dim) };
        match self.roundtrip(&req)? {
            Response::Rnnr(out) => one_per_query(queries.len(), out),
            other => Err(ClientError::Protocol(format!("expected rnnr response, got {other:?}"))),
        }
    }

    /// Top-k batch: for each query, the `min(k, n)` nearest
    /// `(id, distance)` pairs in ascending `(distance, id)` order —
    /// byte-identical (distances included, bit for bit) to the
    /// server-side
    /// [`query_topk_batch`](hlsh_core::ShardedTopKIndex::query_topk_batch)
    /// call.
    pub fn query_topk_batch(
        &mut self,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ClientError> {
        let dim = queries.first().map_or(0, Vec::len);
        let req = Request::TopK { k: k as u32, queries: QueryBlock::pack(queries, dim) };
        match self.roundtrip(&req)? {
            Response::TopK(out) => one_per_query(queries.len(), out),
            other => Err(ClientError::Protocol(format!("expected topk response, got {other:?}"))),
        }
    }

    /// Inserts `ids[i]` ↦ `points[i]` into a living index,
    /// all-or-nothing: on [`ErrorCode::DimMismatch`] /
    /// [`ErrorCode::DuplicateId`] (surfaced as
    /// [`ClientError::Server`]) nothing was applied and the connection
    /// stays usable. Returns the number inserted.
    ///
    /// # Panics
    /// Panics if `ids` and `points` differ in length.
    pub fn insert_batch(
        &mut self,
        ids: &[PointId],
        points: &[Vec<f32>],
    ) -> Result<u32, ClientError> {
        assert_eq!(ids.len(), points.len(), "one id per inserted point");
        let dim = points.first().map_or(0, Vec::len);
        let req = Request::Insert { ids: ids.to_vec(), points: QueryBlock::pack(points, dim) };
        match self.roundtrip(&req)? {
            Response::Inserted(count) => Ok(count),
            other => Err(ClientError::Protocol(format!("expected insert ack, got {other:?}"))),
        }
    }

    /// Deletes these ids from a living index, all-or-nothing: on
    /// [`ErrorCode::UnknownId`] nothing was applied and the connection
    /// stays usable. Returns the number deleted.
    pub fn delete_batch(&mut self, ids: &[PointId]) -> Result<u32, ClientError> {
        let req = Request::Delete { ids: ids.to_vec() };
        match self.roundtrip(&req)? {
            Response::Deleted(count) => Ok(count),
            other => Err(ClientError::Protocol(format!("expected delete ack, got {other:?}"))),
        }
    }
}

/// Reads one reply frame as `(kind, body)`; an error frame becomes
/// [`ClientError::Server`].
pub(crate) fn read_reply(r: &mut impl Read, max: usize) -> Result<(u8, Vec<u8>), ClientError> {
    let (kind, body) = read_frame(r, max)?;
    check_reply(kind, body)
}

/// Passes a reply frame through; an error frame becomes
/// [`ClientError::Server`].
fn check_reply(kind: u8, body: Vec<u8>) -> Result<(u8, Vec<u8>), ClientError> {
    if kind == protocol::kind::ERROR {
        if let Response::Error { code, message } = decode_response(kind, &body)? {
            return Err(ClientError::Server { code, message });
        }
    }
    Ok((kind, body))
}

/// A batch answer, checked to hold one result per sent query.
fn one_per_query<T>(sent: usize, out: Vec<T>) -> Result<Vec<T>, ClientError> {
    if out.len() != sent {
        return Err(ClientError::Protocol(format!(
            "sent {sent} queries, got {} results",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// The system allocator, recording the largest single request. The
    /// two calls forward unchanged, so `System`'s contract carries over.
    struct Largest(AtomicUsize);

    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for Largest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            self.0.fetch_max(layout.size(), Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static LARGEST: Largest = Largest(AtomicUsize::new(0));

    #[test]
    fn a_framing_error_poisons_the_client() {
        // A frame length no test allocates near, far over the limit.
        let declared = u32::MAX;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES).unwrap();
            // An oversized header, then bytes a client reading on would
            // take for the next frame's header.
            stream.write_all(&declared.to_le_bytes()).unwrap();
            stream.write_all(&[0x48; 64]).unwrap();
            // Hold the connection until the client is done with it.
            let _ = stream.read(&mut [0u8; 1]);
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut client = Client::from_stream(stream).unwrap();
        let too_large = WireError::TooLarge {
            declared: declared as usize,
            limit: protocol::DEFAULT_MAX_FRAME_BYTES,
        };
        match client.info() {
            Err(ClientError::Protocol(m)) => assert_eq!(m, too_large.to_string()),
            other => panic!("expected the too-large framing error, got {other:?}"),
        }
        match client.info() {
            Err(ClientError::Poisoned(cause)) => assert_eq!(cause, too_large.to_string()),
            other => panic!("expected the poisoned error, got {other:?}"),
        }
        assert!(LARGEST.0.load(Ordering::Relaxed) < declared as usize);
        drop(client);
        peer.join().unwrap();
    }
}
