//! Per-connection framing state machines for the event-loop server.
//!
//! A readiness-driven server never gets to say "read exactly 4 bytes,
//! then exactly `len` more" the way the old thread-per-connection
//! reader did — the kernel hands over whatever bytes have arrived,
//! split anywhere, and the loop must make progress and come back
//! later. Three small machines absorb that reality; each is pure state
//! over byte slices so it can be tested at every split point without a
//! socket:
//!
//! * [`FrameDecoder`] — incremental frame parsing through the same
//!   header checks as [`read_frame`](crate::protocol::read_frame), so
//!   both paths have one validation order and error semantics (the
//!   loopback byte-identity gate covers both);
//! * [`SlotQueue`] — per-connection response ordering: responses
//!   complete out of order (inline answers vs. batcher ticks vs. shard
//!   workers), but must leave the socket in request order;
//! * [`WriteBuf`] — pending output with a cursor, tolerating partial
//!   writes at any byte boundary and reporting whether backpressure
//!   (a `WouldBlock`) calls for write-interest registration.
//!
//! `Conn` (crate-internal) composes the three over a nonblocking `TcpStream` for the
//! server's use.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::protocol::{check_header, check_len, WireError};

/// One outcome of [`FrameDecoder::next_frame`]: either a complete well-framed
/// message, or a consumed-but-invalid frame the connection survives.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame: its kind byte and body bytes.
    Frame {
        /// The frame kind byte.
        kind: u8,
        /// The kind-specific body (header already stripped).
        body: Vec<u8>,
    },
    /// The frame was fully consumed but invalid in a recoverable way
    /// (nonzero reserved bytes). Answer with the error's code; the
    /// stream position is still trustworthy.
    Invalid(WireError),
}

/// Incremental frame parser: push bytes in as they arrive, pull frames
/// out as they complete.
///
/// Validation mirrors [`read_frame`](crate::protocol::read_frame):
/// `TooLarge` and `TooShort` are detected from the length prefix alone
/// (before any body bytes arrive — an oversized frame is rejected
/// without buffering its payload), and a fatal error **poisons** the
/// decoder: every later byte is discarded, because the stream position
/// is unknowable. That poisoning is what keeps a valid frame sitting
/// behind a garbage one from being answered, exactly like the blocking
/// reader that closed the connection at the same point.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
    max_frame_bytes: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder enforcing the given frame-length limit.
    pub fn new(max_frame_bytes: usize) -> Self {
        Self { buf: Vec::new(), pos: 0, max_frame_bytes, poisoned: false }
    }

    /// Appends newly received bytes. After a fatal error the bytes are
    /// dropped instead — a poisoned connection is awaiting close, and
    /// must not buffer an attacker's backlog meanwhile.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (a nonzero value after EOF
    /// means the peer hung up mid-frame).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a fatal wire error has poisoned this decoder.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Pulls the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". `Err` is fatal — answer
    /// with the error's code, then close once the answer is flushed;
    /// the decoder is poisoned and will yield nothing further.
    pub fn next_frame(&mut self) -> Result<Option<FrameEvent>, WireError> {
        if self.poisoned {
            return Ok(None);
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if let Err(e) = check_len(len, self.max_frame_bytes) {
            self.poisoned = true;
            return Err(e);
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let rest = &avail[4..4 + len];
        let event = match check_header(rest) {
            Ok(kind) => FrameEvent::Frame { kind, body: rest[8..].to_vec() },
            // The whole frame is in the buffer and gets consumed, so a
            // recoverable error stays recoverable — same as the
            // blocking reader.
            Err(e) if e.recoverable() => FrameEvent::Invalid(e),
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        self.pos += 4 + len;
        Ok(Some(event))
    }
}

/// Request-ordered response slots for one connection.
///
/// Every request reserves a slot *in arrival order* the moment it is
/// decoded; the response fills its slot whenever it completes — inline
/// for metadata and errors, a batcher tick later for query traffic, a
/// worker thread later for shard traffic. [`SlotQueue::pump`] releases
/// only the filled prefix, so pipelined clients always read responses
/// in the order they sent requests, exactly like the serialized
/// blocking reader guaranteed.
#[derive(Default)]
pub struct SlotQueue {
    slots: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of `slots[0]`.
    head_seq: u64,
    /// Sequence number the next [`SlotQueue::alloc`] hands out.
    next_seq: u64,
}

impl SlotQueue {
    /// Reserves the next slot, returning its sequence number.
    pub fn alloc(&mut self) -> u64 {
        self.slots.push_back(None);
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Fills slot `seq` with an encoded response frame. Ignores
    /// sequence numbers no longer (or not yet) reserved — a completion
    /// can race a connection's eviction, and a stale fill must not
    /// corrupt a reused token's queue.
    pub fn fill(&mut self, seq: u64, frame: Vec<u8>) {
        if seq < self.head_seq {
            return;
        }
        let Ok(index) = usize::try_from(seq - self.head_seq) else { return };
        if let Some(slot) = self.slots.get_mut(index) {
            *slot = Some(frame);
        }
    }

    /// Moves the filled prefix, in order, into `out`.
    pub fn pump(&mut self, out: &mut Vec<u8>) {
        while let Some(Some(_)) = self.slots.front() {
            let frame = self.slots.pop_front().flatten().expect("front checked Some");
            out.extend_from_slice(&frame);
            self.head_seq += 1;
        }
    }

    /// Whether any reserved slot is still waiting (filled or not).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reserved-but-unreleased slots (in-flight requests).
    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Pending output bytes with a write cursor.
///
/// A nonblocking write may stop at any byte; the cursor remembers how
/// far the socket got so the next writable wake resumes exactly there.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// Bytes still owed to the socket.
    pub fn backlog(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.backlog() == 0
    }

    /// Queue-side access: responses are appended here by
    /// [`SlotQueue::pump`].
    pub fn queue(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Writes as much of the backlog as `w` accepts right now.
    ///
    /// Returns `true` if the backlog is fully drained, `false` if a
    /// `WouldBlock` left bytes behind (register write interest and
    /// resume on the next writable wake). Interrupted writes retry
    /// immediately; real errors propagate.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Output backlog above which the server stops reading more requests
/// off a connection. Level-triggered readiness makes this free flow
/// control: once the client drains its responses the backlog shrinks,
/// read interest returns, and the kernel re-reports the buffered
/// request bytes. Until then, a client that writes faster than it
/// reads is throttled by its own TCP window instead of growing the
/// server's heap.
pub const MAX_READ_GATE_BACKLOG: usize = 4 * 1024 * 1024;

/// How much one readable wake reads off a single connection before
/// yielding. Level triggering re-reports the remainder, so this bounds
/// per-wake latency impact of one firehose client without losing data.
const READ_QUANTUM: usize = 64 * 1024;

/// One live client connection in the event loop: the nonblocking
/// stream plus its three framing machines and its timer bookkeeping.
pub(crate) struct Conn {
    stream: TcpStream,
    /// The decoder for inbound bytes.
    pub decoder: FrameDecoder,
    /// Request-ordered response slots.
    pub slots: SlotQueue,
    /// Outbound bytes awaiting the socket.
    pub out: WriteBuf,
    /// Peer sent EOF (or a fatal wire error forced close-after-flush):
    /// no more requests will be admitted from this connection.
    pub read_closed: bool,
    /// Timer-wheel generation; bumped on every byte of progress so
    /// stale idle timers cancel lazily.
    pub timer_gen: u64,
}

impl Conn {
    /// Wraps an accepted stream (made nonblocking) for the loop.
    pub fn new(stream: TcpStream, max_frame_bytes: usize) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(max_frame_bytes),
            slots: SlotQueue::default(),
            out: WriteBuf::default(),
            read_closed: false,
            timer_gen: 0,
        })
    }

    /// The underlying stream (for reactor registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads up to one quantum into the decoder. Returns the byte
    /// count (0 can mean "nothing available" or EOF — check
    /// [`Conn::read_closed`]); a fatal socket error propagates and the
    /// caller drops the connection.
    pub fn read_ready(&mut self) -> io::Result<usize> {
        let mut total = 0;
        let mut chunk = [0u8; 16 * 1024];
        while total < READ_QUANTUM {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.push(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Releases completed responses and writes what the socket takes.
    /// Returns `false` on backpressure (write interest needed).
    pub fn pump_and_flush(&mut self) -> io::Result<bool> {
        self.slots.pump(self.out.queue());
        self.out.flush_to(&mut self.stream)
    }

    /// The reactor interest this connection currently needs: readable
    /// unless closed or throttled by output backlog, writable while a
    /// backlog exists.
    pub fn desired_interest(&self) -> crate::reactor::Interest {
        crate::reactor::Interest {
            readable: !self.read_closed && self.out.backlog() < MAX_READ_GATE_BACKLOG,
            writable: !self.out.is_empty(),
        }
    }

    /// Whether the connection is complete: no more input will come,
    /// every admitted request has been answered and flushed. The loop
    /// closes it at this point — which is what lets a half-closing
    /// client (`shutdown(Write)` then `read_to_end`) collect all its
    /// responses before seeing EOF.
    pub fn finished(&self) -> bool {
        self.read_closed && self.slots.is_empty() && self.out.is_empty()
    }

    /// Whether an idle-timer expiry should evict right now. In-flight
    /// execution (reserved slots, empty output) is *not* idleness —
    /// the batcher or a shard worker is still producing the answer —
    /// but a stalled peer (undrained output, or silence with no work
    /// in flight) is.
    pub fn evictable_when_idle(&self) -> bool {
        let executing = !self.slots.is_empty() && self.out.is_empty();
        !executing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorCode, QueryBlock, Request, Response};

    fn sample_frame() -> Vec<u8> {
        Request::Rnnr {
            radius: 1.25,
            queries: QueryBlock::pack(&[vec![1.0f32, 2.0], vec![3.0, 4.0]], 2),
        }
        .encode()
    }

    #[test]
    fn decodes_across_every_split_point() {
        let frame = sample_frame();
        for split in 0..=frame.len() {
            let mut d = FrameDecoder::new(1 << 20);
            d.push(&frame[..split]);
            if split < frame.len() {
                assert!(
                    d.next_frame().unwrap().is_none(),
                    "no frame may appear from {split}/{} bytes",
                    frame.len()
                );
            }
            d.push(&frame[split..]);
            match d.next_frame().unwrap() {
                Some(FrameEvent::Frame { kind, body }) => {
                    assert_eq!(kind, crate::protocol::kind::RNNR);
                    assert_eq!(&frame[12..], &body[..], "body survives split at {split}");
                }
                other => panic!("split {split}: expected a frame, got {other:?}"),
            }
            assert!(d.next_frame().unwrap().is_none());
            assert_eq!(d.pending_bytes(), 0);
        }
    }

    #[test]
    fn decodes_one_byte_at_a_time() {
        let frame = sample_frame();
        let mut d = FrameDecoder::new(1 << 20);
        let mut seen = 0;
        for (i, b) in frame.iter().enumerate() {
            d.push(std::slice::from_ref(b));
            while let Some(ev) = d.next_frame().unwrap() {
                assert!(matches!(ev, FrameEvent::Frame { .. }));
                assert_eq!(i, frame.len() - 1, "frame completed early");
                seen += 1;
            }
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn two_frames_in_one_push_decode_in_order() {
        let mut bytes = sample_frame();
        bytes.extend_from_slice(&Request::Info.encode());
        let mut d = FrameDecoder::new(1 << 20);
        d.push(&bytes);
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Frame { kind: crate::protocol::kind::RNNR, .. })
        ));
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Frame { kind: crate::protocol::kind::INFO, .. })
        ));
        assert!(d.next_frame().unwrap().is_none());
    }

    #[test]
    fn too_short_poisons_and_hides_trailing_valid_frame() {
        // [len=4][4 junk bytes][valid Info frame]: the declared length
        // cannot hold a header, and the trailing valid frame must NOT
        // be decoded — stream position is untrustworthy.
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"oops");
        bytes.extend_from_slice(&Request::Info.encode());
        let mut d = FrameDecoder::new(1 << 20);
        d.push(&bytes);
        match d.next_frame() {
            Err(WireError::TooShort { declared: 4 }) => {}
            other => panic!("expected TooShort, got {other:?}"),
        }
        assert!(d.is_poisoned());
        assert!(d.next_frame().unwrap().is_none(), "poisoned decoder yields nothing");
        d.push(&Request::Info.encode());
        assert!(d.next_frame().unwrap().is_none(), "post-poison bytes are discarded");
    }

    #[test]
    fn too_large_rejected_from_length_prefix_alone() {
        let mut d = FrameDecoder::new(4096);
        d.push(&(50 * 1024 * 1024u32).to_le_bytes());
        match d.next_frame() {
            Err(WireError::TooLarge { declared, limit: 4096 }) => {
                assert_eq!(declared, 50 * 1024 * 1024)
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(d.is_poisoned());
    }

    #[test]
    fn bad_magic_and_version_are_fatal_reserved_bytes_recoverable() {
        let mut garbage = sample_frame();
        garbage[4..8].copy_from_slice(b"XXXX");
        let mut d = FrameDecoder::new(1 << 20);
        d.push(&garbage);
        assert!(matches!(d.next_frame(), Err(WireError::BadMagic)));

        let mut wrong_version = sample_frame();
        wrong_version[8] = 99;
        let mut d = FrameDecoder::new(1 << 20);
        d.push(&wrong_version);
        assert!(matches!(d.next_frame(), Err(WireError::BadVersion(99))));

        let mut reserved = sample_frame();
        reserved[10] = 1;
        let mut d = FrameDecoder::new(1 << 20);
        d.push(&reserved);
        d.push(&Request::Info.encode());
        assert!(matches!(
            d.next_frame().unwrap(),
            Some(FrameEvent::Invalid(WireError::Malformed(_)))
        ));
        // Recoverable: the following frame still decodes.
        assert!(matches!(d.next_frame().unwrap(), Some(FrameEvent::Frame { .. })));
    }

    #[test]
    fn slot_queue_releases_only_in_request_order() {
        let mut q = SlotQueue::default();
        let a = q.alloc();
        let b = q.alloc();
        let c = q.alloc();
        let mut out = Vec::new();
        q.fill(c, vec![3]);
        q.pump(&mut out);
        assert!(out.is_empty(), "slot c may not jump the queue");
        q.fill(a, vec![1]);
        q.pump(&mut out);
        assert_eq!(out, vec![1], "a releases; b still blocks c");
        q.fill(b, vec![2]);
        q.pump(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_queue_ignores_stale_fills() {
        let mut q = SlotQueue::default();
        let a = q.alloc();
        q.fill(a, vec![1]);
        let mut out = Vec::new();
        q.pump(&mut out);
        q.fill(a, vec![9]); // late duplicate completion: dropped
        q.fill(a + 100, vec![9]); // never-allocated seq: dropped
        q.pump(&mut out);
        assert_eq!(out, vec![1]);
    }

    /// A writer that accepts at most one byte per call, interleaving a
    /// `WouldBlock` before every acceptance — the worst legal socket.
    struct TricklingWriter {
        written: Vec<u8>,
        block_next: bool,
    }

    impl Write for TricklingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.block_next = true;
            self.written.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_would_block_at_every_byte() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut wb = WriteBuf::default();
        wb.queue().extend_from_slice(&payload);
        let mut w = TricklingWriter { written: Vec::new(), block_next: true };
        let mut rounds = 0;
        while !wb.flush_to(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 10_000, "flush must terminate");
        }
        assert_eq!(w.written, payload, "every byte arrives exactly once, in order");
        assert!(wb.is_empty());
    }

    #[test]
    fn error_frames_fit_slot_flow() {
        // An error response is just another frame through the same
        // slot machinery — spot-check the encoding hooks line up.
        let frame =
            Response::Error { code: ErrorCode::Busy, message: "at capacity".into() }.encode();
        let mut q = SlotQueue::default();
        let s = q.alloc();
        q.fill(s, frame.clone());
        let mut out = Vec::new();
        q.pump(&mut out);
        assert_eq!(out, frame);
    }
}
