#![warn(unreachable_pub)]
#![deny(unsafe_code)]

//! Little-endian byte buffers for the CluDistream wire formats.
//!
//! The communication-cost experiments (paper Sec. 5.3, Figs. 2 and 7)
//! measure *bytes transmitted*, so every wire format in the workspace —
//! the model-synopsis codec, the site ↔ coordinator protocol, and site
//! snapshots — is written against an explicit byte layout. This crate is
//! the only place that layout's primitives live: [`ByteBuf`] appends
//! fixed-width little-endian values to a growable buffer, and
//! [`ByteReader`] consumes them from the front.
//!
//! The encoding is exactly the one the formats used historically (the
//! `put_u32_le` / `get_u32_le` little-endian convention), which the
//! golden-bytes fixtures in `cludistream-gmm` lock in place.
//!
//! Every byte a decoder reads may come from a peer, so `ByteReader`'s
//! getters fail instead of panicking: a read past the end is
//! `Err(`[`Truncated`]`)`, and a decoder propagates it with `?`.
//! [`ByteReader::need_items`] is the only place a count read off the wire
//! is multiplied by an item width — checked, so a lying count is
//! `Truncated` too — and nothing is sized from such a count before it has
//! shown that many items are present ([`ByteReader::items`],
//! [`ByteReader::f64s`]). A codec names a truncation once, at its public
//! entry ([`Malformed::named`]).
//!
//! ```
//! use cludistream_wire::{ByteBuf, Truncated};
//!
//! let mut buf = ByteBuf::new();
//! buf.put_u8(7);
//! buf.put_u32_le(0xDEAD_BEEF);
//! buf.put_f64_le(-2.5);
//! assert_eq!(buf.len(), 1 + 4 + 8);
//!
//! let mut r = buf.reader();
//! assert_eq!(r.get_u8(), Ok(7));
//! assert_eq!(r.get_u32_le(), Ok(0xDEAD_BEEF));
//! assert_eq!(r.get_f64_le(), Ok(-2.5));
//! assert_eq!(r.get_u8(), Err(Truncated));
//! ```

use std::ops::{Deref, DerefMut, RangeTo};

/// A getter found fewer bytes than its value needs: the input ended, a
/// count asked for more items than are left, or a length-prefixed string
/// was not UTF-8. Either way the bytes do not hold what was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Why a decode failed, before the codec's public entry names it: the
/// input was [`Truncated`], or the decoder rejected a value it read
/// (`Invalid`, in the codec's own error type). Decoders return it from
/// their private bodies so `?` works on reads and on nested decoders
/// alike; the public entry turns it into the codec's error with
/// [`Malformed::named`].
#[derive(Debug, Clone, PartialEq)]
pub enum Malformed<E> {
    /// The input ran out.
    Truncated,
    /// The input held a value the decoder rejects.
    Invalid(E),
}

impl<E> From<Truncated> for Malformed<E> {
    fn from(_: Truncated) -> Malformed<E> {
        Malformed::Truncated
    }
}

impl<E> Malformed<E> {
    /// The codec's error: `truncated` (one message naming the codec) for a
    /// truncation, the rejection itself otherwise.
    pub fn named(self, truncated: E) -> E {
        match self {
            Malformed::Truncated => truncated,
            Malformed::Invalid(e) => e,
        }
    }
}

/// A growable byte buffer with little-endian append methods.
///
/// Fills the role `bytes::BytesMut`/`Bytes` used to play: build a message
/// with the `put_*` methods, hand it around by value or `clone()`, and
/// decode it through [`ByteBuf::reader`]. Dereferences to `[u8]` so
/// indexing and slicing work directly (the corruption tests flip bytes in
/// place).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// An empty buffer.
    pub fn new() -> ByteBuf {
        ByteBuf { data: Vec::new() }
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> ByteBuf {
        ByteBuf { data: Vec::with_capacity(capacity) }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits, little-endian.
    pub fn put_f64_le(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// The contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// The underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// An owned prefix copy — `buf.slice(..n)` — used by the truncation
    /// tests.
    pub fn slice(&self, range: RangeTo<usize>) -> ByteBuf {
        ByteBuf { data: self.data[range].to_vec() }
    }

    /// Appends a length-prefixed byte string: `u32-le length | bytes`.
    /// The telemetry codec uses this for metric names and journal lines.
    pub fn put_var_bytes(&mut self, bytes: &[u8]) {
        self.put_u32_le(bytes.len() as u32);
        self.data.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string (same layout as
    /// [`ByteBuf::put_var_bytes`]).
    pub fn put_var_str(&mut self, s: &str) {
        self.put_var_bytes(s.as_bytes());
    }

    /// A read cursor over the whole buffer.
    pub fn reader(&self) -> ByteReader<'_> {
        ByteReader::new(&self.data)
    }
}

impl Deref for ByteBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for ByteBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for ByteBuf {
    fn from(data: Vec<u8>) -> ByteBuf {
        ByteBuf { data }
    }
}

impl From<&[u8]> for ByteBuf {
    fn from(data: &[u8]) -> ByteBuf {
        ByteBuf { data: data.to_vec() }
    }
}

/// A read cursor over a byte slice, consuming little-endian values from
/// the front.
///
/// Every getter returns `Err(`[`Truncated`]`)` when fewer bytes remain
/// than its value needs, so a decoder needs no length check of its own:
/// it reads with `?`.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    /// The bytes not yet consumed.
    data: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Checks that `count` items of `item_bytes` each remain and returns
    /// their size in bytes. This is the one place a count read off the
    /// wire is multiplied: the product is checked, so a count too large
    /// for the input — or for a `usize` — is `Truncated`, never an
    /// overflow. For items of varying size, `item_bytes` is the least one
    /// takes.
    pub fn need_items(&self, count: usize, item_bytes: usize) -> Result<usize, Truncated> {
        count.checked_mul(item_bytes).filter(|&n| n <= self.remaining()).ok_or(Truncated)
    }

    /// Reads `count` items with `read` into a vector sized once — after
    /// [`ByteReader::need_items`] has shown that `count` items of at least
    /// `item_bytes` each (and at least one byte) are present, so a lying
    /// count allocates nothing.
    pub fn items<T>(
        &mut self,
        count: usize,
        item_bytes: usize,
        mut read: impl FnMut(&mut ByteReader<'a>) -> Result<T, Truncated>,
    ) -> Result<Vec<T>, Truncated> {
        self.need_items(count, item_bytes.max(1))?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Consumes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.data.len() {
            return Err(Truncated);
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    /// Consumes `n` little-endian `f64`s, checked as one run: the iterator
    /// knows its exact length, so collecting it allocates once.
    pub fn f64s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = f64> + 'a, Truncated> {
        let run = self.bytes(self.need_items(n, 8)?)?;
        Ok(run.chunks_exact(8).map(|b| {
            let mut word = [0; 8];
            word.copy_from_slice(b);
            f64::from_le_bytes(word)
        }))
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Consumes a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, Truncated> {
        self.take().map(u8::from_le_bytes)
    }

    /// The next byte without consuming it; `None` when exhausted. Lets a
    /// decoder dispatch on an embedded tag that an inner codec will
    /// consume itself.
    pub fn peek_u8(&self) -> Option<u8> {
        self.data.first().copied()
    }

    /// Consumes a little-endian `u16`.
    pub fn get_u16_le(&mut self) -> Result<u16, Truncated> {
        self.take().map(u16::from_le_bytes)
    }

    /// Consumes a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> Result<u32, Truncated> {
        self.take().map(u32::from_le_bytes)
    }

    /// Consumes a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> Result<u64, Truncated> {
        self.take().map(u64::from_le_bytes)
    }

    /// Consumes a little-endian `f64`.
    pub fn get_f64_le(&mut self) -> Result<f64, Truncated> {
        self.take().map(f64::from_le_bytes)
    }

    /// Consumes a length-prefixed byte string written by
    /// [`ByteBuf::put_var_bytes`].
    pub fn get_var_bytes(&mut self) -> Result<Vec<u8>, Truncated> {
        let len = self.get_u32_le()? as usize;
        Ok(self.bytes(len)?.to_vec())
    }

    /// Consumes a length-prefixed UTF-8 string written by
    /// [`ByteBuf::put_var_str`]; bytes that are not UTF-8 do not hold a
    /// string, so they are `Truncated` as well.
    pub fn get_var_str(&mut self) -> Result<String, Truncated> {
        String::from_utf8(self.get_var_bytes()?).map_err(|_| Truncated)
    }
}

/// Length-prefixed stream framing for the socket transport.
///
/// A TCP connection is a byte stream with no message boundaries, so the
/// socket runtime wraps every encoded [`ByteBuf`] payload in a 4-byte
/// little-endian length prefix:
///
/// ```text
/// u32 payload length (little-endian) | payload bytes
/// ```
///
/// The payload bytes are *exactly* the frame encoding the discrete-event
/// simulator delivers as one message — the prefix is transport overhead,
/// never part of the synopsis wire format, so byte accounting stays
/// comparable across transports by counting payload bytes only.
pub mod framing {
    use crate::ByteReader;
    use std::io::{self, Read, Write};

    /// Bytes of the length prefix preceding every payload.
    pub const LENGTH_PREFIX_BYTES: usize = 4;

    /// Upper bound on a single payload. A synopsis for K components in d
    /// dimensions is ~`K·(1 + d + d²)·8` bytes; 64 MiB covers K and d far
    /// beyond anything the coordinator accepts, while bounding how much a
    /// malformed or hostile peer can make the reader buffer.
    pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

    /// Writes one length-prefixed frame. A payload exceeding
    /// [`MAX_FRAME_BYTES`] is refused with an `InvalidData` error instead
    /// of being written (the peer would refuse to read it anyway).
    ///
    /// Prefix and payload go out in one `write`: every socket in the
    /// runtime has `TCP_NODELAY` set, so two writes would be two syscalls,
    /// two segments, and two wake-ups of the peer's reader per frame.
    pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(LENGTH_PREFIX_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        w.write_all(&frame)
    }

    /// Incremental reader for length-prefixed frames.
    ///
    /// TCP delivers bytes in arbitrary pieces — a frame can arrive split
    /// across reads, or several frames can arrive in one read, and a read
    /// timeout can interrupt mid-frame. `FrameReader` buffers partial data
    /// across [`FrameReader::poll`] calls so none of that is visible to
    /// the caller: each call returns only *complete* payloads, in order.
    ///
    /// Each reader has its own limit on a declared payload length
    /// ([`MAX_FRAME_BYTES`] unless set lower), so a connection that has
    /// not yet earned the full cap can be held to a small one.
    #[derive(Debug)]
    pub struct FrameReader {
        /// Bytes buffered while waiting for the rest of a frame.
        pub(crate) buf: Vec<u8>,
        limit: usize,
    }

    impl Default for FrameReader {
        fn default() -> FrameReader {
            FrameReader { buf: Vec::new(), limit: MAX_FRAME_BYTES }
        }
    }

    /// What one [`FrameReader::poll`] observed on the stream.
    #[derive(Debug)]
    pub struct Polled {
        /// Complete frames extracted, oldest first.
        pub frames: Vec<Vec<u8>>,
        /// True when the peer closed the stream (EOF).
        pub eof: bool,
    }

    impl FrameReader {
        /// A reader with no buffered bytes.
        pub fn new() -> FrameReader {
            FrameReader::default()
        }

        /// The longest payload this reader accepts.
        pub fn limit(&self) -> usize {
            self.limit
        }

        /// Changes the limit for every frame not extracted yet (never more
        /// than [`MAX_FRAME_BYTES`]).
        pub fn set_limit(&mut self, limit: usize) {
            self.limit = limit.min(MAX_FRAME_BYTES);
        }

        /// Reads whatever the stream currently has and returns every
        /// complete frame. `WouldBlock`/`TimedOut` (a read timeout on a
        /// blocking socket) is not an error — it ends the poll with the
        /// frames extracted so far. A declared length beyond the reader's
        /// limit is an `InvalidData` error as soon as its prefix arrives:
        /// the stream is unrecoverable after it, since resynchronizing on a
        /// corrupt prefix is impossible.
        pub fn poll(&mut self, r: &mut impl Read) -> io::Result<Polled> {
            let mut scratch = [0u8; 16 * 1024];
            let mut eof = false;
            loop {
                match r.read(&mut scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&scratch[..n]);
                        // Keep draining while full reads suggest more is
                        // pending; a short read means the socket is empty.
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let frames = self.extract()?;
            Ok(Polled { frames, eof })
        }

        /// Extracts every complete frame from the internal buffer.
        fn extract(&mut self) -> io::Result<Vec<Vec<u8>>> {
            let mut frames = Vec::new();
            let mut rest = ByteReader::new(&self.buf);
            loop {
                let mut next = rest.clone();
                let Ok(len) = next.get_u32_le() else { break };
                let len = len as usize;
                if len > self.limit {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("peer declared a {len}-byte frame"),
                    ));
                }
                let Ok(payload) = next.bytes(len) else { break };
                frames.push(payload.to_vec());
                rest = next;
            }
            let consumed = self.buf.len() - rest.remaining();
            if consumed > 0 {
                self.buf.drain(..consumed);
            }
            Ok(frames)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_does_not_consume() {
        let mut buf = ByteBuf::new();
        buf.put_u8(7);
        let mut r = buf.reader();
        assert_eq!(r.peek_u8(), Some(7));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get_u8(), Ok(7));
        assert_eq!(r.peek_u8(), None);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = ByteBuf::with_capacity(23);
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0102_0304_0506_0708);
        buf.put_f64_le(std::f64::consts::PI);
        assert_eq!(buf.len(), 23);

        let mut r = buf.reader();
        assert_eq!(r.remaining(), 23);
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u16_le(), Ok(0x1234));
        assert_eq!(r.get_u32_le(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64_le(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.get_f64_le(), Ok(std::f64::consts::PI));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn layout_is_little_endian() {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(0x0102_0304);
        assert_eq!(buf.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn nan_bits_preserved() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = ByteBuf::new();
        buf.put_f64_le(nan);
        assert_eq!(buf.reader().get_f64_le().map(f64::to_bits), Ok(nan.to_bits()));
    }

    #[test]
    fn slice_and_indexing() {
        let mut buf = ByteBuf::new();
        buf.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(buf.slice(..3).as_slice(), &[1, 2, 3]);
        assert_eq!(buf[4], 5);
        let mut corrupt = buf.clone();
        corrupt[0] ^= 0xFF;
        assert_eq!(corrupt[0], 0xFE);
        assert_eq!(&buf[1..3], &[2, 3]);
    }

    #[test]
    fn underflow_is_truncated_and_consumes_nothing() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32_le(), Err(Truncated));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u16_le(), Ok(0x0201));
        assert_eq!(r.get_u8(), Err(Truncated));
        assert_eq!(r.bytes(1), Err(Truncated));
        assert_eq!(r.bytes(0), Ok(&[][..]));
    }

    #[test]
    fn need_items_is_checked_arithmetic_against_what_remains() {
        let r = ByteReader::new(&[0; 24]);
        assert_eq!(r.need_items(3, 8), Ok(24));
        assert_eq!(r.need_items(0, usize::MAX), Ok(0));
        assert_eq!(r.need_items(4, 8), Err(Truncated));
        // A product past `usize::MAX` is a truncation, not an overflow.
        assert_eq!(r.need_items(usize::MAX, 2), Err(Truncated));
        assert_eq!(r.need_items(1 << 61, 16), Err(Truncated));
    }

    #[test]
    fn items_and_f64s_read_a_checked_run() {
        let mut buf = ByteBuf::new();
        for v in [1.5, -2.0, 8.25] {
            buf.put_f64_le(v);
        }
        let mut r = buf.reader();
        let run = r.f64s(2).expect("two present");
        assert_eq!(run.len(), 2);
        assert_eq!(run.collect::<Vec<_>>(), vec![1.5, -2.0]);
        assert_eq!(r.items(1, 8, ByteReader::get_f64_le), Ok(vec![8.25]));
        // A count the input cannot hold fails before anything is read.
        let mut r = buf.reader();
        assert!(r.f64s(4).is_err());
        assert_eq!(r.items(u32::MAX as usize, 8, ByteReader::get_f64_le), Err(Truncated));
        assert_eq!(r.remaining(), 24);
    }

    #[test]
    fn var_bytes_roundtrip() {
        let mut buf = ByteBuf::new();
        buf.put_var_str("em.cost_us");
        buf.put_var_bytes(b"");
        buf.put_var_bytes(&[0xFF, 0x00, 0x7F]);
        let mut r = buf.reader();
        assert_eq!(r.get_var_str().as_deref(), Ok("em.cost_us"));
        assert_eq!(r.get_var_bytes(), Ok(Vec::new()));
        assert_eq!(r.get_var_bytes(), Ok(vec![0xFF, 0x00, 0x7F]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn var_bytes_truncation_is_an_error() {
        let mut buf = ByteBuf::new();
        buf.put_var_str("site0.net.bytes");
        for len in 0..buf.len() {
            let cut = buf.slice(..len);
            assert_eq!(cut.reader().get_var_bytes(), Err(Truncated), "truncated at {len}");
        }
        // A declared length past the end must also fail cleanly.
        let mut lying = ByteBuf::new();
        lying.put_u32_le(100);
        lying.put_u8(1);
        assert_eq!(lying.reader().get_var_bytes(), Err(Truncated));
    }

    #[test]
    fn var_str_rejects_invalid_utf8() {
        let mut buf = ByteBuf::new();
        buf.put_var_bytes(&[0xFF, 0xFE]);
        assert_eq!(buf.reader().get_var_str(), Err(Truncated));
    }

    #[test]
    fn malformed_is_named_once() {
        let truncated: Malformed<&str> = Truncated.into();
        assert_eq!(truncated.named("truncated frame"), "truncated frame");
        assert_eq!(Malformed::Invalid("bad tag").named("truncated frame"), "bad tag");
    }

    #[test]
    fn conversions() {
        let buf: ByteBuf = vec![1u8, 2].into();
        assert_eq!(buf.len(), 2);
        let buf2: ByteBuf = buf.as_slice().into();
        assert_eq!(buf, buf2);
        assert_eq!(buf.into_vec(), vec![1, 2]);
    }

    mod framing {
        use crate::framing::{write_frame, FrameReader, LENGTH_PREFIX_BYTES, MAX_FRAME_BYTES};
        use std::io::{self, Read};

        /// A `Read` impl that serves a byte script in fixed-size pieces,
        /// mimicking TCP's arbitrary segmentation.
        struct Chunked {
            data: Vec<u8>,
            pos: usize,
            chunk: usize,
        }

        impl Read for Chunked {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.pos == self.data.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
                }
                let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        fn encode(payloads: &[&[u8]]) -> Vec<u8> {
            let mut wire = Vec::new();
            for p in payloads {
                write_frame(&mut wire, p).expect("write");
            }
            wire
        }

        #[test]
        fn roundtrip_multiple_frames_one_read() {
            let wire = encode(&[b"alpha", b"", b"gamma-synopsis"]);
            let mut reader = FrameReader::new();
            let mut src = Chunked { data: wire, pos: 0, chunk: 1 << 20 };
            let polled = reader.poll(&mut src).expect("poll");
            assert!(!polled.eof);
            assert_eq!(polled.frames, vec![b"alpha".to_vec(), Vec::new(), b"gamma-synopsis".to_vec()]);
            assert_eq!(reader.buf.len(), 0);
        }

        #[test]
        fn frames_split_across_single_byte_reads() {
            let wire = encode(&[&[1, 2, 3], &[0xFF; 300]]);
            let mut reader = FrameReader::new();
            let mut collected = Vec::new();
            // One byte per poll: every frame boundary is crossed mid-read.
            for i in 0..wire.len() {
                let mut src = Chunked { data: wire[i..i + 1].to_vec(), pos: 0, chunk: 1 };
                collected.extend(reader.poll(&mut src).expect("poll").frames);
            }
            assert_eq!(collected, vec![vec![1, 2, 3], vec![0xFF; 300]]);
            assert_eq!(reader.buf.len(), 0);
        }

        #[test]
        fn partial_prefix_is_buffered_not_lost() {
            let wire = encode(&[b"payload"]);
            let mut reader = FrameReader::new();
            let mut head = Chunked { data: wire[..2].to_vec(), pos: 0, chunk: 2 };
            let polled = reader.poll(&mut head).expect("poll");
            assert!(polled.frames.is_empty());
            assert_eq!(reader.buf.len(), 2);
            let mut tail = Chunked { data: wire[2..].to_vec(), pos: 0, chunk: 64 };
            let polled = reader.poll(&mut tail).expect("poll");
            assert_eq!(polled.frames, vec![b"payload".to_vec()]);
        }

        #[test]
        fn eof_reported_after_final_frame() {
            let wire = encode(&[b"last"]);
            let mut reader = FrameReader::new();
            // io::Cursor returns Ok(0) at end of data — a closed stream.
            // The first poll ends on the short read that drained the data;
            // the closed stream is observed on the next poll.
            let mut src = io::Cursor::new(wire);
            let polled = reader.poll(&mut src).expect("poll");
            assert_eq!(polled.frames, vec![b"last".to_vec()]);
            let polled = reader.poll(&mut src).expect("poll");
            assert!(polled.eof);
            assert!(polled.frames.is_empty());
        }

        #[test]
        fn oversize_declared_length_is_invalid_data() {
            let mut wire = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 8]);
            let mut reader = FrameReader::new();
            let mut src = io::Cursor::new(wire);
            let err = reader.poll(&mut src).expect_err("oversize must error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn a_lowered_limit_refuses_a_longer_frame_on_its_prefix() {
            let mut reader = FrameReader::new();
            assert_eq!(reader.limit(), MAX_FRAME_BYTES);
            reader.set_limit(usize::MAX);
            assert_eq!(reader.limit(), MAX_FRAME_BYTES, "never above the global cap");
            reader.set_limit(8);
            let mut src = io::Cursor::new(encode(&[&[7; 8]]));
            assert_eq!(reader.poll(&mut src).expect("at the limit").frames, vec![vec![7; 8]]);
            // Nine bytes declared, none of them sent: refused on the prefix.
            let mut src = io::Cursor::new(9u32.to_le_bytes().to_vec());
            let err = reader.poll(&mut src).expect_err("past the limit");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn oversize_payload_refused_on_write() {
            struct NullSink;
            impl io::Write for NullSink {
                fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                    Ok(b.len())
                }
                fn flush(&mut self) -> io::Result<()> {
                    Ok(())
                }
            }
            let big = vec![0u8; MAX_FRAME_BYTES + 1];
            let err = write_frame(&mut NullSink, &big).expect_err("oversize must error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn one_frame_is_one_write_and_reassembles_from_single_byte_reads() {
            /// Keeps the bytes and counts the `write` calls that brought them.
            #[derive(Default)]
            struct Counting {
                bytes: Vec<u8>,
                writes: usize,
            }
            impl io::Write for Counting {
                fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                    self.writes += 1;
                    self.bytes.extend_from_slice(b);
                    Ok(b.len())
                }
                fn flush(&mut self) -> io::Result<()> {
                    Ok(())
                }
            }
            let payload = vec![0x5A; 300];
            let mut sink = Counting::default();
            write_frame(&mut sink, &payload).expect("write");
            assert_eq!(sink.writes, 1, "prefix and payload must leave in one write");
            assert_eq!(sink.bytes.len(), LENGTH_PREFIX_BYTES + payload.len());

            let mut reader = FrameReader::new();
            let mut src = Chunked { data: sink.bytes, pos: 0, chunk: 1 };
            let mut collected = Vec::new();
            while src.pos < src.data.len() {
                collected.extend(reader.poll(&mut src).expect("poll").frames);
            }
            assert_eq!(collected, vec![payload]);
        }

        #[test]
        fn prefix_is_four_bytes_little_endian() {
            let wire = encode(&[&[0xAA; 5]]);
            assert_eq!(LENGTH_PREFIX_BYTES, 4);
            assert_eq!(&wire[..4], &[5, 0, 0, 0]);
            assert_eq!(wire.len(), 4 + 5);
        }
    }
}
