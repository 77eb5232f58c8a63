//! Zero-copy inbound frame buffers.
//!
//! The event-loop bus reads whole socket buffers in one `read(2)` and then
//! carves them into frames without copying: each [`FrameBuf`] is a
//! `(Arc<Vec<u8>>, start, end)` view into the shared read buffer, so a
//! single 64 KiB read that contained forty frames allocates once, not
//! forty times. Only an *incomplete* frame tail — the bytes of a frame
//! whose remainder arrives in the next `read` — is ever copied, by the
//! [`FrameAssembler`] that stitches reads back into frame runs.

use std::sync::Arc;

/// A cheaply cloneable byte-slice view into a shared read buffer.
///
/// Dereferences to `[u8]`, so it drops into any API that takes `&[u8]`
/// (notably [`crate::decode_frame`] and [`crate::Reader`]).
#[derive(Clone)]
pub struct FrameBuf {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// A sub-view starting `offset` bytes into this one. Panics if
    /// `offset > len`.
    pub fn slice(&self, offset: usize) -> FrameBuf {
        assert!(offset <= self.end - self.start, "slice past end");
        FrameBuf {
            buf: Arc::clone(&self.buf),
            start: self.start + offset,
            end: self.end,
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameBuf({} bytes)", self.end - self.start)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
impl Eq for FrameBuf {}

/// Reassembles `[u32 LE length][body]` frames out of raw socket reads.
///
/// Feed it each chunk the socket produced; complete frames come out as
/// [`FrameBuf`] views into the chunk (zero-copy), and any trailing
/// partial frame is buffered internally until the next chunk completes
/// it. A declared length above `max_frame` is a protocol error.
pub struct FrameAssembler {
    /// Bytes of a partial frame carried over from previous chunks.
    pending: Vec<u8>,
    max_frame: usize,
}

impl FrameAssembler {
    /// An empty assembler enforcing `max_frame` as the body-length cap.
    pub fn new(max_frame: usize) -> FrameAssembler {
        FrameAssembler {
            pending: Vec::new(),
            max_frame,
        }
    }

    /// Consumes one socket read, appending every completed frame body to
    /// `out`. Returns an error (connection must be closed) on an
    /// over-long declared length.
    pub fn feed(&mut self, chunk: Vec<u8>, out: &mut Vec<FrameBuf>) -> std::io::Result<()> {
        let work: Arc<Vec<u8>> = if self.pending.is_empty() {
            Arc::new(chunk)
        } else {
            let mut joined = std::mem::take(&mut self.pending);
            joined.extend_from_slice(&chunk);
            Arc::new(joined)
        };
        let bytes: &[u8] = &work;
        let mut pos = 0usize;
        loop {
            let rest = bytes.len() - pos;
            if rest < 4 {
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            if len > self.max_frame {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds cap {}", self.max_frame),
                ));
            }
            if rest - 4 < len {
                break;
            }
            out.push(FrameBuf {
                buf: Arc::clone(&work),
                start: pos + 4,
                end: pos + 4 + len,
            });
            pos += 4 + len;
        }
        if pos < bytes.len() {
            // Partial tail: the only copy on the inbound path.
            self.pending.extend_from_slice(&bytes[pos..]);
        }
        Ok(())
    }

    /// Bytes currently buffered awaiting completion.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut v = (body.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn whole_run_in_one_chunk() {
        let mut chunk = frame(b"alpha");
        chunk.extend(frame(b""));
        chunk.extend(frame(b"gamma!"));
        let mut asm = FrameAssembler::new(1024);
        let mut out = Vec::new();
        asm.feed(chunk, &mut out).unwrap();
        let got: Vec<&[u8]> = out.iter().map(|f| &**f).collect();
        assert_eq!(got, vec![&b"alpha"[..], &b""[..], &b"gamma!"[..]]);
        assert_eq!(asm.pending_len(), 0);
    }

    #[test]
    fn frame_split_across_many_chunks() {
        let mut stream = frame(b"hello world");
        stream.extend(frame(b"second"));
        let mut asm = FrameAssembler::new(1024);
        let mut out = Vec::new();
        // Feed one byte at a time: worst-case fragmentation.
        for b in stream {
            asm.feed(vec![b], &mut out).unwrap();
        }
        let got: Vec<&[u8]> = out.iter().map(|f| &**f).collect();
        assert_eq!(got, vec![&b"hello world"[..], &b"second"[..]]);
        assert_eq!(asm.pending_len(), 0);
    }

    #[test]
    fn oversized_length_is_an_error() {
        let mut asm = FrameAssembler::new(16);
        let mut out = Vec::new();
        let chunk = (17u32).to_le_bytes().to_vec();
        assert!(asm.feed(chunk, &mut out).is_err());
    }

    #[test]
    fn slice_views_share_storage() {
        let fb = FrameBuf {
            buf: Arc::new(vec![1, 2, 3, 4, 5]),
            start: 0,
            end: 5,
        };
        let tail = fb.slice(2);
        assert_eq!(&*tail, &[3, 4, 5]);
        assert_eq!(&*fb, &[1, 2, 3, 4, 5]);
    }
}
