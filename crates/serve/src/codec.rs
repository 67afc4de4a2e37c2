//! The `llp_serve` wire codec: a length-prefixed binary frame format.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 LE frame_len][u8 version][u8 frame_type][payload ...]
//! ```
//!
//! where `frame_len` counts everything *after* the length word (the
//! version byte, the frame-type byte, and the payload), so an empty
//! payload gives `frame_len == 2`. All multi-byte integers and floats
//! are little-endian; floats travel as their IEEE-754 bit patterns
//! (`f64::to_bits`), so a response body round-trips bit-identically —
//! the shard-determinism contract of DESIGN.md §9 survives the wire.
//!
//! The codec never panics on untrusted bytes and never blocks past the
//! caller's read timeout: a malformed, oversized, or version-skewed
//! frame decodes to a typed [`ReadError::Protocol`], which the server
//! answers with an [`Frame::Error`] frame before closing the
//! connection. Byte-level layout tables for every frame live in
//! DESIGN.md §9; `tests/golden_frames.rs` pins the canonical hex dumps
//! so spec and code cannot drift.

use std::io::{Read, Write};

use llp_core::instances::lp::LpProblem;
use llp_geom::Halfspace;
use llp_service::{
    LatencySummary, Model, RequestInput, ResponseBody, ServedFrom, ServiceStats, SolveRequest,
    SolveResponse,
};
use llp_workloads::scenario::RunBudget;

/// Protocol version carried in every frame header. A frame with any
/// other version byte is refused with [`ErrorCode::BadVersion`].
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on `frame_len` (version + type + payload), 16 MiB. A
/// header announcing more is refused with [`ErrorCode::Oversized`]
/// *before* any payload is read, so a lying header cannot make the
/// server allocate or stall.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Frame-type byte of a [`Frame::Solve`] request.
pub const FT_SOLVE: u8 = 1;
/// Frame-type byte of a [`Frame::SolveResponse`].
pub const FT_SOLVE_RESPONSE: u8 = 2;
/// Frame-type byte of a [`Frame::Error`].
pub const FT_ERROR: u8 = 3;
/// Frame-type byte of a [`Frame::Stats`] request.
pub const FT_STATS: u8 = 4;
/// Frame-type byte of a [`Frame::StatsResponse`].
pub const FT_STATS_RESPONSE: u8 = 5;
/// Frame-type byte of a [`Frame::Reset`] request.
pub const FT_RESET: u8 = 6;
/// Frame-type byte of a [`Frame::ResetResponse`].
pub const FT_RESET_RESPONSE: u8 = 7;

/// Shard index used in a [`StatsRow`] for the fleet-aggregate row.
pub const FLEET_SHARD: u16 = 0xFFFF;

/// Typed error codes carried by [`Frame::Error`]. Codes 1–5 are
/// protocol errors (the server closes the connection after sending
/// them); 6–8 are application errors (the connection stays open and
/// the client may keep submitting). See the DESIGN.md §9 failure-mode
/// table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Header version byte is not [`WIRE_VERSION`].
    BadVersion,
    /// Header frame-type byte is unknown, or a response-only type was
    /// sent to the server.
    BadFrameType,
    /// Payload failed to decode (truncated, trailing bytes, bad tag,
    /// non-UTF-8 text, or `frame_len < 2`).
    Malformed,
    /// Header `frame_len` exceeds [`MAX_FRAME_LEN`].
    Oversized,
    /// The fingerprint in a solve frame does not match the fingerprint
    /// the server recomputes from the request fields — a client codec
    /// bug that would poison the batching/cache key space.
    FingerprintMismatch,
    /// The home shard's admission queue was full; the request was shed.
    Shed,
    /// The request was rejected at admission (unknown scenario name).
    Rejected,
    /// The server is shutting down and no longer admits requests.
    Closed,
}

impl ErrorCode {
    /// The wire byte of this code.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::BadVersion => 1,
            ErrorCode::BadFrameType => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::FingerprintMismatch => 5,
            ErrorCode::Shed => 6,
            ErrorCode::Rejected => 7,
            ErrorCode::Closed => 8,
        }
    }

    /// Parses a wire byte back into a code.
    pub fn parse(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadVersion,
            2 => ErrorCode::BadFrameType,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::FingerprintMismatch,
            6 => ErrorCode::Shed,
            7 => ErrorCode::Rejected,
            8 => ErrorCode::Closed,
            _ => return None,
        })
    }

    /// True for codes after which the server closes the connection
    /// (protocol errors); false for per-request application errors.
    pub fn closes_connection(self) -> bool {
        matches!(
            self,
            ErrorCode::BadVersion
                | ErrorCode::BadFrameType
                | ErrorCode::Malformed
                | ErrorCode::Oversized
                | ErrorCode::FingerprintMismatch
        )
    }
}

/// One shard's row in a [`Frame::StatsResponse`]: classification
/// counters plus latency and queue-wait summaries. The fleet-aggregate
/// row uses `shard == `[`FLEET_SHARD`] and is computed server-side from
/// the concatenated raw samples (percentiles cannot be merged from
/// per-shard summaries).
#[derive(Clone, Debug, PartialEq)]
pub struct StatsRow {
    /// Shard index, or [`FLEET_SHARD`] for the aggregate row.
    pub shard: u16,
    /// Classification counters of this shard (or their fleet sum).
    pub stats: ServiceStats,
    /// End-to-end latency percentiles.
    pub latency: LatencySummary,
    /// Queue-wait percentiles.
    pub queue_wait: LatencySummary,
}

/// Payload of a [`Frame::StatsResponse`]: the shard count followed by
/// one row per shard (in index order) and the fleet row last.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Number of shards behind the server.
    pub shards: u16,
    /// Per-shard rows in index order, then the fleet row.
    pub rows: Vec<StatsRow>,
}

/// A decoded wire frame. `Solve`/`Stats`/`Reset` travel client→server;
/// the `*Response` and `Error` frames travel server→client.
#[derive(Clone, Debug)]
pub enum Frame {
    /// A solve request: the client-claimed fingerprint plus the request
    /// fields. The server recomputes the fingerprint and refuses the
    /// frame with [`ErrorCode::FingerprintMismatch`] on disagreement.
    Solve {
        /// The 128-bit request fingerprint claimed by the client.
        fingerprint: u128,
        /// The request itself.
        request: SolveRequest,
    },
    /// A completed solve: fingerprint echo plus the metered response.
    SolveResponse {
        /// Echo of the request fingerprint (lets a client correlate).
        fingerprint: u128,
        /// The metered response, bit-identical to an in-process solve.
        response: SolveResponse,
    },
    /// A typed error. See [`ErrorCode`] for which codes close the
    /// connection.
    Error {
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail (diagnostic only, not part of the
        /// stable protocol surface).
        message: String,
    },
    /// Requests a [`Frame::StatsResponse`]. Empty payload.
    Stats,
    /// Per-shard and fleet-aggregate counters and percentiles.
    StatsResponse(StatsReply),
    /// Resets every shard's counters, samples, and cache. Only
    /// meaningful at quiescence; see DESIGN.md §9. Empty payload.
    Reset,
    /// Acknowledges a [`Frame::Reset`]. Empty payload.
    ResetResponse,
}

impl Frame {
    /// The frame-type byte of this frame.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Solve { .. } => FT_SOLVE,
            Frame::SolveResponse { .. } => FT_SOLVE_RESPONSE,
            Frame::Error { .. } => FT_ERROR,
            Frame::Stats => FT_STATS,
            Frame::StatsResponse(_) => FT_STATS_RESPONSE,
            Frame::Reset => FT_RESET,
            Frame::ResetResponse => FT_RESET_RESPONSE,
        }
    }
}

/// Why a frame could not be read: a transport failure (including read
/// timeouts, which the server's poll loop treats as "check the stop
/// flag and retry") or a typed protocol violation the server answers
/// with an error frame.
#[derive(Debug)]
pub enum ReadError {
    /// Socket-level failure: disconnect, truncation mid-frame, or a
    /// read timeout (`WouldBlock`/`TimedOut`).
    Io(std::io::Error),
    /// The bytes violated the protocol; the code says how.
    Protocol {
        /// The typed code to answer with.
        code: ErrorCode,
        /// Diagnostic detail.
        message: String,
    },
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Protocol { code, message } => {
                write!(f, "protocol error ({code:?}): {message}")
            }
        }
    }
}

fn malformed(message: impl Into<String>) -> ReadError {
    ReadError::Protocol {
        code: ErrorCode::Malformed,
        message: message.into(),
    }
}

/// Encodes a frame into its full wire bytes (length word included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    {
        let w = &mut payload;
        match frame {
            Frame::Solve {
                fingerprint,
                request,
            } => {
                put_u128(w, *fingerprint);
                put_request(w, request);
            }
            Frame::SolveResponse {
                fingerprint,
                response,
            } => {
                put_u128(w, *fingerprint);
                put_response(w, response);
            }
            Frame::Error { code, message } => {
                w.push(code.code());
                put_str16(w, message);
            }
            Frame::Stats | Frame::Reset | Frame::ResetResponse => {}
            Frame::StatsResponse(reply) => put_stats(w, reply),
        }
    }
    let frame_len = (payload.len() + 2) as u32;
    let mut out = Vec::with_capacity(payload.len() + 6);
    out.extend_from_slice(&frame_len.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(frame.frame_type());
    out.extend_from_slice(&payload);
    out
}

/// Writes one frame to `w` (single `write_all` of the encoded bytes).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()
}

/// Reads one frame from `r`, honoring any read timeout configured on
/// the stream (timeouts surface as [`ReadError::Io`] with kind
/// `WouldBlock` or `TimedOut`). The header is validated *before* the
/// payload is read, so an oversized or short `frame_len` is refused
/// without allocating the announced size.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ReadError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let frame_len = u32::from_le_bytes(len_bytes);
    if frame_len > MAX_FRAME_LEN {
        return Err(ReadError::Protocol {
            code: ErrorCode::Oversized,
            message: format!("frame_len {frame_len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        });
    }
    if frame_len < 2 {
        return Err(malformed(format!(
            "frame_len {frame_len} is too short for the version and type bytes"
        )));
    }
    let mut head = [0u8; 2];
    r.read_exact(&mut head)?;
    let (version, frame_type) = (head[0], head[1]);
    let mut payload = vec![0u8; frame_len as usize - 2];
    r.read_exact(&mut payload)?;
    if version != WIRE_VERSION {
        return Err(ReadError::Protocol {
            code: ErrorCode::BadVersion,
            message: format!("version {version} is not the supported version {WIRE_VERSION}"),
        });
    }
    decode_payload(frame_type, &payload)
}

/// Decodes a validated-header frame body. Exposed for tests; normal
/// callers use [`read_frame`].
pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, ReadError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match frame_type {
        FT_SOLVE => Frame::Solve {
            fingerprint: c.u128()?,
            request: take_request(&mut c)?,
        },
        FT_SOLVE_RESPONSE => Frame::SolveResponse {
            fingerprint: c.u128()?,
            response: take_response(&mut c)?,
        },
        FT_ERROR => {
            let raw = c.u8()?;
            let code = ErrorCode::parse(raw)
                .ok_or_else(|| malformed(format!("unknown error code {raw}")))?;
            Frame::Error {
                code,
                message: c.str16()?,
            }
        }
        FT_STATS => Frame::Stats,
        FT_STATS_RESPONSE => Frame::StatsResponse(take_stats(&mut c)?),
        FT_RESET => Frame::Reset,
        FT_RESET_RESPONSE => Frame::ResetResponse,
        other => {
            return Err(ReadError::Protocol {
                code: ErrorCode::BadFrameType,
                message: format!("unknown frame type {other}"),
            })
        }
    };
    c.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Payload field encoders.

fn put_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(w: &mut Vec<u8>, v: u128) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    put_u64(w, v.to_bits());
}

fn put_str16(w: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize);
    put_u16(w, len as u16);
    w.extend_from_slice(&s.as_bytes()[..len]);
}

fn put_str32(w: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u32::MAX as usize);
    put_u32(w, len as u32);
    w.extend_from_slice(&s.as_bytes()[..len]);
}

fn put_request(w: &mut Vec<u8>, req: &SolveRequest) {
    let model = Model::ALL
        .iter()
        .position(|&m| m == req.model)
        .expect("Model::ALL covers every model") as u8;
    w.push(model);
    w.push(match req.budget {
        RunBudget::Quick => 0,
        RunBudget::Full => 1,
        RunBudget::Huge => 2,
    });
    put_u64(w, req.seed);
    match &req.input {
        RequestInput::Scenario(name) => {
            w.push(1);
            put_str16(w, name);
        }
        RequestInput::InlineLp(p, cs) => {
            w.push(2);
            put_u16(w, p.objective.len() as u16);
            for &c in &p.objective {
                put_f64(w, c);
            }
            put_u32(w, cs.len() as u32);
            for hs in cs {
                for &a in &hs.a {
                    put_f64(w, a);
                }
                put_f64(w, hs.b);
            }
        }
    }
}

fn put_response(w: &mut Vec<u8>, resp: &SolveResponse) {
    w.push(match resp.served_from {
        ServedFrom::Solve => 0,
        ServedFrom::Batch => 1,
        ServedFrom::Cache => 2,
    });
    put_f64(w, resp.queue_wait_ms);
    put_f64(w, resp.solve_ms);
    put_f64(w, resp.total_ms);
    match &resp.body {
        Ok(b) => {
            w.push(1);
            put_u64(w, b.n);
            put_f64(w, b.objective);
            put_u64(w, b.violations);
            put_u64(w, b.iterations);
            put_u64(w, b.passes);
            put_u64(w, b.rounds);
            put_u64(w, b.space_bits);
            put_u64(w, b.comm_bits);
            put_u64(w, b.max_round_bits);
            put_u64(w, b.load_bits);
            put_u64(w, b.total_load_bits);
        }
        Err(msg) => {
            w.push(2);
            put_str32(w, msg);
        }
    }
}

fn put_summary(w: &mut Vec<u8>, s: &LatencySummary) {
    put_u64(w, s.count);
    put_f64(w, s.mean_ms);
    put_f64(w, s.p50_ms);
    put_f64(w, s.p95_ms);
    put_f64(w, s.p99_ms);
    put_f64(w, s.max_ms);
}

fn put_stats(w: &mut Vec<u8>, reply: &StatsReply) {
    put_u16(w, reply.shards);
    put_u16(w, reply.rows.len() as u16);
    for row in &reply.rows {
        put_u16(w, row.shard);
        let st = &row.stats;
        for v in [
            st.submitted,
            st.completed,
            st.shed,
            st.rejected,
            st.solves,
            st.failed_solves,
            st.batched,
            st.cache_hits,
        ] {
            put_u64(w, v);
        }
        put_summary(w, &row.latency);
        put_summary(w, &row.queue_wait);
    }
}

// ---------------------------------------------------------------------------
// Payload field decoders over a bounds-checked cursor.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.buf.len() - self.pos < n {
            return Err(malformed(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, ReadError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str16(&mut self) -> Result<String, ReadError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("text field is not UTF-8"))
    }

    fn str32(&mut self) -> Result<String, ReadError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("text field is not UTF-8"))
    }

    fn finish(&self) -> Result<(), ReadError> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn take_request(c: &mut Cursor<'_>) -> Result<SolveRequest, ReadError> {
    let model_idx = c.u8()? as usize;
    let model = *Model::ALL
        .get(model_idx)
        .ok_or_else(|| malformed(format!("unknown model index {model_idx}")))?;
    let budget = match c.u8()? {
        0 => RunBudget::Quick,
        1 => RunBudget::Full,
        2 => RunBudget::Huge,
        other => return Err(malformed(format!("unknown budget byte {other}"))),
    };
    let seed = c.u64()?;
    let input = match c.u8()? {
        1 => RequestInput::Scenario(c.str16()?),
        2 => {
            let d = c.u16()? as usize;
            if d == 0 {
                return Err(malformed("inline LP in zero dimensions"));
            }
            let mut objective = Vec::with_capacity(d);
            for _ in 0..d {
                objective.push(c.f64()?);
            }
            if objective.iter().any(|v| !v.is_finite()) {
                return Err(malformed("inline LP objective has a non-finite entry"));
            }
            let m = c.u32()? as usize;
            // The cursor is bounds-checked, so a lying constraint count
            // fails on the first missing byte rather than allocating.
            let mut cs = Vec::new();
            for _ in 0..m {
                let mut a = Vec::with_capacity(d);
                for _ in 0..d {
                    a.push(c.f64()?);
                }
                let b = c.f64()?;
                let row = cs.len();
                cs.push(Halfspace::try_new(a, b).ok_or_else(|| {
                    malformed(format!(
                        "inline LP constraint {row} has a non-finite coefficient"
                    ))
                })?);
            }
            RequestInput::InlineLp(LpProblem::new(objective), cs)
        }
        other => return Err(malformed(format!("unknown input tag {other}"))),
    };
    Ok(SolveRequest {
        input,
        model,
        budget,
        seed,
    })
}

fn take_response(c: &mut Cursor<'_>) -> Result<SolveResponse, ReadError> {
    let served_from = match c.u8()? {
        0 => ServedFrom::Solve,
        1 => ServedFrom::Batch,
        2 => ServedFrom::Cache,
        other => return Err(malformed(format!("unknown served_from byte {other}"))),
    };
    let queue_wait_ms = c.f64()?;
    let solve_ms = c.f64()?;
    let total_ms = c.f64()?;
    let body = match c.u8()? {
        1 => Ok(ResponseBody {
            n: c.u64()?,
            objective: c.f64()?,
            violations: c.u64()?,
            iterations: c.u64()?,
            passes: c.u64()?,
            rounds: c.u64()?,
            space_bits: c.u64()?,
            comm_bits: c.u64()?,
            max_round_bits: c.u64()?,
            load_bits: c.u64()?,
            total_load_bits: c.u64()?,
        }),
        2 => Err(c.str32()?),
        other => return Err(malformed(format!("unknown body tag {other}"))),
    };
    Ok(SolveResponse {
        body,
        served_from,
        queue_wait_ms,
        solve_ms,
        total_ms,
    })
}

fn take_summary(c: &mut Cursor<'_>) -> Result<LatencySummary, ReadError> {
    Ok(LatencySummary {
        count: c.u64()?,
        mean_ms: c.f64()?,
        p50_ms: c.f64()?,
        p95_ms: c.f64()?,
        p99_ms: c.f64()?,
        max_ms: c.f64()?,
    })
}

fn take_stats(c: &mut Cursor<'_>) -> Result<StatsReply, ReadError> {
    let shards = c.u16()?;
    let rows_len = c.u16()? as usize;
    let mut rows = Vec::with_capacity(rows_len.min(1024));
    for _ in 0..rows_len {
        let shard = c.u16()?;
        let stats = ServiceStats {
            submitted: c.u64()?,
            completed: c.u64()?,
            shed: c.u64()?,
            rejected: c.u64()?,
            solves: c.u64()?,
            failed_solves: c.u64()?,
            batched: c.u64()?,
            cache_hits: c.u64()?,
        };
        let latency = take_summary(c)?;
        let queue_wait = take_summary(c)?;
        rows.push(StatsRow {
            shard,
            stats,
            latency,
            queue_wait,
        });
    }
    Ok(StatsReply { shards, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame);
        let mut r = &bytes[..];
        let back = read_frame(&mut r).expect("decode what we encoded");
        assert!(r.is_empty(), "decoder consumed the whole frame");
        back
    }

    fn sample_request() -> SolveRequest {
        SolveRequest::scenario("lp_uniform", Model::Streaming, RunBudget::Quick, 42)
    }

    #[test]
    fn solve_request_roundtrips_scenario_and_inline() {
        let req = sample_request();
        let fp = req.fingerprint();
        match roundtrip(&Frame::Solve {
            fingerprint: fp,
            request: req,
        }) {
            Frame::Solve {
                fingerprint,
                request,
            } => {
                assert_eq!(fingerprint, fp);
                assert_eq!(request.fingerprint(), fp, "fields survive the wire");
            }
            other => panic!("wrong frame: {other:?}"),
        }

        let inline = SolveRequest {
            input: RequestInput::InlineLp(
                LpProblem::new(vec![1.0, -2.5]),
                vec![
                    Halfspace::new(vec![1.0, 0.0], 1.0),
                    Halfspace::new(vec![0.25, -1.0], 0.125),
                ],
            ),
            model: Model::Ram,
            budget: RunBudget::Full,
            seed: 7,
        };
        let fp = inline.fingerprint();
        match roundtrip(&Frame::Solve {
            fingerprint: fp,
            request: inline,
        }) {
            Frame::Solve { request, .. } => {
                assert_eq!(request.fingerprint(), fp, "inline constraint bytes survive");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn solve_response_roundtrips_both_bodies_bit_identically() {
        let ok = SolveResponse {
            body: Ok(ResponseBody {
                n: 1000,
                objective: -3.5000000000000004, // exercises exact f64 bits
                violations: 0,
                iterations: 17,
                passes: 3,
                rounds: 0,
                space_bits: 123_456,
                comm_bits: 0,
                max_round_bits: 0,
                load_bits: 0,
                total_load_bits: 0,
            }),
            served_from: ServedFrom::Batch,
            queue_wait_ms: 0.25,
            solve_ms: 1.5,
            total_ms: 1.75,
        };
        match roundtrip(&Frame::SolveResponse {
            fingerprint: 9,
            response: ok.clone(),
        }) {
            Frame::SolveResponse {
                fingerprint,
                response,
            } => {
                assert_eq!(fingerprint, 9);
                assert_eq!(response.body, ok.body);
                assert_eq!(response.served_from, ok.served_from);
                assert_eq!(response.total_ms.to_bits(), ok.total_ms.to_bits());
            }
            other => panic!("wrong frame: {other:?}"),
        }

        let err = SolveResponse {
            body: Err("solver error: infeasible".to_string()),
            served_from: ServedFrom::Solve,
            queue_wait_ms: 0.0,
            solve_ms: 0.0,
            total_ms: 0.5,
        };
        match roundtrip(&Frame::SolveResponse {
            fingerprint: 9,
            response: err,
        }) {
            Frame::SolveResponse { response, .. } => {
                assert_eq!(response.body, Err("solver error: infeasible".to_string()));
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        assert!(matches!(roundtrip(&Frame::Stats), Frame::Stats));
        assert!(matches!(roundtrip(&Frame::Reset), Frame::Reset));
        assert!(matches!(
            roundtrip(&Frame::ResetResponse),
            Frame::ResetResponse
        ));
        match roundtrip(&Frame::Error {
            code: ErrorCode::Shed,
            message: "queue full".into(),
        }) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::Shed);
                assert_eq!(message, "queue full");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn stats_response_roundtrips_rows() {
        let row = |shard: u16| StatsRow {
            shard,
            stats: ServiceStats {
                submitted: 10,
                completed: 8,
                shed: 1,
                rejected: 1,
                solves: 5,
                failed_solves: 0,
                batched: 2,
                cache_hits: 1,
            },
            latency: LatencySummary::from_samples(&[1.0, 2.0, 3.0]),
            queue_wait: LatencySummary::from_samples(&[0.5]),
        };
        let reply = StatsReply {
            shards: 2,
            rows: vec![row(0), row(1), row(FLEET_SHARD)],
        };
        match roundtrip(&Frame::StatsResponse(reply.clone())) {
            Frame::StatsResponse(back) => assert_eq!(back, reply),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn error_code_bytes_roundtrip_and_split_by_severity() {
        for code in [
            ErrorCode::BadVersion,
            ErrorCode::BadFrameType,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::FingerprintMismatch,
            ErrorCode::Shed,
            ErrorCode::Rejected,
            ErrorCode::Closed,
        ] {
            assert_eq!(ErrorCode::parse(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::parse(0), None);
        assert_eq!(ErrorCode::parse(9), None);
        assert!(ErrorCode::Malformed.closes_connection());
        assert!(!ErrorCode::Shed.closes_connection());
    }

    #[test]
    fn adversarial_frames_fail_typed_never_panic() {
        // Zero-length frame: frame_len 0 cannot hold version + type.
        let mut r = &[0u8, 0, 0, 0][..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected malformed, got {other:?}"),
        }

        // Oversized header is refused before the payload is read.
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[WIRE_VERSION, FT_STATS]);
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::Oversized),
            other => panic!("expected oversized, got {other:?}"),
        }

        // Bad version byte.
        let mut bytes = encode_frame(&Frame::Stats);
        bytes[4] = 2;
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::BadVersion),
            other => panic!("expected bad version, got {other:?}"),
        }

        // Unknown frame type.
        let mut bytes = encode_frame(&Frame::Stats);
        bytes[5] = 99;
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::BadFrameType),
            other => panic!("expected bad frame type, got {other:?}"),
        }

        // Truncated header: fewer than 4 length bytes is an Io error
        // (the transport died), not a protocol error.
        let mut r = &[1u8, 0][..];
        assert!(matches!(read_frame(&mut r), Err(ReadError::Io(_))));

        // Length lying high: announces more payload than follows.
        let req = sample_request();
        let mut bytes = encode_frame(&Frame::Solve {
            fingerprint: req.fingerprint(),
            request: req,
        });
        let lie = (u32::from_le_bytes(bytes[0..4].try_into().unwrap()) + 8).to_le_bytes();
        bytes[0..4].copy_from_slice(&lie);
        let mut r = &bytes[..];
        assert!(
            matches!(read_frame(&mut r), Err(ReadError::Io(_))),
            "short read surfaces as Io, the server closes"
        );

        // Length lying low: the payload decodes short and leaves
        // trailing bytes inside the *next* header instead; decoding the
        // truncated payload fails typed.
        let req = sample_request();
        let mut bytes = encode_frame(&Frame::Solve {
            fingerprint: req.fingerprint(),
            request: req,
        });
        let lie = (u32::from_le_bytes(bytes[0..4].try_into().unwrap()) - 4).to_le_bytes();
        bytes[0..4].copy_from_slice(&lie);
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected malformed, got {other:?}"),
        }

        // Trailing bytes after a valid payload.
        let mut bytes = encode_frame(&Frame::Stats);
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        let lie = (u32::from_le_bytes(bytes[0..4].try_into().unwrap()) + 2).to_le_bytes();
        bytes[0..4].copy_from_slice(&lie);
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Err(ReadError::Protocol { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected malformed, got {other:?}"),
        }
    }
}
