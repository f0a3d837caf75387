//! Binary serialization of plan requests, compiled plans and service
//! statistics — the byte layer shared by the wire protocol ([`crate::wire`])
//! and the durable disk tier ([`crate::disk`]).
//!
//! The codec is hand-rolled (the workspace takes no external dependencies).
//! Requests and stats are deliberately boring: little-endian fixed-width
//! integers, `f64` as raw IEEE bits (bit-exact round trips, including
//! non-finite values), length-prefixed vectors. Every decoder is *total*:
//! malformed, truncated or oversized input yields a typed [`CodecError`],
//! never a panic, hang or unbounded allocation (length prefixes are
//! validated against the bytes actually remaining before anything is
//! reserved).
//!
//! # Plan layout
//!
//! Plans are what a cache hit sends, so their layout is compact (plan
//! version byte 6, [`PLAN_CODEC_V2`]). Integers are LEB128 varints, which
//! must be minimally encoded; `f64`s stay raw 8-byte bits.
//!
//! ```text
//! plan    version u8 · nest count · nest*
//! nest    nest index · step count · step* · stats
//! step    flags u8 · node x · node y · [seed f64] · input count · input*
//!         · [store] · [wait count · wait distance*] · [tag]
//! input   op+kind u8 · Const: f64 | Elem: array · Δelem · Δline · node x
//!         · node y | Temp: distance
//! store   array · Δelem · Δline · home x · home y
//! tag     nest · statement · instance
//! stats   window · movement opt · movement default · record count
//!         · record* · syncs before · syncs after · op mix (3) · L1 hits
//!         · fallbacks · instances
//! record  tag · movement opt · movement default · parallelism
//!         · step count · L1 hits · op mix (3) · fallback u8 · first step
//!         · last step
//! ```
//!
//! * Step ids are not written: [`Schedule::validate`] requires id ==
//!   position, and the decoder assigns exactly that.
//! * `Temp` operands and waits are backward distances from the current
//!   step, at least 1 and at most the step's position.
//! * Element and line addresses are zigzag varints of their (wrapping)
//!   distance from the previous address written in the same nest, by an
//!   operand or a store.
//! * The flags byte says whether a seed, a store (and whether its array is
//!   hot), waits, or a tag follow; a step whose tag equals the previous
//!   step's writes none. An input's byte packs its operator (bits 0–3),
//!   its kind (bits 4–5) and, for elements, the hot bit (bit 6).
//!
//! Every accepted plan encoding re-encodes to the same bytes, so a plan
//! has exactly one encoding: unknown flag bits, non-minimal varints,
//! booleans other than 0 or 1, empty wait lists and explicitly repeated
//! tags are refused. The first, fixed-width plan layout (version byte 2,
//! about 110 bytes per step against about 28 now) is refused with
//! [`CodecError::BadVersion`]; it has no decoder.
//!
//! # Requests
//!
//! Programs cross the boundary as structure, not spelling: arrays and loop
//! variables are rendered under canonical names (`a0, a1, …` / `v0, v1, …`)
//! and statements as the surface syntax the parser accepts (the printer is
//! pinned by `parse(print(x)) == x` property tests), plus the per-reference
//! analyzability flags the text cannot carry. Identifier names are not
//! semantic — [`crate::PlanKey`] hashes are name-independent — so
//! `decode(encode(request))` has the same key and compiles the bit-identical
//! plan.

use crate::service::ServeStats;
use dmcp_core::partitioner::PredictorSpec;
use dmcp_core::{
    ElemLoc, NestPartition, Operand, PartitionConfig, PartitionOutput, Schedule, StepInput,
    StmtTag, StoreTarget, SubId,
};
use dmcp_core::{NestStats, OpMix, StmtRecord};
use dmcp_ir::display::statement_to_string;
use dmcp_ir::{BinOp, Program, ProgramBuilder};
use dmcp_mach::{ClusterMode, FaultPlan, MachineConfig, Mesh, NodeId};
use dmcp_mem::{LineAddr, PagePolicy};
use std::fmt;

use crate::cache::CacheStats;
use crate::disk::DiskStats;
use crate::key::PlanRequest;

/// Codec version byte leading every encoded request. The first request
/// layout (byte 1) carried one more configuration byte; it is refused
/// with [`CodecError::BadVersion`]. Bytes 2–4 and 6 lead plans and stats,
/// retired or current, so no two layouts share a leading byte.
pub const REQUEST_CODEC_V2: u8 = 5;
/// Codec version byte leading every encoded plan: the compact layout of
/// the module docs. The fixed-width first layout used byte 2.
pub const PLAN_CODEC_V2: u8 = 6;
/// Codec version byte leading every encoded stats snapshot: the service
/// counters plus the chaos-era ones (worker panics, disk errors,
/// quarantined segments, pending records, degraded flag). The first
/// stats layout used byte 3.
pub const STATS_CODEC_V2: u8 = 4;

/// A typed decode failure. Encoders are infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value it promised.
    Truncated,
    /// An enum/option tag byte had no meaning.
    BadTag(&'static str, u8),
    /// A version byte did not match the codec.
    BadVersion(&'static str, u8),
    /// A length prefix promised more elements than the remaining bytes
    /// could possibly hold.
    Oversized(&'static str),
    /// A decoded value violated a structural invariant (mesh too small,
    /// node off the mesh, flag count mismatch, …).
    Invalid(String),
    /// A transported statement failed to re-parse (corrupt text).
    Parse(String),
    /// A varint was over-long (not minimally encoded), overflowed 64 bits,
    /// or exceeded its field's range.
    Varint(&'static str),
    /// A backward step distance was 0 or reached before the nest's first
    /// step.
    Distance(&'static str, u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadTag(what, tag) => write!(f, "bad {what} tag {tag:#x}"),
            CodecError::BadVersion(what, v) => write!(f, "unsupported {what} codec version {v}"),
            CodecError::Oversized(what) => write!(f, "{what} length exceeds remaining input"),
            CodecError::Invalid(msg) => write!(f, "invalid value: {msg}"),
            CodecError::Parse(msg) => write!(f, "statement reparse failed: {msg}"),
            CodecError::Varint(what) => write!(f, "{what} varint is over-long or out of range"),
            CodecError::Distance(what, d) => write!(f, "{what} distance {d} out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte writer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `bytes` bytes.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// LEB128 varint: seven bits per byte, low bits first, the high bit
    /// set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian byte reader over a borrowed slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `0`/`1` byte; anything else is refused, so a flag has one
    /// encoding.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::BadTag(what, other)),
        }
    }

    /// A minimally encoded LEB128 varint: a trailing zero byte (an
    /// over-long encoding) or bits past the 64th are refused.
    #[inline]
    pub fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        // Most plan fields fit one byte.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.long_varint(what),
        }
    }

    fn long_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::Varint(what));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError::Varint(what));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint that must be below `limit`.
    pub fn varint_below(&mut self, what: &'static str, limit: u64) -> Result<u64, CodecError> {
        match self.varint(what)? {
            v if v < limit => Ok(v),
            _ => Err(CodecError::Varint(what)),
        }
    }

    /// A varint that must fit a `u32`.
    pub fn varint_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(self.varint_below(what, 1 << 32)? as u32)
    }

    /// Reads a varint element count and validates it against the bytes
    /// remaining, as [`Dec::len`] does for fixed-width prefixes.
    pub fn count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let n = self.varint(what)?;
        self.fits(what, n, min_elem_bytes)
    }

    fn fits(&self, what: &'static str, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min_elem_bytes.max(1)))
            .is_some_and(|need| need <= self.remaining());
        if !fits {
            return Err(CodecError::Oversized(what));
        }
        Ok(n as usize)
    }

    /// Reads a vector length prefix and validates it against the bytes
    /// remaining: each promised element needs at least `min_elem_bytes`, so
    /// a garbage length cannot trigger a huge allocation.
    pub fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        self.fits(what, n, min_elem_bytes)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        let n = self.len(what, 1)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| CodecError::Invalid(format!("{what} is not UTF-8")))
    }

    /// Ends decoding of one `what`: every byte must have been consumed, so
    /// an input that only *starts* with a valid value is refused.
    pub fn finish(self, what: &str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Invalid(format!("{n} trailing bytes after the {what}"))),
        }
    }
}

fn enc_node(e: &mut Enc, n: NodeId) {
    e.u16(n.x());
    e.u16(n.y());
}

fn dec_node(d: &mut Dec<'_>) -> Result<NodeId, CodecError> {
    let x = d.u16()?;
    let y = d.u16()?;
    Ok(NodeId::new(x, y))
}

fn binop_to_u8(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::And => 4,
        BinOp::Or => 5,
        BinOp::Xor => 6,
        BinOp::Shl => 7,
        BinOp::Shr => 8,
    }
}

fn binop_from_u8(v: u8) -> Result<BinOp, CodecError> {
    Ok(match v {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::And,
        5 => BinOp::Or,
        6 => BinOp::Xor,
        7 => BinOp::Shl,
        8 => BinOp::Shr,
        other => return Err(CodecError::BadTag("binop", other)),
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Canonical array name for table index `k`.
fn array_name(k: usize) -> String {
    format!("a{k}")
}

/// Canonical loop-variable name for depth `d`.
fn var_name(d: usize) -> String {
    format!("v{d}")
}

/// Rebuilds `program` under canonical identifier names. Structure (and thus
/// the name-independent [`crate::PlanKey`]) is untouched; only the symbol
/// table differs, which is display-only.
fn canonicalize(program: &Program) -> Program {
    let mut b = ProgramBuilder::new();
    for (k, a) in program.arrays().iter().enumerate() {
        if a.hot {
            b.hot_array(array_name(k), &a.dims, a.elem_size);
        } else {
            b.array(array_name(k), &a.dims, a.elem_size);
        }
    }
    for nest in program.nests() {
        b.push_nest(nest.clone());
    }
    b.build()
}

/// Collects every reference's analyzability flag in the canonical
/// traversal order (`for_each_ref_mut`: lhs pre-order, then rhs).
fn collect_flags(stmt: &dmcp_ir::Statement) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut probe = stmt.clone();
    probe.for_each_ref_mut(&mut |r| flags.push(r.analyzable));
    flags
}

/// Encodes a full [`PlanRequest`] — everything the server needs to compile
/// on a cache miss.
#[must_use]
pub fn encode_request(req: &PlanRequest) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REQUEST_CODEC_V2);

    // Program, under canonical names.
    let canonical = canonicalize(&req.program);
    e.u64(canonical.arrays().len() as u64);
    for a in canonical.arrays() {
        e.u64(a.dims.len() as u64);
        for &d in &a.dims {
            e.u64(d);
        }
        e.u32(a.elem_size);
        e.u8(u8::from(a.hot));
    }
    e.u64(canonical.nests().len() as u64);
    for nest in canonical.nests() {
        let vars: Vec<String> = (0..nest.dims.len()).map(var_name).collect();
        e.u64(nest.dims.len() as u64);
        for d in &nest.dims {
            e.i64(d.lo);
            e.i64(d.hi);
        }
        e.u64(nest.body.len() as u64);
        for stmt in &nest.body {
            e.str(&statement_to_string(stmt, &canonical, &vars));
            let flags = collect_flags(stmt);
            e.u64(flags.len() as u64);
            for f in flags {
                e.u8(u8::from(f));
            }
        }
    }

    // Inspector data.
    match &req.data {
        None => e.u8(0),
        Some(data) => {
            e.u8(1);
            e.u64(data.array_count() as u64);
            for k in 0..data.array_count() {
                let id = dmcp_ir::ArrayId::from_index(k);
                let len = data.len_of(id);
                e.u64(len);
                for elem in 0..len {
                    e.f64(data.get(id, elem));
                }
            }
        }
    }

    // Machine.
    let m = &req.machine;
    e.u16(m.mesh.cols());
    e.u16(m.mesh.rows());
    e.u8(match m.cluster {
        ClusterMode::AllToAll => 0,
        ClusterMode::Quadrant => 1,
        ClusterMode::Snc4 => 2,
    });
    e.u32(m.cache_line);
    e.u32(m.page_size);
    e.u32(m.l1_bytes);
    e.u32(m.l1_ways);
    e.u32(m.l2_bank_bytes);
    e.u32(m.l2_ways);
    for v in [
        m.latency.hop,
        m.latency.l1_hit,
        m.latency.l2_hit,
        m.latency.fast_mem,
        m.latency.slow_mem,
        m.latency.sync,
        m.latency.op,
        m.latency.div_factor,
        m.latency.contention,
    ] {
        e.f64(v);
    }
    for v in [
        m.energy.link,
        m.energy.l1,
        m.energy.l2,
        m.energy.fast_mem,
        m.energy.slow_mem,
        m.energy.op,
        m.energy.static_per_cycle,
    ] {
        e.f64(v);
    }

    // Partitioner configuration.
    let c = &req.config;
    e.u8(match c.page_policy {
        PagePolicy::ColorPreserving => 0,
        PagePolicy::Scramble => 1,
    });
    e.u8(u8::from(c.opts.reuse_aware));
    e.u8(u8::from(c.opts.ideal_analysis));
    e.f64(c.opts.balance_threshold);
    e.f64(c.opts.split_threshold);
    // Byte 1 was a removed predictor; decoding refuses it.
    e.u8(match c.predictor {
        PredictorSpec::Reuse => 0,
        PredictorSpec::AlwaysHit => 2,
    });
    e.u64(c.max_window as u64);
    e.u64(c.search_sample);
    match c.fixed_window {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            e.u64(w as u64);
        }
    }
    match &c.assignment {
        None => e.u8(0),
        Some(nodes) => {
            e.u8(1);
            e.u64(nodes.len() as u64);
            for &n in nodes {
                enc_node(&mut e, n);
            }
        }
    }

    // Faults.
    match &req.faults {
        None => e.u8(0),
        Some(plan) => {
            e.u8(1);
            e.u64(plan.seed());
            let dead_nodes: Vec<NodeId> = plan.dead_nodes().collect();
            e.u64(dead_nodes.len() as u64);
            for n in dead_nodes {
                enc_node(&mut e, n);
            }
            let dead_links: Vec<(NodeId, NodeId)> = plan.dead_links().collect();
            e.u64(dead_links.len() as u64);
            for (a, b) in dead_links {
                enc_node(&mut e, a);
                enc_node(&mut e, b);
            }
            let lossy: Vec<(NodeId, NodeId, f64)> = plan.lossy_links().collect();
            e.u64(lossy.len() as u64);
            for (a, b, p) in lossy {
                enc_node(&mut e, a);
                enc_node(&mut e, b);
                e.f64(p);
            }
        }
    }

    e.finish()
}

/// Decodes a [`PlanRequest`]. Total: every malformed input is a typed
/// error.
///
/// # Errors
///
/// [`CodecError`] on truncated, oversized or structurally invalid input.
pub fn decode_request(bytes: &[u8]) -> Result<PlanRequest, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != REQUEST_CODEC_V2 {
        return Err(CodecError::BadVersion("request", version));
    }

    // Program.
    let mut b = ProgramBuilder::new();
    let narrays = d.len("arrays", 14)?;
    for k in 0..narrays {
        let ndims = d.len("array dims", 8)?;
        if ndims == 0 {
            return Err(CodecError::Invalid(format!("array {k} has no dimensions")));
        }
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let ext = d.u64()?;
            if ext == 0 || ext > 1 << 32 {
                return Err(CodecError::Invalid(format!("array {k} extent {ext} out of range")));
            }
            dims.push(ext);
        }
        let total: u64 = dims.iter().product();
        if total > 1 << 32 {
            return Err(CodecError::Invalid(format!("array {k} has {total} elements")));
        }
        let elem_size = d.u32()?;
        if elem_size == 0 || elem_size > 4096 {
            return Err(CodecError::Invalid(format!("array {k} elem size {elem_size}")));
        }
        let hot = d.u8()? != 0;
        if hot {
            b.hot_array(array_name(k), &dims, elem_size);
        } else {
            b.array(array_name(k), &dims, elem_size);
        }
    }
    let nnests = d.len("nests", 17)?;
    struct NestFlags {
        per_stmt: Vec<Vec<bool>>,
    }
    let mut all_flags: Vec<NestFlags> = Vec::with_capacity(nnests);
    for _ in 0..nnests {
        let ndims = d.len("nest dims", 16)?;
        if ndims == 0 {
            return Err(CodecError::Invalid("nest has no loops".into()));
        }
        let mut bounds = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let lo = d.i64()?;
            let hi = d.i64()?;
            bounds.push((lo, hi));
        }
        let vars: Vec<String> = (0..ndims).map(var_name).collect();
        let loops: Vec<(&str, i64, i64)> =
            vars.iter().zip(&bounds).map(|(v, &(lo, hi))| (v.as_str(), lo, hi)).collect();
        let nstmts = d.len("statements", 9)?;
        let mut texts = Vec::with_capacity(nstmts);
        let mut per_stmt = Vec::with_capacity(nstmts);
        for _ in 0..nstmts {
            texts.push(d.str("statement")?.to_string());
            let nflags = d.len("flags", 1)?;
            let mut flags = Vec::with_capacity(nflags);
            for _ in 0..nflags {
                flags.push(d.u8()? != 0);
            }
            per_stmt.push(flags);
        }
        let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        b.nest(&loops, &text_refs).map_err(|e| CodecError::Parse(e.to_string()))?;
        all_flags.push(NestFlags { per_stmt });
    }
    let mut program = b.build();
    for (nest, flags) in program.nests_mut().iter_mut().zip(&all_flags) {
        if nest.body.len() != flags.per_stmt.len() {
            return Err(CodecError::Invalid("statement count drifted across reparse".into()));
        }
        for (stmt, flags) in nest.body.iter_mut().zip(&flags.per_stmt) {
            let mut k = 0usize;
            let mut mismatch = false;
            stmt.for_each_ref_mut(&mut |r| {
                match flags.get(k) {
                    Some(&f) => r.analyzable = f,
                    None => mismatch = true,
                }
                k += 1;
            });
            if mismatch || k != flags.len() {
                return Err(CodecError::Invalid(format!(
                    "statement has {k} references but {} flags",
                    flags.len()
                )));
            }
        }
    }

    // Inspector data.
    let data = match d.u8()? {
        0 => None,
        1 => {
            let count = d.len("data arrays", 8)?;
            if count != program.arrays().len() {
                return Err(CodecError::Invalid(format!(
                    "data covers {count} arrays, program declares {}",
                    program.arrays().len()
                )));
            }
            let mut store = program.initial_data();
            for k in 0..count {
                let id = dmcp_ir::ArrayId::from_index(k);
                let len = d.len("data elements", 8)? as u64;
                if len != store.len_of(id) {
                    return Err(CodecError::Invalid(format!(
                        "data array {k} has {len} elements, declared {}",
                        store.len_of(id)
                    )));
                }
                let mut values = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    values.push(d.f64()?);
                }
                store.fill(id, &values);
            }
            Some(store)
        }
        other => return Err(CodecError::BadTag("data presence", other)),
    };

    // Machine.
    let cols = d.u16()?;
    let rows = d.u16()?;
    if cols == 0 || rows == 0 || u32::from(cols) * u32::from(rows) < 4 || cols > 256 || rows > 256 {
        return Err(CodecError::Invalid(format!("mesh {cols}x{rows} out of range")));
    }
    let mesh = Mesh::new(cols, rows);
    let cluster = match d.u8()? {
        0 => ClusterMode::AllToAll,
        1 => ClusterMode::Quadrant,
        2 => ClusterMode::Snc4,
        other => return Err(CodecError::BadTag("cluster mode", other)),
    };
    let mut machine = MachineConfig::knl_like().with_mesh(mesh).with_cluster(cluster);
    machine.cache_line = d.u32()?;
    machine.page_size = d.u32()?;
    machine.l1_bytes = d.u32()?;
    machine.l1_ways = d.u32()?;
    machine.l2_bank_bytes = d.u32()?;
    machine.l2_ways = d.u32()?;
    if machine.cache_line == 0 || machine.l1_ways == 0 || machine.l2_ways == 0 {
        return Err(CodecError::Invalid("zero cache geometry".into()));
    }
    machine.latency.hop = d.f64()?;
    machine.latency.l1_hit = d.f64()?;
    machine.latency.l2_hit = d.f64()?;
    machine.latency.fast_mem = d.f64()?;
    machine.latency.slow_mem = d.f64()?;
    machine.latency.sync = d.f64()?;
    machine.latency.op = d.f64()?;
    machine.latency.div_factor = d.f64()?;
    machine.latency.contention = d.f64()?;
    machine.energy.link = d.f64()?;
    machine.energy.l1 = d.f64()?;
    machine.energy.l2 = d.f64()?;
    machine.energy.fast_mem = d.f64()?;
    machine.energy.slow_mem = d.f64()?;
    machine.energy.op = d.f64()?;
    machine.energy.static_per_cycle = d.f64()?;

    // Partitioner configuration.
    let mut config = PartitionConfig {
        page_policy: match d.u8()? {
            0 => PagePolicy::ColorPreserving,
            1 => PagePolicy::Scramble,
            other => return Err(CodecError::BadTag("page policy", other)),
        },
        ..PartitionConfig::default()
    };
    config.opts.reuse_aware = d.u8()? != 0;
    config.opts.ideal_analysis = d.u8()? != 0;
    config.opts.balance_threshold = d.f64()?;
    config.opts.split_threshold = d.f64()?;
    config.predictor = match d.u8()? {
        0 => PredictorSpec::Reuse,
        2 => PredictorSpec::AlwaysHit,
        other => return Err(CodecError::BadTag("predictor", other)),
    };
    config.max_window = d.u64()? as usize;
    config.search_sample = d.u64()?;
    config.fixed_window = match d.u8()? {
        0 => None,
        1 => Some(d.u64()? as usize),
        other => return Err(CodecError::BadTag("fixed window", other)),
    };
    config.assignment = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len("assignment", 4)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                let node = dec_node(&mut d)?;
                if node.x() >= cols || node.y() >= rows {
                    return Err(CodecError::Invalid(format!("assignment node {node:?} off mesh")));
                }
                nodes.push(node);
            }
            Some(nodes)
        }
        other => return Err(CodecError::BadTag("assignment", other)),
    };

    // Faults.
    let faults = match d.u8()? {
        0 => None,
        1 => {
            let seed = d.u64()?;
            let mut plan = FaultPlan::with_seed(seed);
            let off_mesh = |n: NodeId| n.x() >= cols || n.y() >= rows;
            for _ in 0..d.len("dead nodes", 4)? {
                let n = dec_node(&mut d)?;
                if off_mesh(n) {
                    return Err(CodecError::Invalid(format!("dead node {n:?} off mesh")));
                }
                plan.kill_node(n);
            }
            for _ in 0..d.len("dead links", 8)? {
                let a = dec_node(&mut d)?;
                let b = dec_node(&mut d)?;
                if off_mesh(a) || off_mesh(b) {
                    return Err(CodecError::Invalid("dead link endpoint off mesh".into()));
                }
                plan.kill_link(a, b);
            }
            for _ in 0..d.len("lossy links", 16)? {
                let a = dec_node(&mut d)?;
                let b = dec_node(&mut d)?;
                let p = d.f64()?;
                if off_mesh(a) || off_mesh(b) {
                    return Err(CodecError::Invalid("lossy link endpoint off mesh".into()));
                }
                if !(0.0..=1.0).contains(&p) {
                    return Err(CodecError::Invalid(format!("drop probability {p}")));
                }
                plan.lossy_link(a, b, p);
            }
            Some(plan)
        }
        other => return Err(CodecError::BadTag("fault presence", other)),
    };
    d.finish("request")?;

    let mut req = PlanRequest::new(program, machine, config);
    req.data = data;
    req.faults = faults;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Step flag: an accumulator seed (raw `f64` bits) follows the node.
const STEP_SEED: u8 = 1;
/// Step flag: the step stores its result; the target follows the inputs.
const STEP_STORE: u8 = 1 << 1;
/// Step flag: the store's array is in fast memory (only with `STEP_STORE`).
const STEP_STORE_HOT: u8 = 1 << 2;
/// Step flag: a list of waits follows the store.
const STEP_WAITS: u8 = 1 << 3;
/// Step flag: the step's tag equals the previous step's, so none follows.
const STEP_SAME_TAG: u8 = 1 << 4;
const STEP_FLAGS: u8 = STEP_SEED | STEP_STORE | STEP_STORE_HOT | STEP_WAITS | STEP_SAME_TAG;

/// Operand kinds in bits 4–6 of an input byte; bits 0–3 hold the operator.
const OPERAND_CONST: u8 = 0;
const OPERAND_ELEM: u8 = 1 << 4;
const OPERAND_TEMP: u8 = 2 << 4;
/// Input-byte bit: the element's array is in fast memory (elements only).
const OPERAND_HOT: u8 = 1 << 6;

/// Least bytes one encoded step, input, record and nest can take; a count
/// promising more than the remaining bytes hold is refused before anything
/// is reserved.
const MIN_STEP_BYTES: usize = 4;
const MIN_INPUT_BYTES: usize = 2;
const MIN_RECORD_BYTES: usize = 14;
const MIN_NEST_BYTES: usize = 14;

/// What a nest's steps are delta-coded against: the last element and line
/// address written (operands and stores alike) and the last step's tag.
/// Encoder and decoder start every nest from the default and update it in
/// the same order.
#[derive(Default)]
struct Deltas {
    elem: u64,
    line: u64,
    tag: StmtTag,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `value` as a zigzag varint of its wrapping distance from `*prev`
/// — a bijection on `u64`, so every address has exactly one encoding.
fn enc_addr(e: &mut Enc, prev: &mut u64, value: u64) {
    e.varint(zigzag(value.wrapping_sub(*prev) as i64));
    *prev = value;
}

fn dec_addr(d: &mut Dec<'_>, prev: &mut u64) -> Result<u64, CodecError> {
    let value = prev.wrapping_add(unzigzag(d.varint("address delta")?) as u64);
    *prev = value;
    Ok(value)
}

fn enc_node_varint(e: &mut Enc, n: NodeId) {
    e.varint(n.x().into());
    e.varint(n.y().into());
}

fn dec_node_varint(d: &mut Dec<'_>) -> Result<NodeId, CodecError> {
    let x = d.varint_below("node x", 1 << 16)? as u16;
    let y = d.varint_below("node y", 1 << 16)? as u16;
    Ok(NodeId::new(x, y))
}

fn dec_array(d: &mut Dec<'_>) -> Result<dmcp_ir::ArrayId, CodecError> {
    Ok(dmcp_ir::ArrayId::from_index(d.varint_u32("array")? as usize))
}

fn enc_tag(e: &mut Enc, t: StmtTag) {
    e.varint(t.nest.into());
    e.varint(t.stmt.into());
    e.varint(t.instance);
}

fn dec_tag(d: &mut Dec<'_>) -> Result<StmtTag, CodecError> {
    Ok(StmtTag {
        nest: d.varint_u32("tag nest")?,
        stmt: d.varint_u32("tag statement")?,
        instance: d.varint("tag instance")?,
    })
}

fn enc_opmix(e: &mut Enc, m: &OpMix) {
    e.varint(m.add_sub);
    e.varint(m.mul_div);
    e.varint(m.other);
}

fn dec_opmix(d: &mut Dec<'_>) -> Result<OpMix, CodecError> {
    Ok(OpMix {
        add_sub: d.varint("op mix")?,
        mul_div: d.varint("op mix")?,
        other: d.varint("op mix")?,
    })
}

/// The backward distance from step `k` to its producer `p`, which a valid
/// schedule places strictly earlier.
fn back(k: usize, p: SubId) -> u64 {
    assert!(p.index() < k, "encode_plan: step {k} depends on later step {p:?}");
    (k - p.index()) as u64
}

/// Reads a backward distance from step `k`: at least 1 and at most `k`.
fn dec_back(d: &mut Dec<'_>, k: usize, what: &'static str) -> Result<SubId, CodecError> {
    let distance = d.varint(what)?;
    if distance == 0 || distance > k as u64 {
        return Err(CodecError::Distance(what, distance));
    }
    Ok(SubId((k as u64 - distance) as u32))
}

/// Encodes a compiled plan — these are the "plan bytes" the wire protocol
/// serves and the disk tier persists. The layout is described in the
/// module docs.
///
/// # Panics
///
/// Panics on a schedule that [`Schedule::validate`] refuses for its ids,
/// spans or producers (a step whose id is not its position, an input or
/// wait span outside its buffer, or a `Temp` input or wait that does not
/// point backwards): the layout has no way to write one, and the planner
/// never builds one.
#[must_use]
pub fn encode_plan(plan: &PartitionOutput) -> Vec<u8> {
    let steps: usize = plan.nests.iter().map(|n| n.schedule.steps.len()).sum();
    let records: usize = plan.nests.iter().map(|n| n.stats.records.len()).sum();
    let mut e = Enc::with_capacity(16 + 32 * steps + 24 * records);
    e.u8(PLAN_CODEC_V2);
    e.varint(plan.nests.len() as u64);
    for nest in &plan.nests {
        e.varint(nest.nest as u64);
        enc_schedule(&mut e, &nest.schedule);
        enc_nest_stats(&mut e, &nest.stats);
    }
    e.finish()
}

fn enc_schedule(e: &mut Enc, schedule: &Schedule) {
    e.varint(schedule.steps.len() as u64);
    let mut prev = Deltas::default();
    for (k, step) in schedule.steps.iter().enumerate() {
        assert_eq!(step.id.index(), k, "encode_plan: step {k} has id {:?}", step.id);
        let (inputs, waits) = (schedule.inputs_of(step), schedule.waits_of(step));
        let mut flags = 0;
        if step.seed.is_some() {
            flags |= STEP_SEED;
        }
        if let Some(s) = &step.store {
            flags |= if s.hot { STEP_STORE | STEP_STORE_HOT } else { STEP_STORE };
        }
        if !waits.is_empty() {
            flags |= STEP_WAITS;
        }
        if step.tag == prev.tag {
            flags |= STEP_SAME_TAG;
        }
        e.u8(flags);
        enc_node_varint(e, step.node);
        if let Some(seed) = step.seed {
            e.f64(seed);
        }
        e.varint(inputs.len() as u64);
        for input in inputs {
            let op = binop_to_u8(input.op);
            match input.operand {
                Operand::Const(v) => {
                    e.u8(op | OPERAND_CONST);
                    e.f64(v);
                }
                Operand::Elem(loc) => {
                    e.u8(op | OPERAND_ELEM | if loc.hot { OPERAND_HOT } else { 0 });
                    e.varint(loc.array.index() as u64);
                    enc_addr(e, &mut prev.elem, loc.elem);
                    enc_addr(e, &mut prev.line, loc.line.raw());
                    enc_node_varint(e, loc.believed);
                }
                Operand::Temp(id) => {
                    e.u8(op | OPERAND_TEMP);
                    e.varint(back(k, id));
                }
            }
        }
        if let Some(s) = &step.store {
            e.varint(s.array.index() as u64);
            enc_addr(e, &mut prev.elem, s.elem);
            enc_addr(e, &mut prev.line, s.line.raw());
            enc_node_varint(e, s.home);
        }
        if !waits.is_empty() {
            e.varint(waits.len() as u64);
            for &w in waits {
                e.varint(back(k, w));
            }
        }
        if step.tag != prev.tag {
            enc_tag(e, step.tag);
            prev.tag = step.tag;
        }
    }
}

fn enc_nest_stats(e: &mut Enc, s: &NestStats) {
    e.varint(s.window_size as u64);
    e.varint(s.movement_opt);
    e.varint(s.movement_default);
    e.varint(s.records.len() as u64);
    for r in &s.records {
        enc_tag(e, r.tag);
        e.varint(r.movement_opt);
        e.varint(r.movement_default);
        e.varint(r.parallelism.into());
        e.varint(r.step_count.into());
        e.varint(r.planned_l1_hits.into());
        enc_opmix(e, &r.remapped);
        e.u8(u8::from(r.fallback));
        e.varint(r.first_step.into());
        e.varint(r.last_step.into());
    }
    e.varint(s.syncs_before);
    e.varint(s.syncs_after);
    enc_opmix(e, &s.remapped);
    e.varint(s.planned_l1_hits);
    e.varint(s.fallback_count);
    e.varint(s.instances);
}

/// Decodes plan bytes back into a [`PartitionOutput`], bit-identical to
/// what [`encode_plan`] saw. Every input that decodes re-encodes to the
/// same bytes: varints must be minimal, flag and tag bytes exact, and a tag
/// equal to the previous step's must use the flag.
///
/// # Errors
///
/// [`CodecError`] on truncated, oversized, non-canonical or structurally
/// invalid input, and [`CodecError::BadVersion`] on the retired
/// fixed-width layout (leading byte 2).
pub fn decode_plan(bytes: &[u8]) -> Result<PartitionOutput, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != PLAN_CODEC_V2 {
        return Err(CodecError::BadVersion("plan", version));
    }
    let nnests = d.count("plan nests", MIN_NEST_BYTES)?;
    let mut nests = Vec::with_capacity(nnests);
    for _ in 0..nnests {
        let nest = usize::try_from(d.varint("nest index")?)
            .map_err(|_| CodecError::Varint("nest index"))?;
        let schedule = dec_schedule(&mut d)?;
        let stats = dec_nest_stats(&mut d)?;
        nests.push(NestPartition { nest, schedule, stats });
    }
    d.finish("plan")?;
    Ok(PartitionOutput::new(nests))
}

/// Decodes a schedule straight into its three buffers, which come back
/// without growth slack.
fn dec_schedule(d: &mut Dec<'_>) -> Result<Schedule, CodecError> {
    let nsteps = d.count("steps", MIN_STEP_BYTES)?;
    let mut schedule = Schedule { steps: Vec::with_capacity(nsteps), ..Schedule::default() };
    let mut prev = Deltas::default();
    for k in 0..nsteps {
        let flags = d.u8()?;
        if flags & !STEP_FLAGS != 0 || flags & (STEP_STORE | STEP_STORE_HOT) == STEP_STORE_HOT {
            return Err(CodecError::BadTag("step flags", flags));
        }
        let node = dec_node_varint(d)?;
        let seed = if flags & STEP_SEED != 0 { Some(d.f64()?) } else { None };
        let ninputs = d.count("inputs", MIN_INPUT_BYTES)?;
        for _ in 0..ninputs {
            let byte = d.u8()?;
            let op = binop_from_u8(byte & 0x0F)?;
            let operand = match byte & 0xF0 {
                OPERAND_CONST => Operand::Const(d.f64()?),
                OPERAND_TEMP => Operand::Temp(dec_back(d, k, "temp")?),
                kind if kind & !OPERAND_HOT == OPERAND_ELEM => {
                    let array = dec_array(d)?;
                    let elem = dec_addr(d, &mut prev.elem)?;
                    let line = LineAddr::new(dec_addr(d, &mut prev.line)?);
                    let believed = dec_node_varint(d)?;
                    Operand::Elem(ElemLoc {
                        array,
                        elem,
                        line,
                        believed,
                        hot: kind != OPERAND_ELEM,
                    })
                }
                _ => return Err(CodecError::BadTag("operand", byte)),
            };
            schedule.push_input(StepInput { op, operand });
        }
        let store = if flags & STEP_STORE != 0 {
            let array = dec_array(d)?;
            let elem = dec_addr(d, &mut prev.elem)?;
            let line = LineAddr::new(dec_addr(d, &mut prev.line)?);
            let home = dec_node_varint(d)?;
            Some(StoreTarget { array, elem, line, home, hot: flags & STEP_STORE_HOT != 0 })
        } else {
            None
        };
        if flags & STEP_WAITS != 0 {
            let n = d.count("waits", 1)?;
            if n == 0 {
                return Err(CodecError::Invalid(format!("step {k} flags waits but lists none")));
            }
            for _ in 0..n {
                schedule.push_wait(dec_back(d, k, "wait")?);
            }
        }
        if flags & STEP_SAME_TAG == 0 {
            let tag = dec_tag(d)?;
            if tag == prev.tag {
                return Err(CodecError::Invalid(format!("step {k} spells out the previous tag")));
            }
            prev.tag = tag;
        }
        schedule.push_step(node, seed, store, prev.tag);
    }
    schedule.shrink_to_fit();
    Ok(schedule)
}

fn dec_nest_stats(d: &mut Dec<'_>) -> Result<NestStats, CodecError> {
    let window_size =
        usize::try_from(d.varint("window size")?).map_err(|_| CodecError::Varint("window size"))?;
    let movement_opt = d.varint("movement")?;
    let movement_default = d.varint("movement")?;
    let nrecords = d.count("records", MIN_RECORD_BYTES)?;
    let mut records = Vec::with_capacity(nrecords);
    for _ in 0..nrecords {
        let tag = dec_tag(d)?;
        let movement_opt = d.varint("record movement")?;
        let movement_default = d.varint("record movement")?;
        let parallelism = d.varint_u32("parallelism")?;
        let step_count = d.varint_u32("step count")?;
        let planned_l1_hits = d.varint_u32("planned L1 hits")?;
        let remapped = dec_opmix(d)?;
        let fallback = d.bool("fallback")?;
        let first_step = d.varint_u32("first step")?;
        let last_step = d.varint_u32("last step")?;
        records.push(StmtRecord {
            tag,
            movement_opt,
            movement_default,
            parallelism,
            step_count,
            planned_l1_hits,
            remapped,
            fallback,
            first_step,
            last_step,
        });
    }
    Ok(NestStats {
        window_size,
        movement_opt,
        movement_default,
        records,
        syncs_before: d.varint("syncs")?,
        syncs_after: d.varint("syncs")?,
        remapped: dec_opmix(d)?,
        planned_l1_hits: d.varint("planned L1 hits")?,
        fallback_count: d.varint("fallback count")?,
        instances: d.varint("instances")?,
    })
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Encodes a service-stats snapshot (the wire `Stats` response).
#[must_use]
pub fn encode_stats(s: &ServeStats) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(STATS_CODEC_V2);
    for v in [
        s.cache.hits,
        s.cache.misses,
        s.cache.insertions,
        s.cache.evictions,
        s.cache.entries,
        s.cache.bytes,
        s.compiles,
        s.shared,
        s.submitted,
        s.rejected,
        s.timeouts,
        s.disk.hits,
        s.disk.misses,
        s.disk.writes,
        s.disk.corrupt_drops,
        s.disk.records,
        s.disk.bytes,
        s.disk.recovered_records,
        s.disk.truncated_bytes,
        // v2 additions: chaos-era counters.
        s.panics,
        s.disk.errors,
        s.disk.quarantined_segments,
        s.disk.pending_records,
        u64::from(s.disk.degraded),
    ] {
        e.u64(v);
    }
    e.finish()
}

/// Decodes a service-stats snapshot.
///
/// # Errors
///
/// [`CodecError`] on truncated, over-long or version-mismatched input.
pub fn decode_stats(bytes: &[u8]) -> Result<ServeStats, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != STATS_CODEC_V2 {
        return Err(CodecError::BadVersion("stats", version));
    }
    let cache = CacheStats {
        hits: d.u64()?,
        misses: d.u64()?,
        insertions: d.u64()?,
        evictions: d.u64()?,
        entries: d.u64()?,
        bytes: d.u64()?,
    };
    let compiles = d.u64()?;
    let shared = d.u64()?;
    let submitted = d.u64()?;
    let rejected = d.u64()?;
    let timeouts = d.u64()?;
    let mut disk = DiskStats {
        hits: d.u64()?,
        misses: d.u64()?,
        writes: d.u64()?,
        corrupt_drops: d.u64()?,
        records: d.u64()?,
        bytes: d.u64()?,
        recovered_records: d.u64()?,
        truncated_bytes: d.u64()?,
        ..DiskStats::default()
    };
    let panics = d.u64()?;
    disk.errors = d.u64()?;
    disk.quarantined_segments = d.u64()?;
    disk.pending_records = d.u64()?;
    disk.degraded = d.u64()? != 0;
    d.finish("stats")?;
    Ok(ServeStats { cache, compiles, shared, submitted, rejected, timeouts, panics, disk })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_mach::rng::Rng64;
    use dmcp_workloads::Scale;

    fn suite_requests() -> Vec<PlanRequest> {
        dmcp_workloads::all(Scale::Tiny)
            .into_iter()
            .map(|w| {
                PlanRequest::new(w.program, MachineConfig::knl_like(), <_>::default())
                    .with_data(w.data)
            })
            .collect()
    }

    #[test]
    fn request_roundtrip_preserves_plan_key_for_the_suite() {
        for req in suite_requests() {
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).expect("roundtrip decodes");
            assert_eq!(req.key(), decoded.key(), "wire transport must not change the key");
        }
    }

    #[test]
    fn request_roundtrip_preserves_faults_and_config() {
        let mut req = suite_requests().remove(0);
        let mut faults = FaultPlan::with_seed(0xFA17);
        faults.kill_node(NodeId::new(1, 2));
        faults.kill_link(NodeId::new(0, 0), NodeId::new(0, 1));
        faults.lossy_link(NodeId::new(3, 3), NodeId::new(3, 4), 0.25);
        req.faults = Some(faults);
        req.config.fixed_window = Some(4);
        req.config.opts.reuse_aware = false;
        let decoded = decode_request(&encode_request(&req)).expect("decodes");
        assert_eq!(req.key(), decoded.key());
        assert_eq!(decoded.config.fixed_window, Some(4));
        assert!(!decoded.config.opts.reuse_aware);
        let f = decoded.faults.expect("faults survive");
        assert_eq!(f.seed(), 0xFA17);
        assert_eq!(f.dead_nodes().count(), 1);
        assert_eq!(f.dead_links().count(), 1);
        assert_eq!(f.lossy_links().count(), 1);
    }

    #[test]
    fn removed_predictor_byte_is_refused() {
        let mut req = suite_requests().remove(0);
        let reuse = encode_request(&req);
        req.config.predictor = PredictorSpec::AlwaysHit;
        let always_hit = encode_request(&req);
        // The two encodings differ only in the predictor byte (0 vs 2).
        let at: Vec<usize> = (0..reuse.len()).filter(|&i| reuse[i] != always_hit[i]).collect();
        assert_eq!((reuse.len(), at.len()), (always_hit.len(), 1));
        let mut bytes = reuse;
        bytes[at[0]] = 1;
        assert!(matches!(decode_request(&bytes), Err(CodecError::BadTag("predictor", 1))));
    }

    #[test]
    fn plan_roundtrip_is_bit_identical_for_the_suite() {
        let service = crate::PlanService::new(crate::ServeConfig::default());
        for req in suite_requests() {
            let plan = service.plan(req).expect("compiles");
            let decoded = decode_plan(&encode_plan(&plan)).expect("plan decodes");
            assert_eq!(*plan, decoded, "plan bytes must round-trip bit-identically");
            assert_eq!(plan.window_sizes(), decoded.window_sizes());
        }
        service.shutdown();
    }

    #[test]
    fn decoded_request_compiles_the_identical_plan() {
        let service = crate::PlanService::new(crate::ServeConfig::default());
        let req = suite_requests().remove(3);
        let direct = service.plan_uncached(&req).expect("direct");
        let decoded = decode_request(&encode_request(&req)).expect("decodes");
        let via_wire = service.plan_uncached(&decoded).expect("decoded compiles");
        assert_eq!(direct, via_wire, "transport must not change the compiled plan");
        service.shutdown();
    }

    #[test]
    fn unbounded_max_window_from_the_wire_compiles_like_search_sample() {
        // A request may name any window bound. The search stops at the
        // instances a trial places, so u64::MAX costs what `search_sample`
        // does instead of exhausting memory, and plans the same.
        let service = crate::PlanService::new(crate::ServeConfig::default());
        let mut req = suite_requests().remove(3);
        req.config.search_sample = 64;
        req.config.max_window = 64;
        let bounded = service.plan_uncached(&req).expect("bounded compiles");
        req.config.max_window = usize::MAX;
        let decoded = decode_request(&encode_request(&req)).expect("decodes");
        assert_eq!(decoded.config.max_window as u64, u64::MAX);
        let unbounded = service.plan_uncached(&decoded).expect("unbounded compiles");
        assert_eq!(bounded, unbounded);
        service.shutdown();
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = ServeStats { compiles: 7, panics: 1, ..ServeStats::default() };
        s.cache.hits = 11;
        s.disk.hits = 3;
        s.disk.truncated_bytes = 17;
        s.disk.errors = 5;
        s.disk.quarantined_segments = 2;
        s.disk.pending_records = 9;
        s.disk.degraded = true;
        s.timeouts = 2;
        let decoded = decode_stats(&encode_stats(&s)).expect("decodes");
        assert_eq!(format!("{s:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn decoders_survive_random_byte_soup() {
        let mut rng = Rng64::new(0x50_0050);
        for round in 0..256 {
            let len = rng.gen_range(512) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // Must return a typed error (or, vanishingly unlikely, decode) —
            // never panic or allocate unboundedly.
            let _ = decode_request(&bytes);
            let _ = decode_plan(&bytes);
            let _ = decode_stats(&bytes);
            let _ = round;
            // Behind a valid plan version byte the soup reaches the step
            // decoder; whatever decodes must re-encode to the same bytes.
            let mut plan_soup = vec![PLAN_CODEC_V2];
            plan_soup.extend_from_slice(&bytes);
            if let Ok(plan) = decode_plan(&plan_soup) {
                assert_eq!(encode_plan(&plan), plan_soup);
            }
        }
    }

    #[test]
    fn truncation_of_a_valid_request_is_always_a_typed_error() {
        let req = suite_requests().remove(0);
        let bytes = encode_request(&req);
        for cut in [0, 1, 2, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_request(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut e = Enc::new();
        e.u8(REQUEST_CODEC_V2);
        e.u64(u64::MAX); // array count far beyond the remaining bytes
        let err = decode_request(&e.finish()).unwrap_err();
        assert_eq!(err, CodecError::Oversized("arrays"));
    }

    #[test]
    fn first_layout_requests_are_refused_by_version() {
        // A request in the first layout leads with byte 1; whatever
        // follows, it must never decode under the current field order.
        let mut bytes = encode_request(&suite_requests().remove(2));
        bytes[0] = 1;
        assert_eq!(decode_request(&bytes).unwrap_err(), CodecError::BadVersion("request", 1));
        let kinds = [REQUEST_CODEC_V2, PLAN_CODEC_V2, STATS_CODEC_V2];
        assert!(!kinds.iter().any(|k| [1, 2, 3].contains(k)), "retired bytes must stay unused");
        assert_eq!(
            kinds.iter().collect::<std::collections::HashSet<_>>().len(),
            kinds.len(),
            "requests, plans and stats need distinct leading bytes"
        );
    }

    #[test]
    fn fixed_width_plans_are_refused_by_version() {
        // The fixed-width first layout led with byte 2; a disk record or
        // reply carrying one must never be read as the compact layout.
        let mut bytes = encode_plan(&feature_plan());
        bytes[0] = 2;
        assert_eq!(decode_plan(&bytes).unwrap_err(), CodecError::BadVersion("plan", 2));
    }

    /// A small plan that sets every flag and operand kind of the layout:
    /// seeds and none, hot and cold elements and stores, temps, waits,
    /// repeated and fresh tags, addresses that jump backwards and across
    /// the whole `u64` range, raw NaN bits, a fallback record and an empty
    /// nest.
    fn feature_plan() -> PartitionOutput {
        use dmcp_ir::ArrayId;
        let elem = |array, elem, line, hot| {
            Operand::Elem(ElemLoc {
                array: ArrayId::from_index(array),
                elem,
                line: LineAddr::new(line),
                believed: NodeId::new(3, 5),
                hot,
            })
        };
        let store = |elem, line, hot| StoreTarget {
            array: ArrayId::from_index(0),
            elem,
            line: LineAddr::new(line),
            home: NodeId::new(1, 1),
            hot,
        };
        let input = |op, operand| StepInput { op, operand };
        let tag = |instance| StmtTag { nest: 1, stmt: (instance % 2) as u32, instance };
        let mut schedule = Schedule::default();
        let mut step = |node, seed, inputs: Vec<StepInput>, store, waits: Vec<u32>, tag| {
            inputs.into_iter().for_each(|i| schedule.push_input(i));
            waits.into_iter().for_each(|w| schedule.push_wait(SubId(w)));
            schedule.push_step(node, seed, store, tag);
        };
        step(
            NodeId::new(0, 0),
            Some(0.0),
            vec![
                input(BinOp::Add, elem(0, 10, 100, false)),
                input(BinOp::Mul, elem(1, u64::MAX, 3, true)),
            ],
            None,
            vec![],
            tag(0),
        );
        step(
            NodeId::new(300, 2),
            None,
            vec![
                input(BinOp::Add, Operand::Temp(SubId(0))),
                input(BinOp::Shl, Operand::Const(-2.5)),
            ],
            Some(store(5, 0, true)),
            vec![],
            tag(0),
        );
        step(
            NodeId::new(u16::MAX, 0),
            Some(1.5),
            vec![
                input(BinOp::Sub, Operand::Temp(SubId(1))),
                input(BinOp::Div, elem(2, 7, 1 << 40, false)),
            ],
            Some(store(0, 1 << 63, false)),
            vec![0, 1],
            tag(1),
        );
        step(
            NodeId::new(2, 4),
            None,
            vec![input(BinOp::Or, Operand::Const(f64::from_bits(0x7FF8_0000_DEAD_BEEF)))],
            None,
            vec![2],
            tag(1),
        );
        let record = |instance, fallback| StmtRecord {
            tag: tag(instance),
            movement_opt: 4,
            movement_default: 300,
            parallelism: 2,
            step_count: 2,
            planned_l1_hits: 1,
            remapped: OpMix { add_sub: 1, mul_div: 0, other: u64::MAX },
            fallback,
            first_step: 2 * instance as u32,
            last_step: 2 * instance as u32 + 2,
        };
        let stats = NestStats {
            window_size: 3,
            movement_opt: 12,
            movement_default: 600,
            records: vec![record(0, false), record(1, true)],
            syncs_before: 5,
            syncs_after: 2,
            remapped: OpMix { add_sub: 1, mul_div: 2, other: 3 },
            planned_l1_hits: 7,
            fallback_count: 1,
            instances: 2,
        };
        PartitionOutput::new(vec![
            NestPartition { nest: 1, schedule, stats },
            NestPartition { nest: 4, schedule: Schedule::default(), stats: NestStats::default() },
        ])
    }

    #[test]
    fn feature_plan_roundtrips_and_every_prefix_is_refused() {
        let plan = feature_plan();
        plan.nests.iter().for_each(|n| n.schedule.validate().expect("valid schedule"));
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes).expect("decodes");
        // NaN is not equal to itself: compare the printed plans, the bytes
        // and the NaN's raw bits.
        assert_eq!(format!("{decoded:?}"), format!("{plan:?}"));
        assert_eq!(encode_plan(&decoded), bytes);
        let schedule = &decoded.nests[0].schedule;
        let Operand::Const(nan) = schedule.inputs_of(&schedule.steps[3])[0].operand else {
            panic!("step 3 reads a constant");
        };
        assert_eq!(nan.to_bits(), 0x7FF8_0000_DEAD_BEEF, "raw NaN bits survive");
        for cut in 0..bytes.len() {
            assert!(decode_plan(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn truncated_suite_plans_are_refused() {
        let service = crate::PlanService::new(crate::ServeConfig::default());
        let plan = service.plan(suite_requests().remove(0)).expect("compiles");
        service.shutdown();
        let bytes = encode_plan(&plan);
        let cuts = (0..bytes.len()).filter(|&c| c < 4096 || c % 997 == 0 || c + 64 > bytes.len());
        for cut in cuts {
            assert!(decode_plan(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    /// Version, one nest (index 0), the steps `steps` writes, then empty
    /// stats.
    fn one_nest(steps: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(PLAN_CODEC_V2);
        e.varint(1);
        e.varint(0);
        steps(&mut e);
        for _ in 0..12 {
            e.varint(0); // window, movements, no records, totals
        }
        e.finish()
    }

    /// A step at node (0, 0) with the given flags and one `Const` input.
    fn const_step(e: &mut Enc, flags: u8) {
        e.u8(flags);
        e.varint(0);
        e.varint(0);
        e.varint(1);
        e.u8(binop_to_u8(BinOp::Add) | OPERAND_CONST);
        e.f64(1.0);
    }

    #[test]
    fn varints_must_be_minimal_and_fit() {
        let read = |bytes: &[u8]| Dec::new(bytes).varint("v");
        assert_eq!(read(&[0x00]), Ok(0));
        assert_eq!(read(&[0x7F]), Ok(0x7F));
        assert_eq!(read(&[0x80, 0x01]), Ok(0x80));
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(read(&max), Ok(u64::MAX));
        // Over-long: a zero final byte after a continuation.
        assert_eq!(read(&[0x80, 0x00]), Err(CodecError::Varint("v")));
        assert_eq!(read(&[0xFF, 0x80, 0x00]), Err(CodecError::Varint("v")));
        // Overflowing: bits beyond the 64th, or an 11th byte.
        let mut over = max;
        over[9] = 0x02;
        assert_eq!(read(&over), Err(CodecError::Varint("v")));
        let mut eleven = [0xFF; 11];
        eleven[10] = 0x01;
        assert_eq!(read(&eleven), Err(CodecError::Varint("v")));
        assert_eq!(read(&[0x80]), Err(CodecError::Truncated));
        assert_eq!(read(&[]), Err(CodecError::Truncated));
        // Out of a field's range.
        assert_eq!(
            Dec::new(&[0x80, 0x80, 0x04]).varint_below("x", 1 << 16),
            Err(CodecError::Varint("x"))
        );
        let mut e = Enc::new();
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            e.varint(v);
        }
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(d.varint("v"), Ok(v));
        }
        d.finish("varints").expect("all consumed");

        // In a plan: an over-long nest count, and a node past u16.
        let mut bytes = one_nest(|e| e.varint(0));
        bytes.splice(1..2, [0x81, 0x00]);
        assert_eq!(decode_plan(&bytes), Err(CodecError::Varint("plan nests")));
        let bytes = one_nest(|e| {
            e.varint(1);
            e.u8(0);
            e.varint(1 << 16);
        });
        assert_eq!(decode_plan(&bytes), Err(CodecError::Varint("node x")));
    }

    #[test]
    fn backward_distances_must_point_into_the_nest() {
        let temp_at_step_1 = |distance: u64| {
            one_nest(|e| {
                e.varint(2);
                const_step(e, STEP_SAME_TAG);
                e.u8(STEP_SAME_TAG);
                e.varint(0);
                e.varint(0);
                e.varint(1);
                e.u8(binop_to_u8(BinOp::Add) | OPERAND_TEMP);
                e.varint(distance);
            })
        };
        let plan = decode_plan(&temp_at_step_1(1)).expect("distance 1 is the previous step");
        let schedule = &plan.nests[0].schedule;
        assert_eq!(schedule.inputs_of(&schedule.steps[1])[0].operand, Operand::Temp(SubId(0)));
        assert_eq!(decode_plan(&temp_at_step_1(0)), Err(CodecError::Distance("temp", 0)));
        assert_eq!(decode_plan(&temp_at_step_1(2)), Err(CodecError::Distance("temp", 2)));

        let wait_at_step_0 = |distance: u64| {
            one_nest(|e| {
                e.varint(1);
                const_step(e, STEP_SAME_TAG | STEP_WAITS);
                e.varint(1);
                e.varint(distance);
            })
        };
        assert_eq!(decode_plan(&wait_at_step_0(0)), Err(CodecError::Distance("wait", 0)));
        assert_eq!(decode_plan(&wait_at_step_0(1)), Err(CodecError::Distance("wait", 1)));
    }

    #[test]
    fn non_canonical_spellings_are_refused() {
        let step = |flags: u8, tail: &dyn Fn(&mut Enc)| {
            one_nest(|e| {
                e.varint(1);
                const_step(e, flags);
                tail(e);
            })
        };
        let none = |_: &mut Enc| {};
        assert!(decode_plan(&step(STEP_SAME_TAG, &none)).is_ok());
        // Unknown flag bits, and a hot store without a store.
        assert!(matches!(
            decode_plan(&step(STEP_SAME_TAG | 0x80, &none)),
            Err(CodecError::BadTag(..))
        ));
        assert!(matches!(
            decode_plan(&step(STEP_SAME_TAG | STEP_STORE_HOT, &none)),
            Err(CodecError::BadTag(..))
        ));
        // A waits flag with an empty list.
        let empty = |e: &mut Enc| e.varint(0);
        assert!(matches!(
            decode_plan(&step(STEP_SAME_TAG | STEP_WAITS, &empty)),
            Err(CodecError::Invalid(_))
        ));
        // The default tag spelled out instead of flagged as repeated.
        let default_tag = |e: &mut Enc| enc_tag(e, StmtTag::default());
        assert!(matches!(decode_plan(&step(0, &default_tag)), Err(CodecError::Invalid(_))));
        // An operand byte with the hot bit on a constant, or an unknown kind.
        for byte in [OPERAND_CONST | OPERAND_HOT, 3 << 4, 0x80, 9] {
            let bytes = one_nest(|e| {
                e.varint(1);
                e.u8(STEP_SAME_TAG);
                e.varint(0);
                e.varint(0);
                e.varint(1);
                e.u8(byte);
                e.f64(1.0);
            });
            assert!(matches!(decode_plan(&bytes), Err(CodecError::BadTag(..))), "{byte:#x}");
        }
        // A fallback byte other than 0 or 1: find it as the one byte that
        // differs when the first record's flag flips.
        let plan = feature_plan();
        let mut flipped = plan.clone();
        flipped.nests[0].stats.records[0].fallback = true;
        let mut bytes = encode_plan(&plan);
        let flipped = encode_plan(&flipped);
        let at = (0..bytes.len()).find(|&i| bytes[i] != flipped[i]).expect("flag is written");
        assert_eq!((bytes[at], flipped[at]), (0, 1));
        bytes[at] = 2;
        assert!(matches!(decode_plan(&bytes), Err(CodecError::BadTag("fallback", 2))));
    }

    #[test]
    fn every_plan_that_decodes_has_exactly_one_encoding() {
        // Mutants of valid encodings reach deep into the layout; whichever
        // decode must re-encode to exactly the mutated bytes.
        let mut rng = Rng64::new(0x0DEC_0DE5);
        let service = crate::PlanService::new(crate::ServeConfig::default());
        let suite = service.plan(suite_requests().remove(5)).expect("compiles");
        service.shutdown();
        let mut decoded = 0;
        for (seed_bytes, rounds) in
            [(encode_plan(&feature_plan()), 4096), (encode_plan(&suite), 64)]
        {
            for _ in 0..rounds {
                let mut bytes = seed_bytes.clone();
                for _ in 0..1 + rng.gen_range(3) {
                    let at = rng.gen_range(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.gen_range(8);
                }
                if let Ok(plan) = decode_plan(&bytes) {
                    decoded += 1;
                    assert_eq!(encode_plan(&plan), bytes, "a second encoding decoded");
                }
            }
        }
        assert!(decoded > 100, "only {decoded} mutants decoded; the property is vacuous");
    }

    /// Checks that every schedule of `plan` has the flat layout
    /// [`Schedule::validate_layout`] demands and no buffer growth slack.
    fn assert_flat_and_exact(plan: &PartitionOutput, what: &str) {
        for nest in &plan.nests {
            let s = &nest.schedule;
            if let Err(e) = s.validate_layout() {
                panic!("{what}: nest {} has a broken layout: {e}", nest.nest);
            }
            let lens = (s.steps.len(), s.inputs.len(), s.waits.len(), nest.stats.records.len());
            let caps = (
                s.steps.capacity(),
                s.inputs.capacity(),
                s.waits.capacity(),
                nest.stats.records.capacity(),
            );
            assert_eq!(caps, lens, "{what}: nest {} carries growth slack", nest.nest);
        }
    }

    /// Whatever `decode_plan` accepts of the inputs the tests above feed it
    /// — the byte soup, the feature plan's prefixes and the 4,160 bit-flip
    /// mutants, drawn from the same seeds — has the flat layout and no
    /// growth slack, and so does every suite plan, as the planner returns
    /// it and as it decodes.
    #[test]
    fn decoded_and_planned_schedules_are_flat_and_exact() {
        let mut rng = Rng64::new(0x50_0050);
        for _ in 0..256 {
            let len = rng.gen_range(512) as usize;
            let mut bytes = vec![PLAN_CODEC_V2];
            bytes.extend((0..len).map(|_| rng.next_u64() as u8));
            for soup in [&bytes[1..], &bytes[..]] {
                if let Ok(plan) = decode_plan(soup) {
                    assert_flat_and_exact(&plan, "byte soup");
                }
            }
        }
        let feature = encode_plan(&feature_plan());
        for cut in 0..=feature.len() {
            if let Ok(plan) = decode_plan(&feature[..cut]) {
                assert_flat_and_exact(&plan, "feature plan prefix");
            }
        }
        let service = crate::PlanService::new(crate::ServeConfig::default());
        let plans: Vec<_> =
            suite_requests().into_iter().map(|r| service.plan(r).expect("compiles")).collect();
        service.shutdown();
        for plan in &plans {
            assert_flat_and_exact(plan, "planned suite plan");
            assert_flat_and_exact(&decode_plan(&encode_plan(plan)).unwrap(), "decoded suite plan");
        }
        let mut rng = Rng64::new(0x0DEC_0DE5);
        let mut decoded = 0;
        for (seed_bytes, rounds) in [(feature, 4096), (encode_plan(&plans[5]), 64)] {
            for _ in 0..rounds {
                let mut bytes = seed_bytes.clone();
                for _ in 0..1 + rng.gen_range(3) {
                    let at = rng.gen_range(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.gen_range(8);
                }
                if let Ok(plan) = decode_plan(&bytes) {
                    decoded += 1;
                    assert_flat_and_exact(&plan, "bit-flip mutant");
                }
            }
        }
        assert!(decoded > 100, "only {decoded} mutants decoded; the property is vacuous");
    }

    #[test]
    fn trailing_bytes_are_refused_by_every_decoder() {
        let trailing = |mut bytes: Vec<u8>| {
            bytes.push(0);
            bytes
        };
        let req = suite_requests().remove(0);
        let err = decode_request(&trailing(encode_request(&req))).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)), "request: {err:?}");

        let service = crate::PlanService::new(crate::ServeConfig::default());
        let plan = service.plan(req).expect("compiles");
        service.shutdown();
        let err = decode_plan(&trailing(encode_plan(&plan))).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)), "plan: {err:?}");

        let err = decode_stats(&trailing(encode_stats(&ServeStats::default()))).unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)), "stats: {err:?}");
    }

    #[test]
    fn frame_checksum_spreads_and_detects_flips() {
        let a = dmcp_hash::checksum64(b"hello");
        let mut flipped = b"hello".to_vec();
        flipped[2] ^= 1;
        assert_ne!(a, dmcp_hash::checksum64(&flipped));
        assert_eq!(a, dmcp_hash::checksum64(b"hello"));
    }
}
