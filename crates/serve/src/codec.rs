//! Binary serialization of plan requests, compiled plans and service
//! statistics — the byte layer shared by the wire protocol ([`crate::wire`])
//! and the durable disk tier ([`crate::disk`]).
//!
//! The codec is hand-rolled (the workspace takes no external dependencies)
//! and deliberately boring: little-endian fixed-width integers, `f64` as
//! raw IEEE bits (bit-exact round trips, including non-finite values),
//! length-prefixed vectors. Every decoder is *total*: malformed, truncated
//! or oversized input yields a typed [`CodecError`], never a panic, hang or
//! unbounded allocation (length prefixes are validated against the bytes
//! actually remaining before anything is reserved).
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
    ElemLoc, NestPartition, Operand, PartitionConfig, PartitionOutput, Schedule, Step, StepInput,
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
/// with [`CodecError::BadVersion`]. Bytes 2–4 lead plans and stats, so
/// no two layouts share a leading byte.
pub const REQUEST_CODEC_V2: u8 = 5;
/// Codec version byte leading every encoded plan.
pub const PLAN_CODEC_V1: u8 = 2;
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
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over a byte slice — the checksum used by wire frames and disk
/// records. Not cryptographic; it detects truncation and corruption, which
/// is all the crash-safety story needs. The fold itself is the shared
/// `dmcp-hash` primitive; this re-export keeps the historical path.
pub use dmcp_hash::fnv1a64;

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

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
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

    /// Reads a vector length prefix and validates it against the bytes
    /// remaining: each promised element needs at least `min_elem_bytes`, so
    /// a garbage length cannot trigger a huge allocation.
    pub fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min_elem_bytes.max(1)))
            .is_some_and(|need| need <= self.remaining());
        if !fits {
            return Err(CodecError::Oversized(what));
        }
        Ok(n as usize)
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
    e.u8(match c.predictor {
        PredictorSpec::Reuse => 0,
        PredictorSpec::L2Model => 1,
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
        1 => PredictorSpec::L2Model,
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

fn enc_opmix(e: &mut Enc, m: &OpMix) {
    e.u64(m.add_sub);
    e.u64(m.mul_div);
    e.u64(m.other);
}

fn dec_opmix(d: &mut Dec<'_>) -> Result<OpMix, CodecError> {
    Ok(OpMix { add_sub: d.u64()?, mul_div: d.u64()?, other: d.u64()? })
}

fn enc_tag(e: &mut Enc, t: StmtTag) {
    e.u32(t.nest);
    e.u32(t.stmt);
    e.u64(t.instance);
}

fn dec_tag(d: &mut Dec<'_>) -> Result<StmtTag, CodecError> {
    Ok(StmtTag { nest: d.u32()?, stmt: d.u32()?, instance: d.u64()? })
}

/// Encodes a compiled plan — these are the "plan bytes" the wire protocol
/// serves and the disk tier persists.
#[must_use]
pub fn encode_plan(plan: &PartitionOutput) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(PLAN_CODEC_V1);
    e.u64(plan.nests.len() as u64);
    for nest in &plan.nests {
        e.u64(nest.nest as u64);
        e.u64(nest.schedule.steps.len() as u64);
        for step in &nest.schedule.steps {
            e.u32(step.id.0);
            enc_node(&mut e, step.node);
            match step.seed {
                None => e.u8(0),
                Some(s) => {
                    e.u8(1);
                    e.f64(s);
                }
            }
            e.u64(step.inputs.len() as u64);
            for input in &step.inputs {
                e.u8(binop_to_u8(input.op));
                match input.operand {
                    Operand::Const(v) => {
                        e.u8(0);
                        e.f64(v);
                    }
                    Operand::Elem(loc) => {
                        e.u8(1);
                        e.u32(loc.array.index() as u32);
                        e.u64(loc.elem);
                        e.u64(loc.line.raw());
                        enc_node(&mut e, loc.believed);
                        e.u8(u8::from(loc.hot));
                    }
                    Operand::Temp(id) => {
                        e.u8(2);
                        e.u32(id.0);
                    }
                }
            }
            match &step.store {
                None => e.u8(0),
                Some(s) => {
                    e.u8(1);
                    e.u32(s.array.index() as u32);
                    e.u64(s.elem);
                    e.u64(s.line.raw());
                    enc_node(&mut e, s.home);
                    e.u8(u8::from(s.hot));
                }
            }
            e.u64(step.waits.len() as u64);
            for w in &step.waits {
                e.u32(w.0);
            }
            enc_tag(&mut e, step.tag);
        }
        let s = &nest.stats;
        e.u64(s.window_size as u64);
        e.u64(s.movement_opt);
        e.u64(s.movement_default);
        e.u64(s.records.len() as u64);
        for r in &s.records {
            enc_tag(&mut e, r.tag);
            e.u64(r.movement_opt);
            e.u64(r.movement_default);
            e.u32(r.parallelism);
            e.u32(r.step_count);
            e.u32(r.planned_l1_hits);
            enc_opmix(&mut e, &r.remapped);
            e.u8(u8::from(r.fallback));
            e.u32(r.first_step);
            e.u32(r.last_step);
        }
        e.u64(s.syncs_before);
        e.u64(s.syncs_after);
        enc_opmix(&mut e, &s.remapped);
        e.u64(s.planned_l1_hits);
        e.u64(s.fallback_count);
        e.u64(s.instances);
    }
    e.finish()
}

/// Decodes plan bytes back into a [`PartitionOutput`], bit-identical to
/// what [`encode_plan`] saw.
///
/// # Errors
///
/// [`CodecError`] on truncated, oversized or structurally invalid input.
pub fn decode_plan(bytes: &[u8]) -> Result<PartitionOutput, CodecError> {
    let mut d = Dec::new(bytes);
    let version = d.u8()?;
    if version != PLAN_CODEC_V1 {
        return Err(CodecError::BadVersion("plan", version));
    }
    let nnests = d.len("plan nests", 16)?;
    let mut nests = Vec::with_capacity(nnests);
    for _ in 0..nnests {
        let nest = d.u64()? as usize;
        let nsteps = d.len("steps", 27)?;
        let mut steps = Vec::with_capacity(nsteps);
        for _ in 0..nsteps {
            let id = SubId(d.u32()?);
            let node = dec_node(&mut d)?;
            let seed = match d.u8()? {
                0 => None,
                1 => Some(d.f64()?),
                other => return Err(CodecError::BadTag("seed", other)),
            };
            let ninputs = d.len("inputs", 2)?;
            let mut inputs = Vec::with_capacity(ninputs);
            for _ in 0..ninputs {
                let op = binop_from_u8(d.u8()?)?;
                let operand = match d.u8()? {
                    0 => Operand::Const(d.f64()?),
                    1 => Operand::Elem(ElemLoc {
                        array: dmcp_ir::ArrayId::from_index(d.u32()? as usize),
                        elem: d.u64()?,
                        line: LineAddr::new(d.u64()?),
                        believed: dec_node(&mut d)?,
                        hot: d.u8()? != 0,
                    }),
                    2 => Operand::Temp(SubId(d.u32()?)),
                    other => return Err(CodecError::BadTag("operand", other)),
                };
                inputs.push(StepInput { op, operand });
            }
            let store = match d.u8()? {
                0 => None,
                1 => Some(StoreTarget {
                    array: dmcp_ir::ArrayId::from_index(d.u32()? as usize),
                    elem: d.u64()?,
                    line: LineAddr::new(d.u64()?),
                    home: dec_node(&mut d)?,
                    hot: d.u8()? != 0,
                }),
                other => return Err(CodecError::BadTag("store", other)),
            };
            let nwaits = d.len("waits", 4)?;
            let mut waits = Vec::with_capacity(nwaits);
            for _ in 0..nwaits {
                waits.push(SubId(d.u32()?));
            }
            let tag = dec_tag(&mut d)?;
            steps.push(Step { id, node, seed, inputs, store, waits, tag });
        }
        let window_size = d.u64()? as usize;
        let movement_opt = d.u64()?;
        let movement_default = d.u64()?;
        let nrecords = d.len("records", 77)?;
        let mut records = Vec::with_capacity(nrecords);
        for _ in 0..nrecords {
            records.push(StmtRecord {
                tag: dec_tag(&mut d)?,
                movement_opt: d.u64()?,
                movement_default: d.u64()?,
                parallelism: d.u32()?,
                step_count: d.u32()?,
                planned_l1_hits: d.u32()?,
                remapped: dec_opmix(&mut d)?,
                fallback: d.u8()? != 0,
                first_step: d.u32()?,
                last_step: d.u32()?,
            });
        }
        let stats = NestStats {
            window_size,
            movement_opt,
            movement_default,
            records,
            syncs_before: d.u64()?,
            syncs_after: d.u64()?,
            remapped: dec_opmix(&mut d)?,
            planned_l1_hits: d.u64()?,
            fallback_count: d.u64()?,
            instances: d.u64()?,
        };
        nests.push(NestPartition { nest, schedule: Schedule { steps }, stats });
    }
    d.finish("plan")?;
    Ok(PartitionOutput::new(nests))
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
        let kinds = [REQUEST_CODEC_V2, PLAN_CODEC_V1, STATS_CODEC_V2];
        assert!(!kinds.contains(&1), "the retired request byte must stay unused");
        assert_eq!(
            kinds.iter().collect::<std::collections::HashSet<_>>().len(),
            kinds.len(),
            "requests, plans and stats need distinct leading bytes"
        );
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
    fn fnv_checksum_spreads_and_detects_flips() {
        let a = fnv1a64(b"hello");
        let mut flipped = b"hello".to_vec();
        flipped[2] ^= 1;
        assert_ne!(a, fnv1a64(&flipped));
        assert_eq!(a, fnv1a64(b"hello"));
    }
}
