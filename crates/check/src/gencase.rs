//! Structured random cases: programs, data stores, meshes and fault plans
//! under a size budget — plus the greedy shrinker that minimises a failing
//! case before it is reported.
//!
//! Statements are generated as small expression *templates* rather than
//! strings, so the same case can be rendered under different array/loop
//! names (the rename metamorphic law), simplified structurally by the
//! shrinker, and rebuilt deterministically from the spec alone.
//!
//! Two statement families are generated:
//!
//! * the **mask family** (`gen_mask_case`): every right-hand side is
//!   wrapped in `& 63`, so all stored values are small integers and every
//!   intermediate stays far below 2⁵³. Reassociating `+ - * & | ^` over
//!   such values is *exact* in `f64`, which lets the conformance checker
//!   demand bit-equality between plan execution and the interpreter;
//! * the **division family** (`gen_div_case`): `+ - * /` over read-only
//!   source arrays (no feedback), compared under a 1e-12-style relative
//!   tolerance since reordered division chains differ by rounding.
//!
//! Arrays read through indirect subscripts are never written: the planner
//! resolves indirection through the inspector snapshot, so writing an
//! index array mid-run would make plan-time and run-time subscripts
//! legitimately diverge — a property violation of the *generator*, not
//! the partitioner.

use dmcp_core::partitioner::PredictorSpec;
use dmcp_core::PartitionConfig;
use dmcp_ir::program::DataStore;
use dmcp_ir::{ArrayId, BinOp, Program, ProgramBuilder};
use dmcp_mach::rng::Rng64;
use dmcp_mach::{FaultPlan, MachineConfig, Mesh, NodeId};
use std::fmt;

/// One declared array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArraySpec {
    /// Linear length in elements.
    pub len: u64,
    /// Element size in bytes.
    pub elem_size: u32,
    /// Flat-placed in fast memory.
    pub hot: bool,
}

/// A subscript template.
#[derive(Clone, Debug, PartialEq)]
pub enum TSub {
    /// `c`
    Const(i64),
    /// `coeff*var + off` (coeff ≥ 1; `off` may be negative).
    Affine { var: usize, coeff: i64, off: i64 },
    /// `arrays[array][var]` — one level of indirection.
    Indirect { array: usize, var: usize },
}

/// An array reference template.
#[derive(Clone, Debug, PartialEq)]
pub struct TRef {
    /// Index into [`CaseSpec::arrays`].
    pub array: usize,
    /// The subscript.
    pub sub: TSub,
}

/// An expression template.
#[derive(Clone, Debug, PartialEq)]
pub enum TExpr {
    /// Integer literal.
    Const(i64),
    /// Array read.
    Ref(TRef),
    /// Binary node.
    Bin(BinOp, Box<TExpr>, Box<TExpr>),
}

/// A statement template: `lhs = rhs` or `lhs = (rhs) & mask`.
#[derive(Clone, Debug, PartialEq)]
pub struct TStmt {
    /// The written reference.
    pub lhs: TRef,
    /// The right-hand side.
    pub rhs: TExpr,
    /// Optional value mask keeping stored values exactly representable.
    pub mask: Option<i64>,
}

/// One loop nest: `(lo, hi)` bounds per dimension (outermost first) and
/// the body statements.
#[derive(Clone, Debug, PartialEq)]
pub struct NestSpec {
    /// Loop bounds, outermost first.
    pub loops: Vec<(i64, i64)>,
    /// Body statements.
    pub stmts: Vec<TStmt>,
}

/// Fault-plan parameters (materialised via [`FaultPlan::random`]).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fraction of nodes to kill.
    pub dead_frac: f64,
    /// Per-link failure probability.
    pub link_fail: f64,
    /// Seed for the fault sampler.
    pub seed: u64,
}

/// Random initial-data parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DataSpec {
    /// Seed for the value sampler.
    pub seed: u64,
    /// Keep every value ≥ 1 (the division family needs nonzero data).
    pub nonzero: bool,
}

/// A fully self-describing generated case: rebuildable, renderable under
/// any naming, and shrinkable.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// Mesh dimensions `(cols, rows)`.
    pub mesh: (u16, u16),
    /// Declared arrays.
    pub arrays: Vec<ArraySpec>,
    /// Loop nests.
    pub nests: Vec<NestSpec>,
    /// Optional fault plan.
    pub faults: Option<FaultSpec>,
    /// Optional random initial data (deterministic program data otherwise).
    pub data: Option<DataSpec>,
    /// The window size every nest is planned at (1–8).
    pub window: usize,
}

/// A built case, ready for the partitioner.
pub struct BuiltCase {
    /// The program.
    pub program: Program,
    /// Its array ids in declaration order.
    pub array_ids: Vec<ArrayId>,
    /// The machine.
    pub machine: MachineConfig,
    /// Partitioner configuration (the case's window).
    pub config: PartitionConfig,
    /// Materialised faults, if any.
    pub faults: Option<FaultPlan>,
    /// Initial data (random-filled when the spec says so).
    pub data: DataStore,
}

fn op_symbol(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    }
}

fn render_sub(sub: &TSub, arrays: &[String], vars: &[String]) -> String {
    match sub {
        TSub::Const(c) => format!("{c}"),
        TSub::Affine { var, coeff, off } => {
            let v = &vars[*var];
            let head = if *coeff == 1 { v.clone() } else { format!("{coeff}*{v}") };
            match off.cmp(&0) {
                std::cmp::Ordering::Equal => head,
                std::cmp::Ordering::Greater => format!("{head} + {off}"),
                std::cmp::Ordering::Less => format!("{head} - {}", off.unsigned_abs()),
            }
        }
        TSub::Indirect { array, var } => format!("{}[{}]", arrays[*array], vars[*var]),
    }
}

fn render_ref(r: &TRef, arrays: &[String], vars: &[String]) -> String {
    format!("{}[{}]", arrays[r.array], render_sub(&r.sub, arrays, vars))
}

fn render_expr(e: &TExpr, arrays: &[String], vars: &[String]) -> String {
    match e {
        TExpr::Const(c) => format!("{c}"),
        TExpr::Ref(r) => render_ref(r, arrays, vars),
        TExpr::Bin(op, l, r) => format!(
            "({} {} {})",
            render_expr(l, arrays, vars),
            op_symbol(*op),
            render_expr(r, arrays, vars)
        ),
    }
}

impl CaseSpec {
    /// The canonical naming: arrays `a0, a1, …`, loop variables `i0, i1`.
    pub fn default_names(&self) -> (Vec<String>, Vec<String>) {
        let arrays = (0..self.arrays.len()).map(|k| format!("a{k}")).collect();
        let depth = self.nests.iter().map(|n| n.loops.len()).max().unwrap_or(1);
        let vars = (0..depth).map(|d| format!("i{d}")).collect();
        (arrays, vars)
    }

    /// Renders one statement under a naming.
    pub fn render_stmt(&self, s: &TStmt, arrays: &[String], vars: &[String]) -> String {
        let lhs = render_ref(&s.lhs, arrays, vars);
        let rhs = render_expr(&s.rhs, arrays, vars);
        match s.mask {
            Some(m) => format!("{lhs} = {rhs} & {m}"),
            None => format!("{lhs} = {rhs}"),
        }
    }

    /// Builds the case under the canonical naming.
    pub fn build(&self) -> Result<BuiltCase, String> {
        let (arrays, vars) = self.default_names();
        self.build_named(&arrays, &vars)
    }

    /// Builds the case under an arbitrary naming (the rename metamorphic
    /// sweep builds the same spec under two namings and demands
    /// bit-identical plans).
    pub fn build_named(&self, arrays: &[String], vars: &[String]) -> Result<BuiltCase, String> {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        for (k, a) in self.arrays.iter().enumerate() {
            let id = if a.hot {
                b.hot_array(arrays[k].clone(), &[a.len], a.elem_size)
            } else {
                b.array(arrays[k].clone(), &[a.len], a.elem_size)
            };
            ids.push(id);
        }
        for nest in &self.nests {
            let loops: Vec<(&str, i64, i64)> = nest
                .loops
                .iter()
                .enumerate()
                .map(|(d, &(lo, hi))| (vars[d].as_str(), lo, hi))
                .collect();
            let stmts: Vec<String> =
                nest.stmts.iter().map(|s| self.render_stmt(s, arrays, vars)).collect();
            let stmt_refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
            b.nest(&loops, &stmt_refs).map_err(|e| format!("build failed: {e:?}"))?;
        }
        let program = b.build();
        let mesh = Mesh::new(self.mesh.0, self.mesh.1);
        let machine = MachineConfig::knl_like().with_mesh(mesh);
        let config = PartitionConfig {
            predictor: PredictorSpec::Reuse,
            window: self.window,
            ..PartitionConfig::default()
        };
        let faults = self
            .faults
            .as_ref()
            .map(|f| FaultPlan::random(mesh, f.dead_frac, f.link_fail, 0.0, 0.0, f.seed));
        let mut data = program.initial_data();
        if let Some(ds) = &self.data {
            let mut rng = Rng64::new(ds.seed);
            for (k, a) in self.arrays.iter().enumerate() {
                let lo = u64::from(ds.nonzero);
                let vals: Vec<f64> = (0..a.len).map(|_| (lo + rng.gen_range(63)) as f64).collect();
                data.fill(ids[k], &vals);
            }
        }
        Ok(BuiltCase { program, array_ids: ids, machine, config, faults, data })
    }

    /// Total statement instances across all nests (the size budget the
    /// generator keeps bounded).
    pub fn instances(&self) -> u64 {
        self.nests
            .iter()
            .map(|n| {
                let iters: u64 = n
                    .loops
                    .iter()
                    .map(|&(lo, hi)| u64::try_from(i128::from(hi) - i128::from(lo)).unwrap_or(0))
                    .fold(1u64, u64::saturating_mul);
                iters.saturating_mul(n.stmts.len() as u64)
            })
            .sum()
    }
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (arrays, vars) = self.default_names();
        writeln!(f, "mesh {}x{} window {}", self.mesh.0, self.mesh.1, self.window)?;
        for (k, a) in self.arrays.iter().enumerate() {
            writeln!(
                f,
                "array {}[{}] x{}{}",
                arrays[k],
                a.len,
                a.elem_size,
                if a.hot { " hot" } else { "" }
            )?;
        }
        for nest in &self.nests {
            let bounds: Vec<String> = nest
                .loops
                .iter()
                .enumerate()
                .map(|(d, &(lo, hi))| format!("{} in {lo}..{hi}", vars[d]))
                .collect();
            writeln!(f, "for {} {{", bounds.join(", "))?;
            for s in &nest.stmts {
                writeln!(f, "  {}", self.render_stmt(s, &arrays, &vars))?;
            }
            writeln!(f, "}}")?;
        }
        if let Some(fl) = &self.faults {
            writeln!(
                f,
                "faults dead_frac={} link_fail={} seed={}",
                fl.dead_frac, fl.link_fail, fl.seed
            )?;
        }
        if let Some(d) = &self.data {
            writeln!(f, "data seed={} nonzero={}", d.seed, d.nonzero)?;
        }
        Ok(())
    }
}

fn pick<T: Copy>(rng: &mut Rng64, xs: &[T]) -> T {
    xs[rng.gen_range(xs.len() as u64) as usize]
}

/// Uniformly random mesh node (row-major order, so a given RNG stream
/// always picks the same node).
pub fn pick_node(rng: &mut Rng64, mesh: &Mesh) -> NodeId {
    let nodes: Vec<NodeId> = mesh.nodes().collect();
    nodes[rng.gen_range(nodes.len() as u64) as usize]
}

/// Meshes the conformance sweeps run on (the partitioner requires ≥ 4
/// nodes); small shapes dominate so degraded cases stay interesting.
const MESHES: [(u16, u16); 7] = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4), (6, 6)];

fn gen_affine_sub(rng: &mut Rng64, dims: usize) -> TSub {
    TSub::Affine {
        var: rng.gen_range(dims as u64) as usize,
        coeff: pick(rng, &[1, 1, 1, 1, 2, 3]),
        off: rng.gen_range(5) as i64 - 2,
    }
}

fn gen_leaf(rng: &mut Rng64, n_arrays: usize, dims: usize, idx_array: Option<usize>) -> TExpr {
    if rng.gen_bool(0.22) {
        return TExpr::Const(rng.gen_range(7) as i64);
    }
    let array = rng.gen_range(n_arrays as u64) as usize;
    let sub = if let Some(idx) = idx_array.filter(|_| rng.gen_bool(0.12)) {
        TSub::Indirect { array: idx, var: rng.gen_range(dims as u64) as usize }
    } else if rng.gen_bool(0.08) {
        TSub::Const(rng.gen_range(16) as i64)
    } else {
        gen_affine_sub(rng, dims)
    };
    TExpr::Ref(TRef { array, sub })
}

fn gen_mask_expr(
    rng: &mut Rng64,
    depth: u32,
    n_arrays: usize,
    dims: usize,
    idx_array: Option<usize>,
) -> TExpr {
    if depth == 0 || rng.gen_bool(0.3) {
        return gen_leaf(rng, n_arrays, dims, idx_array);
    }
    let op = pick(
        rng,
        &[
            BinOp::Add,
            BinOp::Add,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ],
    );
    let lhs = gen_mask_expr(rng, depth - 1, n_arrays, dims, idx_array);
    // Shift amounts are small constants: `x << 3` is exact, `x << a0[i]`
    // would explode magnitudes past 2⁵³ and break bit-exactness.
    let rhs = if matches!(op, BinOp::Shl | BinOp::Shr) {
        TExpr::Const(1 + rng.gen_range(3) as i64)
    } else {
        gen_mask_expr(rng, depth - 1, n_arrays, dims, idx_array)
    };
    TExpr::Bin(op, Box::new(lhs), Box::new(rhs))
}

/// Generates one mask-family case: bit-exact ops, values masked into
/// `[0, 63]`, total statement instances bounded by `budget`.
pub fn gen_mask_case(rng: &mut Rng64, budget: u64) -> CaseSpec {
    let mesh = pick(rng, &MESHES);
    let n_arrays = 3 + rng.gen_range(4) as usize;
    let arrays: Vec<ArraySpec> = (0..n_arrays)
        .map(|_| ArraySpec {
            len: pick(rng, &[8u64, 16, 32, 64, 96]),
            elem_size: pick(rng, &[4u32, 8]),
            hot: rng.gen_bool(0.15),
        })
        .collect();
    // The last array is the only indirection source and is never written.
    let idx_array = if rng.gen_bool(0.4) { Some(n_arrays - 1) } else { None };
    let writable = n_arrays - usize::from(idx_array.is_some());

    let n_nests = 1 + usize::from(rng.gen_bool(0.35));
    let mut nests = Vec::new();
    for _ in 0..n_nests {
        let dims = 1 + usize::from(rng.gen_bool(0.3));
        let mut loops = Vec::new();
        for d in 0..dims {
            let lo = rng.gen_range(5) as i64 - 2;
            let trip =
                if d == 0 { 2 + rng.gen_range(10) as i64 } else { 2 + rng.gen_range(4) as i64 };
            loops.push((lo, lo + trip));
        }
        let n_stmts = 1 + rng.gen_range(3) as usize;
        let stmts = (0..n_stmts)
            .map(|_| {
                let lhs_array = rng.gen_range(writable as u64) as usize;
                let lhs_sub = if let Some(idx) = idx_array.filter(|_| rng.gen_bool(0.1)) {
                    TSub::Indirect { array: idx, var: 0 }
                } else {
                    gen_affine_sub(rng, dims)
                };
                TStmt {
                    lhs: TRef { array: lhs_array, sub: lhs_sub },
                    rhs: gen_mask_expr(rng, 2, n_arrays, dims, idx_array),
                    mask: Some(63),
                }
            })
            .collect();
        nests.push(NestSpec { loops, stmts });
    }
    let faults = rng.gen_bool(0.5).then(|| FaultSpec {
        dead_frac: [0.0, 0.1, 0.25][rng.gen_range(3) as usize],
        link_fail: [0.05, 0.15][rng.gen_range(2) as usize],
        seed: rng.next_u64(),
    });
    let data = rng.gen_bool(0.5).then(|| DataSpec { seed: rng.next_u64(), nonzero: false });
    let window = gen_window(rng);
    let mut spec = CaseSpec { mesh, arrays, nests, faults, data, window };
    // Enforce the instance budget by halving outer trips.
    while spec.instances() > budget {
        for nest in &mut spec.nests {
            let (lo, hi) = nest.loops[0];
            let trip = (hi - lo).max(2);
            nest.loops[0] = (lo, lo + (trip / 2).max(1));
        }
    }
    spec
}

fn gen_div_expr(rng: &mut Rng64, depth: u32, n_src: usize, dims: usize) -> TExpr {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.15) {
            return TExpr::Const(1 + rng.gen_range(6) as i64);
        }
        return TExpr::Ref(TRef {
            array: rng.gen_range(n_src as u64) as usize,
            sub: gen_affine_sub(rng, dims),
        });
    }
    let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Div, BinOp::Div]);
    TExpr::Bin(
        op,
        Box::new(gen_div_expr(rng, depth - 1, n_src, dims)),
        Box::new(gen_div_expr(rng, depth - 1, n_src, dims)),
    )
}

/// Generates one division-family case: `+ - * /` over read-only sources
/// (arrays `0..4` are never written, arrays `4..6` never read), single
/// nest, no feedback — so magnitudes stay bounded and a relative
/// tolerance covers reordered-division rounding.
pub fn gen_div_case(rng: &mut Rng64) -> CaseSpec {
    let mesh = pick(rng, &[(3u16, 3u16), (4, 4), (6, 6)]);
    let n_src = 4usize;
    let arrays: Vec<ArraySpec> = (0..n_src + 2)
        .map(|_| ArraySpec { len: pick(rng, &[16u64, 32, 64]), elem_size: 8, hot: false })
        .collect();
    let trip = 8 + rng.gen_range(25) as i64;
    let stmts = (0..1 + rng.gen_range(2) as usize)
        .map(|k| TStmt {
            lhs: TRef { array: n_src + k, sub: gen_affine_sub(rng, 1) },
            rhs: gen_div_expr(rng, 2, n_src, 1),
            mask: None,
        })
        .collect();
    CaseSpec {
        mesh,
        arrays,
        nests: vec![NestSpec { loops: vec![(0, trip)], stmts }],
        faults: None,
        data: Some(DataSpec { seed: rng.next_u64(), nonzero: true }),
        window: gen_window(rng),
    }
}

/// A window size from [`PartitionConfig::WINDOWS`], uniformly.
fn gen_window(rng: &mut Rng64) -> usize {
    let (lo, hi) = PartitionConfig::WINDOWS.into_inner();
    lo + rng.gen_range((hi - lo + 1) as u64) as usize
}

/// Generates a "wild" spec for the program-shape fuzz: extreme loop
/// bounds, huge subscript constants and coefficients. Never partitioned
/// or iterated at scale — only the static APIs (build, hashing,
/// analyzability, trip counts) and, when the bounds are tame, the
/// interpreter are exercised for panics.
pub fn gen_wild_spec(rng: &mut Rng64) -> CaseSpec {
    // Loop bounds bypass the parser (builder API), so they may use the
    // full i64 range; subscript offsets are rendered as literals, and
    // `abs(i64::MIN)` is not a lexable literal (as in C) — the most
    // negative expressible offset is `-i64::MAX`.
    const WILD_BOUNDS: [i64; 8] =
        [i64::MIN, -(1 << 62), -1_000_000_007, -3, 0, 7, 1 << 62, i64::MAX];
    const WILD_OFF: [i64; 8] = [-i64::MAX, -(1 << 62), -1_000_000_007, -3, 0, 7, 1 << 62, i64::MAX];
    let n_arrays = 2 + rng.gen_range(3) as usize;
    let arrays: Vec<ArraySpec> = (0..n_arrays)
        .map(|_| ArraySpec { len: pick(rng, &[1u64, 8, 257, 65_536]), elem_size: 8, hot: false })
        .collect();
    let wild_bounds = rng.gen_bool(0.5);
    let (lo, hi) = if wild_bounds {
        (pick(rng, &WILD_BOUNDS), pick(rng, &WILD_BOUNDS))
    } else {
        let lo = rng.gen_range(5) as i64 - 2;
        (lo, lo + 1 + rng.gen_range(3) as i64)
    };
    let coeff = pick(rng, &[1i64, 3, 1_000_000_007, 1 << 62, i64::MAX]);
    let off = pick(rng, &WILD_OFF);
    let stmt = TStmt {
        lhs: TRef { array: 0, sub: TSub::Affine { var: 0, coeff: 1, off: 0 } },
        rhs: TExpr::Bin(
            pick(rng, &[BinOp::Add, BinOp::Mul, BinOp::Shl, BinOp::Xor]),
            Box::new(TExpr::Ref(TRef {
                array: rng.gen_range(n_arrays as u64) as usize,
                sub: TSub::Affine { var: 0, coeff, off },
            })),
            Box::new(TExpr::Const(pick(rng, &[1i64, 2, i64::MAX]))),
        ),
        mask: None,
    };
    CaseSpec {
        mesh: (2, 2),
        arrays,
        nests: vec![NestSpec { loops: vec![(lo, hi)], stmts: vec![stmt] }],
        faults: None,
        data: None,
        window: PartitionConfig::default().window,
    }
}

fn simplify_expr(e: &TExpr) -> Vec<TExpr> {
    match e {
        TExpr::Bin(_, l, r) => {
            let mut out = vec![l.as_ref().clone(), r.as_ref().clone()];
            for (k, side) in [l, r].into_iter().enumerate() {
                for s in simplify_expr(side) {
                    let mut b = e.clone();
                    if let TExpr::Bin(_, bl, br) = &mut b {
                        if k == 0 {
                            **bl = s;
                        } else {
                            **br = s;
                        }
                    }
                    out.push(b);
                }
            }
            out
        }
        TExpr::Ref(TRef { array, sub: TSub::Indirect { .. } }) => {
            vec![TExpr::Ref(TRef { array: *array, sub: TSub::Affine { var: 0, coeff: 1, off: 0 } })]
        }
        _ => Vec::new(),
    }
}

/// All one-step simplifications of a spec, roughly largest-cut first.
fn shrink_candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    if spec.nests.len() > 1 {
        for k in 0..spec.nests.len() {
            let mut c = spec.clone();
            c.nests.remove(k);
            out.push(c);
        }
    }
    for (n, nest) in spec.nests.iter().enumerate() {
        if nest.stmts.len() > 1 {
            for s in 0..nest.stmts.len() {
                let mut c = spec.clone();
                c.nests[n].stmts.remove(s);
                out.push(c);
            }
        }
        if nest.loops.len() > 1 {
            let mut c = spec.clone();
            c.nests[n].loops.pop();
            let dims = c.nests[n].loops.len();
            for stmt in &mut c.nests[n].stmts {
                clamp_vars(stmt, dims);
            }
            out.push(c);
        }
        for (d, &(lo, hi)) in nest.loops.iter().enumerate() {
            let trip = i128::from(hi) - i128::from(lo);
            if trip > 1 {
                let mut c = spec.clone();
                c.nests[n].loops[d] = (lo, lo + (trip / 2) as i64);
                out.push(c);
            }
        }
        for (s, stmt) in nest.stmts.iter().enumerate() {
            for simpler in simplify_expr(&stmt.rhs) {
                let mut c = spec.clone();
                c.nests[n].stmts[s].rhs = simpler;
                out.push(c);
            }
            if matches!(stmt.lhs.sub, TSub::Indirect { .. }) {
                let mut c = spec.clone();
                c.nests[n].stmts[s].lhs.sub = TSub::Affine { var: 0, coeff: 1, off: 0 };
                out.push(c);
            }
        }
    }
    if spec.faults.is_some() {
        let mut c = spec.clone();
        c.faults = None;
        out.push(c);
    }
    if spec.data.is_some() {
        let mut c = spec.clone();
        c.data = None;
        out.push(c);
    }
    if spec.window > 1 {
        out.push(CaseSpec { window: 1, ..spec.clone() });
    }
    for (k, a) in spec.arrays.iter().enumerate() {
        if a.len > 4 {
            let mut c = spec.clone();
            c.arrays[k].len = (a.len / 2).max(4);
            out.push(c);
        }
    }
    out
}

fn clamp_vars(stmt: &mut TStmt, dims: usize) {
    fn clamp_sub(sub: &mut TSub, dims: usize) {
        match sub {
            TSub::Affine { var, .. } | TSub::Indirect { var, .. } => {
                if *var >= dims {
                    *var = 0;
                }
            }
            TSub::Const(_) => {}
        }
    }
    fn clamp_expr(e: &mut TExpr, dims: usize) {
        match e {
            TExpr::Ref(r) => clamp_sub(&mut r.sub, dims),
            TExpr::Bin(_, l, r) => {
                clamp_expr(l, dims);
                clamp_expr(r, dims);
            }
            TExpr::Const(_) => {}
        }
    }
    clamp_sub(&mut stmt.lhs.sub, dims);
    clamp_expr(&mut stmt.rhs, dims);
}

/// Greedy shrinking: repeatedly adopts the first one-step simplification
/// that still fails `fails`, until none does (or the attempt budget runs
/// out). Returns the minimised spec.
pub fn shrink<F>(spec: &CaseSpec, fails: F, max_attempts: u32) -> CaseSpec
where
    F: Fn(&CaseSpec) -> bool,
{
    let mut current = spec.clone();
    let mut attempts = 0u32;
    'outer: loop {
        for candidate in shrink_candidates(&current) {
            attempts += 1;
            if attempts > max_attempts {
                break 'outer;
            }
            if fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_build_and_respect_budget() {
        let mut rng = Rng64::new(7);
        for _ in 0..40 {
            let spec = gen_mask_case(&mut rng, 256);
            assert!(spec.instances() <= 256, "budget exceeded:\n{spec}");
            let built = spec.build().expect("mask case builds");
            assert_eq!(built.program.nests().len(), spec.nests.len());
        }
        for _ in 0..10 {
            let spec = gen_div_case(&mut rng);
            spec.build().expect("div case builds");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_mask_case(&mut Rng64::new(42), 512);
        let b = gen_mask_case(&mut Rng64::new(42), 512);
        assert_eq!(a, b);
    }

    #[test]
    fn rename_build_produces_same_structure() {
        let spec = gen_mask_case(&mut Rng64::new(3), 256);
        let (arrays, vars) = spec.default_names();
        let renamed_arrays: Vec<String> =
            (0..arrays.len()).map(|k| format!("zz{}", arrays.len() - k)).collect();
        let renamed_vars: Vec<String> = (0..vars.len()).map(|d| format!("t{d}")).collect();
        let a = spec.build().expect("builds");
        let b = spec.build_named(&renamed_arrays, &renamed_vars).expect("builds renamed");
        use dmcp_ir::StableHash;
        let mut ha = dmcp_ir::StableHasher::new();
        let mut hb = dmcp_ir::StableHasher::new();
        a.program.stable_hash(&mut ha);
        b.program.stable_hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish(), "structural hash is name-independent");
    }

    #[test]
    fn shrinker_reaches_a_fixed_point() {
        let spec = gen_mask_case(&mut Rng64::new(11), 512);
        // "Fails" whenever any statement still contains a Mul: the shrinker
        // must cut everything else away.
        fn has_mul(e: &TExpr) -> bool {
            match e {
                TExpr::Bin(BinOp::Mul, _, _) => true,
                TExpr::Bin(_, l, r) => has_mul(l) || has_mul(r),
                _ => false,
            }
        }
        let fails =
            |s: &CaseSpec| s.nests.iter().any(|n| n.stmts.iter().any(|st| has_mul(&st.rhs)));
        if !fails(&spec) {
            return; // this seed generated no Mul; nothing to shrink toward
        }
        let small = shrink(&spec, fails, 500);
        assert!(fails(&small));
        assert!(small.instances() <= spec.instances());
        let total_stmts: usize = small.nests.iter().map(|n| n.stmts.len()).sum();
        assert_eq!(total_stmts, 1, "only the failing statement survives");
    }

    #[test]
    fn wild_specs_build_without_panicking() {
        let mut rng = Rng64::new(23);
        for _ in 0..50 {
            let spec = gen_wild_spec(&mut rng);
            let built = spec.build().expect("wild spec builds");
            // Static APIs must tolerate extreme bounds.
            for nest in built.program.nests() {
                let _ = nest.iteration_count();
            }
            let _ = built.program.static_analyzability();
            let _ = built.program.dynamic_analyzability();
        }
    }
}
