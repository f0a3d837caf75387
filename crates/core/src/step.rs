//! The schedule representation: subcomputations, operands and stores.
//!
//! A [`Schedule`] is the partitioner's output and the simulator's input: a
//! flat list of [`Step`]s in a valid sequential order (statement instances in
//! program order, steps within a statement in post-order over its MST).
//! Each step is one *subcomputation* in the paper's sense: a fold of a few
//! operands executed on a specific mesh node, optionally storing its result.
//!
//! A step owns no heap memory: its fold inputs and its wait arcs are
//! [`Span`]s of two buffers the schedule keeps beside its steps, laid out
//! in step order (step `k`'s spans start where step `k − 1`'s end). The
//! builder methods ([`Schedule::push_input`], [`Schedule::push_wait`],
//! [`Schedule::push_step`]) keep that layout, and [`Schedule::validate`]
//! refuses any other.
//!
//! The same representation expresses the unoptimized baseline, so the
//! simulator treats both identically. A baseline statement instance runs
//! wholly on its iteration's assigned core, but it is not one step: it is
//! planned like any forced statement, one fold step per edge of its nested
//! sets' MSTs, every step on the core. Over the Tiny suite the baselines
//! have 1.58× as many steps as nested sets.

use dmcp_ir::{ArrayId, BinOp};
use dmcp_mach::NodeId;
use dmcp_mem::LineAddr;
use std::fmt;
use std::ops::Range;

/// Identifier of a step within a schedule (its index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(pub u32);

impl SubId {
    /// Index into [`Schedule::steps`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Where an operand's data lives on the machine, as believed at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElemLoc {
    /// The element's array.
    pub array: ArrayId,
    /// Linear element index.
    pub elem: u64,
    /// Physical cache line holding the element.
    pub line: LineAddr,
    /// The node the compiler believes supplies the data (home L2 bank, a
    /// memory controller on a predicted L2 miss, or a node holding an L1
    /// copy). The simulator measures where it *actually* comes from.
    pub believed: NodeId,
    /// Whether the owning array is flat-placed in fast memory.
    pub hot: bool,
}

/// One input to a step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A literal.
    Const(f64),
    /// An array element read from the memory system.
    Elem(ElemLoc),
    /// The partial result of an earlier step.
    Temp(SubId),
}

/// An input together with the operator folding it into the accumulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepInput {
    /// `acc = op.apply(acc, value)`.
    pub op: BinOp,
    /// Where the value comes from.
    pub operand: Operand,
}

/// The store performed by a statement's final step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreTarget {
    /// Destination array.
    pub array: ArrayId,
    /// Destination element.
    pub elem: u64,
    /// Destination cache line.
    pub line: LineAddr,
    /// Home node of the destination line (the paper's "store node").
    pub home: NodeId,
    /// Whether the destination array is flat-placed in fast memory.
    pub hot: bool,
}

/// Identifies the statement instance a step belongs to (for statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct StmtTag {
    /// Loop-nest index within the program.
    pub nest: u32,
    /// Statement index within the nest body.
    pub stmt: u32,
    /// Global statement-instance number within the nest
    /// (`iteration · body_len + stmt`).
    pub instance: u64,
}

/// A step's slice of one of its schedule's buffers: entries
/// `start..end`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// First entry.
    pub start: u32,
    /// One past the last entry.
    pub end: u32,
}

impl Span {
    /// Number of entries (0 for an inverted span).
    pub fn len(self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// `true` if the span names no entry.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The entries as an index range.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One subcomputation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    /// This step's id (== its index in the schedule).
    pub id: SubId,
    /// The mesh node executing the subcomputation.
    pub node: NodeId,
    /// Accumulator seed; `None` means the first input's value initialises
    /// the accumulator (its `op` is ignored) — used for non-reorderable
    /// folds like shifts.
    pub seed: Option<f64>,
    /// The folded inputs, in application order: its span of
    /// [`Schedule::inputs`] (read them with [`Schedule::inputs_of`]).
    pub inputs: Span,
    /// Set when this is a statement's final step.
    pub store: Option<StoreTarget>,
    /// Synchronisation arcs: steps that must complete before this one runs,
    /// *beyond* those already implied by `Temp` inputs (inter-statement
    /// dependences). Kept minimal by transitive reduction. Its span of
    /// [`Schedule::waits`] (read them with [`Schedule::waits_of`]).
    pub waits: Span,
    /// The statement instance this step implements.
    pub tag: StmtTag,
}

/// A complete schedule for one loop nest: the steps and the two buffers
/// their spans index (see the module docs for the layout).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Steps in a valid sequential execution order.
    pub steps: Vec<Step>,
    /// Every step's fold inputs, step after step.
    pub inputs: Vec<StepInput>,
    /// Every step's wait arcs, step after step.
    pub waits: Vec<SubId>,
}

impl Schedule {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// `step`'s fold inputs, in application order.
    pub fn inputs_of(&self, step: &Step) -> &[StepInput] {
        &self.inputs[step.inputs.range()]
    }

    /// `step`'s wait arcs.
    pub fn waits_of(&self, step: &Step) -> &[SubId] {
        &self.waits[step.waits.range()]
    }

    /// All producer steps `step` depends on: temp inputs plus explicit
    /// waits.
    pub fn producers<'s>(&'s self, step: &Step) -> impl Iterator<Item = SubId> + 's {
        self.inputs_of(step)
            .iter()
            .filter_map(|i| match i.operand {
                Operand::Temp(t) => Some(t),
                _ => None,
            })
            .chain(self.waits_of(step).iter().copied())
    }

    /// Appends a fold input to the step being built: the next
    /// [`Schedule::push_step`] takes it.
    pub fn push_input(&mut self, input: StepInput) {
        self.inputs.push(input);
    }

    /// Appends a wait arc to the step being built: the next
    /// [`Schedule::push_step`] takes it.
    pub fn push_wait(&mut self, wait: SubId) {
        self.waits.push(wait);
    }

    /// Appends a step that takes every input and wait appended since the
    /// previous step, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a buffer outgrows `u32` indices.
    pub fn push_step(
        &mut self,
        node: NodeId,
        seed: Option<f64>,
        store: Option<StoreTarget>,
        tag: StmtTag,
    ) -> SubId {
        let last = self.steps.last();
        let inputs = open_span(last.map(|s| s.inputs), self.inputs.len());
        let waits = open_span(last.map(|s| s.waits), self.waits.len());
        let id = SubId(u32::try_from(self.steps.len()).expect("fewer than 2^32 steps"));
        self.steps.push(Step { id, node, seed, inputs, store, waits, tag });
        id
    }

    /// Drops the buffers' growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.steps.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.waits.shrink_to_fit();
    }

    /// Executes the schedule's *values* sequentially, mutating `data`.
    /// This is the correctness semantics; timing is the simulator's job.
    ///
    /// # Panics
    ///
    /// Panics if a `Temp` input references a later step (invalid schedule).
    pub fn execute_values(&self, data: &mut dmcp_ir::program::DataStore) {
        let mut temps = vec![f64::NAN; self.steps.len()];
        for (k, step) in self.steps.iter().enumerate() {
            for p in self.producers(step) {
                assert!(p.index() < k, "temp {p:?} not yet produced at step {k}");
            }
            self.eval_step(step, k, &mut temps, data);
        }
    }

    /// Executes the schedule's values in an arbitrary caller-supplied step
    /// order, verifying along the way that the order is a permutation
    /// consistent with every step's [`Schedule::producers`] arcs.
    ///
    /// This is the conformance harness's adversarial executor: because the
    /// dependence tracker wires every flow/anti/output arc between steps
    /// (across window boundaries), *any* producer-respecting order must
    /// compute the same values as the sequential order. A divergence means
    /// a missing synchronisation arc, not an unlucky order.
    pub fn execute_values_ordered(
        &self,
        order: &[usize],
        data: &mut dmcp_ir::program::DataStore,
    ) -> Result<(), String> {
        if order.len() != self.steps.len() {
            return Err(format!(
                "order has {} entries for {} steps",
                order.len(),
                self.steps.len()
            ));
        }
        let mut done = vec![false; self.steps.len()];
        let mut temps = vec![f64::NAN; self.steps.len()];
        for &k in order {
            let step = self.steps.get(k).ok_or_else(|| format!("order names step {k}"))?;
            if std::mem::replace(&mut done[k], true) {
                return Err(format!("order repeats step {k}"));
            }
            for p in self.producers(step) {
                if !done[p.index()] {
                    return Err(format!("step {k} ordered before its producer {p:?}"));
                }
            }
            self.eval_step(step, k, &mut temps, data);
        }
        Ok(())
    }

    /// Checks the layout: ids match indices, and each step's input and
    /// wait spans lie inside their buffers, start where the previous
    /// step's ended (the first at 0), and the last step's end the buffers.
    /// Returns a description of the first violation.
    pub fn validate_layout(&self) -> Result<(), String> {
        let (mut inputs, mut waits) = (Span::default(), Span::default());
        for (k, step) in self.steps.iter().enumerate() {
            if step.id.index() != k {
                return Err(format!("step {k} has id {:?}", step.id));
            }
            follows(k, "input", step.inputs, inputs.end, self.inputs.len())?;
            follows(k, "wait", step.waits, waits.end, self.waits.len())?;
            (inputs, waits) = (step.inputs, step.waits);
        }
        for (what, end, len) in
            [("inputs", inputs.end, self.inputs.len()), ("waits", waits.end, self.waits.len())]
        {
            if end as usize != len {
                return Err(format!("{} {what} follow the last step's", len - end as usize));
            }
        }
        Ok(())
    }

    /// Checks structural sanity: the layout ([`Schedule::validate_layout`]),
    /// temps and waits point backwards, and every step has a seed or an
    /// input. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_layout()?;
        for (k, step) in self.steps.iter().enumerate() {
            for p in self.producers(step) {
                if p.index() >= k {
                    return Err(format!("step {k} depends on later step {p:?}"));
                }
            }
            if step.seed.is_none() && step.inputs.is_empty() {
                return Err(format!("step {k} has neither seed nor inputs"));
            }
        }
        Ok(())
    }

    /// Evaluates one step: folds its inputs onto the seed, records the
    /// result as step `k`'s temp, and performs the store if any. Callers
    /// must have produced every temp the step reads.
    fn eval_step(
        &self,
        step: &Step,
        k: usize,
        temps: &mut [f64],
        data: &mut dmcp_ir::program::DataStore,
    ) {
        let mut acc = step.seed;
        for input in self.inputs_of(step) {
            let value = match input.operand {
                Operand::Const(v) => v,
                Operand::Elem(e) => data.get(e.array, e.elem),
                Operand::Temp(t) => temps[t.index()],
            };
            acc = Some(match acc {
                None => value,
                Some(a) => input.op.apply(a, value),
            });
        }
        let result = acc.unwrap_or(0.0);
        temps[k] = result;
        if let Some(st) = &step.store {
            data.set(st.array, st.elem, result);
        }
    }
}

/// The span of a step pushed after a step whose span was `last` (`None`
/// for the first step), when its buffer holds `len` entries.
fn open_span(last: Option<Span>, len: usize) -> Span {
    let start = last.map_or(0, |s| s.end);
    Span { start, end: u32::try_from(len).expect("fewer than 2^32 entries per buffer") }
}

/// Checks that step `k`'s `what` span starts at `from` (where the previous
/// step's ended) and ends inside a buffer of `len` entries.
fn follows(k: usize, what: &str, span: Span, from: u32, len: usize) -> Result<(), String> {
    if span.start != from {
        return Err(format!("step {k}'s {what} span starts at {}, not at {from}", span.start));
    }
    if span.end < span.start || span.end as usize > len {
        return Err(format!(
            "step {k}'s {what} span {}..{} leaves its {len}-entry buffer",
            span.start, span.end
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::program::ProgramBuilder;

    fn elem(array: ArrayId, e: u64) -> Operand {
        Operand::Elem(ElemLoc {
            array,
            elem: e,
            line: LineAddr::new(0),
            believed: NodeId::new(0, 0),
            hot: false,
        })
    }

    fn input(op: BinOp, operand: Operand) -> StepInput {
        StepInput { op, operand }
    }

    /// A schedule of one step on the origin tile folding `inputs` onto
    /// `seed`, waiting on `waits`.
    fn one_step(seed: Option<f64>, inputs: &[StepInput], waits: &[SubId]) -> Schedule {
        let mut sched = Schedule::default();
        inputs.iter().for_each(|&i| sched.push_input(i));
        waits.iter().for_each(|&w| sched.push_wait(w));
        sched.push_step(NodeId::new(0, 0), seed, None, StmtTag::default());
        sched
    }

    #[test]
    fn fold_with_seed_and_temp() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[4], 8);
        let x = b.array("X", &[4], 8);
        let p = b.build();
        let mut data = p.initial_data();
        data.fill(x, &[2.0, 3.0, 4.0, 5.0]);

        // Step 0: t0 = 0 + X[0] + X[1] = 5
        // Step 1: A[0] = t0 * X[2] = 20
        let mut sched = Schedule::default();
        sched.push_input(input(BinOp::Add, elem(x, 0)));
        sched.push_input(input(BinOp::Add, elem(x, 1)));
        let t0 = sched.push_step(NodeId::new(0, 0), Some(0.0), None, StmtTag::default());
        sched.push_input(input(BinOp::Mul, Operand::Temp(t0)));
        sched.push_input(input(BinOp::Mul, elem(x, 2)));
        let store = StoreTarget {
            array: a,
            elem: 0,
            line: LineAddr::new(0),
            home: NodeId::new(1, 0),
            hot: false,
        };
        sched.push_step(NodeId::new(1, 0), Some(1.0), Some(store), StmtTag::default());
        assert_eq!(sched.steps[1].inputs, Span { start: 2, end: 4 });
        sched.validate().unwrap();
        sched.execute_values(&mut data);
        assert_eq!(data.get(a, 0), 20.0);

        let mut again = p.initial_data();
        again.fill(x, &[2.0, 3.0, 4.0, 5.0]);
        sched.execute_values_ordered(&[0, 1], &mut again).unwrap();
        assert_eq!(again.get(a, 0), 20.0);
        // Step 1 reads step 0's temp, so the reversed order must be refused.
        assert!(sched.execute_values_ordered(&[1, 0], &mut again).is_err());
        assert!(sched.execute_values_ordered(&[0], &mut again).is_err());
        assert!(sched.execute_values_ordered(&[0, 0], &mut again).is_err());
    }

    #[test]
    fn seedless_step_uses_first_input() {
        let mut b = ProgramBuilder::new();
        let a = b.array("A", &[4], 8);
        let x = b.array("X", &[4], 8);
        let p = b.build();
        let mut data = p.initial_data();
        data.fill(x, &[2.0, 3.0, 0.0, 0.0]);
        let mut sched = one_step(
            None,
            &[input(BinOp::Add, elem(x, 0)), input(BinOp::Shl, elem(x, 1))], // Add ignored
            &[],
        );
        sched.steps[0].store = Some(StoreTarget {
            array: a,
            elem: 1,
            line: LineAddr::new(0),
            home: NodeId::new(0, 0),
            hot: false,
        });
        sched.execute_values(&mut data);
        assert_eq!(data.get(a, 1), 16.0); // 2 << 3
    }

    #[test]
    fn validate_rejects_forward_temp() {
        let sched = one_step(Some(0.0), &[input(BinOp::Add, Operand::Temp(SubId(5)))], &[]);
        assert!(sched.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_ids() {
        let mut sched = one_step(Some(0.0), &[input(BinOp::Add, Operand::Const(1.0))], &[]);
        sched.steps[0].id = SubId(7);
        assert!(sched.validate().is_err());
    }

    #[test]
    fn validate_rejects_spans_that_leave_or_skip_their_buffers() {
        let mut sched = Schedule::default();
        for k in 0..3 {
            sched.push_input(input(BinOp::Add, Operand::Const(f64::from(k))));
            if k > 0 {
                sched.push_wait(SubId(k - 1));
            }
            sched.push_step(NodeId::new(0, 0), Some(0.0), None, StmtTag::default());
        }
        sched.validate().unwrap();
        let spans = |s: &Schedule| s.steps.iter().map(|s| (s.inputs, s.waits)).collect::<Vec<_>>();
        fn span(start: u32, end: u32) -> Span {
            Span { start, end }
        }
        assert_eq!(
            spans(&sched),
            [(span(0, 1), span(0, 0)), (span(1, 2), span(0, 1)), (span(2, 3), span(1, 2))]
        );
        let broken: [fn(&mut Schedule); 7] = [
            |s| s.steps[2].inputs.end = 4,      // leaves the inputs buffer
            |s| s.steps[2].waits = span(1, 3),  // leaves the waits buffer
            |s| s.steps[1].inputs.start = 0,    // overlaps step 0's inputs
            |s| s.steps[2].waits.start = 0,     // does not start where step 1's ended
            |s| s.steps[1].inputs = span(2, 1), // inverted
            |s| s.inputs.push(s.inputs[0]),     // an entry no step names
            |s| s.steps[0].waits = span(1, 1),  // the first span must start at 0
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut bad = sched.clone();
            breaks(&mut bad);
            assert!(bad.validate_layout().is_err(), "broken layout {i} was accepted");
            assert!(bad.validate().is_err(), "broken layout {i} passed validate");
        }
    }

    #[test]
    fn producers_include_waits() {
        let mut sched = Schedule::default();
        for _ in 0..2 {
            sched.push_step(NodeId::new(0, 0), Some(0.0), None, StmtTag::default());
        }
        sched.push_input(input(BinOp::Add, Operand::Temp(SubId(0))));
        sched.push_wait(SubId(1));
        let id = sched.push_step(NodeId::new(0, 0), Some(0.0), None, StmtTag::default());
        let producers: Vec<_> = sched.producers(&sched.steps[id.index()]).collect();
        assert_eq!(producers, vec![SubId(0), SubId(1)]);
    }
}
