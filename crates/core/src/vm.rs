//! Register-based bytecode backend for derived checkers, enumerators,
//! and generators.
//!
//! A derived instance's plan ([`crate::plan`]) is compiled once, when
//! the [`LibraryBuilder`] derives it, into a flat array of
//! register-machine instructions ([`VmProgram`]), which every session
//! executes in a single threaded dispatch loop. The plan interpreter
//! ([`crate::exec`]) stays as the reference the differential oracles
//! compare against, and as the per-relation fallback for plans that do
//! not compile.
//!
//! One ISA serves the paper's three instantiations of one derivation
//! (§4). A checker program runs under the checker executor
//! ([`Library::run_vm_search`]); a producer program runs under two:
//! the **enumerator** executor pushes each output tuple, by reference,
//! into the consumer's continuation ([`Sink`]) — a compiled checker's
//! `ProduceExt` is "run the callee's enumerator with my instruction
//! suffix as the continuation", with no stream, box, or output vector —
//! and the **generator** executor makes single weighted draws
//! ([`Library::run_vm_gen`]). The public enumerator API stays on the
//! interpreter's lazy streams.
//!
//! The instruction set, register model, compilability rules, and the
//! parity contract with the interpreter are documented in DESIGN.md
//! § "Bytecode VM" — that chapter is the reference; this module is its
//! implementation. The contract in one sentence: for every reachable
//! input, the VM returns the interpreter's verdicts, outcome sequences,
//! and draws, charges the same [`Budget`] steps and backtracks, and
//! emits the same search events, so differential oracles, tabling,
//! serving, and the `try_*` budgets work unchanged on either side of
//! the fallback.
//!
//! Compilation covers every plan the deriver emits for relations of
//! arity at most [`MAX_PREMISE_ARITY`]; [`compile_vm`] returns `None`
//! (per-relation fallback to the interpreter) on wider relations and on
//! any construct outside its register discipline, so new plan features
//! degrade to the slow path instead of breaking.
//!
//! # Register discipline
//!
//! A handler frame is a dense `Vec<Value>`: slots `0..nslots` are the
//! plan's variables (same numbering as [`Env`]), higher registers are
//! compiler temporaries. Compilation enforces *single assignment*: each
//! register has exactly one writing instruction, and every read is
//! preceded by that write on the (single) straight-line path. Binding a
//! variable that requires no computation — a bare `Var` input pattern,
//! a variable-to-variable `EqBind` — emits nothing at all: the compiler
//! *aliases* the variable to the location it matched ([`Src`], an
//! argument position or an already-written register), so reads go to
//! the original value and no `Copy` runs at execution time. Single
//! assignment is also what lets the fan-out instructions (`ProduceExt`,
//! `ProduceRec`, `Unconstrained`) re-enter the instruction suffix per
//! candidate without cloning the frame — every register the suffix
//! reads is either rewritten by the suffix on each re-run or was
//! written before the fan-out point and never changes — where the
//! interpreter clones its `Env` per candidate.
//!
//! # Two monomorphized loops
//!
//! Each executor is compiled twice from one body (a `const METERED:
//! bool` parameter): a *metered* loop that charges the budget, emits
//! probe events, and feeds the memo layer's cost gate, and a *fast*
//! loop with every such site compiled out, entered only when no meter,
//! probe, or verdict table is armed — a state in which the bookkeeping
//! is unobservable, so the two loops are indistinguishable except in
//! speed. See [`Library::run_vm_search`] for the entry gate.
//!
//! [`LibraryBuilder`]: crate::LibraryBuilder
//! [`Budget`]: crate::Budget
//! [`Env`]: indrel_term::Env

use crate::index::DispatchIndex;
use crate::library::{CheckerImpl, Library};
use crate::mode::Mode;
use crate::plan::{Handler, Plan, Step};
use indrel_producers::probe::{Event, ExecKind, FailSite};
use indrel_producers::{cnot, Meter, Outcome};
use indrel_term::random::random_value;
use indrel_term::{CtorId, FunId, Pattern, RelId, TermExpr, TypeExpr, Value, VarId};
use std::ops::ControlFlow;

/// Hard ceiling on registers per compiled handler; plans wider than
/// this fall back to the interpreter (`u16` operands stay valid and a
/// pathological fuzz plan cannot make frames unbounded).
const MAX_REGS: usize = 4096;

/// Where an instruction reads a value from: the caller's argument tuple
/// (input matching reads it in place, no copy into the frame), a
/// register of the current frame, or a *field path* — one constructor
/// field of either. Field paths are how destructuring binds variables
/// without copying: after a `Destruct` guard has verified the base
/// holds the right constructor at the right arity, `ArgField(i, j)`
/// reads field `j` of argument `i` in place, straight through the
/// shared [`Value`] — no clone, no register traffic. Paths are depth
/// one by construction; a nested destructure copies its fields into
/// registers first.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// Argument-tuple position.
    Arg(u16),
    /// Frame register.
    Reg(u16),
    /// Constructor field `.1` of argument `.0` (guarded by a prior
    /// `Destruct` on the same base).
    ArgField(u16, u16),
    /// Constructor field `.1` of frame register `.0` (guarded by a
    /// prior `Destruct` on the same base).
    RegField(u16, u16),
}

/// Premise-arity ceiling for the stack-allocated argument-reference
/// buffers the executor uses ([`Library::vm_exec`]); plans with wider
/// relations fall back to the interpreter. Kept small on purpose: the
/// buffers are zero-initialized per premise, and every realistic
/// relation is far below this.
const MAX_PREMISE_ARITY: usize = 8;

/// Placeholder the argument-reference buffers start from.
static DUMMY_VALUE: Value = Value::Bool(false);

/// One bytecode instruction.
///
/// Operand meaning, register effects, budget charges, and probe events
/// per opcode are specified in the DESIGN.md § "Bytecode VM" reference
/// table; the executor ([`Library::run_vm_search`]) is written to match
/// that table line by line.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    /// `dst ← src` (O(1) value clone). Compiled from `Var` input
    /// patterns and variable-to-variable `EqBind`s.
    Copy {
        /// Source location.
        src: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← Nat(lit)`.
    LoadNat {
        /// Destination register.
        dst: u16,
        /// The literal.
        lit: u64,
    },
    /// `dst ← Bool(lit)`.
    LoadBool {
        /// Destination register.
        dst: u16,
        /// The literal.
        lit: bool,
    },
    /// `dst ← Nat(src + 1)` (saturating, like `TermExpr::eval`).
    /// Panics on a non-nat operand — the same "plan invariant"
    /// condition the interpreter's `expect` enforces.
    MkSucc {
        /// Source location (must hold a `Nat`).
        src: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← ctor(srcs…)`.
    MkCtor {
        /// The constructor.
        ctor: CtorId,
        /// Argument locations, in declaration order.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← fun(srcs…)` — a registered total function.
    CallFun {
        /// The function.
        fun: FunId,
        /// Argument locations.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u16,
    },
    /// Fail the handler (`UnifyFail` at `site`, verdict `Some(false)`)
    /// unless the value is exactly `Nat(lit)`.
    GuardNat {
        /// Scrutinee location.
        src: Src,
        /// Required literal.
        lit: u64,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is a `Nat ≥ min` (a `S (S … _)` pattern
    /// with a wildcard core).
    GuardNatGe {
        /// Scrutinee location.
        src: Src,
        /// Minimum value.
        min: u64,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is exactly `Bool(lit)`.
    GuardBool {
        /// Scrutinee location.
        src: Src,
        /// Required literal.
        lit: bool,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is a `Nat ≥ k`; on success
    /// `dst ← Nat(n − k)` (a `S^k x` pattern, destructured in one step).
    GuardSucc {
        /// Scrutinee location.
        src: Src,
        /// Successor depth (≥ 1).
        k: u64,
        /// Register receiving the predecessor.
        dst: u16,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Structural (in)equality: fail when `(a == b) == negated`.
    /// Compiled from `EqCheck` steps and from non-linear pattern
    /// variables (the §4 reconciliation).
    GuardEq {
        /// Left value.
        a: Src,
        /// Right value.
        b: Src,
        /// `true` for a disequality check.
        negated: bool,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is `ctor(f₁…fₙ)` with arity `dsts.len()`;
    /// on success each `Some(r)` slot receives its field (`None` slots
    /// are wildcard positions, never copied).
    Destruct {
        /// Scrutinee location.
        src: Src,
        /// Required constructor.
        ctor: CtorId,
        /// Per-field destination registers.
        dsts: Box<[Option<u16>]>,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// External checker premise: gather `srcs` and call
    /// [`Library::check`] at the top-level fuel. `Some(true)` falls
    /// through; any other verdict (after `negated` flips it) returns.
    CheckRel {
        /// The relation checked.
        rel: RelId,
        /// Argument locations.
        srcs: Box<[Src]>,
        /// `true` for a negated premise.
        negated: bool,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// Recursive self-premise at the decremented fuel: charges one
    /// budget step, then re-enters this program's dispatch loop.
    RecSelf {
        /// Argument locations.
        srcs: Box<[Src]>,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// External producer premise. Enumerating (E): push the callee's
    /// enumeration into a continuation that writes each tuple into
    /// `outs` and re-runs the instruction suffix (a checker folds the
    /// runs with `bindEC`). Generating (G): one draw into `outs`, the
    /// handler failing when the callee does.
    ProduceExt {
        /// The producer instance's dense id (`Shared::producers`).
        prod: u32,
        /// Input-argument locations.
        srcs: Box<[Src]>,
        /// Registers receiving the produced outputs.
        outs: Box<[u16]>,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// Recursive producer premise at the decremented size (producer
    /// programs only): `ProduceExt` against this program itself, with
    /// no entry-boundary bookkeeping.
    ProduceRec {
        /// Input-argument locations.
        srcs: Box<[Src]>,
        /// Registers receiving the produced outputs.
        outs: Box<[u16]>,
    },
    /// Unconstrained existential. Checking or enumerating: iterate the
    /// bounded-exhaustive values of a type into `dst`, re-running the
    /// suffix per candidate, with domain truncation counted as
    /// out-of-fuel. Generating: one random value.
    Unconstrained {
        /// The instantiated type.
        ty: TypeExpr,
        /// Register receiving each candidate.
        dst: u16,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// A producer handler's tail: the output tuple. Enumerating, it is
    /// passed by reference to the consumer's continuation; generating,
    /// it is the call's result.
    Yield {
        /// Output locations, in the mode's output order.
        srcs: Box<[Src]>,
    },
}

impl Instr {
    /// The opcode mnemonic, as named in the DESIGN.md instruction-set
    /// reference (and checked against it by `scripts/check_vm_docs.sh`).
    pub(crate) fn opcode(&self) -> &'static str {
        match self {
            Instr::Copy { .. } => "Copy",
            Instr::LoadNat { .. } => "LoadNat",
            Instr::LoadBool { .. } => "LoadBool",
            Instr::MkSucc { .. } => "MkSucc",
            Instr::MkCtor { .. } => "MkCtor",
            Instr::CallFun { .. } => "CallFun",
            Instr::GuardNat { .. } => "GuardNat",
            Instr::GuardNatGe { .. } => "GuardNatGe",
            Instr::GuardBool { .. } => "GuardBool",
            Instr::GuardSucc { .. } => "GuardSucc",
            Instr::GuardEq { .. } => "GuardEq",
            Instr::Destruct { .. } => "Destruct",
            Instr::CheckRel { .. } => "CheckRel",
            Instr::RecSelf { .. } => "RecSelf",
            Instr::ProduceExt { .. } => "ProduceExt",
            Instr::ProduceRec { .. } => "ProduceRec",
            Instr::Unconstrained { .. } => "Unconstrained",
            Instr::Yield { .. } => "Yield",
        }
    }
}

/// One compiled handler: a register count and a straight-line
/// instruction array (input matching first, then the scheduled steps).
pub(crate) struct VmHandler {
    /// Mirrors [`Handler::recursive`]; at fuel 0 the dispatch loop
    /// skips recursive handlers, exactly like the interpreter.
    pub(crate) recursive: bool,
    /// Frame width: plan slots plus compiler temporaries.
    pub(crate) nregs: usize,
    /// The instructions.
    pub(crate) code: Box<[Instr]>,
}

/// A derived checker or producer compiled to bytecode: one
/// [`VmHandler`] per rule, plus what rule dispatch needs. Dispatch
/// itself (constructor indexing, fuel discipline, backtrack charges,
/// the generator's weighted choice) lives in the executor, not the
/// program.
pub(crate) struct VmProgram {
    /// The relation checked or produced from.
    pub(crate) rel: RelId,
    /// First-argument discrimination index ([`crate::index`]); `None`
    /// when every input pattern is flexible, and for producers, which
    /// dispatch linearly.
    pub(crate) index: Option<DispatchIndex>,
    /// Whether any handler is recursive: at fuel 0 the skipped
    /// recursive handlers make a failed search out-of-fuel.
    pub(crate) has_recursive: bool,
    /// One compiled handler per plan handler, same order.
    pub(crate) handlers: Vec<VmHandler>,
    /// The identity bucket `[0, 1, .., handlers.len())`, so unindexed
    /// dispatch walks the same plain `&[u32]` slice an index bucket
    /// would — one loop shape, no iterator enum in the hot path.
    pub(crate) all: Box<[u32]>,
}

impl VmProgram {
    /// Total instruction count across handlers (diagnostics only).
    pub(crate) fn code_len(&self) -> usize {
        self.handlers.iter().map(|h| h.code.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Most handlers a producer program may have: the generator keeps its
/// weighted options in a stack array of this size.
const MAX_GEN_HANDLERS: usize = 32;

/// Compiles a checker or producer plan to bytecode, resolving external
/// producer premises to dense instance ids through `resolve`. Returns
/// `None` — the signal for the per-relation interpreter fallback — when
/// any handler uses a construct outside the register discipline (see
/// the DESIGN.md compilability rules): a step of the other plan kind, a
/// register written twice, a read of a never-written register, a
/// pattern that cannot match any value, a frame wider than the register
/// ceiling, a premise or output tuple wider than
/// [`MAX_PREMISE_ARITY`], an unresolved producer, or a producer with
/// more than [`MAX_GEN_HANDLERS`] handlers.
pub(crate) fn compile_vm(
    plan: &Plan,
    resolve: impl Fn(RelId, &Mode) -> Option<u32>,
) -> Option<VmProgram> {
    let checker = plan.mode.is_checker();
    if !checker && plan.handlers.len() > MAX_GEN_HANDLERS {
        return None;
    }
    let index = if checker {
        let rows: Vec<&[Pattern]> = plan
            .handlers
            .iter()
            .map(|h| h.input_pats.as_slice())
            .collect();
        DispatchIndex::build(&rows)
    } else {
        None
    };
    // Dispatch runs through the index whenever one exists, so a head
    // guard at the indexed position that merely restates the bucket's
    // head class can never fail — the compiler drops it (see
    // [`head_guard_subsumed`]).
    let elide_pos = index.as_ref().map(DispatchIndex::pos);
    let handlers = plan
        .handlers
        .iter()
        .map(|h| compile_handler(h, checker, elide_pos, &resolve))
        .collect::<Option<Vec<_>>>()?;
    let all = (0..handlers.len() as u32).collect();
    Some(VmProgram {
        rel: plan.rel,
        index,
        has_recursive: plan.has_recursive_handlers(),
        handlers,
        all,
    })
}

/// Per-handler compiler state: the emitted code plus the single-
/// assignment bookkeeping. `loc[v]` records where plan variable `v`
/// lives once bound — its own frame register when an instruction
/// writes it, or an *alias* (an argument position or an
/// already-written register) when binding it required no work, in
/// which case every read compiles to the aliased location and the
/// `Copy` the interpreter's `Env` bind corresponds to is never
/// emitted.
struct Compiler<'r> {
    /// Compiling a checker plan (else a producer plan).
    checker: bool,
    resolve: &'r dyn Fn(RelId, &Mode) -> Option<u32>,
    code: Vec<Instr>,
    nslots: usize,
    nregs: usize,
    /// Frame width actually needed at run time: one past the highest
    /// register any instruction *writes*. Aliased variables consume no
    /// frame space, so a handler that binds everything by aliasing —
    /// the common pure-destructuring shape — runs on a zero-width
    /// frame and skips frame setup entirely.
    frame_len: usize,
    loc: Vec<Option<Src>>,
}

fn compile_handler(
    h: &Handler,
    checker: bool,
    elide_pos: Option<usize>,
    resolve: &dyn Fn(RelId, &Mode) -> Option<u32>,
) -> Option<VmHandler> {
    if h.nslots > MAX_REGS
        || h.input_pats.len() > MAX_PREMISE_ARITY
        || h.outputs.len() > MAX_PREMISE_ARITY
    {
        return None;
    }
    let mut c = Compiler {
        checker,
        resolve,
        code: Vec::new(),
        nslots: h.nslots,
        nregs: h.nslots,
        frame_len: 0,
        loc: vec![None; h.nslots],
    };
    for (i, pat) in h.input_pats.iter().enumerate() {
        let arg = u16::try_from(i).ok()?;
        if elide_pos == Some(i) && head_guard_subsumed(pat) {
            // Indexed dispatch already proved the scrutinee's head
            // here; only the sub-structure (if any) needs matching.
            // Field reads below lean on the same dispatch invariant
            // the elided guard would have re-checked.
            if let Pattern::Ctor(_, pats) = pat {
                if pats.len() > u16::MAX as usize {
                    return None;
                }
                for (j, p) in pats.iter().enumerate() {
                    c.pattern(Src::ArgField(arg, j as u16), p, FailSite::Inputs)?;
                }
            }
            continue;
        }
        c.pattern(Src::Arg(arg), pat, FailSite::Inputs)?;
    }
    for (idx, step) in h.steps.iter().enumerate() {
        c.step(idx as u32, step)?;
    }
    if !checker {
        let srcs = c.expr_list(&h.outputs)?;
        c.code.push(Instr::Yield { srcs });
    }
    Some(VmHandler {
        recursive: h.recursive,
        nregs: c.frame_len,
        code: c.code.into_boxed_slice(),
    })
}

/// Whether indexed dispatch subsumes this pattern's head guard: the
/// pattern demands exactly the head class (`index::head_of`) its
/// bucket guarantees, so the guard the compiler would emit at the
/// indexed position can never fire. True for a constructor pattern
/// (the bucket pins the constructor; a fixed-arity universe pins the
/// field count), the literal `0`, a boolean literal, and `S _` (the
/// `NatPos` bucket guarantees exactly `n ≥ 1`). False wherever the
/// guard is strictly stronger than the class — `NatLit(n)` for
/// positive `n`, deeper successor spines — or where matching also
/// binds (`S x`).
fn head_guard_subsumed(pat: &Pattern) -> bool {
    match pat {
        Pattern::Ctor(..) | Pattern::NatLit(0) | Pattern::BoolLit(_) => true,
        Pattern::Succ(inner) => matches!(**inner, Pattern::Wild),
        _ => false,
    }
}

impl Compiler<'_> {
    /// Records that an instruction writes register `r`, growing the
    /// run-time frame to cover it.
    fn note_write(&mut self, r: u16) {
        self.frame_len = self.frame_len.max(r as usize + 1);
    }

    /// Allocates a fresh temporary. Temporaries are born bound: the
    /// instruction emitted immediately after allocation writes them.
    fn temp(&mut self) -> Option<u16> {
        if self.nregs >= MAX_REGS {
            return None;
        }
        let r = self.nregs;
        self.nregs += 1;
        let r = u16::try_from(r).ok()?;
        self.note_write(r);
        Some(r)
    }

    /// A plan variable for reading: its location, once bound.
    fn read_var(&self, var: VarId) -> Option<Src> {
        self.loc.get(var.index()).copied().flatten()
    }

    /// A plan variable for writing by an instruction (`Destruct`
    /// fields, `GuardSucc`, producer outputs): its own frame register.
    /// Must be unbound (single assignment); marks it bound.
    fn bind_var(&mut self, var: VarId) -> Option<u16> {
        if var.index() >= self.nslots || self.loc[var.index()].is_some() {
            return None;
        }
        let r = u16::try_from(var.index()).ok()?;
        self.loc[var.index()] = Some(Src::Reg(r));
        self.note_write(r);
        Some(r)
    }

    /// Binds a plan variable by aliasing: subsequent reads compile to
    /// `src` directly — no `Copy` instruction, no register write.
    fn alias_var(&mut self, var: VarId, src: Src) -> Option<()> {
        if var.index() >= self.nslots || self.loc[var.index()].is_some() {
            return None;
        }
        self.loc[var.index()] = Some(src);
        Some(())
    }

    fn is_bound(&self, var: VarId) -> bool {
        self.loc.get(var.index()).is_some_and(Option::is_some)
    }

    /// Compiles a pattern match of `src` into guard instructions.
    /// Already-bound variables become equality guards (the non-linear
    /// reconciliation `Pattern::matches` performs against its `Env`).
    fn pattern(&mut self, src: Src, pat: &Pattern, site: FailSite) -> Option<()> {
        match pat {
            Pattern::Wild => {}
            Pattern::Var(x) => match self.read_var(*x) {
                // Non-linear occurrence: the reconciliation
                // `Pattern::matches` performs against its `Env`.
                Some(b) => self.code.push(Instr::GuardEq {
                    a: src,
                    b,
                    negated: false,
                    site,
                }),
                // First occurrence: a bare variable always matches, so
                // binding is pure aliasing — zero instructions.
                None => self.alias_var(*x, src)?,
            },
            Pattern::NatLit(n) => self.code.push(Instr::GuardNat { src, lit: *n, site }),
            Pattern::BoolLit(b) => self.code.push(Instr::GuardBool { src, lit: *b, site }),
            Pattern::Succ(inner) => {
                // Flatten the successor spine: `S^k core` matches `Nat n`
                // iff `n ≥ k` and `core` matches `Nat (n − k)`.
                let mut k = 1u64;
                let mut core: &Pattern = inner;
                while let Pattern::Succ(next) = core {
                    k = k.checked_add(1)?;
                    core = next;
                }
                match core {
                    Pattern::Wild => self.code.push(Instr::GuardNatGe { src, min: k, site }),
                    Pattern::NatLit(m) => self.code.push(Instr::GuardNat {
                        src,
                        // `n − k == m` ⇔ `n == m + k`; on overflow no
                        // nat satisfies it — fall back (None) rather
                        // than encode an unmatchable guard.
                        lit: m.checked_add(k)?,
                        site,
                    }),
                    Pattern::Var(x) => {
                        if let Some(b) = self.read_var(*x) {
                            let t = self.temp()?;
                            self.code.push(Instr::GuardSucc {
                                src,
                                k,
                                dst: t,
                                site,
                            });
                            self.code.push(Instr::GuardEq {
                                a: Src::Reg(t),
                                b,
                                negated: false,
                                site,
                            });
                        } else {
                            let dst = self.bind_var(*x)?;
                            self.code.push(Instr::GuardSucc { src, k, dst, site });
                        }
                    }
                    // A boolean or constructor under a successor can
                    // never match a nat — unmatchable, fall back.
                    _ => return None,
                }
            }
            Pattern::Ctor(ctor, pats) => {
                // A base that is an argument or a register can be read
                // through depth-one field paths: emit `Destruct` as a
                // pure guard (no register writes) and compile every
                // sub-pattern against the field source in place — a
                // first-occurrence variable field costs nothing at all.
                // A base that is itself a field path cannot nest
                // further, so its fields copy into registers first.
                let fields = match src {
                    Src::Arg(i) => (0..pats.len())
                        .map(|j| Src::ArgField(i, j as u16))
                        .collect(),
                    Src::Reg(r) => (0..pats.len())
                        .map(|j| Src::RegField(r, j as u16))
                        .collect(),
                    Src::ArgField(..) | Src::RegField(..) => Vec::new(),
                };
                if !fields.is_empty() {
                    if pats.len() > u16::MAX as usize {
                        return None;
                    }
                    self.code.push(Instr::Destruct {
                        src,
                        ctor: *ctor,
                        dsts: vec![None; pats.len()].into_boxed_slice(),
                        site,
                    });
                    for (f, p) in fields.into_iter().zip(pats) {
                        self.pattern(f, p, site)?;
                    }
                } else {
                    let mut dsts = Vec::with_capacity(pats.len());
                    let mut deferred: Vec<(u16, &Pattern)> = Vec::new();
                    for p in pats {
                        match p {
                            Pattern::Wild => dsts.push(None),
                            Pattern::Var(x) if !self.is_bound(*x) => {
                                dsts.push(Some(self.bind_var(*x)?));
                            }
                            _ => {
                                let t = self.temp()?;
                                dsts.push(Some(t));
                                deferred.push((t, p));
                            }
                        }
                    }
                    self.code.push(Instr::Destruct {
                        src,
                        ctor: *ctor,
                        dsts: dsts.into_boxed_slice(),
                        site,
                    });
                    for (t, p) in deferred {
                        self.pattern(Src::Reg(t), p, site)?;
                    }
                }
            }
        }
        Some(())
    }

    /// Compiles an expression, returning the location holding its
    /// value. Variables compile to their bound location (no copy);
    /// compound expressions build into fresh temporaries.
    fn expr(&mut self, e: &TermExpr) -> Option<Src> {
        if let TermExpr::Var(x) = e {
            return self.read_var(*x);
        }
        let dst = self.temp()?;
        self.expr_into(e, dst)?;
        Some(Src::Reg(dst))
    }

    /// Compiles an expression directly into `dst` (used by `EqBind`,
    /// where `dst` is the bound variable's own register).
    fn expr_into(&mut self, e: &TermExpr, dst: u16) -> Option<()> {
        match e {
            TermExpr::Var(x) => {
                let src = self.read_var(*x)?;
                self.code.push(Instr::Copy { src, dst });
            }
            TermExpr::NatLit(n) => self.code.push(Instr::LoadNat { dst, lit: *n }),
            TermExpr::BoolLit(b) => self.code.push(Instr::LoadBool { dst, lit: *b }),
            TermExpr::Succ(inner) => {
                let src = self.expr(inner)?;
                self.code.push(Instr::MkSucc { src, dst });
            }
            TermExpr::Ctor(c, args) => {
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::MkCtor {
                    ctor: *c,
                    srcs,
                    dst,
                });
            }
            TermExpr::Fun(f, args) => {
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::CallFun { fun: *f, srcs, dst });
            }
        }
        Some(())
    }

    /// Binds a producer premise's output slots to their own registers;
    /// the tuple passes through a stack buffer, hence the arity gate.
    fn out_regs(&mut self, slots: &[VarId]) -> Option<Box<[u16]>> {
        if slots.len() > MAX_PREMISE_ARITY {
            return None;
        }
        slots
            .iter()
            .map(|v| self.bind_var(*v))
            .collect::<Option<Vec<_>>>()
            .map(Vec::into_boxed_slice)
    }

    fn expr_list(&mut self, args: &[TermExpr]) -> Option<Box<[Src]>> {
        args.iter()
            .map(|a| self.expr(a))
            .collect::<Option<Vec<_>>>()
            .map(Vec::into_boxed_slice)
    }

    /// Compiles one scheduled plan step.
    fn step(&mut self, idx: u32, step: &Step) -> Option<()> {
        let site = FailSite::Step(idx);
        match step {
            Step::EqCheck { lhs, rhs, negated } => {
                // Same evaluation order as the interpreter: lhs, then
                // rhs, then the comparison.
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.code.push(Instr::GuardEq {
                    a,
                    b,
                    negated: *negated,
                    site,
                });
            }
            Step::EqBind { var, expr } => {
                // The defining expression is compiled while `var` is
                // still unbound, so a (malformed) self-reference fails
                // compilation instead of reading garbage.
                if var.index() >= self.nslots || self.is_bound(*var) {
                    return None;
                }
                if let TermExpr::Var(y) = expr {
                    // Variable-to-variable binding is pure aliasing.
                    let src = self.read_var(*y)?;
                    self.loc[var.index()] = Some(src);
                } else {
                    let dst = u16::try_from(var.index()).ok()?;
                    self.note_write(dst);
                    self.expr_into(expr, dst)?;
                    self.loc[var.index()] = Some(Src::Reg(dst));
                }
            }
            Step::MatchExpr { scrutinee, pattern } => {
                let s = self.expr(scrutinee)?;
                self.pattern(s, pattern, site)?;
            }
            Step::CheckRel { rel, args, negated } => {
                if args.len() > MAX_PREMISE_ARITY {
                    return None;
                }
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::CheckRel {
                    rel: *rel,
                    srcs,
                    negated: *negated,
                    step: idx,
                });
            }
            Step::RecCheck { args } => {
                if !self.checker || args.len() > MAX_PREMISE_ARITY {
                    return None;
                }
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::RecSelf { srcs, step: idx });
            }
            Step::ProduceExt {
                rel,
                mode,
                in_args,
                out_slots,
            } => {
                let prod = (self.resolve)(*rel, mode)?;
                let srcs = self.expr_list(in_args)?;
                let outs = self.out_regs(out_slots)?;
                self.code.push(Instr::ProduceExt {
                    prod,
                    srcs,
                    outs,
                    step: idx,
                });
            }
            // A ProduceRec in a checker plan (never emitted) is
            // uncompilable rather than unreachable, so a future plan
            // change degrades to the interpreter.
            Step::ProduceRec { in_args, out_slots } => {
                if self.checker || in_args.len() > MAX_PREMISE_ARITY {
                    return None;
                }
                let srcs = self.expr_list(in_args)?;
                let outs = self.out_regs(out_slots)?;
                self.code.push(Instr::ProduceRec { srcs, outs });
            }
            Step::Unconstrained { var, ty } => {
                let dst = self.bind_var(*var)?;
                self.code.push(Instr::Unconstrained {
                    ty: ty.clone(),
                    dst,
                    step: idx,
                });
            }
        }
        Some(())
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// VM scratch: free lists for register frames and premise argument
/// vectors. One lives on the session (`library::Inner::vm_frames`)
/// behind a `RefCell`, but it is *taken wholesale* at each VM entry and
/// threaded `&mut` through the search, so the dispatch loop itself
/// never touches the `RefCell`. A re-entrant entry — an uncompiled
/// premise calling back into the VM through [`Library::check`] — finds
/// the cell empty, starts with a cold scratch, and merges it back on
/// exit.
#[derive(Default)]
pub(crate) struct VmFrames {
    free: Vec<Vec<Value>>,
    argv: Vec<Vec<Value>>,
}

/// Most vectors each free list keeps. Push enumeration holds one frame
/// and one argument vector per open fan-out level, so the lists are
/// sized for the deepest nests the bundled workloads reach.
const POOL_CAP: usize = 64;

impl VmFrames {
    /// A frame of `nregs` registers. A zero-width frame — a handler
    /// that binds everything by aliasing — touches no pool.
    #[inline]
    fn take(&mut self, nregs: usize) -> Vec<Value> {
        if nregs == 0 {
            return Vec::new();
        }
        let mut f = self.free.pop().unwrap_or_default();
        f.clear();
        f.resize(nregs, Value::Bool(false));
        f
    }

    #[inline]
    fn put(&mut self, f: Vec<Value>) {
        if f.capacity() > 0 && self.free.len() < POOL_CAP {
            self.free.push(f);
        }
    }

    fn take_argv(&mut self) -> Vec<Value> {
        self.argv.pop().unwrap_or_default()
    }

    fn put_argv(&mut self, mut v: Vec<Value>) {
        v.clear();
        if self.argv.len() < POOL_CAP {
            self.argv.push(v);
        }
    }
}

/// One budget step against the entry-cached meter — the same decision
/// [`Library`]'s `charge_step` makes, without the per-site `RefCell`
/// borrow (the armed meter cannot change during a search: arming
/// happens only in the `try_*` entry points, around whole calls).
#[inline]
fn charge_step_cached(meter: &Option<Meter>) -> bool {
    match meter {
        Some(m) => m.charge_step(),
        None => true,
    }
}

/// One abandoned alternative against the entry-cached meter.
#[inline]
fn charge_backtrack_cached(meter: &Option<Meter>) -> bool {
    match meter {
        Some(m) => m.charge_backtrack(),
        None => true,
    }
}

#[inline]
fn read<'a>(frame: &'a [Value], args: &'a [&'a Value], src: Src) -> &'a Value {
    match src {
        Src::Arg(i) => args[i as usize],
        Src::Reg(r) => &frame[r as usize],
        Src::ArgField(i, j) => field(args[i as usize], j),
        Src::RegField(r, j) => field(&frame[r as usize], j),
    }
}

/// Resolves a depth-one field path. The compiler only emits field
/// sources behind a `Destruct` guard on the same base, so the base is
/// always a constructor of sufficient arity here.
#[inline]
fn field(base: &Value, j: u16) -> &Value {
    match base {
        Value::Ctor(_, fields) => &fields[j as usize],
        _ => unreachable!("plan invariant: field source on a non-constructor"),
    }
}

/// Resolves a premise's source list into the stack reference buffer,
/// returning the populated length. Arities one through three — every
/// premise in the bundled workloads — unroll to straight-line reads;
/// only wider calls pay a counted loop.
#[inline(always)]
fn fill_refs<'a>(
    buf: &mut [&'a Value; MAX_PREMISE_ARITY],
    frame: &'a [Value],
    args: &'a [&'a Value],
    srcs: &[Src],
) -> usize {
    match *srcs {
        [a] => {
            buf[0] = read(frame, args, a);
        }
        [a, b] => {
            buf[0] = read(frame, args, a);
            buf[1] = read(frame, args, b);
        }
        [a, b, c] => {
            buf[0] = read(frame, args, a);
            buf[1] = read(frame, args, b);
            buf[2] = read(frame, args, c);
        }
        _ => {
            for (slot, &s) in buf.iter_mut().zip(srcs) {
                *slot = read(frame, args, s);
            }
        }
    }
    srcs.len()
}

/// Points a stack reference buffer at an owned tuple, returning the
/// populated length (compilation bounds every tuple it passes by
/// `MAX_PREMISE_ARITY`).
#[inline]
fn refs_of<'a>(buf: &mut [&'a Value; MAX_PREMISE_ARITY], vals: &'a [Value]) -> usize {
    for (slot, v) in buf.iter_mut().zip(vals) {
        *slot = v;
    }
    vals.len().min(MAX_PREMISE_ARITY)
}

/// A push enumerator's consumer, called once per outcome in stream
/// order: `Some` passes the output tuple by reference, `None` is an
/// out-of-fuel marker. `Break` stops the enumeration. The frame pools are
/// a parameter rather than a capture because the enumerator holds them.
type Sink<'a> = dyn FnMut(&mut VmFrames, Option<&[&Value]>) -> ControlFlow<()> + 'a;

impl Library {
    /// Takes the session's VM scratch out of its `RefCell`, leaving a
    /// fresh empty one for any re-entrant entry underneath.
    fn take_vm_frames(&self) -> VmFrames {
        self.inner.vm_frames.take()
    }

    /// Returns the scratch to the session, merging with whatever a
    /// re-entrant entry left behind (capped, like every session pool).
    fn put_vm_frames(&self, mut frames: VmFrames) {
        let mut pool = self.inner.vm_frames.borrow_mut();
        if pool.free.is_empty() && pool.argv.is_empty() {
            *pool = frames;
        } else {
            while pool.free.len() < POOL_CAP {
                match frames.free.pop() {
                    Some(f) => pool.free.push(f),
                    None => break,
                }
            }
            while pool.argv.len() < POOL_CAP {
                match frames.argv.pop() {
                    Some(v) => pool.argv.push(v),
                    None => break,
                }
            }
        }
    }

    /// Whether a VM entry may run the fast loop: no meter, probe, or
    /// verdict table armed, so every charge answers `true`, every event
    /// is dropped, and `search_calls` feeds nothing. None of the three
    /// can change mid-call — they arm only between top-level calls.
    fn vm_fast(&self, meter: &Option<Meter>) -> bool {
        meter.is_none() && !self.probe_armed() && self.inner.memo.borrow().is_none()
    }

    /// The search body of a compiled checker: rule dispatch, the fuel
    /// discipline, backtrack charges, and probe events, with handler
    /// bodies executed by [`Library::vm_exec`]. Entered below the entry
    /// boundary (`Library::run_derived_check`), which has already
    /// charged the entry step and consulted the verdict table.
    ///
    /// This boundary decides, once per entry, which of the two
    /// monomorphized dispatch loops runs (the `METERED` const parameter
    /// of [`Library::vm_search`]):
    ///
    /// * the **metered** loop — whenever a meter, probe, or verdict
    ///   table is armed — charges the budget, emits probe
    ///   events, and bumps `search_calls`, with the armed meter resolved
    ///   once here instead of one `RefCell` borrow per charge site;
    /// * the **fast** loop — when none of the three is armed — compiles
    ///   all of that bookkeeping out ([`Library::vm_fast`]).
    pub(crate) fn run_vm_search(
        &self,
        prog: &VmProgram,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        // The executor passes arguments by reference all the way down
        // (premises build `&[&Value]` buffers instead of cloning into
        // owned vectors), so the owned entry tuple converts to a
        // reference buffer once here. Compilation gates every argument
        // read below `MAX_PREMISE_ARITY`, so the truncation can never
        // drop a readable position.
        debug_assert!(args.len() <= MAX_PREMISE_ARITY);
        let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
        let len = refs_of(&mut buf, args);
        let refs = &buf[..len];
        let mut frames = self.take_vm_frames();
        let meter = self.active_meter();
        let r = if self.vm_fast(&meter) {
            self.vm_search::<false>(prog, &None, &mut frames, size, top, refs)
        } else {
            self.vm_search::<true>(prog, &meter, &mut frames, size, top, refs)
        };
        self.put_vm_frames(frames);
        r
    }

    /// The generator entry of a compiled producer (`Library::generate`
    /// and `try_generate`): picks the loop like
    /// [`Library::run_vm_search`], then runs [`Library::vm_gen`], which
    /// charges the entry step itself.
    pub(crate) fn run_vm_gen(
        &self,
        prog: &VmProgram,
        size: u64,
        top: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        debug_assert!(inputs.len() <= MAX_PREMISE_ARITY);
        let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
        let len = refs_of(&mut buf, inputs);
        let refs = &buf[..len];
        let mut frames = self.take_vm_frames();
        let meter = self.active_meter();
        let mut out = Vec::new();
        let ok = if self.vm_fast(&meter) {
            self.vm_gen::<false>(prog, &None, &mut frames, size, top, refs, rng, &mut out)
        } else {
            self.vm_gen::<true>(prog, &meter, &mut frames, size, top, refs, rng, &mut out)
        };
        self.put_vm_frames(frames);
        ok.then_some(out)
    }

    #[inline]
    fn vm_search<const METERED: bool>(
        &self,
        prog: &VmProgram,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        // The memo cost gate's counter, the probe's Enter/depth pair,
        // and the constructor-indexed dispatch with its IndexSkip event.
        // Pruned handlers would have failed their input match
        // conclusively (`Some(false)`), so the verdict — including the
        // `needs_fuel` bookkeeping — is identical to linear dispatch.
        if METERED {
            self.inner
                .search_calls
                .set(self.inner.search_calls.get() + 1);
        }
        let _depth = if METERED {
            self.probe_enter(prog.rel, ExecKind::Checker)
        } else {
            None
        };
        let mut needs_fuel = false;
        let size_rem = size.saturating_sub(1);
        let candidates: &[u32] = match &prog.index {
            Some(index) => {
                let bucket = index.candidates(args);
                if METERED {
                    let skipped = index.total() - bucket.len() as u32;
                    if skipped > 0 {
                        self.probe(|| Event::IndexSkip {
                            rel: prog.rel,
                            skipped,
                        });
                    }
                }
                bucket
            }
            None => &prog.all,
        };
        for &i in candidates {
            let h = &prog.handlers[i as usize];
            if size == 0 && h.recursive {
                continue;
            }
            if METERED {
                self.probe(|| Event::RuleAttempt {
                    rel: prog.rel,
                    rule: i,
                });
            }
            // A handler whose every guard was elided (a base-case rule
            // fully subsumed by indexed dispatch) has an empty body:
            // success is unconditional, no frame or executor needed.
            let r = if h.code.is_empty() {
                Some(true)
            } else {
                let mut frame = frames.take(h.nregs);
                let r = self.vm_exec::<METERED>(
                    prog, h, i, 0, &mut frame, frames, meter, size_rem, top, args,
                );
                frames.put(frame);
                r
            };
            match r {
                Some(true) => {
                    if METERED {
                        self.probe(|| Event::RuleSuccess {
                            rel: prog.rel,
                            rule: i,
                        });
                    }
                    return Some(true);
                }
                Some(false) => {}
                None => needs_fuel = true,
            }
            if METERED {
                self.probe(|| Event::Backtrack {
                    rel: prog.rel,
                    rule: i,
                });
                if !charge_backtrack_cached(meter) {
                    return None;
                }
            }
        }
        if needs_fuel || (size == 0 && prog.has_recursive) {
            None
        } else {
            Some(false)
        }
    }

    /// Executes one straight-line instruction — a load, a construction,
    /// a function call, or a guard, the part of the ISA all three
    /// executors share — failing with the site of a failed guard. The
    /// executors match their own instructions first and fall through to
    /// this one, so the two matches fold into one dispatch.
    #[inline(always)]
    fn vm_simple(
        &self,
        instr: &Instr,
        frame: &mut [Value],
        args: &[&Value],
        frames: &mut VmFrames,
    ) -> Result<(), FailSite> {
        match instr {
            Instr::Copy { src, dst } => {
                let v = read(frame, args, *src).clone();
                frame[*dst as usize] = v;
            }
            Instr::LoadNat { dst, lit } => frame[*dst as usize] = Value::Nat(*lit),
            Instr::LoadBool { dst, lit } => frame[*dst as usize] = Value::Bool(*lit),
            Instr::MkSucc { src, dst } => {
                let n = read(frame, args, *src)
                    .as_nat()
                    .expect("plan invariant: successor of a non-nat");
                frame[*dst as usize] = Value::Nat(n.saturating_add(1));
            }
            Instr::MkCtor { ctor, srcs, dst } => {
                let vals = srcs.iter().map(|&s| read(frame, args, s).clone()).collect();
                frame[*dst as usize] = Value::ctor(*ctor, vals);
            }
            Instr::CallFun { fun, srcs, dst } => {
                let mut vals = frames.take_argv();
                vals.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
                let v = self.universe().fun(*fun).apply(&vals);
                frames.put_argv(vals);
                frame[*dst as usize] = v;
            }
            Instr::GuardNat { src, lit, site } => {
                if read(frame, args, *src).as_nat() != Some(*lit) {
                    return Err(*site);
                }
            }
            Instr::GuardNatGe { src, min, site } => {
                if read(frame, args, *src).as_nat().is_none_or(|n| n < *min) {
                    return Err(*site);
                }
            }
            Instr::GuardBool { src, lit, site } => {
                if read(frame, args, *src).as_bool() != Some(*lit) {
                    return Err(*site);
                }
            }
            Instr::GuardSucc { src, k, dst, site } => match read(frame, args, *src).as_nat() {
                Some(n) if n >= *k => frame[*dst as usize] = Value::Nat(n - *k),
                _ => return Err(*site),
            },
            Instr::GuardEq {
                a,
                b,
                negated,
                site,
            } => {
                let l = read(frame, args, *a);
                let r = read(frame, args, *b);
                if (l == r) == *negated {
                    return Err(*site);
                }
            }
            Instr::Destruct {
                src,
                ctor,
                dsts,
                site,
            } => {
                let fields = match read(frame, args, *src) {
                    Value::Ctor(c, fields) if c == ctor && fields.len() == dsts.len() => {
                        // Pure guard (every field read through a path
                        // source): no copies at all. Otherwise an O(1)
                        // Arc clone releases the borrow of the frame so
                        // the field copies can write.
                        if dsts.iter().all(Option::is_none) {
                            None
                        } else {
                            Some(fields.clone())
                        }
                    }
                    _ => return Err(*site),
                };
                if let Some(fields) = fields {
                    for (slot, v) in dsts.iter().zip(fields.iter()) {
                        if let Some(d) = slot {
                            frame[*d as usize] = v.clone();
                        }
                    }
                }
            }
            Instr::CheckRel { .. }
            | Instr::RecSelf { .. }
            | Instr::ProduceExt { .. }
            | Instr::ProduceRec { .. }
            | Instr::Unconstrained { .. }
            | Instr::Yield { .. } => {
                unreachable!("{} is not a straight-line instruction here", instr.opcode())
            }
        }
        Ok(())
    }

    /// An external checker premise, shared by the three executors: the
    /// full [`Library::check`] entry in the metered loop; in the fast
    /// loop, its inlined core minus the (inert there) charge and probe
    /// sites — a compiled callee stays inside the VM on these frame pools,
    /// taking the reference buffer as-is.
    #[inline(always)]
    fn vm_check_rel<const METERED: bool>(
        &self,
        rel: RelId,
        refs: &[&Value],
        frames: &mut VmFrames,
        top: u64,
    ) -> Option<bool> {
        if METERED {
            let mut vals = frames.take_argv();
            vals.extend(refs.iter().map(|&v| v.clone()));
            let r = self.check(rel, top, top, &vals);
            frames.put_argv(vals);
            return r;
        }
        let imp = self.require_checker(rel).unwrap_or_else(|e| panic!("{e}"));
        match imp {
            CheckerImpl::Hand(f) => match refs {
                // Small arities clone into a stack array — no pool
                // round-trip.
                [a] => f(top, top, &[(*a).clone()]),
                [a, b] => f(top, top, &[(*a).clone(), (*b).clone()]),
                [a, b, c] => f(top, top, &[(*a).clone(), (*b).clone(), (*c).clone()]),
                _ => {
                    let mut vals = frames.take_argv();
                    vals.extend(refs.iter().map(|&v| v.clone()));
                    let r = f(top, top, &vals);
                    frames.put_argv(vals);
                    r
                }
            },
            CheckerImpl::Plan(plan, vm) => match vm {
                Some(p) => self.vm_search::<false>(p, &None, frames, top, top, refs),
                None => {
                    let mut vals = frames.take_argv();
                    vals.extend(refs.iter().map(|&v| v.clone()));
                    let r = self.run_derived_check(plan, None, top, top, &vals);
                    frames.put_argv(vals);
                    r
                }
            },
        }
    }

    /// The checker dispatch loop: executes `h.code[pc..]` over `frame`.
    /// Straight-line instructions iterate in place; the fan-out
    /// instructions (`ProduceExt`, `Unconstrained`) re-enter this
    /// function per candidate on the *same* frame (single assignment
    /// makes the re-run safe, see the module docs) and return the
    /// three-valued `bindEC` fold of the suffix results. Reaching the
    /// end of the code is the handler succeeding.
    #[allow(clippy::too_many_arguments)]
    fn vm_exec<const METERED: bool>(
        &self,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc0: usize,
        frame: &mut [Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        let mut pc = pc0;
        while let Some(instr) = h.code.get(pc) {
            match instr {
                Instr::CheckRel {
                    rel,
                    srcs,
                    negated,
                    step,
                } => {
                    // Arguments travel as a stack buffer of references;
                    // owned values materialize only at a boundary that
                    // demands them.
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    // Premise cost attribution: the search-call delta
                    // across the premise, gated on arming so the
                    // unarmed cost is one `Cell` load.
                    let calls_before =
                        (METERED && self.probe_armed()).then(|| self.inner.search_calls.get());
                    let mut r = self.vm_check_rel::<METERED>(*rel, &refs[..len], frames, top);
                    if *negated {
                        r = cnot(r);
                    }
                    self.vm_premise(calls_before, prog.rel, h_idx, *step, r);
                    if r != Some(true) {
                        return r;
                    }
                }
                Instr::RecSelf { srcs, step } => {
                    // The recursive call never leaves the VM, so its
                    // arguments never materialize: a stack buffer of
                    // references is the whole calling convention.
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let calls_before =
                        (METERED && self.probe_armed()).then(|| self.inner.search_calls.get());
                    // One budget step per recursion, like an entry, then
                    // the search at the decremented fuel, reusing these
                    // frame pools. Recursion skips the verdict table (see
                    // `Library::run_derived_check`).
                    let r = if !METERED || charge_step_cached(meter) {
                        self.vm_search::<METERED>(prog, meter, frames, size_rem, top, &refs[..len])
                    } else {
                        None
                    };
                    self.vm_premise(calls_before, prog.rel, h_idx, *step, r);
                    if r != Some(true) {
                        return r;
                    }
                }
                // The fan-out instructions live in an outlined cold
                // function: their bodies (candidate loops, continuations,
                // premise accounting) would otherwise dominate this
                // function's stack frame, and its prologue runs once per
                // search step.
                Instr::ProduceExt { .. } | Instr::Unconstrained { .. } => {
                    return self.vm_fanout::<METERED>(
                        prog, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                }
                _ => {
                    if let Err(site) = self.vm_simple(instr, frame, args, frames) {
                        if METERED {
                            self.vm_unify_fail(prog.rel, h_idx, site);
                        }
                        return Some(false);
                    }
                }
            }
            pc += 1;
        }
        Some(true)
    }

    /// Outlined fan-out arm of [`Library::vm_exec`]. `ProduceExt` pushes
    /// the callee's enumeration ([`Library::vm_enum_ext`]) into a
    /// continuation that binds each tuple and re-runs the suffix;
    /// `Unconstrained` walks the type's raw candidates, with the
    /// truncation marker last. Both fold the suffix results with
    /// `bindEC`, a conclusive yes stopping the producer. The premise
    /// cost delta covers the premise *and* its continuation — the
    /// scheduling-relevant tail cost of placing the premise here.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_fanout<const METERED: bool>(
        &self,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc: usize,
        frame: &mut [Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        let calls_before = (METERED && self.probe_armed()).then(|| self.inner.search_calls.get());
        let (mut found, mut needs_fuel) = (false, false);
        let mut fold = |r: Option<bool>| match r {
            Some(true) => {
                found = true;
                ControlFlow::Break(())
            }
            Some(false) => ControlFlow::Continue(()),
            None => {
                needs_fuel = true;
                ControlFlow::Continue(())
            }
        };
        let step = match &h.code[pc] {
            Instr::ProduceExt {
                prod,
                srcs,
                outs,
                step,
            } => {
                let mut in_vals = frames.take_argv();
                in_vals.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
                let _ = self.vm_enum_ext::<METERED>(
                    *prod,
                    meter,
                    frames,
                    top,
                    &in_vals,
                    &mut |frames, tuple| {
                        let Some(tuple) = tuple else {
                            return fold(None);
                        };
                        for (&o, v) in outs.iter().zip(tuple) {
                            frame[o as usize] = (*v).clone();
                        }
                        fold(self.vm_exec::<METERED>(
                            prog,
                            h,
                            h_idx,
                            pc + 1,
                            frame,
                            frames,
                            meter,
                            size_rem,
                            top,
                            args,
                        ))
                    },
                );
                frames.put_argv(in_vals);
                *step
            }
            Instr::Unconstrained { ty, dst, step } => {
                let candidates = self.raw_values(ty, top);
                for c in candidates.iter() {
                    frame[*dst as usize] = c.clone();
                    let r = self.vm_exec::<METERED>(
                        prog,
                        h,
                        h_idx,
                        pc + 1,
                        frame,
                        frames,
                        meter,
                        size_rem,
                        top,
                        args,
                    );
                    if fold(r).is_break() {
                        break;
                    }
                }
                if !found && self.raw_truncated(ty, top) {
                    needs_fuel = true;
                }
                *step
            }
            _ => unreachable!("vm_fanout entered on a non-fan-out instruction"),
        };
        let r = if found {
            Some(true)
        } else if needs_fuel {
            None
        } else {
            Some(false)
        };
        self.vm_premise(calls_before, prog.rel, h_idx, step, r);
        r
    }

    /// Emits a checker premise's `Premise` attribution when the probe
    /// was armed at its start (`calls_before` is then the search-call
    /// count at that point).
    #[inline]
    fn vm_premise(
        &self,
        calls_before: Option<u64>,
        rel: RelId,
        rule: u32,
        step: u32,
        r: Option<bool>,
    ) {
        if let Some(before) = calls_before {
            let cost = self.inner.search_calls.get() - before;
            self.probe(|| Event::Premise {
                rel,
                rule,
                step,
                cost,
                failed: r == Some(false),
            });
        }
    }

    #[cold]
    fn vm_unify_fail(&self, rel: RelId, rule: u32, site: FailSite) {
        self.probe(|| Event::UnifyFail { rel, rule, site });
    }

    // -----------------------------------------------------------------
    // The enumerator executor (E): push-based
    // -----------------------------------------------------------------

    /// An external enumerator premise (a `ProduceExt` of a checker or
    /// an enumerator): runs instance `prod` at the top fuel on `inputs`
    /// and pushes its outcomes into `sink`, with the bookkeeping of the
    /// interpreter's stream boundary (`Library::enumerate`) — an
    /// `Enter`, one budget step per element demanded (including the
    /// final demand that finds the enumeration finished), and a
    /// `TermProduced` per tuple. A failed step charge ends *this*
    /// enumeration, as the metered stream's end does; a `Break` from
    /// the consumer propagates. A callee that is handwritten or did not
    /// compile runs as the interpreter's stream, iterated here.
    #[allow(clippy::too_many_arguments)]
    fn vm_enum_ext<const METERED: bool>(
        &self,
        prod: u32,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        top: u64,
        inputs: &[Value],
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        let p = &self.inner.producers[prod as usize];
        let prog = match (&p.hand_enum, &p.vm) {
            (None, Some(prog)) => prog,
            _ => {
                for outcome in self.enumerate(p.rel, &p.mode, top, top, inputs) {
                    match outcome {
                        Outcome::OutOfFuel => sink(frames, None)?,
                        Outcome::Val(tuple) => {
                            let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                            let len = refs_of(&mut buf, &tuple);
                            sink(frames, Some(&buf[..len]))?;
                        }
                    }
                }
                return ControlFlow::Continue(());
            }
        };
        let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
        let len = refs_of(&mut buf, inputs);
        let args = &buf[..len];
        if METERED {
            self.probe_enter_enum(p.rel);
            if !charge_step_cached(meter) {
                return ControlFlow::Continue(());
            }
        }
        let mut cut = false;
        let flow = self.vm_enum_handlers::<METERED>(
            prog,
            meter,
            frames,
            top,
            top,
            args,
            &mut |frames, tuple| {
                if METERED {
                    if let Some(tuple) = tuple {
                        self.probe(|| Event::TermProduced {
                            rel: p.rel,
                            size: tuple.iter().map(|v| v.size()).sum(),
                        });
                    }
                }
                sink(frames, tuple)?;
                if METERED && !charge_step_cached(meter) {
                    cut = true;
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        if cut {
            ControlFlow::Continue(())
        } else {
            flow
        }
    }

    /// The enumerator's rule dispatch: every handler in order (only the
    /// non-recursive ones at size 0, then an out-of-fuel marker when
    /// recursive ones were skipped), each announced by `RuleAttempt`.
    /// Producers dispatch linearly: no constructor index.
    #[allow(clippy::too_many_arguments)]
    fn vm_enum_handlers<const METERED: bool>(
        &self,
        prog: &VmProgram,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size: u64,
        top: u64,
        args: &[&Value],
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        let size_rem = size.saturating_sub(1);
        for (i, h) in prog.handlers.iter().enumerate() {
            if size == 0 && h.recursive {
                continue;
            }
            let i = i as u32;
            if METERED {
                self.probe(|| Event::RuleAttempt {
                    rel: prog.rel,
                    rule: i,
                });
            }
            let mut frame = frames.take(h.nregs);
            let flow = self.vm_enum_exec::<METERED>(
                prog, h, i, 0, &mut frame, frames, meter, size_rem, top, args, sink,
            );
            frames.put(frame);
            flow?;
        }
        if size == 0 && prog.has_recursive {
            sink(frames, None)?;
        }
        ControlFlow::Continue(())
    }

    /// The enumerator's handler loop: straight-line instructions in
    /// place; a failed guard or a conclusively failed check ends the
    /// branch with no outcome, an out-of-fuel check yields the marker,
    /// and `Yield` hands the tuple to the consumer.
    #[allow(clippy::too_many_arguments)]
    fn vm_enum_exec<const METERED: bool>(
        &self,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc0: usize,
        frame: &mut [Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        let mut pc = pc0;
        loop {
            let instr = &h.code[pc];
            match instr {
                Instr::CheckRel {
                    rel, srcs, negated, ..
                } => {
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let mut r = self.vm_check_rel::<METERED>(*rel, &refs[..len], frames, top);
                    if *negated {
                        r = cnot(r);
                    }
                    match r {
                        Some(true) => {}
                        Some(false) => return ControlFlow::Continue(()),
                        None => return sink(frames, None),
                    }
                }
                Instr::Yield { srcs } => {
                    if METERED {
                        self.probe(|| Event::RuleSuccess {
                            rel: prog.rel,
                            rule: h_idx,
                        });
                    }
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    return sink(frames, Some(&refs[..len]));
                }
                Instr::ProduceExt { .. }
                | Instr::ProduceRec { .. }
                | Instr::Unconstrained { .. } => {
                    return self.vm_enum_fanout::<METERED>(
                        prog, h, h_idx, pc, frame, frames, meter, size_rem, top, args, sink,
                    );
                }
                _ => {
                    if let Err(site) = self.vm_simple(instr, frame, args, frames) {
                        if METERED {
                            self.vm_unify_fail(prog.rel, h_idx, site);
                        }
                        return ControlFlow::Continue(());
                    }
                }
            }
            pc += 1;
        }
    }

    /// Outlined fan-out arm of [`Library::vm_enum_exec`]: per candidate
    /// or produced tuple, bind and re-run the suffix on the same frame;
    /// the producer's out-of-fuel markers (and a truncated domain's)
    /// bypass the suffix and go straight to the consumer, as they pass
    /// through the interpreter's `bindE`.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_enum_fanout<const METERED: bool>(
        &self,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc: usize,
        frame: &mut [Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        let (srcs, outs) = match &h.code[pc] {
            Instr::Unconstrained { ty, dst, .. } => {
                let candidates = self.raw_values(ty, top);
                for c in candidates.iter() {
                    frame[*dst as usize] = c.clone();
                    self.vm_enum_exec::<METERED>(
                        prog,
                        h,
                        h_idx,
                        pc + 1,
                        frame,
                        frames,
                        meter,
                        size_rem,
                        top,
                        args,
                        sink,
                    )?;
                }
                if self.raw_truncated(ty, top) {
                    sink(frames, None)?;
                }
                return ControlFlow::Continue(());
            }
            Instr::ProduceExt { srcs, outs, .. } | Instr::ProduceRec { srcs, outs } => (srcs, outs),
            _ => unreachable!("vm_enum_fanout entered on a non-fan-out instruction"),
        };
        // The continuation writes into this frame while the callee
        // runs, so the callee's inputs cannot borrow it: they are
        // cloned (O(1) each) into a pooled vector.
        let mut in_vals = frames.take_argv();
        in_vals.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
        let mut k = |frames: &mut VmFrames, tuple: Option<&[&Value]>| {
            let Some(tuple) = tuple else {
                return sink(frames, None);
            };
            for (&o, v) in outs.iter().zip(tuple) {
                frame[o as usize] = (*v).clone();
            }
            self.vm_enum_exec::<METERED>(
                prog,
                h,
                h_idx,
                pc + 1,
                frame,
                frames,
                meter,
                size_rem,
                top,
                args,
                sink,
            )
        };
        let flow = match &h.code[pc] {
            Instr::ProduceExt { prod, .. } => {
                self.vm_enum_ext::<METERED>(*prod, meter, frames, top, &in_vals, &mut k)
            }
            _ => {
                // `ProduceRec`: this program at the decremented size,
                // announced like the interpreter's `run_plan_enum` and
                // with no boundary charges.
                if METERED {
                    self.probe_enter_enum(prog.rel);
                }
                let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                let len = refs_of(&mut buf, &in_vals);
                self.vm_enum_handlers::<METERED>(
                    prog,
                    meter,
                    frames,
                    size_rem,
                    top,
                    &buf[..len],
                    &mut k,
                )
            }
        };
        frames.put_argv(in_vals);
        flow
    }

    // -----------------------------------------------------------------
    // The generator executor (G)
    // -----------------------------------------------------------------

    /// A compiled generator: one budget step at entry, then QuickChick's
    /// `backtrack` over the handlers — pick one with probability
    /// proportional to its weight (base 1, recursive `size`), discard
    /// it on failure (one backtrack charge), retry until one succeeds
    /// or none is left. The options live in a stack array and are
    /// removed by `swap_remove`, so the walk — and with it every
    /// `gen_range` draw — matches the interpreter's `run_plan_gen`. The
    /// output tuple is appended to `out`.
    #[allow(clippy::too_many_arguments)]
    fn vm_gen<const METERED: bool>(
        &self,
        prog: &VmProgram,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size: u64,
        top: u64,
        args: &[&Value],
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        if METERED && !charge_step_cached(meter) {
            return false;
        }
        let _depth = if METERED {
            self.probe_enter(prog.rel, ExecKind::Generator)
        } else {
            None
        };
        let size_rem = size.saturating_sub(1);
        let mut options = [(0u64, 0u32); MAX_GEN_HANDLERS];
        let mut n = 0;
        for (i, h) in prog.handlers.iter().enumerate() {
            if size > 0 || !h.recursive {
                options[n] = (if h.recursive { size.max(1) } else { 1 }, i as u32);
                n += 1;
            }
        }
        let mut total: u64 = options[..n].iter().map(|(w, _)| *w).sum();
        while total > 0 {
            let mut pick = rand::Rng::gen_range(&mut *rng, 0..total);
            let mut chosen = 0;
            for (i, (w, _)) in options[..n].iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= *w;
            }
            let (w, i) = options[chosen];
            if METERED {
                self.probe(|| Event::RuleAttempt {
                    rel: prog.rel,
                    rule: i,
                });
            }
            let h = &prog.handlers[i as usize];
            let mut frame = frames.take(h.nregs);
            let ok = self.vm_gen_exec::<METERED>(
                prog, h, i, &mut frame, frames, meter, size_rem, top, args, rng, out,
            );
            frames.put(frame);
            if ok {
                if METERED {
                    self.probe(|| Event::RuleSuccess {
                        rel: prog.rel,
                        rule: i,
                    });
                }
                return true;
            }
            if METERED {
                self.probe(|| Event::Backtrack {
                    rel: prog.rel,
                    rule: i,
                });
                if !charge_backtrack_cached(meter) {
                    return false;
                }
            }
            total -= w;
            options[chosen] = options[n - 1];
            n -= 1;
        }
        false
    }

    /// The generator's handler body: straight-line instructions, then
    /// single draws — a producer premise writes its tuple into the
    /// output registers, `Unconstrained` one `random_value` — until
    /// `Yield` appends the outputs. Any failure fails the handler.
    #[allow(clippy::too_many_arguments)]
    fn vm_gen_exec<const METERED: bool>(
        &self,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        frame: &mut [Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        for instr in h.code.iter() {
            match instr {
                Instr::CheckRel {
                    rel, srcs, negated, ..
                } => {
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let mut r = self.vm_check_rel::<METERED>(*rel, &refs[..len], frames, top);
                    if *negated {
                        r = cnot(r);
                    }
                    if r != Some(true) {
                        return false;
                    }
                }
                Instr::ProduceExt { srcs, outs, .. } | Instr::ProduceRec { srcs, outs } => {
                    // The callee writes its tuple into a pooled vector,
                    // not this frame, so its inputs can borrow the frame.
                    let mut tuple = frames.take_argv();
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let refs = &refs[..len];
                    let ok = match instr {
                        Instr::ProduceExt { prod, .. } => self.vm_gen_ext::<METERED>(
                            *prod, meter, frames, top, refs, rng, &mut tuple,
                        ),
                        _ => self.vm_gen::<METERED>(
                            prog, meter, frames, size_rem, top, refs, rng, &mut tuple,
                        ),
                    };
                    for (&o, v) in outs.iter().zip(tuple.drain(..)) {
                        frame[o as usize] = v;
                    }
                    frames.put_argv(tuple);
                    if !ok {
                        return false;
                    }
                }
                Instr::Unconstrained { ty, dst, .. } => {
                    frame[*dst as usize] = random_value(self.universe(), ty, size_rem.max(1), rng);
                }
                Instr::Yield { srcs } => {
                    out.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
                    return true;
                }
                _ => {
                    if let Err(site) = self.vm_simple(instr, frame, args, frames) {
                        if METERED {
                            self.vm_unify_fail(prog.rel, h_idx, site);
                        }
                        return false;
                    }
                }
            }
        }
        unreachable!("producer handlers end in Yield")
    }

    /// An external generator premise: a compiled callee runs on these
    /// frame pools (charging its own entry step), followed by the boundary's
    /// `TermProduced`; a handwritten or uncompiled one runs through
    /// [`Library::generate`], which does both itself.
    #[allow(clippy::too_many_arguments)]
    fn vm_gen_ext<const METERED: bool>(
        &self,
        prod: u32,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        top: u64,
        inputs: &[&Value],
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        let p = &self.inner.producers[prod as usize];
        let (None, Some(prog)) = (&p.hand_gen, &p.vm) else {
            let mut vals = frames.take_argv();
            vals.extend(inputs.iter().map(|&v| v.clone()));
            let r = self.generate(p.rel, &p.mode, top, top, &vals, rng);
            frames.put_argv(vals);
            return match r {
                Some(tuple) => {
                    out.extend(tuple);
                    true
                }
                None => false,
            };
        };
        let ok = self.vm_gen::<METERED>(prog, meter, frames, top, top, inputs, rng, out);
        if METERED && ok {
            self.probe(|| Event::TermProduced {
                rel: p.rel,
                size: out.iter().map(Value::size).sum(),
            });
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::Universe;

    fn demo_lib() -> (Universe, RelEnv, Library, Vec<RelId>) {
        let mut u = Universe::new();
        u.std_funs();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"
            rel le : nat nat :=
            | le_n : forall n, le n n
            | le_S : forall n m, le n m -> le n (S m)
            .
            rel between : nat nat :=
            | b : forall n m p, le n m -> le (S m) p -> between n p
            .
            rel square_of : nat nat :=
            | sq : forall n, square_of n (mult n n)
            .
            ",
        )
        .unwrap();
        let rels: Vec<_> = ["le", "between", "square_of"]
            .iter()
            .map(|n| env.rel_id(n).unwrap())
            .collect();
        let mut b = LibraryBuilder::new(u.clone(), env.clone());
        for &r in &rels {
            b.derive_checker(r).unwrap();
        }
        (u, env, b.build(), rels)
    }

    #[test]
    fn demo_relations_compile_to_bytecode() {
        let (_, _, lib, rels) = demo_lib();
        for &r in &rels {
            assert!(lib.vm_compiled(r), "expected bytecode for {r:?}");
        }
    }

    #[test]
    fn vm_and_interpreted_checkers_agree() {
        let (u, env, lib, rels) = demo_lib();
        for &r in &rels {
            let tys = env.relation(r).arg_types().to_vec();
            for args in indrel_term::enumerate::tuples_up_to(&u, &tys, 5) {
                for fuel in 0..10u64 {
                    assert_eq!(
                        lib.check(r, fuel, fuel, &args),
                        lib.check_interpreted(r, fuel, fuel, &args),
                        "{} {:?} fuel {}",
                        env.relation(r).name(),
                        args,
                        fuel
                    );
                }
            }
        }
        // `between` routes its existential through an enumerator — the
        // `ProduceExt` path.
        let args = [Value::nat(1), Value::nat(3)];
        assert_eq!(lib.check(rels[1], 8, 8, &args), Some(true));
    }

    #[test]
    fn opcode_names_are_unique() {
        let names = [
            "Copy",
            "LoadNat",
            "LoadBool",
            "MkSucc",
            "MkCtor",
            "CallFun",
            "GuardNat",
            "GuardNatGe",
            "GuardBool",
            "GuardSucc",
            "GuardEq",
            "Destruct",
            "CheckRel",
            "RecSelf",
            "ProduceExt",
            "Unconstrained",
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        let i = Instr::LoadNat { dst: 0, lit: 0 };
        assert!(names.contains(&i.opcode()));
    }
}
