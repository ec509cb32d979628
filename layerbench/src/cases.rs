//! The three case studies at their Figure 3 parameters, and the one
//! PBT test each workload operation runs.
//!
//! Derived artifacts are called through the case-study APIs a user
//! calls (`derived_check`, `derived_indist`, `derived_gen`) on each
//! case study's default session.

use indrel_bst::Bst;
use indrel_ifc::Ifc;
use indrel_stlc::Stlc;
use indrel_term::Value;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// BST keys lie in the open interval `(BST_LO, BST_HI)`.
pub const BST_LO: u64 = 0;
/// Upper key bound of the BST cases.
pub const BST_HI: u64 = 24;
/// Generation size of BST trees.
pub const BST_SIZE: u64 = 6;
/// Checker fuel of the BST cases.
pub const BST_FUEL: u64 = 64;
/// Generation size of IFC machine pairs.
pub const IFC_SIZE: u64 = 6;
/// Checker fuel of the IFC case.
pub const IFC_FUEL: u64 = 64;
/// Generation size of STLC terms.
pub const STLC_SIZE: u64 = 5;
/// Generation size of STLC types.
pub const STLC_TY_SIZE: u64 = 2;
/// Checker fuel of the STLC case.
pub const STLC_FUEL: u64 = 40;

/// One PBT test shape: which generator feeds which checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Handwritten BST generator, derived BST checker.
    BstCheck,
    /// Handwritten indistinguishable-pair generator, derived `indist`.
    IfcCheck,
    /// Handwritten well-typed-term generator, derived typing checker.
    StlcCheck,
    /// Derived BST generator, handwritten BST checker.
    BstGen,
    /// Derived well-typed-term generator, handwritten typing checker.
    StlcGen,
}

impl Op {
    /// `true` when the derived artifact is the generator.
    pub fn derives_input(self) -> bool {
        matches!(self, Op::BstGen | Op::StlcGen)
    }
}

/// A test's generated input; `Missing` when the generator gave none.
pub enum Input {
    /// The generator returned `None`.
    Missing,
    /// A BST tree.
    One(Value),
    /// An IFC machine pair, or an STLC `(term, type)` pair.
    Two(Value, Value),
}

/// What one test recorded. Only `NONE` counts as a failed derived
/// operation; a verdict that disagrees with the handwritten checker is
/// a wrong answer, which the verifiers reject.
pub type Code = u8;
/// No derived operation ran: the handwritten generator gave no input.
pub const NO_INPUT: Code = 0;
/// The derived operation gave no answer (checker `None`, generator
/// `None`, or a serve error, shed or `None`).
pub const NONE: Code = 1;
/// Derived verdict `false`, or a derived generator's output that the
/// handwritten checker rejects.
pub const FALSE: Code = 2;
/// Derived verdict `true`, or a derived generator's output that the
/// handwritten checker accepts.
pub const TRUE: Code = 3;

/// The case-study libraries a run needs.
#[derive(Default)]
pub struct Cases {
    bst: Option<Bst>,
    ifc: Option<Ifc>,
    stlc: Option<Stlc>,
}

impl Cases {
    /// Builds the case studies `ops` use, plus BST when `serve` is set.
    pub fn for_ops(ops: &[Op], serve: bool) -> Cases {
        let uses = |f: fn(&Op) -> bool| ops.iter().any(f);
        Cases {
            bst: (serve || uses(|o| matches!(o, Op::BstCheck | Op::BstGen))).then(Bst::new),
            ifc: uses(|o| *o == Op::IfcCheck).then(Ifc::new),
            stlc: uses(|o| matches!(o, Op::StlcCheck | Op::StlcGen)).then(Stlc::new),
        }
    }

    /// All three case studies.
    pub fn all() -> Cases {
        Cases {
            bst: Some(Bst::new()),
            ifc: Some(Ifc::new()),
            stlc: Some(Stlc::new()),
        }
    }

    /// The BST case study.
    pub fn bst(&self) -> &Bst {
        self.bst.as_ref().expect("BST is built for this workload")
    }

    /// The IFC case study.
    pub fn ifc(&self) -> &Ifc {
        self.ifc.as_ref().expect("IFC is built for this workload")
    }

    /// The STLC case study.
    pub fn stlc(&self) -> &Stlc {
        self.stlc.as_ref().expect("STLC is built for this workload")
    }

    /// Runs the test's generator.
    pub fn gen_input(&self, op: Op, rng: &mut dyn RngCore) -> Input {
        match op {
            Op::BstCheck => Input::One(self.bst().handwritten_gen(BST_LO, BST_HI, BST_SIZE, rng)),
            Op::IfcCheck => {
                let ifc = self.ifc();
                let (_, m1, m2) = ifc.gen_indist_pair(IFC_SIZE, rng);
                Input::Two(ifc.machine_value(&m1), ifc.machine_value(&m2))
            }
            Op::StlcCheck => {
                let stlc = self.stlc();
                let ty = stlc.random_ty(STLC_TY_SIZE, rng);
                match stlc.handwritten_gen(&[], &ty, STLC_SIZE, rng) {
                    Some(e) => Input::Two(e, ty),
                    None => Input::Missing,
                }
            }
            Op::BstGen => match self.bst().derived_gen(BST_LO, BST_HI, BST_SIZE, rng) {
                Some(t) => Input::One(t),
                None => Input::Missing,
            },
            Op::StlcGen => {
                let stlc = self.stlc();
                let ty = stlc.random_ty(STLC_TY_SIZE, rng);
                match stlc.derived_gen(&[], &ty, STLC_SIZE, rng) {
                    Some(e) => Input::Two(e, ty),
                    None => Input::Missing,
                }
            }
        }
    }

    /// Runs the test's property on `input`.
    pub fn run_check(&self, op: Op, input: &Input) -> Code {
        let verdict = match (op, input) {
            (Op::BstCheck, Input::One(t)) => self.bst().derived_check(BST_LO, BST_HI, t, BST_FUEL),
            (Op::IfcCheck, Input::Two(a, b)) => self.ifc().derived_indist(a, b, IFC_FUEL),
            (Op::StlcCheck, Input::Two(e, ty)) => self.stlc().derived_check(&[], e, ty, STLC_FUEL),
            (Op::BstGen | Op::StlcGen, Input::One(_) | Input::Two(..)) => {
                Some(self.hand_verdict(op, input))
            }
            (Op::BstGen | Op::StlcGen, Input::Missing) => None,
            (_, Input::Missing) => return NO_INPUT,
            _ => unreachable!("{op:?} generates its own input shape"),
        };
        code(verdict)
    }

    /// The handwritten checker's verdict on a generated input.
    pub fn hand_verdict(&self, op: Op, input: &Input) -> bool {
        match (op, input) {
            (Op::BstCheck | Op::BstGen, Input::One(t)) => {
                self.bst().handwritten_check(BST_LO, BST_HI, t)
            }
            (Op::IfcCheck, Input::Two(a, b)) => self.ifc().handwritten_indist_value(a, b),
            (Op::StlcCheck | Op::StlcGen, Input::Two(e, ty)) => {
                self.stlc().handwritten_check(&[], e, ty)
            }
            _ => unreachable!("{op:?} has no handwritten verdict on this input"),
        }
    }
}

/// The [`Code`] of a derived verdict.
pub fn code(verdict: Option<bool>) -> Code {
    match verdict {
        None => NONE,
        Some(false) => FALSE,
        Some(true) => TRUE,
    }
}

/// A generator seeded from the run seed and a stream coordinate, so a
/// block of tests can be replayed exactly for verification.
pub fn stream_rng(seed: u64, stream: u64, index: u64) -> SmallRng {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.rotate_left(32);
    // splitmix64 finaliser
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
}

/// Counts of derived operations over verified samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Derived operations attempted.
    pub attempted: u64,
    /// Derived operations that gave no answer.
    pub failed: u64,
    /// Derived answers that disagree with the handwritten checker.
    pub wrong: u64,
}

impl Tally {
    /// Counts one recorded code against the handwritten verdict.
    pub fn add(&mut self, recorded: Code, expected: bool) {
        if recorded == NO_INPUT {
            return;
        }
        self.attempted += 1;
        match recorded {
            NONE => self.failed += 1,
            c if (c == TRUE) != expected => self.wrong += 1,
            _ => {}
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}
