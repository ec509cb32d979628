//! Random generation of raw values of a type — the unconstrained
//! generator fallback.

use crate::types::TypeExpr;
use crate::universe::Universe;
use crate::value::Value;
use rand::Rng;

/// Generates a random value of `ty` with size roughly bounded by `size`.
///
/// Constructor choice follows the QuickChick convention: at size 0 only
/// base (non-recursive) constructors are eligible; otherwise recursive
/// constructors are weighted by the remaining size. Recursive arguments
/// share the remaining budget.
///
/// # Panics
///
/// Panics if `ty` is not ground, or if a datatype has no base
/// constructor (such a type has no finite inhabitants).
pub fn random_value(
    universe: &Universe,
    ty: &TypeExpr,
    size: u64,
    rng: &mut dyn rand::RngCore,
) -> Value {
    match ty {
        TypeExpr::Nat => Value::nat(rng.gen_range(0..=size)),
        TypeExpr::Bool => Value::bool(rng.gen_range(0..2) == 1),
        TypeExpr::Param(_) => panic!("cannot generate a non-ground type"),
        TypeExpr::App(dt, ty_args) => {
            let decl = universe.datatype(*dt);
            let nbase = decl
                .ctors()
                .iter()
                .filter(|&&c| universe.ctor(c).is_base())
                .count() as u64;
            let nrec = decl.ctors().len() as u64 - nbase;
            assert!(
                nbase > 0,
                "datatype `{}` has no base constructor",
                decl.name()
            );
            // The `k`-th base (or recursive) constructor in declaration
            // order, found by counting rather than collecting.
            let nth = |base: bool, k: u64| {
                decl.ctors()
                    .iter()
                    .copied()
                    .filter(|&c| universe.ctor(c).is_base() == base)
                    .nth(k as usize)
                    .expect("index below the partition's count")
            };
            let ctor = if size == 0 || nrec == 0 {
                nth(true, rng.gen_range(0..nbase as usize) as u64)
            } else {
                // Weight: each base constructor 1, each recursive
                // constructor `size`.
                let pick = rng.gen_range(0..nbase + nrec * size);
                if pick < nbase {
                    nth(true, pick)
                } else {
                    nth(false, (pick - nbase) / size)
                }
            };
            let decl_args = universe.ctor(ctor).arg_types();
            let nrec_args = decl_args
                .iter()
                .filter(|t| mentions_dt(t, *dt, ty_args))
                .count()
                .max(1) as u64;
            let child_budget = size.saturating_sub(1) / nrec_args;
            let args = decl_args
                .iter()
                .map(|t| {
                    let budget = if mentions_dt(t, *dt, ty_args) {
                        child_budget
                    } else {
                        size.saturating_sub(1)
                    };
                    // A monomorphic datatype's declared argument types
                    // are already ground; only a parametric one
                    // instantiates them.
                    if ty_args.is_empty() {
                        random_value(universe, t, budget, rng)
                    } else {
                        random_value(universe, &t.instantiate(ty_args), budget, rng)
                    }
                })
                .collect();
            Value::ctor(ctor, args)
        }
    }
}

/// Whether the declared type `ty`, instantiated with `ty_args`,
/// mentions `dt` — answered without building the instantiation.
fn mentions_dt(ty: &TypeExpr, dt: crate::ids::DtId, ty_args: &[TypeExpr]) -> bool {
    match ty {
        TypeExpr::Nat | TypeExpr::Bool => false,
        TypeExpr::Param(i) => ty_args
            .get(*i as usize)
            .is_some_and(|t| mentions_dt(t, dt, &[])),
        TypeExpr::App(d, args) => *d == dt || args.iter().any(|t| mentions_dt(t, dt, ty_args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generates_nats_in_range() {
        let u = Universe::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = random_value(&u, &TypeExpr::Nat, 10, &mut rng);
            assert!(v.as_nat().unwrap() <= 10);
        }
    }

    #[test]
    fn size_zero_trees_are_leaves() {
        let mut u = Universe::new();
        let dt = u
            .declare_datatype(
                "tree",
                0,
                &[
                    ("Leaf", vec![]),
                    (
                        "Node",
                        vec![
                            TypeExpr::Nat,
                            TypeExpr::named("tree"),
                            TypeExpr::named("tree"),
                        ],
                    ),
                ],
            )
            .unwrap();
        let leaf = u.ctor_id("Leaf").unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let ty = TypeExpr::datatype(dt);
        for _ in 0..20 {
            let v = random_value(&u, &ty, 0, &mut rng);
            assert_eq!(v, Value::ctor(leaf, vec![]));
        }
        // At larger sizes we should see some nodes.
        let node = u.ctor_id("Node").unwrap();
        let mut saw_node = false;
        for _ in 0..50 {
            let v = random_value(&u, &ty, 8, &mut rng);
            if v.as_ctor().map(|(c, _)| c) == Some(node) {
                saw_node = true;
            }
        }
        assert!(saw_node);
    }

    #[test]
    fn random_lists_terminate() {
        let mut u = Universe::new();
        let list = u.std_list();
        let ty = TypeExpr::App(list, vec![TypeExpr::Nat]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = random_value(&u, &ty, 12, &mut rng);
            assert!(u.list_elems(&v).is_some());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let u = Universe::new();
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let va = random_value(&u, &TypeExpr::Nat, 100, &mut a);
        let vb = random_value(&u, &TypeExpr::Nat, 100, &mut b);
        assert_eq!(va, vb);
    }

    /// `(first value, rendered length, FNV-1a of the rendering)` of the
    /// first 64 values at seed 2022.
    const PIN_NAT: (&str, usize, u64) = ("6", 130, 12147972752422314843);
    const PIN_LIST: (&str, usize, u64) = (
        "cons 1 (cons 1 (cons 1 (cons 1 (cons 1 nil))))",
        1569,
        17510303449595667180,
    );
    const PIN_TREE: (&str, usize, u64) =
        ("Node 3 (Node 0 Leaf Leaf) Leaf", 1831, 12770046833209939370);
    const PIN_TY: (&str, usize, u64) = (
        "TArrow (TArrow TN TN) (TArrow TN TN)",
        1419,
        8679994878041454682,
    );

    /// FNV-1a over the rendered values: a compact pin for long outputs.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The first 64 values at a fixed seed, for `nat`, `list nat`, a
    /// binary tree and STLC's `ty`, recorded before `random_value`
    /// stopped collecting constructor partitions: the draws (and so
    /// every derived generator's `arbitrary` premise) must not move.
    #[test]
    fn first_values_are_pinned() {
        let mut u = Universe::new();
        let list = u.std_list();
        let node = vec![
            TypeExpr::Nat,
            TypeExpr::named("tree"),
            TypeExpr::named("tree"),
        ];
        let tree = u
            .declare_datatype("tree", 0, &[("Leaf", vec![]), ("Node", node)])
            .unwrap();
        let arrow = vec![TypeExpr::named("ty"), TypeExpr::named("ty")];
        let ty = u
            .declare_datatype("ty", 0, &[("TN", vec![]), ("TArrow", arrow)])
            .unwrap();
        let cases = [
            (TypeExpr::Nat, 10u64, PIN_NAT),
            (TypeExpr::App(list, vec![TypeExpr::Nat]), 6, PIN_LIST),
            (TypeExpr::datatype(tree), 5, PIN_TREE),
            (TypeExpr::datatype(ty), 3, PIN_TY),
        ];
        for (t, size, (first, len, hash)) in cases {
            let mut rng = SmallRng::seed_from_u64(2022);
            let vals: Vec<String> = (0..64)
                .map(|_| {
                    u.display_value(&random_value(&u, &t, size, &mut rng))
                        .to_string()
                })
                .collect();
            let joined = vals.join(";");
            assert_eq!(vals[0], first, "{t:?}");
            assert_eq!((joined.len(), fnv(&joined)), (len, hash), "{t:?}: {joined}");
        }
    }
}
