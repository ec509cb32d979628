//! Criterion bench for the DESIGN.md ablations: backtracking locality
//! and enumerator laziness.

use criterion::{criterion_group, criterion_main, Criterion};
use indrel_bst::Bst;
use indrel_term::Value;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_locality(c: &mut Criterion) {
    let bst = Bst::new();
    let mut rng = SmallRng::seed_from_u64(31);
    let valid: Vec<Value> = (0..64)
        .map(|_| bst.handwritten_gen(0, 24, 6, &mut rng))
        .collect();
    let invalid: Vec<Value> = valid
        .iter()
        .map(|t| bst.tree_node(99, t.clone(), bst.leaf()))
        .collect();
    let mut group = c.benchmark_group("ablation/backtracking_locality");
    group.bench_function("valid_trees", |b| {
        b.iter(|| {
            for t in &valid {
                std::hint::black_box(bst.derived_check(0, 24, t, 64));
            }
        })
    });
    group.bench_function("root_invalid_trees", |b| {
        b.iter(|| {
            for t in &invalid {
                std::hint::black_box(bst.derived_check(0, 24, t, 64));
            }
        })
    });
    group.finish();
}

fn bench_laziness(c: &mut Criterion) {
    let (u, env) = indrel_corpus::corpus_env();
    let le = env.rel_id("le").expect("corpus relation");
    let mut b = indrel_core::LibraryBuilder::new(u, env);
    let mode = indrel_core::Mode::producer(2, &[0]);
    b.derive_producer(le, mode.clone())
        .expect("le producer derives");
    let lib = b.build();
    let bound = Value::nat(10);
    let mut group = c.benchmark_group("ablation/enumeration_laziness");
    group.bench_function("first_witness", |b| {
        b.iter(|| {
            let s = lib.enumerate(le, &mode, 12, 12, std::slice::from_ref(&bound));
            std::hint::black_box(s.first())
        })
    });
    group.bench_function("all_witnesses", |b| {
        b.iter(|| {
            let s = lib.enumerate(le, &mode, 12, 12, std::slice::from_ref(&bound));
            std::hint::black_box(s.values())
        })
    });
    group.finish();
}

fn bench_compilation(c: &mut Criterion) {
    let bst = Bst::new();
    let mut rng = SmallRng::seed_from_u64(33);
    let trees: Vec<Value> = (0..64)
        .map(|_| bst.handwritten_gen(0, 24, 6, &mut rng))
        .collect();
    let args: Vec<Vec<Value>> = trees
        .into_iter()
        .map(|t| vec![Value::nat(0), Value::nat(24), t])
        .collect();
    let lib = bst.library().clone();
    let rel = bst.relation();
    let mut group = c.benchmark_group("ablation/compilation");
    group.bench_function("bytecode_vm", |b| {
        b.iter(|| {
            for a in &args {
                std::hint::black_box(lib.check(rel, 64, 64, a));
            }
        })
    });
    group.bench_function("interpreted_plan", |b| {
        b.iter(|| {
            for a in &args {
                std::hint::black_box(lib.check_interpreted(rel, 64, 64, a));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_locality, bench_laziness, bench_compilation
}
criterion_main!(benches);
