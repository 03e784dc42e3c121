//! Host cost of the reductions. Every reduction folds the p contributions
//! once per call, on the last rank to arrive, in rank order. Counting the
//! calls of the reduction operator pins the O(p) cost at two world sizes on
//! both engines; comparing against a sequential fold with an
//! order-sensitive operator pins that every bit of the result is kept. The
//! failure tests pin that a fold which panics on the last arriver still
//! ends the run with a `RunError` instead of hanging it.

use mpisim::{Engine, RunError, WorldBuilder};
use std::sync::atomic::{AtomicU64, Ordering};

/// Elements per contribution.
const LEN: usize = 3;

/// Neither commutative nor associative, so any change of fold order or
/// grouping changes the bits of the result.
fn op(a: &f64, b: &f64) -> f64 {
    a * 0.5 + b
}

fn contribution(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| 1.0 / (rank * len + i + 1) as f64 + i as f64)
        .collect()
}

/// One step of a sequential fold in rank order: `op(acc, c_r)`, element-wise.
fn fold_in(acc: &[f64], r: usize, len: usize) -> Vec<f64> {
    acc.iter()
        .zip(contribution(r, len))
        .map(|(a, b)| op(a, &b))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-rank results of one run of every reduction.
struct Outputs {
    allreduce: Vec<f64>,
    reduce: Vec<f64>,
    scan: Vec<f64>,
    exscan: Vec<f64>,
    reduce_scatter: Vec<f64>,
}

fn check(engine: Engine, p: usize) {
    let identity = vec![1.5; LEN];
    let counters: [AtomicU64; 5] = Default::default();
    let counted = |i: usize| {
        let c = &counters[i];
        move |a: &f64, b: &f64| {
            c.fetch_add(1, Ordering::Relaxed);
            op(a, b)
        }
    };
    let report = WorldBuilder::new(p)
        .engine(engine)
        .run(|proc| {
            let world = proc.world();
            let r = proc.world_rank();
            Outputs {
                allreduce: world.allreduce(proc, contribution(r, LEN), counted(0)),
                reduce: world.reduce(proc, 0, contribution(r, LEN), counted(1)),
                scan: world.scan(proc, contribution(r, LEN), counted(2)),
                exscan: world.exscan(proc, contribution(r, LEN), identity.clone(), counted(3)),
                reduce_scatter: world.reduce_scatter_block(
                    proc,
                    contribution(r, p * LEN),
                    counted(4),
                ),
            }
        })
        .expect("run failed");

    let calls: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let fold = ((p - 1) * LEN) as u64;
    let ctx = format!("{engine:?} p={p}");
    assert_eq!(calls[0], fold, "allreduce op calls, {ctx}");
    assert_eq!(calls[1], fold, "reduce op calls, {ctx}");
    assert_eq!(calls[2], fold, "scan op calls, {ctx}");
    assert_eq!(calls[3], fold, "exscan op calls, {ctx}");
    assert_eq!(
        calls[4],
        ((p - 1) * p * LEN) as u64,
        "reduce_scatter_block op calls, {ctx}"
    );

    let total = (1..p).fold(contribution(0, LEN), |acc, r| fold_in(&acc, r, LEN));
    let total_blocks = (1..p).fold(contribution(0, p * LEN), |acc, r| fold_in(&acc, r, p * LEN));
    let mut prefix = contribution(0, LEN);
    let mut exclusive = identity.clone();
    for (r, out) in report.results.iter().enumerate() {
        assert_eq!(
            bits(&out.allreduce),
            bits(&total),
            "allreduce rank {r}, {ctx}"
        );
        let root_result = if r == 0 { &total[..] } else { &[][..] };
        assert_eq!(
            bits(&out.reduce),
            bits(root_result),
            "reduce rank {r}, {ctx}"
        );
        if r > 0 {
            prefix = fold_in(&prefix, r, LEN);
        }
        assert_eq!(bits(&out.scan), bits(&prefix), "scan rank {r}, {ctx}");
        assert_eq!(
            bits(&out.exscan),
            bits(&exclusive),
            "exscan rank {r}, {ctx}"
        );
        exclusive = fold_in(&exclusive, r, LEN);
        let block = &total_blocks[r * LEN..(r + 1) * LEN];
        assert_eq!(
            bits(&out.reduce_scatter),
            bits(block),
            "reduce_scatter rank {r}, {ctx}"
        );
    }
}

#[test]
fn reductions_fold_once_in_rank_order_on_des() {
    check(Engine::Des, 64);
    check(Engine::Des, 512);
}

#[test]
fn reductions_fold_once_in_rank_order_on_threads() {
    check(Engine::Threads, 64);
    check(Engine::Threads, 512);
}

fn expect_rank_panic<F>(fragment: &str, f: F)
where
    F: Fn(&mut mpisim::Proc) + Send + Sync,
{
    for engine in [Engine::Des, Engine::Threads] {
        match WorldBuilder::new(4).engine(engine).run(&f) {
            Err(RunError::RankPanicked { message, .. }) => assert!(
                message.contains(fragment),
                "{engine:?}: expected '{fragment}' in '{message}'"
            ),
            other => panic!("{engine:?}: expected a rank panic, got {other:?}"),
        }
    }
}

#[test]
fn allreduce_length_mismatch_fails_the_run() {
    expect_rank_panic("different lengths", |p| {
        let world = p.world();
        let len = if p.world_rank() == 2 { 2 } else { 1 };
        let _ = world.allreduce(p, vec![1.0f64; len], op);
    });
}

#[test]
fn allreduce_datatype_mismatch_fails_the_run() {
    expect_rank_panic("datatype mismatch", |p| {
        let world = p.world();
        if p.world_rank() == 1 {
            let _ = world.allreduce(p, vec![1u32], |a, b| a + b);
        } else {
            let _ = world.allreduce(p, vec![1.0f64], op);
        }
    });
}

#[test]
fn scan_length_mismatch_fails_the_run() {
    expect_rank_panic("different lengths", |p| {
        let world = p.world();
        let len = if p.world_rank() == 3 { 4 } else { 1 };
        let _ = world.scan(p, vec![1.0f64; len], op);
    });
}

#[test]
fn scan_datatype_mismatch_fails_the_run() {
    expect_rank_panic("datatype mismatch", |p| {
        let world = p.world();
        if p.world_rank() == 0 {
            let _ = world.scan(p, vec![1u32], |a, b| a + b);
        } else {
            let _ = world.scan(p, vec![1.0f64], op);
        }
    });
}
