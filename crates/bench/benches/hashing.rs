//! Hash-family evaluation costs: the paper's tabulation-vs-k-wise choice
//! (Appendix B) is a constant-factor question answered here. The
//! `row_hashers` group times the sketch-row hashing layer of a WM update
//! at the 8 KB Figure-7 shape (width 128, depth 14) on RCV1-like keys.
//!
//! ```text
//! cargo bench -p wmsketch-bench --bench hashing
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::{
    murmur3_32, splitmix64, CoordPlan, HashFamilyKind, PolyHash, RowHashers, TabulationHash,
};

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_families");
    let tab = TabulationHash::new(1);
    group.bench_function("tabulation", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(tab.hash(black_box(k)))
        })
    });
    for deg in [2usize, 4, 16] {
        let poly = PolyHash::new(deg, 1);
        group.bench_function(format!("poly_k{deg}"), |b| {
            let mut k = 0u64;
            b.iter(|| {
                k = k.wrapping_add(1);
                black_box(poly.hash(black_box(k)))
            })
        });
    }
    group.bench_function("splitmix64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(splitmix64(black_box(k)))
        })
    });
    group.bench_function("murmur3_8bytes", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(murmur3_32(&k.to_le_bytes(), 0))
        })
    });
    group.finish();
}

fn bench_row_hashers(c: &mut Criterion) {
    let examples: Vec<Vec<u32>> = SyntheticClassification::rcv1_like(7)
        .take(1024)
        .into_iter()
        .map(|(x, _)| x.indices().to_vec())
        .collect();
    let hashers = RowHashers::new(HashFamilyKind::Tabulation, 14, 128, 1);
    let mut group = c.benchmark_group("row_hashers");
    // One iteration plans one example (~53 features × 14 rows).
    group.bench_function("fill_plan_128x14", |b| {
        let mut plan = CoordPlan::new();
        let mut pos = 0usize;
        b.iter(|| {
            hashers.fill_plan(&mut plan, black_box(&examples[pos % examples.len()]));
            pos += 1;
            plan.nnz()
        })
    });
    // One iteration hashes one key for all 14 rows.
    let keys: Vec<u32> = examples.iter().flatten().copied().collect();
    group.bench_function("for_each_coord_d14", |b| {
        let mut pos = 0usize;
        b.iter(|| {
            let mut acc = 0.0;
            hashers.for_each_coord(u64::from(keys[pos % keys.len()]), |offset, sign| {
                acc += sign * offset as f64;
            });
            pos += 1;
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_families, bench_row_hashers);
criterion_main!(benches);
