//! Hash-family evaluation costs: the paper's tabulation-vs-k-wise choice
//! (Appendix B) is a constant-factor question answered here. The
//! `row_hashers` group times the sketch-row hashing layer of a WM update
//! at the 8 KB Figure-7 shape (width 128, depth 14) on RCV1-like keys,
//! and `row_hashers_new` times building that shape's hashers: filling
//! fresh tables, or taking a live holder's shared ones. The `codec` group
//! times the CRC-64 footer that every `WMS1` seal and verify pays, on its
//! own and inside the snapshot encode and decode of the 8 KB WM model.
//!
//! ```text
//! cargo bench -p wmsketch-bench --bench hashing
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wmsketch_core::{OnlineLearner, SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch_datagen::SyntheticClassification;
use wmsketch_hashing::codec::crc64;
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

fn bench_row_hashers_new(c: &mut Criterion) {
    let tab = HashFamilyKind::Tabulation;
    let mut group = c.benchmark_group("row_hashers_new");
    // No other holder of the seed is alive, so every build fills 14 rows
    // of tables (and the drop frees them).
    group.bench_function("cold_128x14", |b| {
        let mut seed = 1u64 << 40;
        b.iter(|| {
            seed += 1;
            RowHashers::new(tab, 14, 128, black_box(seed))
        })
    });
    // A holder of the seed stays alive, so every build is an interner
    // lookup that shares its tables.
    let holder = RowHashers::new(tab, 14, 128, 2);
    group.bench_function("interned_128x14", |b| {
        b.iter(|| RowHashers::new(tab, 14, 128, black_box(2)))
    });
    drop(holder);
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    // A broken kernel fails the run before anything is timed.
    assert_eq!(
        crc64(b"123456789"),
        0x995D_C9BB_DF19_39FA,
        "CRC-64/XZ check value"
    );
    let mut group = c.benchmark_group("codec");
    // 2173 B is the `fleet` AWM template, 16 KiB about a WM 128×14
    // snapshot, and 1 MiB a large checkpoint.
    let bytes: Vec<u8> = (0..1u64 << 20).map(|i| splitmix64(i) as u8).collect();
    for (name, len) in [("2173B", 2173), ("16KiB", 16 << 10), ("1MiB", 1 << 20)] {
        let input = &bytes[..len];
        group.bench_function(format!("crc64/{name}"), |b| {
            b.iter(|| crc64(black_box(input)))
        });
    }
    // The `wm_ingest` model, trained. It stays alive through the decode
    // row, so each decode shares its hash tables instead of filling them.
    let mut wm = WmSketch::new(WmSketchConfig::new(128, 14).heap_capacity(128).seed(7));
    for (x, y) in SyntheticClassification::rcv1_like(7).take(4096) {
        wm.update(&x, y);
    }
    let snapshot = wm.to_snapshot_bytes();
    assert_eq!(
        WmSketch::from_snapshot_bytes(&snapshot)
            .expect("own snapshot decodes")
            .to_snapshot_bytes(),
        snapshot
    );
    group.bench_function("snapshot/wm_8kb_encode", |b| {
        b.iter(|| black_box(&wm).to_snapshot_bytes())
    });
    group.bench_function("snapshot/wm_8kb_decode", |b| {
        b.iter(|| WmSketch::from_snapshot_bytes(black_box(&snapshot)))
    });
    drop(wm);
    group.finish();
}

criterion_group!(
    benches,
    bench_families,
    bench_row_hashers,
    bench_row_hashers_new,
    bench_codec
);
criterion_main!(benches);
