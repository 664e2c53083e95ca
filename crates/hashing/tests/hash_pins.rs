//! Literal `(bucket, sign)` pins for the tabulation row hashers.
//!
//! WMS1 snapshots, checkpoints and spec sidecars store only a model's hash
//! seed; the row hashers are rebuilt from it on load. A change to how a
//! seed becomes table words, or to how a key is hashed, would move every
//! in-binary cross-check together and still break every file written
//! before it. These literals, computed once and never regenerated, fail
//! on such a change: seed 7, tabulation, depths {1, 14}, widths
//! {128, 1024}, through every entry point that hashes a key.

use wmsketch_hashing::{BucketSign, CoordPlan, HashFamilyKind, RowHashers};

const SEED: u64 = 7;

const KEYS: [u64; 7] = [
    0,
    255,
    65_535,
    u32::MAX as u64,
    1 << 32,
    0x0102_0304_0506_0708,
    u64::MAX,
];

const P: f64 = 1.0;
const N: f64 = -1.0;

/// `PINS[key][row] = (bucket, sign)` for each key of [`KEYS`].
type Pins<const D: usize> = [[(u32, f64); D]; KEYS.len()];

const D1_W128: Pins<1> = [
    [(24, P)],
    [(107, N)],
    [(98, N)],
    [(117, P)],
    [(74, P)],
    [(45, P)],
    [(9, P)],
];

const D1_W1024: Pins<1> = [
    [(193, P)],
    [(861, N)],
    [(785, N)],
    [(938, P)],
    [(599, P)],
    [(363, P)],
    [(72, P)],
];

#[rustfmt::skip]
const D14_W128: Pins<14> = [
    [(24, P), (14, N), (97, N), (35, N), (54, P), (8, N), (44, P), (93, P), (20, P), (84, P), (35, N), (57, N), (62, P), (67, N)],
    [(107, N), (115, P), (124, N), (105, P), (42, P), (67, P), (64, N), (99, P), (28, P), (34, N), (46, N), (29, N), (74, P), (30, P)],
    [(98, N), (15, N), (110, P), (65, N), (125, N), (83, N), (44, P), (17, P), (126, P), (25, P), (97, N), (81, P), (60, P), (123, P)],
    [(117, P), (1, N), (120, N), (27, P), (9, P), (115, P), (77, P), (15, N), (17, N), (106, P), (51, N), (91, P), (32, P), (23, N)],
    [(74, P), (125, N), (77, P), (14, P), (113, N), (93, N), (124, N), (116, P), (120, P), (33, N), (44, P), (126, P), (44, N), (57, P)],
    [(45, P), (93, N), (20, P), (115, P), (50, P), (49, P), (60, N), (33, P), (33, N), (112, P), (96, P), (38, P), (88, N), (29, P)],
    [(9, P), (64, P), (10, N), (52, N), (126, N), (121, P), (57, N), (39, P), (107, N), (50, N), (21, P), (91, P), (74, N), (93, N)],
];

#[rustfmt::skip]
const D14_W1024: Pins<14> = [
    [(193, P), (115, N), (778, N), (287, N), (439, P), (69, N), (355, P), (751, P), (163, P), (674, P), (281, N), (458, N), (503, P), (540, N)],
    [(861, N), (923, P), (992, N), (840, P), (337, P), (537, P), (518, N), (796, P), (227, P), (272, N), (373, N), (232, N), (596, P), (247, P)],
    [(785, N), (125, N), (882, P), (525, N), (1004, N), (670, N), (355, P), (139, P), (1011, P), (201, P), (780, N), (653, P), (480, P), (987, P)],
    [(938, P), (9, N), (966, N), (218, P), (79, P), (921, P), (623, P), (121, N), (143, N), (852, P), (414, N), (728, P), (262, P), (185, N)],
    [(599, P), (1007, N), (620, P), (115, P), (910, N), (750, N), (999, N), (932, P), (961, P), (269, N), (357, P), (1013, P), (355, N), (457, P)],
    [(363, P), (749, N), (166, P), (920, P), (400, P), (396, P), (482, N), (267, P), (267, N), (896, P), (772, P), (310, P), (704, N), (234, P)],
    [(72, P), (512, P), (86, N), (423, N), (1012, N), (968, P), (456, N), (316, P), (860, N), (406, N), (168, P), (733, P), (596, N), (751, N)],
];

/// Checks every hashing entry point of a depth-`D` sketch against `pins`.
fn check_pins<const D: usize>(width: u32, pins: &Pins<D>) {
    let hs = RowHashers::new(HashFamilyKind::Tabulation, D as u32, width, SEED);
    let w = width as usize;
    let coords = |key_pins: &[(u32, f64); D]| -> Vec<(usize, f64)> {
        key_pins
            .iter()
            .enumerate()
            .map(|(j, &(bucket, sign))| (j * w + bucket as usize, sign))
            .collect()
    };
    let mut plan = CoordPlan::new();
    hs.begin_plan(&mut plan);
    for (&key, key_pins) in KEYS.iter().zip(pins) {
        let ctx = format!("depth {D} width {width} key {key:#x}");
        for (j, &(bucket, sign)) in key_pins.iter().enumerate() {
            assert_eq!(
                hs.bucket_sign(j, key),
                BucketSign { bucket, sign },
                "{ctx} row {j}"
            );
            assert_eq!(hs.bucket(j, key), bucket, "{ctx} row {j}");
        }
        let expect = coords(key_pins);
        let mut seen = Vec::new();
        hs.for_each_coord(key, |offset, sign| seen.push((offset, sign)));
        assert_eq!(seen, expect, "{ctx}: for_each_coord");
        let mut seen = Vec::new();
        hs.for_each_bucket(key, |offset| seen.push(offset));
        let buckets: Vec<usize> = expect.iter().map(|&(offset, _)| offset).collect();
        assert_eq!(seen, buckets, "{ctx}: for_each_bucket");
        hs.plan_push(&mut plan, key);
    }
    let planned = |plan: &CoordPlan, slot: usize| -> Vec<(usize, f64)> {
        let (offsets, signs) = plan.coords(slot);
        offsets
            .iter()
            .map(|&o| o as usize)
            .zip(signs.iter().copied())
            .collect()
    };
    for (slot, key_pins) in pins.iter().enumerate() {
        assert_eq!(
            planned(&plan, slot),
            coords(key_pins),
            "plan_push slot {slot}"
        );
    }
    // `fill_plan` takes `u32` feature ids: the keys below `2^32`.
    let narrow: Vec<u32> = KEYS.iter().filter_map(|&k| u32::try_from(k).ok()).collect();
    assert_eq!(narrow.len(), 4);
    let mut plan = CoordPlan::new();
    hs.fill_plan(&mut plan, &narrow);
    for (slot, key_pins) in pins.iter().take(narrow.len()).enumerate() {
        assert_eq!(
            planned(&plan, slot),
            coords(key_pins),
            "fill_plan slot {slot}"
        );
    }
}

#[test]
fn tabulation_depth1_width128_matches_pinned_values() {
    check_pins(128, &D1_W128);
}

#[test]
fn tabulation_depth1_width1024_matches_pinned_values() {
    check_pins(1024, &D1_W1024);
}

#[test]
fn tabulation_depth14_width128_matches_pinned_values() {
    check_pins(128, &D14_W128);
}

#[test]
fn tabulation_depth14_width1024_matches_pinned_values() {
    check_pins(1024, &D14_W1024);
}
