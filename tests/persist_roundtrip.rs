//! Snapshot round-trip suite: a `PreparedIndex` written with
//! `vom-persist` and loaded back must answer **bit-identically** to the
//! freshly built index — every engine, every rule class, at 1/2/8 pool
//! threads, through both load paths (owned read and the mmap-ready
//! borrowed region) — and corrupted snapshots must fail closed with a
//! typed error that leaves the rebuild fallback intact.
//!
//! The pool override is process-global, so every test takes `pool_lock`
//! before touching it (same discipline as `parallel_determinism.rs`).

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use vom::core::engine::SeedSelector;
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, IndexSource, PreparedIndex, Problem, Query, QuerySession};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::{generators, Node};
use vom::persist::PersistError;
use vom::voting::ScoringFunction;

const K_MAX: usize = 4;
const HORIZON: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            rayon::set_thread_override(None);
        }
    }
    rayon::set_thread_override(Some(threads));
    let _restore = Restore;
    f()
}

/// A scratch path unique to this (process, label) pair.
fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vom-roundtrip-{}-{label}.vpi", std::process::id()))
}

/// A 40-node, 3-candidate instance (the `prepared_equivalence` replica).
fn instance() -> Arc<Instance> {
    use rand::SeedableRng;
    let n = 40usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE0_1D);
    let edges = generators::erdos_renyi(n, n * 3, &mut rng);
    let g = Arc::new(graph_from_edges(n, &edges).unwrap());
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|c| {
            (0..n)
                .map(|v| {
                    let x = ((v * 37 + c * 101 + 13) % 97) as f64 / 96.0;
                    x.clamp(0.02, 0.98)
                })
                .collect()
        })
        .collect();
    let b = OpinionMatrix::from_rows(rows).unwrap();
    let d: Vec<f64> = (0..n).map(|v| ((v * 29 + 7) % 50) as f64 / 100.0).collect();
    Arc::new(Instance::shared(g, b, d).unwrap())
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::Dm,
        Engine::Rw(RwConfig {
            seed: 11,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            seed: 12,
            ..RsConfig::default()
        }),
    ]
}

fn rules() -> [ScoringFunction; 3] {
    [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::Copeland,
    ]
}

/// Every `k ≤ K_MAX` selection (seeds + score bits) of an index.
fn selections(index: &Arc<PreparedIndex>, rule: &ScoringFunction) -> Vec<(Vec<Node>, u64)> {
    let mut session = QuerySession::new(Arc::clone(index));
    (1..=K_MAX)
        .map(|k| {
            let out = session.select(&Query::new(k, rule.clone(), 0)).unwrap();
            (out.seeds, out.exact_score.to_bits())
        })
        .collect()
}

#[test]
fn round_trip_is_bit_identical_for_every_engine_rule_and_width() {
    let _guard = pool_lock();
    let inst = instance();
    for engine in engines() {
        for rule in rules() {
            for threads in THREADS {
                let label = format!("{}-{rule}-{threads}", engine.name());
                let (fresh, loaded_file, loaded_map) = with_threads(threads, || {
                    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
                    let index = Arc::new(engine.prepare_index(&spec).unwrap());
                    let fresh = selections(&index, &rule);
                    // Querying first populates the lazy artifacts (DM
                    // CELF order, sandwich upper orders), so the save
                    // exercises every section kind.
                    let path = scratch(&label);
                    index.save(&path).unwrap();
                    let by_file = Arc::new(
                        PreparedIndex::load(Arc::clone(&inst), IndexSource::File(&path)).unwrap(),
                    );
                    let by_map = Arc::new(
                        PreparedIndex::load(Arc::clone(&inst), IndexSource::Mapped(&path)).unwrap(),
                    );
                    std::fs::remove_file(&path).ok();
                    (
                        fresh,
                        selections(&by_file, &rule),
                        selections(&by_map, &rule),
                    )
                });
                assert_eq!(fresh, loaded_file, "{label}: file load diverged");
                assert_eq!(fresh, loaded_map, "{label}: mapped load diverged");
            }
        }
    }
}

#[test]
fn corrupted_snapshots_fail_closed_and_the_rebuild_fallback_matches() {
    let _guard = pool_lock();
    let inst = instance();
    let rule = ScoringFunction::Plurality;
    let engine = Engine::Rs(RsConfig {
        seed: 12,
        ..RsConfig::default()
    });
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
    let index = Arc::new(engine.prepare_index(&spec).unwrap());
    let fresh = selections(&index, &rule);
    let path = scratch("corrupt");
    index.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // A flipped payload byte, a truncated file, and a future format
    // version must each yield a typed error — never a mangled index.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = PreparedIndex::load(Arc::clone(&inst), IndexSource::File(&path))
        .err()
        .expect("flipped byte must not load");
    assert!(
        matches!(err, PersistError::DigestMismatch { .. }),
        "unexpected error for a flipped byte: {err}"
    );

    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    let err = PreparedIndex::load(Arc::clone(&inst), IndexSource::File(&path))
        .err()
        .expect("truncated file must not load");
    assert!(
        matches!(
            err,
            PersistError::Truncated { .. } | PersistError::DigestMismatch { .. }
        ),
        "unexpected error for a truncation: {err}"
    );

    let mut future = pristine.clone();
    future[8] = 0xEE; // the format-version header word
    std::fs::write(&path, &future).unwrap();
    let err = PreparedIndex::load(Arc::clone(&inst), IndexSource::File(&path))
        .err()
        .expect("future version must not load");
    assert!(
        matches!(err, PersistError::UnsupportedVersion { .. }),
        "unexpected error for a version bump: {err}"
    );

    // The fallback after any failed load — rebuild — answers
    // identically to the index that wrote the snapshot.
    let rebuilt = Arc::new(engine.prepare_index(&spec).unwrap());
    assert_eq!(fresh, selections(&rebuilt, &rule));
    std::fs::remove_file(&path).ok();
}

fn u64_at(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

/// Where the section table entry `[kind, id, offset, len]` of section
/// `(kind, id)` sits in a snapshot file.
fn section_entry(file: &[u8], kind: u32, id: u64) -> usize {
    (0..u64_at(file, 48) as usize)
        .map(|i| vom::persist::HEADER_BYTES + i * vom::persist::ENTRY_BYTES)
        .find(|&at| u64_at(file, at) == u64::from(kind) && u64_at(file, at + 8) == id)
        .expect("section present")
}

/// The byte range of section `(kind, id)` in a snapshot file, read from
/// its section table.
fn section_bytes(file: &[u8], kind: u32, id: u64) -> std::ops::Range<usize> {
    let at = section_entry(file, kind, id);
    let offset = u64_at(file, at + 16) as usize;
    offset..offset + u64_at(file, at + 24) as usize
}

/// Reseals an edited snapshot's payload digest (header word 2), so only
/// the loader's consistency checks can object, and loads it from `path`
/// against `inst`.
fn load_resealed(
    inst: &Arc<Instance>,
    path: &std::path::Path,
    mut file: Vec<u8>,
) -> Result<PreparedIndex, PersistError> {
    let digest = vom::persist::fnv1a(&file[vom::persist::HEADER_BYTES..]);
    file[16..24].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(path, &file).unwrap();
    PreparedIndex::load(Arc::clone(inst), IndexSource::File(path))
}

/// Asserts that a load failed with `PersistError::BadValue`.
fn assert_bad_value(loaded: Result<PreparedIndex, PersistError>, what: &str) {
    match loaded {
        Ok(_) => panic!("{what} must not load"),
        Err(err) => assert!(
            matches!(err, PersistError::BadValue { .. }),
            "unexpected error for {what}: {err}"
        ),
    }
}

#[test]
fn dm_sections_are_the_target_candidates_graph_and_inputs() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let inst = instance();
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Cumulative).unwrap();
    let path = scratch("dm-sections");
    Engine::Dm
        .prepare_index(&spec)
        .unwrap()
        .save(&path)
        .unwrap();
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let section = |kind: u32, width: usize| -> Vec<u64> {
        file[section_bytes(&file, kind, 0)]
            .chunks_exact(width)
            .map(|b| b.iter().rev().fold(0u64, |acc, &x| acc << 8 | x as u64))
            .collect()
    };
    // The system sweeps in its own node order; the file keeps the
    // graph's in-CSR in node order, as `in_entries` reads it.
    let cand = inst.candidate(0);
    let (mut offsets, mut sources, mut weights) = (vec![0u64], Vec::new(), Vec::new());
    for v in cand.graph.nodes() {
        for (j, w) in cand.graph.in_entries(v) {
            sources.push(j as u64);
            weights.push(w.to_bits());
        }
        offsets.push(sources.len() as u64);
    }
    let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(section(kind::DM_IN_OFF, 8), offsets);
    assert_eq!(section(kind::DM_IN_SRC, 4), sources);
    assert_eq!(section(kind::DM_IN_W, 8), weights);
    assert_eq!(section(kind::DM_B0, 8), bits(&cand.initial));
    assert_eq!(section(kind::DM_D, 8), bits(&cand.stubbornness));
}

#[test]
fn resealed_snapshots_with_inconsistent_sketch_parts_fail_closed() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let inst = instance();
    let rule = ScoringFunction::Plurality;
    let engine = Engine::Rs(RsConfig {
        seed: 12,
        ..RsConfig::default()
    });
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
    let index = Arc::new(engine.prepare_index(&spec).unwrap());
    selections(&index, &rule);
    let path = scratch("inconsistent-sketch");
    index.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let u32_at = |file: &[u8], at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap());
    let load_resealed = |file: Vec<u8>| load_resealed(&inst, &path, file).err();

    // Move the first occurrence entry whose walk has two or more nodes to
    // the walk's next position: still inside the walk, but not where its
    // node first occurs.
    let mut file = pristine.clone();
    let walks = section_bytes(&file, kind::SK_OCC_WALK, 0);
    let positions = section_bytes(&file, kind::SK_OCC_POS, 0);
    let offsets = section_bytes(&file, kind::SK_OFFSETS, 0).start;
    let walk_len = |file: &[u8], slot: usize| {
        let w = u32_at(file, walks.start + 4 * slot) as usize;
        (u64_at(file, offsets + 8 * (w + 1)) - u64_at(file, offsets + 8 * w)) as u32
    };
    let slot = (0..walks.len() / 4)
        .find(|&s| walk_len(&file, s) >= 2)
        .expect("a walk of two or more nodes");
    let at = positions.start + 4 * slot;
    let moved = (u32_at(&file, at) + 1) % walk_len(&file, slot);
    file[at..at + 4].copy_from_slice(&moved.to_le_bytes());
    let err = load_resealed(file).expect("a moved occurrence must not load");
    assert!(
        matches!(err, PersistError::BadValue { .. }),
        "unexpected error for a moved occurrence: {err}"
    );

    // Move one sketch from the first sampled start's count to the next
    // user's: the total stays θ, but the counts no longer match the starts.
    let mut file = pristine.clone();
    let counts = section_bytes(&file, kind::SK_START_COUNT, 0).start;
    let v = (0..inst.num_nodes())
        .find(|&v| u32_at(&file, counts + 4 * v) > 0)
        .expect("a sampled start");
    let w = (v + 1) % inst.num_nodes();
    for (user, step) in [(v, -1i64), (w, 1)] {
        let c = (i64::from(u32_at(&file, counts + 4 * user)) + step) as u32;
        file[counts + 4 * user..counts + 4 * user + 4].copy_from_slice(&c.to_le_bytes());
    }
    let err = load_resealed(file).expect("miscounted starts must not load");
    assert!(
        matches!(err, PersistError::BadValue { .. }),
        "unexpected error for miscounted starts: {err}"
    );

    // One pooled start sum that is not the fold of its sketches' values.
    let mut file = pristine.clone();
    let sums = section_bytes(&file, kind::SK_START_SUM, 0).start;
    file[sums..sums + 8].copy_from_slice(&123.5f64.to_le_bytes());
    let err = load_resealed(file).expect("a forged start sum must not load");
    assert!(
        matches!(err, PersistError::BadValue { .. }),
        "unexpected error for a forged start sum: {err}"
    );

    // One forged initial opinion, at the end node of the first sketch,
    // with every start sum folded again over the forged opinions: the
    // sums agree with the file, but not with the target candidate.
    let mut file = pristine.clone();
    let b0 = section_bytes(&file, kind::SK_B0, 0).start;
    let nodes = section_bytes(&file, kind::SK_NODES, 0).start;
    let offsets = section_bytes(&file, kind::SK_OFFSETS, 0);
    let node = |file: &[u8], i: u64| u32_at(file, nodes + 4 * i as usize) as usize;
    let opinion = |file: &[u8], v: usize| f64::from_bits(u64_at(file, b0 + 8 * v));
    let start_and_end: Vec<(usize, usize)> = (0..offsets.len() / 8 - 1)
        .map(|j| {
            let at = offsets.start + 8 * j;
            (
                node(&file, u64_at(&file, at)),
                node(&file, u64_at(&file, at + 8) - 1),
            )
        })
        .collect();
    let u = start_and_end[0].1;
    let forged = 0.123_456_789f64;
    assert_ne!(opinion(&file, u).to_bits(), forged.to_bits());
    file[b0 + 8 * u..b0 + 8 * u + 8].copy_from_slice(&forged.to_le_bytes());
    let mut sums_now = vec![0.0f64; inst.num_nodes()];
    for &(start, end) in &start_and_end {
        sums_now[start] += opinion(&file, end);
    }
    for (v, sum) in sums_now.iter().enumerate() {
        file[sums + 8 * v..sums + 8 * v + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let err = load_resealed(file).expect("a forged initial opinion must not load");
    assert!(
        matches!(err, PersistError::BadValue { .. }),
        "unexpected error for a forged initial opinion: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resealed_rw_snapshots_with_a_bad_group_table_fail_closed() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let inst = instance();
    let engine = Engine::Rw(RwConfig {
        seed: 11,
        ..RwConfig::default()
    });
    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, ScoringFunction::Plurality).unwrap();
    let index = Arc::new(engine.prepare_index(&spec).unwrap());
    let path = scratch("bad-groups");
    index.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert!(load_resealed(&inst, &path, pristine.clone()).is_ok());
    // The plurality (rank-class) arena's group offsets.
    let rank = 1;

    // One entry short: a middle node's offset is dropped and the rest
    // close up, so the table still spans every walk with n − 1 groups.
    let mut file = pristine.clone();
    let at = section_entry(&file, kind::ARENA_GROUPS, rank) + 24;
    let groups = section_bytes(&file, kind::ARENA_GROUPS, rank);
    let middle = groups.start + 8 * (inst.num_nodes() / 2);
    file.copy_within(middle + 8..groups.end, middle);
    let len = u64_at(&file, at) - 8;
    file[at..at + 8].copy_from_slice(&len.to_le_bytes());
    assert_bad_value(load_resealed(&inst, &path, file), "a short group table");

    // A boundary moved by one walk: the first walk of a non-empty group
    // joins the previous group.
    let mut file = pristine.clone();
    let groups = section_bytes(&file, kind::ARENA_GROUPS, rank).start;
    let g = |file: &[u8], v: usize| u64_at(file, groups + 8 * v);
    let v = (1..inst.num_nodes())
        .find(|&v| g(&file, v) < g(&file, v + 1))
        .expect("a non-empty group past node 0");
    let moved = g(&file, v) + 1;
    file[groups + 8 * v..groups + 8 * v + 8].copy_from_slice(&moved.to_le_bytes());
    assert_bad_value(load_resealed(&inst, &path, file), "a moved group boundary");
    std::fs::remove_file(&path).ok();
}

#[test]
fn loading_any_snapshot_leaves_the_instance_opinions_unchanged() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let opinions = |inst: &Instance| -> Vec<Vec<u64>> {
        (0..inst.num_candidates())
            .map(|q| {
                let row = inst.opinions_of(q, HORIZON, &[1, 2]);
                row.iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    };
    let want = opinions(&instance());
    let path = scratch("opinions");
    let mut dm_file = None;
    for engine in engines() {
        for rule in [ScoringFunction::Cumulative, ScoringFunction::Plurality] {
            let inst = instance();
            let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
            let index = Arc::new(engine.prepare_index(&spec).unwrap());
            selections(&index, &rule);
            index.save(&path).unwrap();
            // A fresh instance has built no candidate system yet, so a
            // load that installed the file's system would go unnoticed.
            let fresh = instance();
            PreparedIndex::load(Arc::clone(&fresh), IndexSource::File(&path)).unwrap();
            assert_eq!(opinions(&fresh), want, "{} {rule}", engine.name());
            if engine.name() == "DM" && rule == ScoringFunction::Cumulative {
                dm_file = Some(std::fs::read(&path).unwrap());
            }
        }
    }

    // A DM snapshot whose in-edge weights are all halved, resealed.
    let mut file = dm_file.expect("a DM cumulative snapshot");
    for at in section_bytes(&file, kind::DM_IN_W, 0).step_by(8) {
        let w = f64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        file[at..at + 8].copy_from_slice(&(w / 2.0).to_le_bytes());
    }
    let fresh = instance();
    assert_bad_value(load_resealed(&fresh, &path, file), "a forged DM system");
    assert_eq!(opinions(&fresh), want);
    // Another index over the same instance still answers as on a clean one.
    let rs = Engine::Rs(RsConfig {
        seed: 12,
        ..RsConfig::default()
    });
    let rule = ScoringFunction::Plurality;
    let on = |inst: &Arc<Instance>| {
        let spec = Problem::new(inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
        selections(&Arc::new(rs.prepare_index(&spec).unwrap()), &rule)
    };
    assert_eq!(on(&fresh), on(&instance()));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small instances: the round trip holds for arbitrary
    /// topology, opinions, and stubbornness, not just the fixed replica.
    #[test]
    fn random_instances_round_trip_bit_identically(
        n in 4usize..16,
        edge_seed in 0u64..1000,
        k in 1usize..4,
        engine_ix in 0usize..3,
        rule_ix in 0usize..3,
    ) {
        let _guard = pool_lock();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(edge_seed);
        let edges = generators::erdos_renyi(n, n * 2, &mut rng);
        let g = Arc::new(graph_from_edges(n, &edges).unwrap());
        let rows: Vec<Vec<f64>> = (0..2)
            .map(|c| {
                (0..n)
                    .map(|v| (((v * 31 + c * 57 + edge_seed as usize) % 89) as f64 / 88.0)
                        .clamp(0.05, 0.95))
                    .collect()
            })
            .collect();
        let b = OpinionMatrix::from_rows(rows).unwrap();
        let d: Vec<f64> = (0..n).map(|v| ((v * 13 + 3) % 40) as f64 / 80.0).collect();
        let inst = Arc::new(Instance::shared(g, b, d).unwrap());
        let k = k.min(n);
        let engine = engines().swap_remove(engine_ix);
        let rule = rules()[rule_ix].clone();

        let spec = Problem::new(&inst, 0, k, HORIZON, rule.clone()).unwrap();
        let index = Arc::new(engine.prepare_index(&spec).unwrap());
        let mut session = QuerySession::new(Arc::clone(&index));
        let query = Query::new(k, rule.clone(), 0);
        let fresh = session.select(&query).unwrap();

        let path = scratch(&format!("prop-{edge_seed}-{engine_ix}-{rule_ix}"));
        index.save(&path).unwrap();
        let loaded = Arc::new(
            PreparedIndex::load(Arc::clone(&inst), IndexSource::File(&path)).unwrap(),
        );
        std::fs::remove_file(&path).ok();
        let mut session = QuerySession::new(Arc::clone(&loaded));
        let replay = session.select(&query).unwrap();
        prop_assert_eq!(fresh.seeds, replay.seeds);
        prop_assert_eq!(fresh.exact_score.to_bits(), replay.exact_score.to_bits());
    }
}
