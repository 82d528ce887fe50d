//! Snapshot round-trip suite: a `PreparedIndex` written with
//! `vom-persist` and loaded back must answer **bit-identically** to the
//! freshly built index, and report the same heap bytes — every engine,
//! every rule class, at 1/2/8 pool threads — and corrupted snapshots
//! must fail closed with a typed error that leaves the rebuild fallback
//! intact.
//!
//! The pool override is process-global, so every test takes `pool_lock`
//! before touching it (same discipline as `parallel_determinism.rs`).

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use vom::core::engine::SeedSelector;
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, PreparedIndex, Problem, Query, QuerySession};
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
                let (fresh, loaded) = with_threads(threads, || {
                    let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
                    let index = Arc::new(engine.prepare_index(&spec).unwrap());
                    let fresh = selections(&index, &rule);
                    // Querying first populates the lazy artifacts (DM
                    // CELF order, sandwich upper orders), so the save
                    // exercises every section kind.
                    let path = scratch(&label);
                    index.save(&path).unwrap();
                    let loaded = Arc::new(PreparedIndex::load(Arc::clone(&inst), &path).unwrap());
                    std::fs::remove_file(&path).ok();
                    assert_eq!(
                        loaded.build_stats().heap_bytes,
                        index.build_stats().heap_bytes,
                        "{label}: a loaded index owns what the built one does"
                    );
                    (fresh, selections(&loaded, &rule))
                });
                assert_eq!(fresh, loaded, "{label}: load diverged");
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
    let err = PreparedIndex::load(Arc::clone(&inst), &path)
        .err()
        .expect("flipped byte must not load");
    assert!(
        matches!(err, PersistError::DigestMismatch { .. }),
        "unexpected error for a flipped byte: {err}"
    );

    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    let err = PreparedIndex::load(Arc::clone(&inst), &path)
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
    let err = PreparedIndex::load(Arc::clone(&inst), &path)
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
    PreparedIndex::load(Arc::clone(inst), path)
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

/// The sixteen section kinds of format version 4.
fn kept_kinds() -> [u32; 16] {
    use vom::core::persist::kind::*;
    [
        META,
        SCORE_WEIGHTS,
        OTHERS,
        SEEDLESS,
        UPPER_KEYS,
        UPPER_ORDER,
        DM_CUM_ORDER,
        RW_CFG,
        RW_GAMMAS,
        ARENA_NODES,
        ARENA_OFFSETS,
        ARENA_GROUPS,
        RS_CFG,
        RS_THETAS,
        SK_NODES,
        SK_OFFSETS,
    ]
}

/// An index of `engine` prepared for `rule`, queried once per rule class
/// so that every lazy artifact is materialized.
fn queried_index(inst: &Arc<Instance>, engine: &Engine, rule: &ScoringFunction) -> PreparedIndex {
    let spec = Problem::new(inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
    let index = Arc::new(engine.prepare_index(&spec).unwrap());
    for rule in rules() {
        QuerySession::new(Arc::clone(&index))
            .select(&Query::new(K_MAX, rule, 0))
            .unwrap();
    }
    Arc::into_inner(index).expect("no session outlives its query")
}

/// Every `k ≤ K_MAX` selection of an index under each of the three rules.
fn all_selections(index: &Arc<PreparedIndex>) -> Vec<Vec<(Vec<Node>, u64)>> {
    rules().iter().map(|rule| selections(index, rule)).collect()
}

#[test]
fn snapshots_hold_only_the_kept_section_kinds() {
    use vom::core::persist::{kind, snapshot_writer};
    use vom::core::MethodId;
    let _guard = pool_lock();
    let inst = instance();
    for engine in engines() {
        for rule in [ScoringFunction::Cumulative, ScoringFunction::Plurality] {
            let index = queried_index(&inst, &engine, &rule);
            let file = snapshot_writer(&index).unwrap().to_bytes();
            let kinds: Vec<u64> = (0..u64_at(&file, 48) as usize)
                .map(|i| {
                    u64_at(
                        &file,
                        vom::persist::HEADER_BYTES + i * vom::persist::ENTRY_BYTES,
                    )
                })
                .collect();
            let label = format!("{} {rule}", engine.name());
            for &k in &kinds {
                assert!(
                    kept_kinds().iter().any(|&kept| u64::from(kept) == k),
                    "{label}: kind {k} is not kept"
                );
            }
            // Each engine still writes what it spends its build on.
            let backend = match engine.id() {
                MethodId::Dm => kind::DM_CUM_ORDER,
                MethodId::Rw => kind::ARENA_NODES,
                _ => kind::SK_NODES,
            };
            for k in [kind::META, kind::OTHERS, kind::UPPER_KEYS, backend] {
                assert!(kinds.contains(&u64::from(k)), "{label}: kind {k} missing");
            }
        }
    }
}

#[test]
fn retired_section_kinds_are_ignored_on_load() {
    use vom::core::persist::{load_snapshot, snapshot_writer};
    use vom::persist::Snapshot;
    let _guard = pool_lock();
    let inst = instance();
    let retired: Vec<u32> = [5, 6, 50, 61]
        .into_iter()
        .chain(16..=23)
        .chain(53..=60)
        .collect();
    for engine in engines() {
        for rule in [ScoringFunction::Cumulative, ScoringFunction::Plurality] {
            let index = queried_index(&inst, &engine, &rule);
            let load = |bytes: Vec<u8>| {
                let snap = Snapshot::from_bytes(bytes).unwrap();
                Arc::new(load_snapshot(Arc::clone(&inst), &snap).unwrap())
            };
            let clean = load(snapshot_writer(&index).unwrap().to_bytes());
            // Garbage that no loader could parse, under every retired
            // kind and the first slot ids: huge words, ragged widths and
            // out-of-range nodes.
            let mut w = snapshot_writer(&index).unwrap();
            for &k in &retired {
                w.section::<u64>(k, 0, &[u64::MAX, 1 << 40, 7]);
                w.section::<u32>(k, 1, &[u32::MAX, 5, 9]);
                w.section::<u8>(k, 2, &[0xEE]);
            }
            let dirty = load(w.to_bytes());
            assert_eq!(
                all_selections(&dirty),
                all_selections(&clean),
                "{} {rule}",
                engine.name()
            );
        }
    }
}

#[test]
fn a_memoized_theta_without_its_sketch_fails_closed() {
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
    let path = scratch("forged-theta");
    index.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    // The rank class's θ word with its top bit flipped: a θ that no
    // loaded slot holds, which the class's first query would sample.
    let at = section_bytes(&pristine, kind::RS_THETAS, 0).start + 8;
    let theta = u64_at(&pristine, at);
    assert_ne!(theta, u64::MAX, "the rank class's θ is memoized");
    for forged in [theta ^ 1 << 63, theta + 1, 0] {
        let mut file = pristine.clone();
        file[at..at + 8].copy_from_slice(&forged.to_le_bytes());
        assert_bad_value(load_resealed(&inst, &path, file), "a θ without its sketch");
    }
    // An unset θ is derived again on the first query, as on a fresh
    // index, and finds its slot.
    let mut file = pristine.clone();
    file[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let loaded = Arc::new(load_resealed(&inst, &path, file).unwrap());
    assert_eq!(selections(&loaded, &rule), selections(&index, &rule));
    assert_eq!(loaded.build_stats().artifact_builds, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn config_words_a_lazy_build_would_assert_on_fail_closed() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let inst = instance();
    let rule = ScoringFunction::Plurality;
    // Prepared and queried for plurality only: a cumulative or Copeland
    // query on the loaded index builds its artifact from the config.
    for (engine, cfg_kind, forged) in [
        (
            engines().remove(1),
            kind::RW_CFG,
            [(0, 1.5f64), (1, 0.0), (2, -1.0)],
        ),
        (
            engines().remove(2),
            kind::RS_CFG,
            [(0, 0.0), (0, f64::NAN), (0, -0.5)],
        ),
    ] {
        let spec = Problem::new(&inst, 0, K_MAX, HORIZON, rule.clone()).unwrap();
        let index = Arc::new(engine.prepare_index(&spec).unwrap());
        selections(&index, &rule);
        let path = scratch(&format!("forged-config-{}", engine.name()));
        index.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let words = section_bytes(&pristine, cfg_kind, 0).start;
        for (i, value) in forged {
            let mut file = pristine.clone();
            file[words + 8 * i..words + 8 * i + 8].copy_from_slice(&value.to_le_bytes());
            assert_bad_value(
                load_resealed(&inst, &path, file),
                "a config word out of range",
            );
        }
        if cfg_kind == kind::RS_CFG {
            // A θ cap of zero.
            let mut file = pristine.clone();
            file[words + 24..words + 32].copy_from_slice(&0u64.to_le_bytes());
            assert_bad_value(load_resealed(&inst, &path, file), "a zero θ cap");
        } else {
            // A γ* of zero, which the Copeland λ schedule asserts on.
            let mut file = pristine.clone();
            let gammas = section_bytes(&file, kind::RW_GAMMAS, 0).start;
            file[gammas..gammas + 8].copy_from_slice(&0.0f64.to_le_bytes());
            assert_bad_value(load_resealed(&inst, &path, file), "a zero γ*");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn out_of_range_cached_opinions_fail_closed() {
    use vom::core::persist::kind;
    let _guard = pool_lock();
    let inst = instance();
    let rule = ScoringFunction::Plurality;
    for engine in [engines().remove(1), engines().remove(2)] {
        // Auto plurality queries cache both opinion matrices.
        let index = queried_index(&inst, &engine, &rule);
        let path = scratch(&format!("opinion-range-{}", engine.name()));
        index.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for section in [kind::OTHERS, kind::SEEDLESS] {
            let at = section_bytes(&pristine, section, 0).start;
            let forge = |value: f64| {
                let mut file = pristine.clone();
                file[at..at + 8].copy_from_slice(&value.to_le_bytes());
                load_resealed(&inst, &path, file)
            };
            for value in [f64::NAN, 2.0, -1.0] {
                let what = format!("{} section {section} holding {value}", engine.name());
                assert_bad_value(forge(value), &what);
            }
            // The bounds are opinions.
            for value in [0.0, 1.0] {
                assert!(forge(value).is_ok(), "{} {section}: {value}", engine.name());
            }
        }
        std::fs::remove_file(&path).ok();
    }
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
            PreparedIndex::load(Arc::clone(&fresh), &path).unwrap();
            assert_eq!(opinions(&fresh), want, "{} {rule}", engine.name());
            if engine.name() == "DM" && rule == ScoringFunction::Cumulative {
                dm_file = Some(std::fs::read(&path).unwrap());
            }
        }
    }

    // A DM snapshot whose CELF order is reversed, resealed. The order is
    // a trusted cache: the file loads, and its own index answers from it.
    let mut file = dm_file.expect("a DM cumulative snapshot");
    let range = section_bytes(&file, kind::DM_CUM_ORDER, 0);
    let mut order: Vec<u32> = file[range.clone()]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    order.reverse();
    for (at, v) in range.step_by(4).zip(&order) {
        file[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    let fresh = instance();
    let forged = Arc::new(load_resealed(&fresh, &path, file).expect("a trusted cache loads"));
    let seeds = QuerySession::new(forged)
        .select(&Query::new(K_MAX, ScoringFunction::Cumulative, 0))
        .unwrap()
        .seeds;
    assert_eq!(seeds, order[..K_MAX]);
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
            PreparedIndex::load(Arc::clone(&inst), &path).unwrap(),
        );
        std::fs::remove_file(&path).ok();
        let mut session = QuerySession::new(Arc::clone(&loaded));
        let replay = session.select(&query).unwrap();
        prop_assert_eq!(fresh.seeds, replay.seeds);
        prop_assert_eq!(fresh.exact_score.to_bits(), replay.exact_score.to_bits());
    }
}
