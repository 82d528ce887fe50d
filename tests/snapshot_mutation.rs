//! Snapshot mutation suite: every resealed mutation of a `.vpi` file
//! either fails closed with a typed `PersistError` or loads an index that
//! answers, and neither the load nor the queries ever panic.
//!
//! The files are DM, RW and RS indexes prepared for the cumulative and
//! the plurality rule on a small instance, each queried once per rule
//! class before the save so that every section kind is written. Each
//! mutation either rewrites one 8-byte word of the file or changes the
//! section table (an entry dropped, duplicated, cut short, or two
//! entries' ids swapped). The payload digest is then resealed, so the
//! mutation reaches the parsers instead of the digest check. A forged
//! trusted cache may make its own index answer wrongly; it must never
//! make it panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vom::core::engine::SeedSelector;
use vom::core::persist::{load_snapshot, snapshot_writer};
use vom::core::rs::RsConfig;
use vom::core::rw::RwConfig;
use vom::core::{Engine, PreparedIndex, Problem, Query, QuerySession};
use vom::diffusion::{Instance, OpinionMatrix};
use vom::graph::builder::graph_from_edges;
use vom::graph::generators;
use vom::persist::{fnv1a, PersistError, Snapshot, ENTRY_BYTES, HEADER_BYTES};
use vom::voting::ScoringFunction;

const K: usize = 2;
const HORIZON: usize = 3;
/// Sections up to this many words are mutated at every word; larger ones
/// at `SAMPLE` words drawn with a fixed seed.
const SMALL_WORDS: usize = 64;
const SAMPLE: usize = 12;

/// A 10-node, 3-candidate instance.
fn instance() -> Arc<Instance> {
    use rand::SeedableRng;
    let n = 10usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC7);
    let edges = generators::erdos_renyi(n, n * 3, &mut rng);
    let g = Arc::new(graph_from_edges(n, &edges).unwrap());
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|c| {
            (0..n)
                .map(|v| (((v * 41 + c * 67 + 5) % 89) as f64 / 88.0).clamp(0.03, 0.97))
                .collect()
        })
        .collect();
    let b = OpinionMatrix::from_rows(rows).unwrap();
    let d: Vec<f64> = (0..n).map(|v| ((v * 23 + 11) % 40) as f64 / 80.0).collect();
    Arc::new(Instance::shared(g, b, d).unwrap())
}

fn rules() -> [ScoringFunction; 3] {
    [
        ScoringFunction::Cumulative,
        ScoringFunction::Plurality,
        ScoringFunction::Copeland,
    ]
}

/// The six snapshot files, labelled. The engine configs keep the files
/// small (9–10 walks per node, at most 200 sketches) so that the suite
/// stays fast in a debug build; RS holds two sketch slots.
fn files(inst: &Arc<Instance>) -> Vec<(String, Vec<u8>)> {
    let engines = [
        Engine::Dm,
        Engine::Rw(RwConfig {
            seed: 21,
            rho: 0.6,
            delta: 0.3,
            max_lambda: 10,
            ..RwConfig::default()
        }),
        Engine::Rs(RsConfig {
            seed: 22,
            epsilon: 0.5,
            max_theta: 200,
            ..RsConfig::default()
        }),
    ];
    let mut out = Vec::new();
    for engine in engines {
        for rule in [ScoringFunction::Cumulative, ScoringFunction::Plurality] {
            let spec = Problem::new(inst, 0, K, HORIZON, rule.clone()).unwrap();
            let index = Arc::new(engine.prepare_index(&spec).unwrap());
            for rule in rules() {
                QuerySession::new(Arc::clone(&index))
                    .select(&Query::new(K, rule, 0))
                    .unwrap();
            }
            let bytes = snapshot_writer(&index).unwrap().to_bytes();
            out.push((format!("{} {rule}", engine.name()), bytes));
        }
    }
    out
}

fn word(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

fn set_word(file: &mut [u8], at: usize, value: u64) {
    file[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// The section table: `[kind, id, offset, len]` per entry.
fn table(file: &[u8]) -> Vec<[u64; 4]> {
    (0..word(file, 48) as usize)
        .map(|i| {
            let at = HEADER_BYTES + i * ENTRY_BYTES;
            [0, 1, 2, 3].map(|j| word(file, at + 8 * j))
        })
        .collect()
}

/// `file` with its section table replaced by `entries`, whose offsets
/// point into `file`'s payload; the payload moves with the table's size.
fn with_table(file: &[u8], entries: &[[u64; 4]]) -> Vec<u8> {
    let old_end = HEADER_BYTES + table(file).len() * ENTRY_BYTES;
    let new_end = HEADER_BYTES + entries.len() * ENTRY_BYTES;
    let mut out = file[..HEADER_BYTES].to_vec();
    set_word(&mut out, 48, entries.len() as u64);
    for e in entries {
        let offset = (e[2] as usize + new_end - old_end) as u64;
        for v in [e[0], e[1], offset, e[3]] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&file[old_end..]);
    out
}

/// SplitMix64: the fixed-seed sampler for words of large sections.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The byte offsets of the words to mutate: every header and table
/// word, every word of a section of at most `SMALL_WORDS` words, and a
/// fixed-seed sample of each larger section's words.
fn word_offsets(file: &[u8], rng: &mut u64) -> Vec<usize> {
    let entries = table(file);
    let mut at: Vec<usize> = (0..HEADER_BYTES + entries.len() * ENTRY_BYTES)
        .step_by(8)
        .collect();
    for e in &entries {
        let (start, len) = (e[2] as usize, e[3] as usize);
        // A last section of odd `u32` count ends mid-word.
        let words: Vec<usize> = (start..start + len)
            .step_by(8)
            .filter(|&w| w + 8 <= file.len())
            .collect();
        if words.len() <= SMALL_WORDS {
            at.extend(words);
        } else {
            at.extend((0..SAMPLE).map(|_| words[splitmix(rng) as usize % words.len()]));
        }
    }
    at
}

/// Every mutation of `file`, labelled, before resealing.
fn mutations(file: &[u8], rng: &mut u64) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for at in word_offsets(file, rng) {
        let w = word(file, at);
        for (name, value) in [
            ("xor bit 0", w ^ 1),
            ("xor bit 63", w ^ 1 << 63),
            ("zero", 0),
            ("max", u64::MAX),
            ("+1", w.wrapping_add(1)),
        ] {
            let mut m = file.to_vec();
            set_word(&mut m, at, value);
            out.push((format!("word at {at}: {name}"), m));
        }
    }
    let entries = table(file);
    for i in 0..entries.len() {
        let mut dropped = entries.clone();
        dropped.remove(i);
        out.push((format!("drop entry {i}"), with_table(file, &dropped)));
        let mut doubled = entries.clone();
        doubled.insert(i, entries[i]);
        out.push((format!("duplicate entry {i}"), with_table(file, &doubled)));
        if entries[i][3] >= 8 {
            let mut cut = entries.clone();
            cut[i][3] -= 8;
            out.push((format!("cut entry {i}"), with_table(file, &cut)));
        }
        for j in i + 1..entries.len() {
            if entries[i][1] != entries[j][1] {
                let mut swapped = entries.clone();
                swapped[i][1] = entries[j][1];
                swapped[j][1] = entries[i][1];
                out.push((format!("swap ids {i}, {j}"), with_table(file, &swapped)));
            }
        }
    }
    out
}

/// Reseals the payload digest and loads the file.
fn load(inst: &Arc<Instance>, mut file: Vec<u8>) -> Result<PreparedIndex, PersistError> {
    let digest = fnv1a(&file[HEADER_BYTES..]);
    set_word(&mut file, 16, digest);
    let snap = Snapshot::from_bytes(file)?;
    load_snapshot(Arc::clone(inst), &snap)
}

/// Answers every rule at every `k ≤ K` on one session.
fn answer(index: PreparedIndex) {
    let mut session = QuerySession::new(Arc::new(index));
    for rule in rules() {
        for k in 1..=K {
            session.select(&Query::new(k, rule.clone(), 0)).unwrap();
        }
    }
}

#[test]
fn mutated_snapshots_fail_closed_or_answer_without_panics() {
    rayon::set_thread_override(Some(1));
    let inst = instance();
    let mut rng = 0x00C0_FFEE_u64;
    let (mut loaded, mut refused, mut panics) = (0usize, 0usize, Vec::new());
    for (label, file) in files(&inst) {
        assert!(load(&inst, file.clone()).is_ok(), "{label}: clean file");
        for (what, mutated) in mutations(&file, &mut rng) {
            let outcome = catch_unwind(AssertUnwindSafe(|| match load(&inst, mutated) {
                Ok(index) => {
                    answer(index);
                    true
                }
                Err(_) => false,
            }));
            match outcome {
                Ok(true) => loaded += 1,
                Ok(false) => refused += 1,
                Err(_) => panics.push(format!("{label}: {what}")),
            }
        }
    }
    rayon::set_thread_override(None);
    println!(
        "{} mutations: {loaded} loaded and answered, {refused} typed errors, {} panics",
        loaded + refused + panics.len(),
        panics.len()
    );
    assert!(panics.is_empty(), "panicked on: {panics:#?}");
}
