//! Versioned on-disk snapshots of [`PreparedIndex`] artifacts
//! (DESIGN.md §3e).
//!
//! [`PreparedIndex::save`] serializes the prepared artifacts of the three
//! core engines — DM's diffusion CSRs and CELF prefix order, RW's walk
//! arenas and γ*, RS's sketch sets with their truncation and end-value
//! pools — together with every exact-matrix cache that happens to be
//! materialized (competitor opinions, the rank index, seedless opinions,
//! sandwich upper-bound orders). All large arrays are written verbatim in
//! the `vom-persist` section format, so saving is a straight copy of the
//! existing flat buffers.
//!
//! [`PreparedIndex::load`] reconstructs an index that answers queries
//! **bit-identically** to a freshly built one: the artifacts are the
//! actual build outputs, not re-derived approximations, and everything
//! the snapshot does not carry (a rule class never queried before the
//! save, say) is lazily built on first use exactly as on a fresh index.
//! The file's graph digest must match the instance the caller supplies —
//! a snapshot can never be silently applied to a different graph — and
//! any corruption fails closed with a typed [`PersistError`], leaving
//! the caller to fall back to a rebuild.

use crate::engine::{DmIndex, IndexBackend, PreparedIndex, RsIndex, RwIndex};
use crate::problem::ProblemSpec;
use crate::registry::MethodId;
use crate::rs::RsConfig;
use crate::rw::RwConfig;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vom_diffusion::{DiffusionSystem, Instance, OpinionMatrix};
use vom_graph::Node;
use vom_persist::{Digest, LoadMode, PersistError, Result, Snapshot, SnapshotWriter};
use vom_sketch::SketchSet;
use vom_voting::{RankIndex, ScoringFunction};
use vom_walks::{Truncation, WalkArena};

/// Section kinds of the index snapshot format (`(kind, id)` addresses a
/// section; `id` is a rule class, sketch slot, or order position where
/// noted). Kept `pub` so external tooling can inspect snapshots.
pub mod kind {
    /// `u64` scalars: `[n, r, target, k, horizon, score kind, score p,
    /// build-time nanos, build threads]`.
    pub const META: u32 = 1;
    /// `f64` positional-approval weights (present iff the prepared rule
    /// is positional).
    pub const SCORE_WEIGHTS: u32 = 2;
    /// `f64` `r·n` exact competitor opinions, if cached.
    pub const OTHERS: u32 = 3;
    /// `f64` `r·n` exact seedless opinions, if cached.
    pub const SEEDLESS: u32 = 4;
    /// `f64` `n·(r−1)` rank-index values, if built.
    pub const RANK_VALUES: u32 = 5;
    /// `usize` `n·(r−1)` rank-index owners, paired with `RANK_VALUES`.
    pub const RANK_OWNERS: u32 = 6;
    /// `u64` favorable-base keys of the cached sandwich upper orders.
    pub const UPPER_KEYS: u32 = 7;
    /// `u32` node order; `id` = position in `UPPER_KEYS`.
    pub const UPPER_ORDER: u32 = 8;

    /// `usize` `n+1` in-edge CSR offsets (DM diffusion system).
    pub const DM_IN_OFF: u32 = 16;
    /// `u32` in-edge sources.
    pub const DM_IN_SRC: u32 = 17;
    /// `f64` in-edge weights.
    pub const DM_IN_W: u32 = 18;
    // Kinds 19–21 held the DM system's out-edge CSR and has-in-edges
    // flags up to format version 2; only the warm-start frontier read
    // them, so they are neither written nor read.
    /// `f64` initial opinions `B⁰` of the target candidate.
    pub const DM_B0: u32 = 22;
    /// `f64` stubbornness diagonal `D`.
    pub const DM_D: u32 = 23;
    /// `u32` memoized cumulative CELF order, if materialized.
    pub const DM_CUM_ORDER: u32 = 24;

    /// `u64` RW config scalars: `[ρ bits, δ bits, γ-floor bits,
    /// max λ, seed, γ-pilot (`u64::MAX` = derived)]`.
    pub const RW_CFG: u32 = 32;
    /// `f64` `n` γ* values, if the competitive pilot ran.
    pub const RW_GAMMAS: u32 = 33;
    /// `u32` walk-arena nodes; `id` = rule class (0..3).
    pub const ARENA_NODES: u32 = 34;
    /// `usize` walk-arena offsets; `id` = rule class.
    pub const ARENA_OFFSETS: u32 = 35;
    /// `usize` walk-arena per-node group offsets; `id` = rule class
    /// (absent when the arena is ungrouped).
    pub const ARENA_GROUPS: u32 = 36;

    /// `u64` RS config scalars: `[ε bits, l bits, θ override
    /// (`u64::MAX` = derived), max θ, seed]`.
    pub const RS_CFG: u32 = 48;
    /// `u64` `[3]` memoized θ per rule class (`u64::MAX` = unset).
    pub const RS_THETAS: u32 = 49;
    /// `u64` `[θ]` per sketch slot; `id` = slot index.
    pub const SK_META: u32 = 50;
    /// `u32` sketch walk-arena nodes; `id` = slot.
    pub const SK_NODES: u32 = 51;
    /// `usize` sketch walk-arena offsets; `id` = slot.
    pub const SK_OFFSETS: u32 = 52;
    /// `usize` sketch walk-arena group offsets; `id` = slot (optional).
    pub const SK_GROUPS: u32 = 53;
    /// `u32` per-walk end positions (pristine); `id` = slot.
    pub const SK_END_POS: u32 = 54;
    /// `usize` first-occurrence CSR offsets; `id` = slot.
    pub const SK_OCC_OFF: u32 = 55;
    /// `u32` first-occurrence walk ids; `id` = slot.
    pub const SK_OCC_WALK: u32 = 56;
    /// `u32` first-occurrence positions; `id` = slot.
    pub const SK_OCC_POS: u32 = 57;
    /// `f64` per-node `b0` targets; `id` = slot.
    pub const SK_B0: u32 = 58;
    /// `f64` pooled start sums; `id` = slot.
    pub const SK_START_SUM: u32 = 59;
    /// `u32` pooled start counts; `id` = slot.
    pub const SK_START_COUNT: u32 = 60;
    // Kind 61 was the per-walk gain section of format version 1; gains
    // are now derived from the truncation end values, so the section is
    // neither written nor read.
}

/// Where a snapshot's bytes come from and how long they live.
#[derive(Debug, Clone, Copy)]
pub enum IndexSource<'a> {
    /// One contiguous read into an owned buffer; sections are decoded
    /// into owned arrays and the buffer is freed after the load.
    File(&'a Path),
    /// One contiguous read into a buffer kept for the process lifetime
    /// (the mmap-ready mode): sections are borrowed zero-copy where the
    /// target's memory layout matches the disk layout.
    Mapped(&'a Path),
}

impl<'a> IndexSource<'a> {
    fn open(self) -> Result<Snapshot> {
        match self {
            IndexSource::File(path) => Snapshot::open(path, LoadMode::Copy),
            IndexSource::Mapped(path) => Snapshot::open(path, LoadMode::MapStatic),
        }
    }
}

/// Fingerprint of everything a snapshot's artifacts depend on in the
/// instance: per-candidate graph topology and weights (bit-exact),
/// initial opinions, stubbornness, and fixed seeds. A snapshot loads only
/// against an instance with the same digest.
pub fn graph_digest(instance: &Instance) -> u64 {
    let mut d = Digest::new();
    d.update_u64(instance.num_candidates() as u64);
    d.update_u64(instance.num_nodes() as u64);
    for q in 0..instance.num_candidates() {
        let cand = instance.candidate(q);
        let g = &cand.graph;
        d.update_u64(g.num_edges() as u64);
        for v in g.nodes() {
            d.update_u64(g.in_degree(v) as u64);
            for (src, w) in g.in_entries(v) {
                d.update_u64(u64::from(src));
                d.update_f64(w);
            }
        }
        for &b in cand.initial.iter() {
            d.update_f64(b);
        }
        for &s in cand.stubbornness.iter() {
            d.update_f64(s);
        }
        d.update_u64(cand.fixed_seeds.len() as u64);
        for &s in &cand.fixed_seeds {
            d.update_u64(u64::from(s));
        }
    }
    d.finish()
}

/// Fingerprint of the problem half of a spec: target, budget, horizon,
/// and the scoring rule (the instance is covered by [`graph_digest`]).
pub fn spec_digest(spec: &ProblemSpec) -> u64 {
    let mut d = Digest::new();
    d.update_u64(spec.target as u64);
    d.update_u64(spec.k as u64);
    d.update_u64(spec.horizon as u64);
    let (skind, sp) = score_code(&spec.score);
    d.update_u64(skind);
    d.update_u64(sp);
    if let ScoringFunction::PositionalPApproval { weights, .. } = &spec.score {
        d.update_u64(weights.len() as u64);
        for &w in weights {
            d.update_f64(w);
        }
    }
    d.finish()
}

fn score_code(score: &ScoringFunction) -> (u64, u64) {
    match score {
        ScoringFunction::Cumulative => (0, 0),
        ScoringFunction::Plurality => (1, 0),
        ScoringFunction::PApproval { p } => (2, *p as u64),
        ScoringFunction::PositionalPApproval { p, .. } => (3, *p as u64),
        ScoringFunction::Copeland => (4, 0),
    }
}

fn decode_score(skind: u64, p: u64, weights: Option<Vec<f64>>) -> Result<ScoringFunction> {
    Ok(match skind {
        0 => ScoringFunction::Cumulative,
        1 => ScoringFunction::Plurality,
        2 => ScoringFunction::PApproval { p: p as usize },
        3 => ScoringFunction::PositionalPApproval {
            p: p as usize,
            weights: weights.ok_or(PersistError::SectionMissing {
                kind: kind::SCORE_WEIGHTS,
                id: 0,
            })?,
        },
        4 => ScoringFunction::Copeland,
        other => {
            return Err(PersistError::BadValue {
                what: "scoring rule",
                detail: format!("unknown score kind {other}"),
            })
        }
    })
}

fn method_from_u64(m: u64) -> Option<MethodId> {
    Some(match m {
        0 => MethodId::Dm,
        1 => MethodId::Rw,
        2 => MethodId::Rs,
        3 => MethodId::Ic,
        4 => MethodId::Lt,
        5 => MethodId::Gedt,
        6 => MethodId::Pr,
        7 => MethodId::Rwr,
        8 => MethodId::Dc,
        _ => return None,
    })
}

fn bad(what: &'static str) -> impl FnOnce(&'static str) -> PersistError {
    move |detail| PersistError::BadValue {
        what,
        detail: detail.to_string(),
    }
}

fn check_nodes(what: &'static str, nodes: &[Node], n: usize) -> Result<()> {
    if let Some(&v) = nodes.iter().find(|&&v| (v as usize) >= n) {
        return Err(PersistError::BadValue {
            what,
            detail: format!("node {v} out of range (n = {n})"),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

/// Serializes `index` into an in-memory snapshot writer. Split from the
/// file write so tests (and the service) can round-trip without disk.
pub fn snapshot_writer(index: &PreparedIndex) -> Result<SnapshotWriter> {
    let spec = index.spec();
    let n = spec.instance.num_nodes();
    let r = spec.instance.num_candidates();
    let mut w = SnapshotWriter::new(
        index.method_id() as u64,
        graph_digest(&spec.instance),
        spec_digest(spec),
    );
    let stats = index.build_stats();
    let (skind, sp) = score_code(&spec.score);
    w.section::<u64>(
        kind::META,
        0,
        &[
            n as u64,
            r as u64,
            spec.target as u64,
            spec.k as u64,
            spec.horizon as u64,
            skind,
            sp,
            stats.build_time.as_nanos() as u64,
            stats.threads as u64,
        ],
    );
    if let ScoringFunction::PositionalPApproval { weights, .. } = &spec.score {
        w.section::<f64>(kind::SCORE_WEIGHTS, 0, weights);
    }
    if let Some(m) = index.cached_others() {
        w.section::<f64>(kind::OTHERS, 0, m.flat_data());
    }
    if let Some(m) = index.cached_seedless() {
        w.section::<f64>(kind::SEEDLESS, 0, m.flat_data());
    }
    if let Some(ranks) = index.cached_ranks() {
        let (values, owners) = ranks.parts();
        w.section::<f64>(kind::RANK_VALUES, 0, values);
        w.section::<usize>(kind::RANK_OWNERS, 0, owners);
    }
    let upper = index.cached_upper_orders();
    if !upper.is_empty() {
        let keys: Vec<u64> = upper.iter().map(|(k, _)| *k as u64).collect();
        w.section::<u64>(kind::UPPER_KEYS, 0, &keys);
        for (i, (_, order)) in upper.iter().enumerate() {
            w.section::<u32>(kind::UPPER_ORDER, i as u64, order);
        }
    }

    let backend = index
        .backend()
        .as_any()
        .ok_or_else(|| PersistError::UnsupportedMethod {
            method: index.method_id().name().to_string(),
        })?;
    if let Some(dm) = backend.downcast_ref::<DmIndex>() {
        save_dm(&mut w, dm);
    } else if let Some(rw) = backend.downcast_ref::<RwIndex>() {
        save_rw(&mut w, rw);
    } else if let Some(rs) = backend.downcast_ref::<RsIndex>() {
        save_rs(&mut w, rs);
    } else {
        return Err(PersistError::UnsupportedMethod {
            method: index.method_id().name().to_string(),
        });
    }
    Ok(w)
}

fn save_dm(w: &mut SnapshotWriter, dm: &DmIndex) {
    let (in_off, in_src, in_w) = dm.system.parts();
    w.section::<usize>(kind::DM_IN_OFF, 0, in_off);
    w.section::<u32>(kind::DM_IN_SRC, 0, in_src);
    w.section::<f64>(kind::DM_IN_W, 0, in_w);
    w.section::<f64>(kind::DM_B0, 0, dm.system.initial());
    w.section::<f64>(kind::DM_D, 0, dm.system.stubbornness());
    if let Some(order) = dm.cum_order.get() {
        w.section::<u32>(kind::DM_CUM_ORDER, 0, order);
    }
}

fn rw_cfg_words(cfg: &RwConfig) -> [u64; 6] {
    [
        cfg.rho.to_bits(),
        cfg.delta.to_bits(),
        cfg.gamma_floor.to_bits(),
        cfg.max_lambda as u64,
        cfg.seed,
        cfg.gamma_pilot.map_or(u64::MAX, |p| p as u64),
    ]
}

fn save_rw(w: &mut SnapshotWriter, rw: &RwIndex) {
    w.section::<u64>(kind::RW_CFG, 0, &rw_cfg_words(&rw.cfg));
    if let Some(gammas) = rw.gammas.get() {
        w.section::<f64>(kind::RW_GAMMAS, 0, gammas);
    }
    for (class, cell) in rw.arenas.iter().enumerate() {
        if let Some(arena) = cell.get() {
            let (nodes, offsets, groups) = arena.parts();
            w.section::<u32>(kind::ARENA_NODES, class as u64, nodes);
            w.section::<usize>(kind::ARENA_OFFSETS, class as u64, offsets);
            if let Some(groups) = groups {
                w.section::<usize>(kind::ARENA_GROUPS, class as u64, groups);
            }
        }
    }
}

fn rs_cfg_words(cfg: &RsConfig) -> [u64; 5] {
    [
        cfg.epsilon.to_bits(),
        cfg.l.to_bits(),
        cfg.theta_override.map_or(u64::MAX, |t| t as u64),
        cfg.max_theta as u64,
        cfg.seed,
    ]
}

fn save_rs(w: &mut SnapshotWriter, rs: &RsIndex) {
    w.section::<u64>(kind::RS_CFG, 0, &rs_cfg_words(&rs.cfg));
    let thetas: Vec<u64> = rs
        .thetas
        .iter()
        .map(|t| t.get().map_or(u64::MAX, |&t| t as u64))
        .collect();
    w.section::<u64>(kind::RS_THETAS, 0, &thetas);
    let sketches = rs.sketches.lock().expect("sketch cache lock");
    for (slot, (theta, sketch)) in sketches.iter().enumerate() {
        let slot = slot as u64;
        let (arena, trunc, b0, start_sum, start_count) = sketch.parts();
        w.section::<u64>(kind::SK_META, slot, &[*theta as u64]);
        let (nodes, offsets, groups) = arena.parts();
        w.section::<u32>(kind::SK_NODES, slot, nodes);
        w.section::<usize>(kind::SK_OFFSETS, slot, offsets);
        if let Some(groups) = groups {
            w.section::<usize>(kind::SK_GROUPS, slot, groups);
        }
        let (end_pos, occ_off, occ_walk, occ_pos) = trunc.parts();
        w.section::<u32>(kind::SK_END_POS, slot, end_pos);
        w.section::<usize>(kind::SK_OCC_OFF, slot, occ_off);
        w.section::<u32>(kind::SK_OCC_WALK, slot, occ_walk);
        w.section::<u32>(kind::SK_OCC_POS, slot, occ_pos);
        w.section::<f64>(kind::SK_B0, slot, b0);
        w.section::<f64>(kind::SK_START_SUM, slot, start_sum);
        w.section::<u32>(kind::SK_START_COUNT, slot, start_count);
    }
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// Reconstructs an index from an already-opened snapshot against
/// `instance`. The instance must digest-match the snapshot's header.
pub fn load_snapshot(instance: Arc<Instance>, snap: &Snapshot) -> Result<PreparedIndex> {
    // audit:allow(d-wall-clock, "phase timer: elapsed feeds reported timings, never selection order")
    let start = Instant::now();
    let want = graph_digest(&instance);
    if snap.graph_digest() != want {
        return Err(PersistError::DigestMismatch {
            what: "graph",
            want,
            got: snap.graph_digest(),
        });
    }
    let meta = snap.scalars(kind::META, 0)?;
    if meta.len() < 9 {
        return Err(PersistError::BadValue {
            what: "meta section",
            detail: format!("{} scalars, need 9", meta.len()),
        });
    }
    let (n, r) = (meta[0] as usize, meta[1] as usize);
    if n != instance.num_nodes() {
        return Err(PersistError::SpecMismatch { what: "node count" });
    }
    if r != instance.num_candidates() {
        return Err(PersistError::SpecMismatch {
            what: "candidate count",
        });
    }
    let weights = snap
        .maybe_section::<f64>(kind::SCORE_WEIGHTS, 0)?
        .map(|w| w.as_slice().to_vec());
    let score = decode_score(meta[5], meta[6], weights)?;
    let spec = ProblemSpec::new(
        instance,
        meta[2] as usize,
        meta[3] as usize,
        meta[4] as usize,
        score,
    )
    .map_err(|e| PersistError::BadValue {
        what: "problem spec",
        detail: e.to_string(),
    })?;
    let want_spec = spec_digest(&spec);
    if snap.spec_digest() != want_spec {
        return Err(PersistError::DigestMismatch {
            what: "spec",
            want: want_spec,
            got: snap.spec_digest(),
        });
    }

    let others = snap
        .maybe_section::<f64>(kind::OTHERS, 0)?
        .map(|m| OpinionMatrix::from_flat(r, n, m.as_slice().to_vec()))
        .transpose()
        .map_err(|e| PersistError::BadValue {
            what: "competitor opinions",
            detail: e.to_string(),
        })?;
    let seedless = snap
        .maybe_section::<f64>(kind::SEEDLESS, 0)?
        .map(|m| OpinionMatrix::from_flat(r, n, m.as_slice().to_vec()))
        .transpose()
        .map_err(|e| PersistError::BadValue {
            what: "seedless opinions",
            detail: e.to_string(),
        })?;
    let ranks = match snap.maybe_section::<f64>(kind::RANK_VALUES, 0)? {
        Some(values) => {
            let owners = snap.section::<usize>(kind::RANK_OWNERS, 0)?;
            Some(
                RankIndex::from_parts(spec.target, r, n, values, owners)
                    .map_err(bad("rank index"))?,
            )
        }
        None => None,
    };
    let mut upper = Vec::new();
    if let Some(keys) = snap.maybe_section::<u64>(kind::UPPER_KEYS, 0)? {
        for (i, &key) in keys.iter().enumerate() {
            let order = snap.section::<u32>(kind::UPPER_ORDER, i as u64)?;
            check_nodes("sandwich upper order", &order, n)?;
            upper.push((key as usize, order.as_slice().to_vec()));
        }
    }

    let method = method_from_u64(snap.method()).ok_or_else(|| PersistError::BadValue {
        what: "method id",
        detail: format!("unknown method {}", snap.method()),
    })?;
    let backend: Box<dyn IndexBackend> = match method {
        MethodId::Dm => Box::new(load_dm(snap, &spec, n)?),
        MethodId::Rw => Box::new(load_rw(snap, n)?),
        MethodId::Rs => Box::new(load_rs(snap, n)?),
        other => {
            return Err(PersistError::UnsupportedMethod {
                method: other.name().to_string(),
            })
        }
    };
    Ok(PreparedIndex::from_loaded(
        spec,
        method,
        backend,
        start.elapsed(),
        others,
        ranks,
        seedless,
        upper,
    ))
}

fn load_dm(snap: &Snapshot, spec: &ProblemSpec, n: usize) -> Result<DmIndex> {
    let system = DiffusionSystem::from_parts(
        n,
        snap.section::<usize>(kind::DM_IN_OFF, 0)?,
        snap.section::<u32>(kind::DM_IN_SRC, 0)?,
        snap.section::<f64>(kind::DM_IN_W, 0)?,
        snap.section::<f64>(kind::DM_B0, 0)?,
        snap.section::<f64>(kind::DM_D, 0)?,
    )
    .map_err(bad("diffusion system"))?;
    // Install the loaded system as the candidate's canonical one (an
    // already-built cache wins — it is bit-identical by construction, and
    // queries assert pointer equality with the candidate cache).
    let system = Arc::clone(
        spec.instance
            .candidate(spec.target)
            .install_system(Arc::new(system)),
    );
    let cum_order = OnceLock::new();
    if let Some(order) = snap.maybe_section::<u32>(kind::DM_CUM_ORDER, 0)? {
        check_nodes("cumulative CELF order", &order, n)?;
        let _ = cum_order.set(Arc::new(order.as_slice().to_vec()));
    }
    Ok(DmIndex {
        system,
        budget: spec.k,
        cum_order,
    })
}

fn load_arena(
    snap: &Snapshot,
    nodes_kind: u32,
    offsets_kind: u32,
    groups_kind: u32,
    id: u64,
    n: usize,
) -> Result<WalkArena> {
    let nodes = snap.section::<u32>(nodes_kind, id)?;
    check_nodes("walk arena", &nodes, n)?;
    let offsets = snap.section::<usize>(offsets_kind, id)?;
    let groups = snap.maybe_section::<usize>(groups_kind, id)?;
    WalkArena::from_parts(nodes, offsets, groups).map_err(bad("walk arena"))
}

fn load_rw(snap: &Snapshot, n: usize) -> Result<RwIndex> {
    let cfgw = snap.scalars(kind::RW_CFG, 0)?;
    if cfgw.len() != 6 {
        return Err(PersistError::BadValue {
            what: "rw config",
            detail: format!("{} scalars, need 6", cfgw.len()),
        });
    }
    let cfg = RwConfig {
        rho: f64::from_bits(cfgw[0]),
        delta: f64::from_bits(cfgw[1]),
        gamma_floor: f64::from_bits(cfgw[2]),
        max_lambda: cfgw[3] as usize,
        seed: cfgw[4],
        gamma_pilot: (cfgw[5] != u64::MAX).then_some(cfgw[5] as usize),
    };
    let gammas = OnceLock::new();
    if let Some(g) = snap.maybe_section::<f64>(kind::RW_GAMMAS, 0)? {
        if g.len() != n {
            return Err(PersistError::BadValue {
                what: "rw gammas",
                detail: format!("{} values, need {n}", g.len()),
            });
        }
        let _ = gammas.set(g.as_slice().to_vec());
    }
    let arenas = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let mut loaded = 0;
    for (class, cell) in arenas.iter().enumerate() {
        if snap.has_section(kind::ARENA_NODES, class as u64) {
            let arena = load_arena(
                snap,
                kind::ARENA_NODES,
                kind::ARENA_OFFSETS,
                kind::ARENA_GROUPS,
                class as u64,
                n,
            )?;
            let _ = cell.set(arena);
            loaded += 1;
        }
    }
    let meta = snap.scalars(kind::META, 0)?;
    Ok(RwIndex {
        cfg,
        budget: meta[3] as usize,
        gammas,
        arenas,
        // Loaded artifacts count as present builds so the lazy-build
        // accounting continues from the right base.
        builds: AtomicUsize::new(loaded),
    })
}

fn load_rs(snap: &Snapshot, n: usize) -> Result<RsIndex> {
    let cfgw = snap.scalars(kind::RS_CFG, 0)?;
    if cfgw.len() != 5 {
        return Err(PersistError::BadValue {
            what: "rs config",
            detail: format!("{} scalars, need 5", cfgw.len()),
        });
    }
    let cfg = RsConfig {
        epsilon: f64::from_bits(cfgw[0]),
        l: f64::from_bits(cfgw[1]),
        theta_override: (cfgw[2] != u64::MAX).then_some(cfgw[2] as usize),
        max_theta: cfgw[3] as usize,
        seed: cfgw[4],
    };
    let theta_words = snap.scalars(kind::RS_THETAS, 0)?;
    if theta_words.len() != 3 {
        return Err(PersistError::BadValue {
            what: "rs thetas",
            detail: format!("{} values, need 3", theta_words.len()),
        });
    }
    let thetas = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    for (cell, &word) in thetas.iter().zip(&theta_words) {
        if word != u64::MAX {
            let _ = cell.set(word as usize);
        }
    }
    let mut sketches = Vec::new();
    let mut slot = 0u64;
    while snap.has_section(kind::SK_META, slot) {
        let meta = snap.scalars(kind::SK_META, slot)?;
        let theta = meta.first().copied().unwrap_or(0) as usize;
        let arena = Arc::new(load_arena(
            snap,
            kind::SK_NODES,
            kind::SK_OFFSETS,
            kind::SK_GROUPS,
            slot,
            n,
        )?);
        if arena.num_walks() != theta {
            return Err(PersistError::BadValue {
                what: "sketch set",
                detail: format!("θ = {theta} but arena has {} walks", arena.num_walks()),
            });
        }
        let trunc = Truncation::from_parts(
            &arena,
            n,
            snap.section::<u32>(kind::SK_END_POS, slot)?
                .as_slice()
                .to_vec(),
            snap.section::<usize>(kind::SK_OCC_OFF, slot)?,
            snap.section::<u32>(kind::SK_OCC_WALK, slot)?,
            snap.section::<u32>(kind::SK_OCC_POS, slot)?,
        )
        .map_err(bad("sketch truncation"))?;
        let sketch = SketchSet::from_parts(
            arena,
            trunc,
            snap.section::<f64>(kind::SK_B0, slot)?.as_slice().to_vec(),
            n,
            snap.section::<f64>(kind::SK_START_SUM, slot)?
                .as_slice()
                .to_vec(),
            snap.section::<u32>(kind::SK_START_COUNT, slot)?
                .as_slice()
                .to_vec(),
        )
        .map_err(bad("sketch set"))?;
        sketches.push((theta, Arc::new(sketch)));
        slot += 1;
    }
    let loaded = sketches.len();
    let meta = snap.scalars(kind::META, 0)?;
    Ok(RsIndex {
        cfg,
        budget: meta[3] as usize,
        thetas,
        sketches: Mutex::new(sketches),
        builds: AtomicUsize::new(loaded),
    })
}

impl PreparedIndex {
    /// Writes this index as a versioned snapshot file (atomically: temp
    /// file then rename). Only the three core engines have snapshot
    /// support;
    /// saving a baseline-backed index reports
    /// [`PersistError::UnsupportedMethod`].
    pub fn save(&self, path: &Path) -> Result<()> {
        snapshot_writer(self)?.write_to(path)
    }

    /// Loads an index snapshot against `instance`, which must
    /// digest-match the instance the snapshot was saved from. The loaded
    /// index is a full [`PreparedIndex`] — `Send + Sync`, queryable from
    /// any number of sessions — and answers every query bit-identically
    /// to the index it was saved from.
    pub fn load(instance: Arc<Instance>, source: IndexSource<'_>) -> Result<PreparedIndex> {
        let snap = source.open()?;
        load_snapshot(instance, &snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, PreparedIndex, Query, QuerySession, SeedSelector};
    use crate::Problem;
    use vom_graph::builder::graph_from_edges;

    fn instance() -> Instance {
        let g = Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap());
        let b = OpinionMatrix::from_rows(vec![
            vec![0.40, 0.80, 0.60, 0.90],
            vec![0.35, 0.75, 1.00, 0.80],
        ])
        .unwrap();
        Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
    }

    fn err_of(r: Result<PreparedIndex>) -> PersistError {
        match r {
            Ok(_) => panic!("expected a persist error"),
            Err(e) => e,
        }
    }

    fn round_trip(index: &PreparedIndex, instance: Arc<Instance>) -> PreparedIndex {
        let bytes = snapshot_writer(index).unwrap().to_bytes();
        let snap = Snapshot::from_bytes(bytes, LoadMode::Copy).unwrap();
        load_snapshot(instance, &snap).unwrap()
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        let inst = instance();
        assert_eq!(graph_digest(&inst), graph_digest(&instance()));
        let other = {
            let g =
                Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 0.5), (2, 3, 1.0)]).unwrap());
            let b = OpinionMatrix::from_rows(vec![
                vec![0.40, 0.80, 0.60, 0.90],
                vec![0.35, 0.75, 1.00, 0.80],
            ])
            .unwrap();
            Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap()
        };
        assert_ne!(graph_digest(&inst), graph_digest(&other));

        let spec_a = ProblemSpec::new(Arc::new(inst), 0, 2, 1, ScoringFunction::Plurality).unwrap();
        let mut spec_b = spec_a.clone();
        spec_b.horizon = 2;
        assert_ne!(spec_digest(&spec_a), spec_digest(&spec_b));
        assert_eq!(spec_digest(&spec_a), spec_digest(&spec_a.clone()));
    }

    #[test]
    fn round_trip_is_bit_identical_for_every_engine() {
        for engine in [Engine::Dm, Engine::rw_default(), Engine::rs_default()] {
            let inst = Arc::new(instance());
            let spec =
                ProblemSpec::new(Arc::clone(&inst), 0, 2, 1, ScoringFunction::Plurality).unwrap();
            let built = Arc::new(engine.prepare_spec(spec).unwrap());
            // Materialize caches (rank index, sandwich orders) pre-save.
            let mut session = QuerySession::new(Arc::clone(&built));
            let want = session.select_k(2).unwrap();

            let loaded = Arc::new(round_trip(&built, Arc::clone(&inst)));
            let mut session = QuerySession::new(Arc::clone(&loaded));
            let got = session.select_k(2).unwrap();
            assert_eq!(want.seeds, got.seeds, "{}", engine.name());
            assert_eq!(
                want.exact_score.to_bits(),
                got.exact_score.to_bits(),
                "{}",
                engine.name()
            );
            // Cross-rule queries on the loaded index also match.
            let q = Query::new(1, ScoringFunction::Cumulative, 0);
            let mut sb = QuerySession::new(Arc::clone(&built));
            let mut sl = QuerySession::new(Arc::clone(&loaded));
            assert_eq!(
                sb.select(&q).unwrap().seeds,
                sl.select(&q).unwrap().seeds,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn load_rejects_a_different_instance() {
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let built = Engine::Dm.prepare_spec(spec).unwrap();
        let bytes = snapshot_writer(&built).unwrap().to_bytes();
        let snap = Snapshot::from_bytes(bytes, LoadMode::Copy).unwrap();
        let other = {
            let g =
                Arc::new(graph_from_edges(4, &[(0, 2, 1.0), (1, 2, 0.5), (2, 3, 1.0)]).unwrap());
            let b = OpinionMatrix::from_rows(vec![
                vec![0.40, 0.80, 0.60, 0.90],
                vec![0.35, 0.75, 1.00, 0.80],
            ])
            .unwrap();
            Arc::new(Instance::shared(g, b, vec![0.0, 0.0, 0.5, 0.5]).unwrap())
        };
        assert!(matches!(
            err_of(load_snapshot(other, &snap)),
            PersistError::DigestMismatch { what: "graph", .. }
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join("vom-core-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dm.vpi");
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 2, 1, ScoringFunction::Plurality).unwrap();
        let built = Arc::new(Engine::Dm.prepare_spec(spec).unwrap());
        let want = QuerySession::new(Arc::clone(&built)).select_k(2).unwrap();
        built.save(&path).unwrap();
        for source in [IndexSource::File(&path), IndexSource::Mapped(&path)] {
            let loaded = Arc::new(PreparedIndex::load(Arc::clone(&inst), source).unwrap());
            assert_eq!(loaded.method_id(), MethodId::Dm);
            let got = QuerySession::new(Arc::clone(&loaded)).select_k(2).unwrap();
            assert_eq!(want.seeds, got.seeds);
            assert_eq!(want.exact_score.to_bits(), got.exact_score.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_files_fail_closed_with_typed_errors() {
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let built = Engine::rs_default().prepare_spec(spec).unwrap();
        let bytes = snapshot_writer(&built).unwrap().to_bytes();

        // Flipped payload byte → payload digest mismatch.
        let mut flipped = bytes.clone();
        let at = bytes.len() - 9;
        flipped[at] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(flipped, LoadMode::Copy).unwrap_err(),
            PersistError::DigestMismatch {
                what: "payload",
                ..
            }
        ));
        // Truncated file.
        assert!(matches!(
            Snapshot::from_bytes(bytes[..bytes.len() / 2].to_vec(), LoadMode::Copy).unwrap_err(),
            PersistError::Truncated { .. } | PersistError::DigestMismatch { .. }
        ));
        // Version bump.
        let mut bumped = bytes.clone();
        bumped[8..16].copy_from_slice(&(vom_persist::FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bumped, LoadMode::Copy).unwrap_err(),
            PersistError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn version_2_dm_snapshots_fail_closed() {
        // Version 2 still carried the DM system's out-edge CSR and
        // has-in flags. A v2 file must be rejected with the typed
        // version error (the service then rebuilds), never parsed.
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let built = Engine::Dm.prepare_spec(spec).unwrap();
        let mut bytes = snapshot_writer(&built).unwrap().to_bytes();
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(bytes, LoadMode::Copy).unwrap_err(),
            PersistError::UnsupportedVersion { got: 2, want: 3 }
        );
    }

    #[test]
    fn loaded_indexes_lazily_build_missing_classes() {
        // Save an index that has only the cumulative-class artifacts; a
        // competitive query on the loaded index builds the missing class
        // lazily, exactly as a fresh index would.
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 2, 1, ScoringFunction::Cumulative).unwrap();
        let built = Arc::new(Engine::rw_default().prepare_spec(spec.clone()).unwrap());
        let loaded = Arc::new(round_trip(&built, Arc::clone(&inst)));
        assert_eq!(loaded.build_stats().artifact_builds, 1);
        let q = Query::new(1, ScoringFunction::Plurality, 0);
        let got = QuerySession::new(Arc::clone(&loaded)).select(&q).unwrap();
        assert_eq!(loaded.build_stats().artifact_builds, 2);
        let fresh = Arc::new(Engine::rw_default().prepare_spec(spec).unwrap());
        let want = QuerySession::new(Arc::clone(&fresh)).select(&q).unwrap();
        assert_eq!(want.seeds, got.seeds);
    }

    #[test]
    fn problem_mismatch_is_a_spec_digest_error() {
        let inst = Arc::new(instance());
        let spec =
            ProblemSpec::new(Arc::clone(&inst), 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let built = Engine::Dm.prepare_spec(spec).unwrap();
        let mut bytes = snapshot_writer(&built).unwrap().to_bytes();
        // Tamper with the horizon inside META (the first section, which
        // sits directly after the table; its slot 4 is the horizon) and
        // re-seal the payload digest so only the spec digest can object.
        let n_sections = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        let payload_start = vom_persist::HEADER_BYTES + n_sections * vom_persist::ENTRY_BYTES;
        let horizon_at = payload_start + 4 * 8;
        bytes[horizon_at..horizon_at + 8].copy_from_slice(&7u64.to_le_bytes());
        let digest = vom_persist::fnv1a(&bytes[vom_persist::HEADER_BYTES..]);
        bytes[16..24].copy_from_slice(&digest.to_le_bytes());
        let snap = Snapshot::from_bytes(bytes, LoadMode::Copy).unwrap();
        assert!(matches!(
            err_of(load_snapshot(Arc::clone(&inst), &snap)),
            PersistError::DigestMismatch { what: "spec", .. }
        ));
    }

    #[test]
    fn baseline_methods_report_unsupported() {
        // A backend with no as_any override cannot be snapshotted.
        struct Opaque;
        impl crate::engine::IndexBackend for Opaque {
            fn heap_bytes(&self) -> usize {
                0
            }
            fn greedy(
                &self,
                problem: &Problem<'_>,
                _comp: Option<crate::greedy::Competitors<'_>>,
                _scratch: &mut crate::engine::SessionScratch,
                _meter: Option<&crate::CostMeter>,
            ) -> crate::Result<Vec<Node>> {
                Ok(vec![0; problem.k.min(1)])
            }
        }
        let inst = Arc::new(instance());
        let spec = ProblemSpec::new(inst, 0, 1, 1, ScoringFunction::Cumulative).unwrap();
        let index = PreparedIndex::new(
            spec,
            MethodId::Dc,
            Box::new(Opaque),
            std::time::Duration::ZERO,
        );
        assert!(matches!(
            snapshot_writer(&index).unwrap_err(),
            PersistError::UnsupportedMethod { .. }
        ));
    }
}
