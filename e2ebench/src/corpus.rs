//! Seeded inputs shared by the driver and the server child: the corpus
//! and its append-only deltas, the study-user profile pool, the
//! `cold_tail` predicate universe and the request streams. Equal seeds
//! give equal inputs in both processes.

use std::collections::{HashMap, HashSet};

use dblp_workload::{gen, DblpDataset, ExtractedWorkload};
use hypre_core::prelude::{DerivedCatalog, HypreGraph, PrefAtom, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{parse_predicate, Database, Predicate, Value};

/// Papers the preferences are extracted from and the ingest cache is
/// warmed on.
pub const PAPERS: usize = 20_000;
/// Papers per append-only delta.
pub const DELTA_PAPERS: usize = 100;
/// Rounds a run's measured phases are cut into. Each round ingests one
/// delta, then runs its share of the open loop and of the closed loop,
/// so every metric's samples are spread over the whole run and a host
/// that runs slower for a few seconds moves one round, not a metric.
pub const ROUNDS: usize = 10;
/// Papers generated and served: the corpus and the papers its deltas
/// append, one delta per round.
pub const SERVED_PAPERS: usize = PAPERS + ROUNDS * DELTA_PAPERS;
/// Top-k depth of every request.
pub const K: u32 = 10;
/// Tenants the requests are spread over.
pub const TENANTS: u64 = 64;
/// Zipf exponent of the hot profile pool.
pub const HOT_SKEW: f64 = 1.1;
/// Zipf exponent of the cold predicate universe.
pub const COLD_SKEW: f64 = 1.0;
/// Authors named by `COAUTHOR_OF` atoms in the cold universe.
pub const DSL_AUTHORS: usize = 600;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-only, every atom in the snapshot, heavy profile sharing.
    HotZipf,
    /// Read-only, working set larger than the snapshot.
    ColdTail,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_zipf" => Some(Workload::HotZipf),
            "cold_tail" => Some(Workload::ColdTail),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotZipf => "hot_zipf",
            Workload::ColdTail => "cold_tail",
        }
    }

    /// Open-loop arrival rate, requests per second.
    pub fn open_rps(self) -> f64 {
        match self {
            Workload::HotZipf => 500.0,
            Workload::ColdTail => 45.0,
        }
    }

    /// Requests in flight during the closed-loop capacity phase.
    pub fn window(self) -> usize {
        match self {
            Workload::HotZipf => 32,
            Workload::ColdTail => 4,
        }
    }
}

/// The generator configuration: author and venue populations scale with
/// the served corpus as in `Fixture::papers`.
pub fn generator(seed: u64, papers: usize) -> gen::GeneratorConfig {
    gen::GeneratorConfig {
        seed,
        papers,
        authors: (PAPERS * 2 / 5).max(50),
        venues: (PAPERS / 65).clamp(8, 120),
        ..gen::GeneratorConfig::default()
    }
}

/// The first `n` papers with their authorship links; authors and
/// citations are kept whole (the profile predicates and the base query
/// reach only `dblp` and `dblp_author`).
pub fn prefix(dataset: &DblpDataset, n: usize) -> DblpDataset {
    let n = n.min(dataset.papers.len());
    let kept: HashSet<u64> = dataset.papers[..n].iter().map(|p| p.pid).collect();
    DblpDataset {
        papers: dataset.papers[..n].to_vec(),
        authors: dataset.authors.clone(),
        citations: dataset.citations.clone(),
        paper_authors: dataset
            .paper_authors
            .iter()
            .filter(|pa| kept.contains(&pa.pid))
            .copied()
            .collect(),
    }
}

/// One append-only delta: new `dblp` rows and their `dblp_author` links.
pub struct Delta {
    pub papers: Vec<Vec<Value>>,
    pub links: Vec<Vec<Value>>,
}

impl Delta {
    pub fn rows(&self) -> usize {
        self.papers.len() + self.links.len()
    }
}

/// The papers after the first `from`, cut into [`DELTA_PAPERS`]-paper
/// deltas in corpus order.
pub fn deltas(dataset: &DblpDataset, from: usize) -> Vec<Delta> {
    let tail = &dataset.papers[from.min(dataset.papers.len())..];
    let tail_pids: HashSet<u64> = tail.iter().map(|p| p.pid).collect();
    let mut links: HashMap<u64, Vec<u64>> = HashMap::new();
    for pa in dataset
        .paper_authors
        .iter()
        .filter(|pa| tail_pids.contains(&pa.pid))
    {
        links.entry(pa.pid).or_default().push(pa.aid);
    }
    tail.chunks(DELTA_PAPERS)
        .map(|chunk| Delta {
            papers: chunk
                .iter()
                .map(|p| {
                    vec![
                        Value::Int(p.pid as i64),
                        Value::str(&p.title),
                        Value::Int(p.year),
                        Value::str(&p.venue),
                    ]
                })
                .collect(),
            links: chunk
                .iter()
                .flat_map(|p| {
                    links
                        .get(&p.pid)
                        .into_iter()
                        .flatten()
                        .map(move |aid| vec![Value::Int(p.pid as i64), Value::Int(*aid as i64)])
                })
                .collect(),
        })
        .collect()
}

/// Appends one delta with `Table::insert`.
pub fn append(db: &mut Database, delta: &Delta) -> relstore::Result<()> {
    let papers = db.table_mut("dblp")?;
    for row in &delta.papers {
        papers.insert(row.clone())?;
    }
    let links = db.table_mut("dblp_author")?;
    for row in &delta.links {
        links.insert(row.clone())?;
    }
    Ok(())
}

/// The two study users — the richest user and a mid-tail one — by the
/// rule `Fixture::build` applies, computed in one pass per table instead
/// of one scan of every quantitative preference per user.
pub fn study_users(workload: &ExtractedWorkload) -> Option<(UserId, UserId)> {
    let counts = workload.preference_counts();
    let mut max_intensity: HashMap<u64, f64> = HashMap::new();
    let mut known: HashMap<u64, HashSet<String>> = HashMap::new();
    for p in &workload.quantitative {
        let top = max_intensity.entry(p.user.0).or_insert(0.0);
        *top = top.max(p.intensity.value());
        known
            .entry(p.user.0)
            .or_default()
            .insert(p.predicate.canonical());
    }
    let unsaturated = |uid: u64| max_intensity.get(&uid).copied().unwrap_or(0.0) < 0.95;
    let mut growth: HashMap<u64, usize> = HashMap::new();
    for p in &workload.qualitative {
        let seen = known.entry(p.user.0).or_default();
        for side in [&p.left, &p.right] {
            if seen.insert(side.canonical()) {
                *growth.entry(p.user.0).or_default() += 1;
            }
        }
    }
    let rich = counts
        .iter()
        .filter(|(uid, _)| unsaturated(**uid))
        .max_by_key(|(uid, n)| (**n, std::cmp::Reverse(**uid)))
        .or_else(|| counts.iter().max_by_key(|(_, n)| **n))
        .map(|(uid, _)| *uid)?;
    let target = (counts[&rich] * 2 / 5).max(8);
    let modest = counts
        .iter()
        .filter(|(uid, n)| **uid != rich && **n >= 8 && unsaturated(**uid))
        .filter(|(uid, _)| growth.get(*uid).copied().unwrap_or(0) >= 5)
        .min_by_key(|(_, n)| n.abs_diff(target))
        .map_or(rich, |(uid, _)| *uid);
    Some((UserId(rich), UserId(modest)))
}

/// A profile as it travels: canonical predicate text and intensity, in
/// descending-intensity order.
pub type WireProfile = Vec<(String, f64)>;

/// Atoms kept of the rich study user's profile (the strongest ones).
/// Profile sizes then do not swing with the seed: pairwise work grows
/// with the square of the atom count.
pub const RICH_ATOMS: usize = 112;
/// Atoms kept of the modest study user's profile.
pub const MODEST_ATOMS: usize = 40;

/// The hot pool: the seven `profile_variants` of the study users'
/// strongest [`RICH_ATOMS`] and [`MODEST_ATOMS`] atoms.
pub fn pool(graph: &HypreGraph, rich: UserId, modest: UserId) -> Vec<WireProfile> {
    let strongest = |user: UserId, n: usize| {
        let mut atoms = graph.positive_profile(user);
        atoms.truncate(n);
        atoms
    };
    hypre_bench::profile_variants(
        &strongest(rich, RICH_ATOMS),
        &strongest(modest, MODEST_ATOMS),
    )
    .iter()
    .map(|atoms| {
        atoms
            .iter()
            .map(|a| (a.predicate.canonical(), a.intensity))
            .collect()
    })
    .collect()
}

/// The cold universe's relational atoms: venue equality, year thresholds
/// and windows, and one atom per author. Texts are canonical (they
/// round-trip through `parse_predicate`).
pub fn plain_universe(dataset: &DblpDataset) -> Vec<String> {
    let mut texts: Vec<String> = dataset
        .venues()
        .iter()
        .map(|v| format!("dblp.venue='{}'", v.replace('\'', "''")))
        .collect();
    let (lo, hi) = dataset
        .papers
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), p| {
            (lo.min(p.year), hi.max(p.year))
        });
    for y in lo..=hi {
        texts.push(format!("dblp.year>={y}"));
        texts.push(format!("dblp.year<{y}"));
        for width in [2, 4] {
            if y + width - 1 <= hi {
                texts.push(format!("dblp.year BETWEEN {y} AND {}", y + width - 1));
            }
        }
    }
    texts.extend(
        dataset
            .authors
            .iter()
            .map(|a| format!("dblp_author.aid={}", a.aid)),
    );
    texts
        .iter()
        .filter_map(|t| parse_predicate(t).ok())
        .map(|p| p.canonical())
        .collect()
}

/// A graph-derived atom of the cold universe, as the DSL names it.
pub enum Derived {
    Coauthor(String),
    SameVenue(String),
}

impl Derived {
    /// The atom in DSL syntax.
    pub fn source(&self) -> String {
        match self {
            Derived::Coauthor(name) => format!("COAUTHOR_OF('{}')", name.replace('\'', "''")),
            Derived::SameVenue(venue) => format!("SAME_VENUE_AS('{}')", venue.replace('\'', "''")),
        }
    }

    /// The predicate the catalog lowers it to.
    pub fn lowered<'c>(&self, catalog: &'c DerivedCatalog) -> Option<&'c Predicate> {
        match self {
            Derived::Coauthor(name) => catalog.coauthor(name),
            Derived::SameVenue(venue) => catalog.same_venue(venue),
        }
    }
}

/// The derived atoms of the cold universe: [`DSL_AUTHORS`] authors at
/// an even stride (author names do not depend on the seed) and every
/// venue.
pub fn derived_atoms(dataset: &DblpDataset) -> Vec<Derived> {
    let stride = (dataset.authors.len() / DSL_AUTHORS).max(1);
    dataset
        .authors
        .iter()
        .step_by(stride)
        .take(DSL_AUTHORS)
        .map(|a| Derived::Coauthor(a.full_name.clone()))
        .chain(
            dataset
                .venues()
                .into_iter()
                .map(|v| Derived::SameVenue(v.to_owned())),
        )
        .collect()
}

/// A DSL profile naming every derived atom.
pub fn dsl_source(atoms: &[Derived]) -> String {
    let mut src = String::from("PROFILE cold_tail OVER dblp {\n");
    for atom in atoms {
        src.push_str(&format!("  {} @ 0.5;\n", atom.source()));
    }
    src.push('}');
    src
}

/// Orders the cold universe by popularity rank: a fixed hash of each
/// atom's name — its text, or its DSL source for a derived atom (whose
/// lowered text lists seed-dependent co-authors). The same venue, year,
/// author and derived atoms are then hot under every seed, so the
/// per-request work does not swing with which atoms a seed ranks first.
pub fn by_popularity(mut named: Vec<(String, String)>) -> Vec<String> {
    named.sort_by_key(|(name, text)| (fnv1a(name.as_bytes()), text.clone()));
    named.into_iter().map(|(_, text)| text).collect()
}

/// 64-bit FNV-1a: a hash that stays the same across builds and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Inverse-CDF Zipf sampling over `n` ranks (rank 0 hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n.max(1))
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let point = rng.gen::<f64>() * total;
        self.cdf
            .partition_point(|&c| c < point)
            .min(self.cdf.len() - 1)
    }
}

/// One scheduled request: due time (seconds after the phase starts; 0 in
/// a closed loop), profile index and tenant.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub at: f64,
    pub profile: u32,
    pub tenant: u64,
}

/// The workload's request inputs: the profiles requests refer to, and
/// the seeded streams of each phase.
pub struct Streams {
    pub profiles: Vec<WireProfile>,
    pub warmup: Vec<Req>,
    pub open: Vec<Req>,
    pub closed: Vec<Req>,
}

impl Streams {
    /// The open loop cut by due time into [`ROUNDS`] slices of equal
    /// length, each re-timed from its own start.
    pub fn open_rounds(&self) -> Vec<Vec<Req>> {
        let span = self.open.last().map_or(0.0, |r| r.at);
        let width = (span / ROUNDS as f64).max(f64::MIN_POSITIVE);
        let mut rounds = vec![Vec::new(); ROUNDS];
        for r in &self.open {
            let i = ((r.at / width) as usize).min(ROUNDS - 1);
            rounds[i].push(Req {
                at: r.at - i as f64 * width,
                ..*r
            });
        }
        rounds
    }
}

/// Requests the warm-up phase sends before any timing.
pub const WARMUP: usize = 100;

/// Builds every phase's stream from the seed. `hot` is the pool,
/// `universe` the cold predicate universe (empty outside `cold_tail`).
pub fn streams(
    workload: Workload,
    seed: u64,
    seconds: f64,
    hot: &[WireProfile],
    universe: &[String],
) -> Streams {
    let rate = workload.open_rps();
    // At least 1100 arrivals, so p99 has ten samples beyond it with room
    // to spare.
    let n_open = ((rate * seconds) as usize).max(1100);
    // The closed loop cycles through its stream when it runs out.
    let n_closed = 20_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut at = 0.0;
    let arrivals: Vec<f64> = (0..n_open)
        .map(|_| {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            at
        })
        .collect();
    let tenants = |n: usize, rng: &mut StdRng| -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..TENANTS)).collect()
    };
    let open_tenants = tenants(n_open, &mut rng);
    let closed_tenants = tenants(n_closed, &mut rng);
    let warm_tenants = tenants(WARMUP, &mut rng);
    match workload {
        Workload::HotZipf => {
            let zipf = Zipf::new(hot.len(), HOT_SKEW);
            let mut draw = |n: usize, tenants: &[u64], times: Option<&[f64]>| -> Vec<Req> {
                (0..n)
                    .map(|i| Req {
                        at: times.map_or(0.0, |t| t[i]),
                        profile: zipf.sample(&mut rng) as u32,
                        tenant: tenants[i],
                    })
                    .collect()
            };
            let open = draw(n_open, &open_tenants, Some(&arrivals));
            let closed = draw(n_closed, &closed_tenants, None);
            let warmup = draw(WARMUP, &warm_tenants, None);
            Streams {
                profiles: hot.to_vec(),
                warmup,
                open,
                closed,
            }
        }
        Workload::ColdTail => {
            // The universe arrives in popularity order (`by_popularity`).
            let zipf = Zipf::new(universe.len(), COLD_SKEW);
            let mut profiles: Vec<WireProfile> = Vec::new();
            let mut draw = |n: usize, tenants: &[u64], times: Option<&[f64]>| -> Vec<Req> {
                (0..n)
                    .map(|i| {
                        let width = rng.gen_range(4..=8usize);
                        let mut picked: Vec<usize> = Vec::with_capacity(width);
                        while picked.len() < width.min(universe.len()) {
                            let atom = zipf.sample(&mut rng);
                            if !picked.contains(&atom) {
                                picked.push(atom);
                            }
                        }
                        let mut profile: WireProfile = picked
                            .into_iter()
                            .map(|a| (universe[a].clone(), 0.05 + 0.95 * rng.gen::<f64>()))
                            .collect();
                        profile.sort_by(|a, b| b.1.total_cmp(&a.1));
                        profiles.push(profile);
                        Req {
                            at: times.map_or(0.0, |t| t[i]),
                            profile: (profiles.len() - 1) as u32,
                            tenant: tenants[i],
                        }
                    })
                    .collect()
            };
            let open = draw(n_open, &open_tenants, Some(&arrivals));
            // Closed-loop capacity here is a few hundred per second, so
            // each round's slice of this stream is sent about once.
            let closed = draw(n_closed / 5, &closed_tenants, None);
            let warmup = draw(WARMUP, &warm_tenants, None);
            Streams {
                profiles,
                warmup,
                open,
                closed,
            }
        }
    }
}

/// Builds executor-ready atoms from (predicate text, intensity) pairs
/// exactly as the server admits a request: parsed, stably sorted by
/// descending intensity, re-indexed.
pub fn admitted_atoms<'a>(
    atoms: impl IntoIterator<Item = (&'a str, f64)>,
) -> relstore::Result<Vec<PrefAtom>> {
    let mut parsed = atoms
        .into_iter()
        .map(|(text, w)| parse_predicate(text).map(|p| (p, w)))
        .collect::<relstore::Result<Vec<_>>>()?;
    parsed.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(parsed
        .into_iter()
        .enumerate()
        .map(|(i, (p, w))| PrefAtom::new(i, p, w))
        .collect())
}
