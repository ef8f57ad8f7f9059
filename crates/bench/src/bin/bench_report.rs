//! Emits the machine-readable perf snapshot for the current PR (e.g.
//! `BENCH_PR3.json`), prints a side-by-side delta against the newest
//! checked-in `BENCH_PR*.json`, and **fails (exit 1) when a headline row
//! regresses** by more than [`GUARD_MAX_REGRESSION`] — the bench gate
//! `scripts/ci.sh --release-bench` runs.
//!
//! The report is one JSON object holding an array per section below.
//! Every row is a flat JSON object on a line of its own whose values are
//! integers, strings, or ratios written with two decimals. Only the
//! `results` rows carry a `name` field: [`parse_result_row`] reads those
//! back, from the baseline and from this run alike, and they are all the
//! delta printer and the regression guard ever see.
//!
//! Measures, per corpus size (default 2 000 and 20 000 papers; override
//! with `BENCH_SIZES=2000,20000`), across the **three generations** of
//! set algebra (adaptive `TupleSet` / pure `BitSet` / seed
//! `HashSet<Value>`, all memo-warmed so the timed regions are pure set
//! algebra):
//!
//! * `pairwise_build` — `PairwiseCache::build` wall time, plus the cold
//!   adaptive build including its `n` SQL queries;
//! * `peps_top_k` — `Peps::top_k` latency (complete variant, k = 10 and
//!   100) for all three engines over the same pairwise cache;
//! * `set_algebra` / `set_algebra_sparse` — micro-ops over the densest
//!   and sparsest profile tuple sets, with per-set container bytes in
//!   the `memory` section;
//! * `pairwise_build_parallel` — the PR 3 sharded triangular pass (now
//!   cost-weighted) at 1, 2 and 4 worker threads (byte-identical
//!   results; the delta is pure scheduling, so single-core hosts show
//!   spawn overhead, multi-core hosts show speedup — the host's core
//!   count is recorded as `available_parallelism`);
//! * `peps_parallel` — PR 4: `Peps::top_k` with the round expansions
//!   sharded at 1, 2 and 4 workers (same caveat on single-core hosts;
//!   `tests/parallel_equivalence.rs` pins every count byte-identical);
//! * `multi_session` — N user sessions served from one shared
//!   `ProfileCache` snapshot versus N cold executors that re-run every
//!   profile query;
//! * `containers` — PR 4: how the rich profile's tuple sets distribute
//!   over the three adaptive containers (array / runs / bitmap), with
//!   per-container byte totals against the pure-bitmap footprint;
//! * `live_ingest` — PR 6: warming on a 95 % base corpus then ingesting
//!   the remaining 5 % as an append-only delta
//!   (`ProfileCache::ingest_delta`) versus a cold full re-warm over the
//!   grown corpus;
//! * `scaling` — PR 8 (only with `--scaling`, the `scripts/ci.sh
//!   --scaling` mode): per-thread-count curves at 1, 2, 4 and 8 workers
//!   for the pairwise build, PEPS top-k (work-stealing rounds) and
//!   batched serving, each with its speedup over the 1-worker run. On a
//!   1-core host the section records an explicit
//!   `"skipped": "available_parallelism=1"` marker instead of junk
//!   spawn-overhead rows; without the flag it records
//!   `"skipped": "not_requested"`. The rows are never headline rows, so
//!   the regression guard never trips on a host's core count;
//! * `batched_serving` — PR 7: 100–400 simulated sessions drawing
//!   profiles Zipf-popularly from the variant pool, served unbatched
//!   (every session its own executor + PEPS rounds, fanned over 4 OS
//!   threads) versus one `BatchScheduler` run that evaluates each
//!   distinct profile identity once and demultiplexes. Both shapes are
//!   checksum-verified equal before timing;
//! * `graph_workload` — PR 10: the graph-derived workload end to end —
//!   property-graph build over the corpus, co-author/venue co-occurrence
//!   derivation, DSL parse + compile of a profile naming `COAUTHOR_OF` /
//!   `SAME_VENUE_AS` atoms, and PEPS top-k over the compiled atoms;
//! * `storage_1m` — PR 9: the columnar `distinct_row_set` plan versus
//!   the row-materialising reference on scan- and join-shaped queries,
//!   and warm-snapshot persistence (`ProfileCache::save_to` /
//!   `load_from`) versus a cold SQL re-warm, at every `BENCH_SIZES`
//!   corpus. With `--bench-1m` the section additionally streams a
//!   million-paper corpus (`BENCH_1M_PAPERS` overrides the size)
//!   through `load_streamed` and records single-shot end-to-end
//!   timings: corpus build, profile warm, pairwise build, PEPS top-k,
//!   snapshot save/load, and the columnar-vs-rowwise scan at scale.
//!
//! The **headline rows** (`pairwise_build`, `peps_top_k` — including the
//! PR 4 `sparse_k10` row over a sparse/range-heavy synthetic profile,
//! the regime the run container and clone-free expansion target) are the
//! regression guard: each is compared against the same row of the
//! baseline report and the run exits non-zero past the threshold. The
//! comparison is **normalised by the frozen PR 1 bitset engine** (the
//! control both runs measure under their own conditions) whenever the
//! baseline recorded it, so host-wide drift between runs — thermal
//! state, noisy neighbours on shared hardware — cancels out instead of
//! tripping the gate; PR 1-era baselines fall back to raw wall-clock.
//!
//! Usage: `cargo run --release -p hypre-bench --bin bench_report
//! [--scaling] [--bench-1m] [out.json [baseline.json]]` — with no positional
//! arguments the output name is derived as `BENCH_PR{n+1}.json` from
//! the newest checked-in `BENCH_PR{n}.json`, which doubles as the
//! baseline.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use hypre_bench::baseline::{HashSetAlgebra, SeedPeps};
use hypre_bench::bitset_baseline::{BitsetAlgebra, BitsetPeps};
use hypre_bench::timing::median_time;
use hypre_bench::{serving, Fixture};
use hypre_core::prelude::*;

/// Maximum tolerated slowdown of a headline row versus the baseline
/// report before the run fails (1.25 = 25 % regression budget).
const GUARD_MAX_REGRESSION: f64 = 1.25;

/// Sections the regression guard watches.
const HEADLINE_SECTIONS: [&str; 2] = ["pairwise_build", "peps_top_k"];

/// Worker counts the `--scaling` curves sweep.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Where a row goes: the report's arrays, in output order. `storage_1m`
/// holds three kinds of row, written kind by kind in this order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Target {
    Cold,
    Results,
    Parallel,
    Containers,
    MultiSession,
    LiveIngest,
    BatchedServing,
    GraphWorkload,
    StorageScan,
    StorageSnapshot,
    StorageMillion,
    Scaling,
    Memory,
}

impl Target {
    const ALL: [Target; 13] = [
        Target::Cold,
        Target::Results,
        Target::Parallel,
        Target::Containers,
        Target::MultiSession,
        Target::LiveIngest,
        Target::BatchedServing,
        Target::GraphWorkload,
        Target::StorageScan,
        Target::StorageSnapshot,
        Target::StorageMillion,
        Target::Scaling,
        Target::Memory,
    ];

    /// The JSON array the row lands in.
    fn array(self) -> &'static str {
        match self {
            Target::Cold => "cold",
            Target::Results => "results",
            Target::Parallel => "parallel",
            Target::Containers => "containers",
            Target::MultiSession => "multi_session",
            Target::LiveIngest => "live_ingest",
            Target::BatchedServing => "batched_serving",
            Target::GraphWorkload => "graph_workload",
            Target::StorageScan | Target::StorageSnapshot | Target::StorageMillion => "storage_1m",
            Target::Scaling => "scaling",
            Target::Memory => "memory",
        }
    }
}

/// A row's field value.
enum Val {
    Int(u128),
    Str(String),
    /// Written with two decimals.
    Ratio(f64),
}

impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::Int(v as u128)
    }
}

impl From<u128> for Val {
    fn from(v: u128) -> Self {
        Val::Int(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Str(v.to_owned())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Str(v)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Str(s) => f.write_str(s),
            Val::Ratio(r) => write!(f, "{r:.2}"),
        }
    }
}

/// `num / den` as a [`Val::Ratio`] (a speedup when `den` is the faster
/// side's time).
fn ratio(num: u128, den: u128) -> Val {
    Val::Ratio(num as f64 / den.max(1) as f64)
}

/// One report row: its target array and its fields in output order.
struct Row {
    target: Target,
    fields: Vec<(&'static str, Val)>,
}

impl Row {
    fn new(target: Target) -> Self {
        Row {
            target,
            fields: Vec::new(),
        }
    }

    fn with(mut self, key: &'static str, value: impl Into<Val>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The row as a flat one-line JSON object.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| match value {
                Val::Str(s) => format!("\"{key}\":\"{s}\""),
                _ => format!("\"{key}\":{value}"),
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A `results` row: medians of one operation under the three
/// generations. Rows of the [`HEADLINE_SECTIONS`] are the guard's.
fn results_row(
    section: &'static str,
    name: impl Into<String>,
    papers: usize,
    adaptive_ns: u128,
    bitset_ns: u128,
    hashset_ns: u128,
) -> Row {
    Row::new(Target::Results)
        .with("section", section)
        .with("name", name.into())
        .with("papers", papers)
        .with("adaptive_ns", adaptive_ns)
        .with("bitset_ns", bitset_ns)
        .with("hashset_ns", hashset_ns)
        .with("vs_bitset", ratio(bitset_ns, adaptive_ns))
        .with("vs_hashset", ratio(hashset_ns, adaptive_ns))
}

/// A `storage_1m` row: the columnar plan against the row-materialising
/// reference over one query.
fn scan_row(
    papers: usize,
    query: &str,
    rows_out: usize,
    columnar_ns: u128,
    rowwise_ns: u128,
) -> Row {
    Row::new(Target::StorageScan)
        .with("section", "storage_1m")
        .with("kind", "distinct_row_set")
        .with("query", query)
        .with("papers", papers)
        .with("rows_out", rows_out)
        .with("columnar_ns", columnar_ns)
        .with("rowwise_ns", rowwise_ns)
        .with("speedup", ratio(rowwise_ns, columnar_ns))
}

/// A `storage_1m` row: saving and loading a warm snapshot against
/// re-warming the same profile from SQL.
fn snapshot_row(
    papers: usize,
    sets: usize,
    snapshot_bytes: u64,
    save_ns: u128,
    load_ns: u128,
    rewarm_ns: u128,
) -> Row {
    Row::new(Target::StorageSnapshot)
        .with("section", "storage_1m")
        .with("kind", "snapshot")
        .with("papers", papers)
        .with("sets", sets)
        .with("snapshot_bytes", u128::from(snapshot_bytes))
        .with("save_ns", save_ns)
        .with("load_ns", load_ns)
        .with("rewarm_ns", rewarm_ns)
        .with("speedup", ratio(rewarm_ns, load_ns))
}

/// A `storage_1m` row of the `--bench-1m` gate: one phase over the
/// streamed corpus, timed once with [`time_once`].
fn million_row(papers: usize, phase: &str, ns: u128, detail: String) -> Row {
    Row::new(Target::StorageMillion)
        .with("section", "storage_1m")
        .with("kind", "million_gate")
        .with("phase", phase)
        .with("papers", papers)
        .with("ns", ns)
        .with("detail", detail)
}

/// A `graph_workload` row: one stage of the graph-derived pipeline.
fn graph_row(papers: usize, stage: &str, ns: u128, detail: String) -> Row {
    Row::new(Target::GraphWorkload)
        .with("section", "graph_workload")
        .with("papers", papers)
        .with("stage", stage)
        .with("ns", ns)
        .with("detail", detail)
}

/// A `parallel` row: a warm parallel phase at a worker count.
fn parallel_row(section: &str, papers: usize, threads: usize, ns: u128) -> Row {
    Row::new(Target::Parallel)
        .with("section", section)
        .with("papers", papers)
        .with("threads", threads)
        .with("ns", ns)
}

/// A `scaling` row: times `run` with the median harness, then runs it
/// once more with the work-stealing counters (`crate::steal`) drained,
/// so the row carries that run's tasks, steals and idle victim probes
/// (zeros for phases that never enter the pool). `one_worker_ns` keeps
/// the phase's 1-worker time, the base of `speedup_vs_1`; the sweep runs
/// one worker first.
fn scaling_row(
    phase: &str,
    papers: usize,
    threads: usize,
    one_worker_ns: &mut u128,
    mut run: impl FnMut() -> usize,
) -> Row {
    let ns = measure(&mut run);
    let _ = take_cumulative_stats();
    run();
    let (tasks, steals, idle_probes) = steal_totals();
    if threads == 1 {
        *one_worker_ns = ns;
    }
    Row::new(Target::Scaling)
        .with("section", "scaling")
        .with("phase", phase)
        .with("papers", papers)
        .with("threads", threads)
        .with("ns", ns)
        .with("speedup_vs_1", ratio(*one_worker_ns, ns))
        .with("tasks", tasks)
        .with("steals", steals)
        .with("idle_probes", idle_probes)
}

/// Renders the report: a header, then every array in [`Target`] order.
/// `scaling_skip` replaces the scaling rows with a skip marker.
fn render_report(
    bench: &str,
    sizes: &[usize],
    cores: usize,
    rows: &[Row],
    scaling_skip: Option<&str>,
) -> String {
    let mut arrays: Vec<(&str, Vec<String>)> = Vec::new();
    for target in Target::ALL {
        let lines = rows
            .iter()
            .filter(|r| r.target == target)
            .map(|r| format!("    {}", r.json()));
        match arrays.last_mut() {
            Some((array, group)) if *array == target.array() => group.extend(lines),
            _ => arrays.push((target.array(), lines.collect())),
        }
    }
    let arrays: Vec<String> = arrays
        .into_iter()
        .map(|(array, lines)| {
            let body = if lines.is_empty() {
                String::new()
            } else {
                format!("{}\n", lines.join(",\n"))
            };
            match (array, scaling_skip) {
                ("scaling", Some(reason)) => {
                    format!("  \"scaling\": {{\"skipped\": \"{reason}\"}}")
                }
                ("scaling", None) => format!(
                    "  \"scaling\": {{\"threads\": {SCALING_THREADS:?}, \"rows\": [\n{body}  ]}}"
                ),
                _ => format!("  \"{array}\": [\n{body}  ]"),
            }
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"sizes\": {sizes:?},\n  \"available_parallelism\": {cores},\n{}\n}}\n",
        arrays.join(",\n")
    )
}

/// Prints every row in report order as its array name and `key=value`
/// fields.
fn print_rows(rows: &[Row]) {
    for target in Target::ALL {
        for row in rows.iter().filter(|r| r.target == target) {
            let fields: Vec<String> = row.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("{:>18} {}", target.array(), fields.join(" "));
        }
    }
}

fn measure<R>(f: impl FnMut() -> R) -> u128 {
    median_time(5, Duration::from_millis(120), f).as_nanos()
}

/// Times one execution of `f` — for the `--bench-1m` phases, where a
/// single run already takes seconds and median-of-5 would be wasteful.
fn time_once<R>(f: impl FnOnce() -> R) -> (u128, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_nanos(), out)
}

/// Drains the process-wide work-stealing counters and sums them across
/// workers: `(tasks, steals, idle_probes)`.
fn steal_totals() -> (usize, usize, usize) {
    take_cumulative_stats()
        .iter()
        .fold((0, 0, 0), |(t, s, p), w| {
            (t + w.tasks, s + w.steals, p + w.idle_probes)
        })
}

/// A sparse/range-heavy synthetic profile: year windows (whose tuple
/// sets intern to contiguous id runs — run-container territory) plus
/// single-author long-tail atoms (tiny arrays). This is the regime the
/// PR 4 run container and clone-free COW expansion target, and the
/// `sparse_k10` headline row measures.
fn sparse_profile() -> Vec<PrefAtom> {
    [
        ("dblp.year>=1995", 0.9),
        ("dblp.year>=2000", 0.8),
        ("dblp.year>=2005", 0.7),
        ("dblp_author.aid=3", 0.6),
        ("dblp_author.aid=7", 0.55),
        ("dblp.year>=2008", 0.5),
        ("dblp_author.aid=11", 0.45),
        ("dblp_author.aid=19", 0.4),
        ("dblp.year>=2010", 0.35),
        ("dblp_author.aid=23", 0.3),
    ]
    .iter()
    .enumerate()
    .map(|(i, (pred, intensity))| {
        PrefAtom::new(
            i,
            relstore::parse_predicate(pred).expect("static predicate parses"),
            *intensity,
        )
    })
    .collect()
}

/// The numeric suffix of a `BENCH_PR<n>.json` file name.
fn bench_file_number(name: &str) -> Option<u32> {
    name.strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Every `BENCH_PR*.json` in the current directory, newest (highest
/// number) first. Note this sees the working tree, not the git index —
/// `scripts/ci.sh` resolves the *checked-in* baseline via
/// `git ls-files` and passes both names explicitly; this listing is the
/// fallback for direct invocations.
fn bench_files_newest_first() -> Vec<(u32, String)> {
    let mut files: Vec<(u32, String)> = std::fs::read_dir(".")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            Some((bench_file_number(&name)?, name))
        })
        .collect();
    files.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    files
}

fn main() {
    let mut scaling_requested = false;
    let mut bench_1m = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--scaling" => scaling_requested = true,
            "--bench-1m" => bench_1m = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other} (supported: --scaling, --bench-1m)");
                std::process::exit(2);
            }
            _ => positional.push(arg),
        }
    }
    let mut args = positional.into_iter();
    let known = bench_files_newest_first();
    let out_path = args
        .next()
        .unwrap_or_else(|| format!("BENCH_PR{}.json", known.first().map_or(1, |(n, _)| n + 1)));
    // Baseline: explicit second argument, else the newest bench file
    // that is not the output itself (so regenerating the current PR's
    // artifact in place still guards against its predecessor).
    let baseline_path = args.next().or_else(|| {
        known
            .iter()
            .map(|(_, name)| name.clone())
            .find(|name| *name != out_path)
    });
    let mut sizes: Vec<usize> = std::env::var("BENCH_SIZES")
        .unwrap_or_else(|_| "2000,20000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if sizes.is_empty() {
        eprintln!("BENCH_SIZES contained no usable sizes; using 2000,20000");
        sizes = vec![2_000, 20_000];
    }

    let mut rows: Vec<Row> = Vec::new();

    let cores = Parallelism::Auto.workers();
    // The scaling curves only mean something with real cores behind
    // them: a 1-core host would measure thread-spawn overhead, not
    // scaling, so the section is skipped with an explicit marker and
    // the headline guard never sees a core-count artifact.
    let measure_scaling = scaling_requested && cores > 1;

    for &n in &sizes {
        eprintln!("building {n}-paper fixture…");
        let fx = Fixture::papers(n);
        let atoms = fx.graph.positive_profile(fx.rich_user);
        eprintln!("  profile: {} preferences", atoms.len());

        // Cold adaptive build (includes the n SQL queries).
        let cold_ns = measure(|| {
            let fresh = fx.executor();
            PairwiseCache::build(&atoms, &fresh)
                .unwrap()
                .applicable_count()
        });
        rows.push(
            Row::new(Target::Cold)
                .with("section", "pairwise_build_cold")
                .with("papers", n)
                .with("adaptive_ns", cold_ns),
        );

        // Warm engines: the comparison isolates set algebra.
        let exec = fx.executor();
        let hashset = HashSetAlgebra::new(&exec);
        let bitset = BitsetAlgebra::new(&exec);
        hashset.warm(&atoms).unwrap();
        bitset.warm(&atoms).unwrap();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();

        rows.push(results_row(
            "pairwise_build",
            "warm",
            n,
            measure(|| {
                PairwiseCache::build(&atoms, &exec)
                    .unwrap()
                    .applicable_count()
            }),
            measure(|| bitset.pairwise_counts(&atoms).unwrap().len()),
            measure(|| hashset.pairwise_counts(&atoms).unwrap().len()),
        ));

        // PR 3: the same warm triangular pass, sharded (cost-weighted
        // chunks since PR 4).
        for threads in [1usize, 2, 4] {
            let ns = measure(|| {
                PairwiseCache::build_with(&atoms, &exec, Parallelism::threads(threads))
                    .unwrap()
                    .applicable_count()
            });
            rows.push(parallel_row("pairwise_build_parallel", n, threads, ns));
        }

        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let dense_peps = BitsetPeps::new(&atoms, &bitset, &pairs, PepsVariant::Complete);
        let seed_peps = SeedPeps::new(&atoms, &hashset, &pairs, PepsVariant::Complete);
        for k in [10usize, 100] {
            rows.push(results_row(
                "peps_top_k",
                format!("complete_k{k}"),
                n,
                measure(|| peps.top_k(k).unwrap().len()),
                measure(|| dense_peps.top_k(k).unwrap().len()),
                measure(|| seed_peps.top_k(k).unwrap().len()),
            ));
        }

        // PR 4: the same top_k with the round expansions sharded across
        // the executor's Parallelism workers.
        for threads in [1usize, 2, 4] {
            exec.set_parallelism(Parallelism::threads(threads));
            let ns = measure(|| peps.top_k(100).unwrap().len());
            rows.push(parallel_row("peps_parallel", n, threads, ns));
        }
        exec.set_parallelism(Parallelism::Sequential);

        // PR 4: a sparse/range-heavy profile — year windows interning to
        // contiguous id runs plus single-author long-tail atoms — the
        // regime the run container and clone-free COW expansion target.
        // A headline row: the guard covers it from this PR on.
        let sparse_atoms = sparse_profile();
        hashset.warm(&sparse_atoms).unwrap();
        bitset.warm(&sparse_atoms).unwrap();
        let sparse_pairs = PairwiseCache::build(&sparse_atoms, &exec).unwrap();
        let sparse_peps = Peps::new(&sparse_atoms, &exec, &sparse_pairs, PepsVariant::Complete);
        let sparse_dense =
            BitsetPeps::new(&sparse_atoms, &bitset, &sparse_pairs, PepsVariant::Complete);
        let sparse_seed = SeedPeps::new(
            &sparse_atoms,
            &hashset,
            &sparse_pairs,
            PepsVariant::Complete,
        );
        rows.push(results_row(
            "peps_top_k",
            "sparse_k10",
            n,
            measure(|| sparse_peps.top_k(10).unwrap().len()),
            measure(|| sparse_dense.top_k(10).unwrap().len()),
            measure(|| sparse_seed.top_k(10).unwrap().len()),
        ));

        // PR 4: container census of the rich profile's tuple sets.
        for kind in ["array", "runs", "bitmap"] {
            let (mut sets, mut adaptive_bytes, mut bitset_bytes) = (0usize, 0usize, 0usize);
            for a in &atoms {
                let set = exec.tuple_set(&a.predicate).unwrap();
                if set.container() == kind {
                    sets += 1;
                    adaptive_bytes += set.heap_bytes();
                    bitset_bytes += bitset.tuple_set(&a.predicate).unwrap().heap_bytes();
                }
            }
            rows.push(
                Row::new(Target::Containers)
                    .with("papers", n)
                    .with("container", kind)
                    .with("sets", sets)
                    .with("adaptive_bytes", adaptive_bytes)
                    .with("bitset_bytes", bitset_bytes),
            );
        }

        // PR 3: multi-session serving — N sessions over one shared
        // snapshot versus N cold executors re-running every query. Both
        // shapes run their sessions concurrently (hypre_bench::serving),
        // so the delta isolates what the snapshot buys rather than
        // conflating it with thread-level parallelism.
        const SESSIONS: usize = 4;
        let warm_build_ns = measure(|| {
            let warm = fx.executor();
            let built = PairwiseCache::build(&atoms, &warm).unwrap().entries().len();
            (ProfileCache::snapshot(&warm).len(), built)
        });
        let cache = Arc::new(ProfileCache::snapshot(&exec));
        let base = BaseQuery::dblp();
        let cold_ns =
            measure(|| serving::serve_cold_concurrent(&fx.db, &base, &atoms, SESSIONS, 10));
        let shared_ns =
            measure(|| serving::serve_shared_concurrent(&fx.db, &cache, &atoms, SESSIONS, 10));
        rows.push(
            Row::new(Target::MultiSession)
                .with("papers", n)
                .with("sessions", SESSIONS)
                .with("cold_ns", cold_ns)
                .with("shared_ns", shared_ns)
                .with("warm_build_ns", warm_build_ns)
                .with("speedup", ratio(cold_ns, shared_ns)),
        );

        // PR 6: live ingest — warm once on a 95 % base corpus, then
        // append the remaining 5 % as an append-only delta. Ingest
        // re-runs every predicate through an interner layered over the
        // snapshot's; the alternative is a cold full re-warm.
        let split = hypre_bench::ingest::split_corpus(&fx.dataset, 0.95);
        let predicates: Vec<&relstore::Predicate> = atoms.iter().map(|a| &a.predicate).collect();
        let base_cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates.clone())
            .expect("base warm-up succeeds");
        let (_, report) = base_cache
            .ingest_delta(&split.full)
            .expect("append-only delta ingests");
        let ingest_ns = measure(|| base_cache.ingest_delta(&split.full).unwrap().1.new_tuples);
        let rewarm_ns = measure(|| {
            ProfileCache::warm(&split.full, BaseQuery::dblp(), predicates.clone())
                .unwrap()
                .len()
        });
        rows.push(
            Row::new(Target::LiveIngest)
                .with("papers", n)
                .with("delta_rows", split.delta_papers + split.delta_links)
                .with("changed_predicates", report.changed.len())
                .with("ingest_ns", ingest_ns)
                .with("rewarm_ns", rewarm_ns)
                .with("speedup", ratio(rewarm_ns, ingest_ns)),
        );

        // PR 9: columnar segment storage. Two query shapes where the
        // columnar plan and the row-materialising reference do the same
        // logical work: an OR-of-ranges scan (no usable index seed, so
        // both paths walk every driving row) and a joined filter (the
        // plan membership-tests typed key segments; the reference
        // builds the generic hash-join pipeline).
        let scan_q = relstore::SelectQuery::from("dblp").filter(
            relstore::parse_predicate("dblp.year>=2005 OR dblp.year<1995")
                .expect("static predicate parses"),
        );
        let join_q = relstore::SelectQuery::from("dblp")
            .join(
                "dblp_author",
                relstore::ColRef::parse("dblp.pid"),
                relstore::ColRef::parse("dblp_author.pid"),
            )
            .filter(
                relstore::parse_predicate("dblp_author.aid<=25").expect("static predicate parses"),
            );
        for (name, q) in [("scan_or_filter", &scan_q), ("joined_filter", &join_q)] {
            let fast = q.distinct_row_set(&fx.db).unwrap();
            let slow = q.distinct_row_set_rowwise(&fx.db).unwrap();
            assert_eq!(fast, slow, "columnar and rowwise plans must agree ({name})");
            rows.push(scan_row(
                n,
                name,
                fast.len(),
                measure(|| q.distinct_row_set(&fx.db).unwrap().len()),
                measure(|| q.distinct_row_set_rowwise(&fx.db).unwrap().len()),
            ));
        }

        // PR 9: warm-snapshot persistence — save the warmed profile
        // cache to the versioned binary format, load it back, and
        // compare the load against what it replaces: a cold SQL
        // re-warm of the same predicates.
        let snap_path =
            std::env::temp_dir().join(format!("hypre_bench_{n}_{}.hyprsnap", std::process::id()));
        let warm_cache = ProfileCache::warm(&fx.db, BaseQuery::dblp(), predicates.clone())
            .expect("profile warm-up succeeds");
        let save_ns = measure(|| warm_cache.save_to(&snap_path, None).unwrap());
        let snapshot_bytes = std::fs::metadata(&snap_path)
            .expect("snapshot written")
            .len();
        rows.push(snapshot_row(
            n,
            warm_cache.len(),
            snapshot_bytes,
            save_ns,
            measure(|| ProfileCache::load_from(&snap_path, &fx.db).unwrap().0.len()),
            measure(|| {
                ProfileCache::warm(&fx.db, BaseQuery::dblp(), predicates.clone())
                    .unwrap()
                    .len()
            }),
        ));
        let _ = std::fs::remove_file(&snap_path);

        // PR 7: batched cross-session serving. Sessions draw their
        // profile Zipf-popularly from the variant pool (overlapping
        // slices of the two study users' profiles), so a real mix of
        // hot and long-tail identities reaches the scheduler. The
        // unbatched baseline runs every session's own PEPS rounds over
        // 4 OS threads; the batched shape evaluates each distinct
        // profile identity once and demultiplexes.
        let modest_atoms = fx.graph.positive_profile(fx.modest_user);
        let profiles = hypre_bench::profile_variants(&atoms, &modest_atoms);
        let zipf_cache = {
            let warm = fx.executor();
            for profile in &profiles {
                for atom in profile {
                    warm.tuple_set(&atom.predicate).expect("variant predicate");
                }
            }
            Arc::new(ProfileCache::snapshot(&warm))
        };
        let session_counts: &[usize] = if n < 10_000 { &[100, 400] } else { &[100] };
        for &sessions in session_counts {
            let mix = serving::zipf_session_mix(&profiles, sessions, 10, 1.1, 42);
            let unbatched_total = serving::serve_unbatched_sessions(&fx.db, &zipf_cache, &mix, 4);
            let (batched_total, stats) =
                serving::serve_batched_sessions(&fx.db, &zipf_cache, &mix, Parallelism::threads(4));
            assert_eq!(
                unbatched_total, batched_total,
                "batched and unbatched serving must agree before timing"
            );
            let unbatched_ns =
                measure(|| serving::serve_unbatched_sessions(&fx.db, &zipf_cache, &mix, 4));
            let batched_ns = measure(|| {
                serving::serve_batched_sessions(&fx.db, &zipf_cache, &mix, Parallelism::threads(4))
                    .0
            });
            rows.push(
                Row::new(Target::BatchedServing)
                    .with("papers", n)
                    .with("sessions", sessions)
                    .with("profiles", profiles.len())
                    .with("groups", stats.groups)
                    .with("shared", stats.shared)
                    .with("unbatched_ns", unbatched_ns)
                    .with("batched_ns", batched_ns)
                    .with("speedup", ratio(unbatched_ns, batched_ns)),
            );
        }

        // PR 10: the graph-derived workload family — corpus into the
        // property graph, co-occurrence derivation, a DSL profile naming
        // the derived atoms, and PEPS top-k over them. Non-headline
        // (`stage` field, no `name`), so the guard never sees it.
        {
            use dblp_workload::graph::PaperGraph;
            let (build_ns, mut pg) =
                time_once(|| PaperGraph::build(&fx.dataset).expect("corpus loads into the graph"));
            rows.push(graph_row(
                n,
                "build_graph",
                build_ns,
                format!(
                    "{} nodes, {} edges",
                    pg.graph.node_count(),
                    pg.graph.edge_count()
                ),
            ));
            let (derive_ns, (co_report, venue_report)) =
                time_once(|| pg.derive_preference_edges(4).expect("derivation succeeds"));
            rows.push(graph_row(
                n,
                "derive_edges",
                derive_ns,
                format!(
                    "{} coauthor + {} venue pairs",
                    co_report.pairs, venue_report.pairs
                ),
            ));
            let catalog = pg.derived_catalog(&fx.dataset);
            let author = fx
                .dataset
                .authors
                .iter()
                .max_by_key(|a| pg.coauthor_aids(a.aid).len())
                .expect("corpus has authors");
            let venue = fx
                .dataset
                .venues()
                .into_iter()
                .map(String::from)
                .max_by_key(|v| pg.co_venues(v).len())
                .expect("corpus has venues");
            let source = format!(
                "PROFILE bench OVER dblp {{
                    COAUTHOR_OF('{author_name}') @ 0.8;
                    SAME_VENUE_AS('{venue_name}') @ 0.5;
                    COAUTHOR_OF('{author_name}') PRIOR @ 0.6 year < 2005;
                }}",
                author_name = author.full_name.replace('\'', "''"),
                venue_name = venue.replace('\'', "''"),
            );
            let compile_ns = measure(|| {
                parse_profile(&source)
                    .expect("bench profile parses")
                    .compile(UserId(999), &catalog)
                    .expect("bench profile compiles")
                    .atoms()
                    .expect("atoms build")
                    .len()
            });
            let g_atoms = parse_profile(&source)
                .expect("bench profile parses")
                .compile(UserId(999), &catalog)
                .expect("bench profile compiles")
                .atoms()
                .expect("atoms build");
            rows.push(graph_row(
                n,
                "dsl_compile",
                compile_ns,
                format!("{} positive atoms", g_atoms.len()),
            ));
            let g_exec = fx.executor();
            let g_pairs =
                PairwiseCache::build(&g_atoms, &g_exec).expect("pairwise over derived atoms");
            let g_peps = Peps::new(&g_atoms, &g_exec, &g_pairs, PepsVariant::Complete);
            let topk_ns = measure(|| g_peps.top_k(10).expect("top-k over derived atoms").len());
            rows.push(graph_row(n, "graph_top_k", topk_ns, "k=10".to_owned()));
        }

        // PR 8: multi-core scaling curves (only with --scaling, and
        // only when the host actually has cores to scale over). Three
        // phases per thread count: the cost-weighted work-stealing
        // pairwise build, PEPS top-k with work-stealing rounds, and
        // batched Zipf serving through the scheduler. Results are
        // byte-identical at every count (tests/parallel_equivalence.rs
        // pins this), so the curves measure pure scheduling.
        if measure_scaling {
            let scaling_mix = serving::zipf_session_mix(&profiles, 100, 10, 1.1, 42);
            let mut one_worker_ns = [0u128; 3];
            for threads in SCALING_THREADS {
                rows.push(scaling_row(
                    "pairwise_build",
                    n,
                    threads,
                    &mut one_worker_ns[0],
                    || {
                        PairwiseCache::build_with(&atoms, &exec, Parallelism::threads(threads))
                            .unwrap()
                            .applicable_count()
                    },
                ));
                exec.set_parallelism(Parallelism::threads(threads));
                rows.push(scaling_row(
                    "peps_top_k",
                    n,
                    threads,
                    &mut one_worker_ns[1],
                    || peps.top_k(100).unwrap().len(),
                ));
                exec.set_parallelism(Parallelism::Sequential);
                rows.push(scaling_row(
                    "batched_serving",
                    n,
                    threads,
                    &mut one_worker_ns[2],
                    || {
                        serving::serve_batched_sessions(
                            &fx.db,
                            &zipf_cache,
                            &scaling_mix,
                            Parallelism::threads(threads),
                        )
                        .0
                    },
                ));
            }
        }

        // Operand picks: densest pair (bitmap containers) and sparsest
        // non-empty pair (array containers).
        let counts: Vec<u64> = atoms
            .iter()
            .map(|a| exec.count(&a.predicate).unwrap())
            .collect();
        let mut idx: Vec<usize> = (0..atoms.len()).filter(|&i| counts[i] > 0).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut regimes = Vec::new();
        if idx.len() >= 2 {
            regimes.push(("set_algebra", idx[0], idx[1]));
        } else {
            eprintln!("  fewer than two non-empty tuple sets; skipping set_algebra sections");
        }
        if idx.len() >= 4 {
            // Distinct from the dense pair, or the "sparse" rows would
            // just re-measure the dense operands under a new label.
            regimes.push(("set_algebra_sparse", idx[idx.len() - 1], idx[idx.len() - 2]));
        } else if idx.len() >= 2 {
            eprintln!(
                "  profile too small for a distinct sparse pair; skipping set_algebra_sparse"
            );
        }
        for (section, i, j) in regimes {
            let (pa, pb) = (&atoms[i].predicate, &atoms[j].predicate);
            let (aa, ab) = (exec.tuple_set(pa).unwrap(), exec.tuple_set(pb).unwrap());
            let (ba, bb) = (bitset.tuple_set(pa).unwrap(), bitset.tuple_set(pb).unwrap());
            let (ha, hb) = (
                hashset.tuple_set(pa).unwrap(),
                hashset.tuple_set(pb).unwrap(),
            );
            eprintln!(
                "  {section}: operand sets of {} and {} tuples ({} / {} containers)",
                aa.count(),
                ab.count(),
                aa.container(),
                ab.container(),
            );
            for (set_name, a_set, b_set) in [("a", &aa, &ba), ("b", &ab, &bb)] {
                rows.push(
                    Row::new(Target::Memory)
                        .with("papers", n)
                        .with("set", format!("{section}/{set_name}"))
                        .with("container", a_set.container())
                        .with("cardinality", a_set.count())
                        .with("adaptive_bytes", a_set.heap_bytes())
                        .with("bitset_bytes", b_set.heap_bytes()),
                );
            }

            rows.push(results_row(
                section,
                "and_count",
                n,
                measure(|| aa.and_count(&ab)),
                measure(|| ba.and_count(&bb)),
                measure(|| ha.iter().filter(|v| hb.contains(*v)).count()),
            ));
            rows.push(results_row(
                section,
                "or",
                n,
                measure(|| aa.or(&ab).count()),
                measure(|| ba.or(&bb).count()),
                measure(|| ha.union(&hb).count()),
            ));
            rows.push(results_row(
                section,
                "and_not",
                n,
                measure(|| aa.and_not(&ab).count()),
                measure(|| ba.and_not(&bb).count()),
                measure(|| ha.difference(&hb).count()),
            ));
        }
    }

    // PR 9: the million-paper gate. Streams the corpus straight into
    // columnar segments (`load_streamed` — no materialised dataset on
    // the way in), warms a fixed synthetic profile (preference
    // extraction needs a materialised dataset, which is exactly what
    // streaming avoids), and records single-shot end-to-end timings
    // for each serving phase at scale.
    if bench_1m {
        let m_papers: usize = std::env::var("BENCH_1M_PAPERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1_000_000);
        eprintln!("streaming {m_papers}-paper corpus (--bench-1m)…");
        let config = dblp_workload::GeneratorConfig {
            papers: m_papers,
            authors: (m_papers * 2 / 5).max(50),
            venues: (m_papers / 65).clamp(8, 120),
            ..dblp_workload::GeneratorConfig::default()
        };
        let (build_ns, db) =
            time_once(|| dblp_workload::load_streamed(&config).expect("streamed load succeeds"));
        let paper_rows = db.table("dblp").expect("dblp loaded").len();
        let link_rows = db.table("dblp_author").expect("links loaded").len();
        rows.push(million_row(
            paper_rows,
            "load_streamed",
            build_ns,
            format!("paper_rows={paper_rows} link_rows={link_rows}"),
        ));

        let atoms = sparse_profile();
        let predicates: Vec<&relstore::Predicate> = atoms.iter().map(|a| &a.predicate).collect();
        let (warm_ns, cache) = time_once(|| {
            ProfileCache::warm(&db, BaseQuery::dblp(), predicates.clone())
                .expect("million-paper warm succeeds")
        });
        rows.push(million_row(
            paper_rows,
            "profile_warm",
            warm_ns,
            format!("sets={}", cache.len()),
        ));

        let cache = Arc::new(cache);
        let session = Executor::with_cache(&db, Arc::clone(&cache)).expect("cached executor");
        let (pair_ns, pairs) =
            time_once(|| PairwiseCache::build(&atoms, &session).expect("pairwise build succeeds"));
        rows.push(million_row(
            paper_rows,
            "pairwise_build",
            pair_ns,
            format!("applicable={}", pairs.applicable_count()),
        ));

        let peps = Peps::new(&atoms, &session, &pairs, PepsVariant::Complete);
        let (topk_ns, top) = time_once(|| peps.top_k(10).expect("top-k succeeds"));
        rows.push(million_row(
            paper_rows,
            "peps_top_k_k10",
            topk_ns,
            format!("returned={}", top.len()),
        ));

        // Snapshot at scale: save + load once each; the re-warm
        // comparison is the single-shot warm measured above over the
        // same corpus and predicates.
        let snap_path =
            std::env::temp_dir().join(format!("hypre_bench_1m_{}.hyprsnap", std::process::id()));
        let (save_ns, _) = time_once(|| {
            cache
                .save_to(&snap_path, Some(&pairs))
                .expect("snapshot save")
        });
        let snapshot_bytes = std::fs::metadata(&snap_path)
            .expect("snapshot written")
            .len();
        let (load_ns, loaded) =
            time_once(|| ProfileCache::load_from(&snap_path, &db).expect("snapshot load"));
        let _ = std::fs::remove_file(&snap_path);
        rows.push(snapshot_row(
            paper_rows,
            loaded.0.len(),
            snapshot_bytes,
            save_ns,
            load_ns,
            warm_ns,
        ));

        let scan_q = relstore::SelectQuery::from("dblp").filter(
            relstore::parse_predicate("dblp.year>=2005 OR dblp.year<1995")
                .expect("static predicate parses"),
        );
        let (columnar_ns, fast) =
            time_once(|| scan_q.distinct_row_set(&db).expect("columnar scan"));
        let (rowwise_ns, slow) =
            time_once(|| scan_q.distinct_row_set_rowwise(&db).expect("rowwise scan"));
        assert_eq!(fast, slow, "columnar and rowwise plans must agree at 1M");
        rows.push(scan_row(
            paper_rows,
            "scan_or_filter",
            fast.len(),
            columnar_ns,
            rowwise_ns,
        ));
    }

    // The scaling section is always present so downstream parsers see a
    // stable schema: either measured rows or an explicit skip marker
    // (1-core hosts would measure spawn overhead, not scaling).
    let scaling_skip = match (measure_scaling, scaling_requested) {
        (true, _) => None,
        (false, true) => Some("available_parallelism=1"),
        (false, false) => Some("not_requested"),
    };
    let json = render_report(
        out_path.trim_end_matches(".json"),
        &sizes,
        cores,
        &rows,
        scaling_skip,
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    print_rows(&rows);
    if scaling_requested && !measure_scaling {
        println!(
            "{:>18} skipped: available_parallelism=1 (spawn overhead is not a scaling curve)",
            "scaling"
        );
    }
    eprintln!("wrote {out_path}");

    let Some(baseline_path) = baseline_path else {
        println!("\n(no baseline BENCH_PR*.json found — skipping delta and regression guard)");
        return;
    };
    if baseline_path == out_path {
        eprintln!(
            "baseline and output are the same file ({out_path}) — a report never \
             guards against itself; pass a distinct baseline"
        );
        std::process::exit(1);
    }
    let Ok(contents) = std::fs::read_to_string(&baseline_path) else {
        println!("\n(no {baseline_path} found — skipping delta and regression guard)");
        return;
    };
    let baseline_rows: Vec<ResultRow> = contents.lines().filter_map(parse_result_row).collect();
    let current_rows: Vec<ResultRow> = json.lines().filter_map(parse_result_row).collect();
    print_delta(&baseline_path, &baseline_rows, &current_rows);
    if !regression_guard(&baseline_path, &baseline_rows, &current_rows) {
        std::process::exit(1);
    }
}

/// One `results` row read back from a report line: `(section, name,
/// papers, engine_ns, control_ns)`. `engine_ns` is the engine-under-test
/// time (`adaptive_ns`, or `bitset_ns` for PR 1-era files); `control_ns`
/// is the frozen PR 1 bitset engine's time in that same run, when the
/// line recorded both.
type ResultRow = (String, String, usize, u128, Option<u128>);

/// The row of `rows` with this `(section, name, papers)`.
fn find_row<'a>(
    rows: &'a [ResultRow],
    section: &str,
    name: &str,
    papers: usize,
) -> Option<&'a ResultRow> {
    rows.iter()
        .find(|(s, n, p, _, _)| s == section && n == name && *p == papers)
}

/// Prints a side-by-side delta of this run against the baseline report:
/// for every `(section, name, papers)` row the baseline measured,
/// compare its engine time with today's adaptive engine.
fn print_delta(baseline_path: &str, baseline_rows: &[ResultRow], current: &[ResultRow]) {
    println!("\n== delta vs {baseline_path} (baseline engine → this run's adaptive engine) ==");
    let mut matched = 0usize;
    for (section, name, papers, base_ns, _) in baseline_rows {
        let Some((_, _, _, now_ns, _)) = find_row(current, section, name, *papers) else {
            continue;
        };
        matched += 1;
        let ratio = *base_ns as f64 / (*now_ns).max(1) as f64;
        println!(
            "{:>16} {:<14} n={:<6} base {:>12} ns → now {:>12} ns  ({:>5.2}x {})",
            section,
            name,
            papers,
            base_ns,
            now_ns,
            if ratio >= 1.0 { ratio } else { 1.0 / ratio },
            if ratio >= 1.0 { "faster" } else { "slower" },
        );
    }
    if matched == 0 {
        println!("(no comparable rows found in {baseline_path})");
    }
}

/// The bench-regression gate: every headline row (`pairwise_build`,
/// `peps_top_k`) of the baseline must still exist in this run and must
/// not regress by more than [`GUARD_MAX_REGRESSION`]. A baseline
/// headline row with no counterpart in the current run fails the gate
/// too — a renamed or dropped row must update the baseline, not dodge
/// it. Returns `false` (→ exit 1) on any breach.
///
/// Regression is measured **normalised by the frozen control engine**
/// whenever both runs recorded it: the PR 1 pure-bitmap generation is
/// guaranteed unchanged by the ROADMAP guardrails and is re-measured
/// under identical conditions in every report, so comparing
/// `adaptive/bitset` ratios across runs cancels host-wide drift
/// (thermal state, noisy neighbours on shared runners) that raw
/// wall-clock comparison would misreport as a code regression. For
/// PR 1-era baselines without a recorded control, raw wall-clock is the
/// fallback.
fn regression_guard(
    baseline_path: &str,
    baseline_rows: &[ResultRow],
    current: &[ResultRow],
) -> bool {
    println!(
        "\n== regression guard vs {baseline_path} (headline rows, {:.0}% budget, \
         control-normalised where possible) ==",
        (GUARD_MAX_REGRESSION - 1.0) * 100.0
    );
    // A partial run (BENCH_SIZES override) only guards the sizes it
    // measured; within a measured size, every baseline headline row
    // must match.
    let measured_sizes: std::collections::HashSet<usize> =
        current.iter().map(|(_, _, papers, _, _)| *papers).collect();
    let mut checked = 0usize;
    let mut ok = true;
    for (section, name, papers, base_ns, base_control_ns) in baseline_rows {
        if !HEADLINE_SECTIONS.contains(&section.as_str()) || !measured_sizes.contains(papers) {
            continue;
        }
        checked += 1;
        let Some((_, _, _, now_ns, now_control_ns)) = find_row(current, section, name, *papers)
        else {
            println!(
                "  MISS {:<16} {:<14} n={:<6} baseline row has no counterpart in this run",
                section, name, papers
            );
            ok = false;
            continue;
        };
        let raw = (*now_ns).max(1) as f64 / (*base_ns).max(1) as f64;
        let (ratio, how) = match (base_control_ns, now_control_ns) {
            (Some(control), Some(now_control)) if *control > 0 && *now_control > 0 => {
                let current = (*now_ns).max(1) as f64 / *now_control as f64;
                let baseline = (*base_ns).max(1) as f64 / *control as f64;
                (current / baseline, "vs-control")
            }
            _ => (raw, "raw"),
        };
        let breached = ratio > GUARD_MAX_REGRESSION;
        println!(
            "  {} {:<16} {:<14} n={:<6} {:>12} ns vs {:>12} ns baseline ({:.2}x {how}, {:.2}x raw)",
            if breached { "FAIL" } else { "ok  " },
            section,
            name,
            papers,
            now_ns,
            base_ns,
            ratio,
            raw,
        );
        ok &= !breached;
    }
    if checked == 0 {
        println!("  (baseline has no headline rows — nothing to guard)");
    } else if ok {
        println!("  regression guard passed ({checked} rows)");
    } else {
        eprintln!("regression guard FAILED against {baseline_path}");
    }
    ok
}

/// Extracts one [`ResultRow`] from a report line — a flat JSON object
/// per line, parsed without a JSON dependency; rows without a `name`
/// give `None`. The engine time is `adaptive_ns` (PR 2+ reports),
/// falling back to `bitset_ns` for PR 1-era files; the control time is
/// `bitset_ns` only when the line records it *alongside* `adaptive_ns`
/// (in a PR 1 file `bitset_ns` *is* the engine, not a control).
fn parse_result_row(line: &str) -> Option<ResultRow> {
    let section = json_str_field(line, "section")?;
    let name = json_str_field(line, "name")?;
    let papers = json_num_field(line, "papers")?;
    let adaptive = json_num_field(line, "adaptive_ns");
    let bitset = json_num_field(line, "bitset_ns");
    let ns = adaptive.or(bitset)?;
    let control = adaptive.and(bitset);
    Some((section, name, papers as usize, ns, control))
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

fn json_num_field(line: &str, key: &str) -> Option<u128> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Headline and storage lines as `BENCH_PR9.json` records them.
    const PR9_HEADLINE: &str = r#"    {"section":"peps_top_k","name":"complete_k10","papers":2000,"adaptive_ns":78956,"bitset_ns":189769,"hashset_ns":1347256,"vs_bitset":2.40,"vs_hashset":17.06},"#;
    const PR9_STORAGE: &str = r#"    {"section":"storage_1m","kind":"distinct_row_set","query":"scan_or_filter","papers":2000,"rows_out":1081,"columnar_ns":46809,"rowwise_ns":330275,"speedup":7.06},"#;
    /// A PR 1-era line: the bitset engine *was* the engine under test.
    const PR1_HEADLINE: &str = r#"    {"section":"peps_top_k","name":"complete_k10","papers":2000,"bitset_ns":189104,"hashset_ns":1357479,"speedup":7.18},"#;
    /// A baseline headline line with engine 100 µs against a 50 µs control.
    const BASE_WARM: &str = r#"{"section":"pairwise_build","name":"warm","papers":2000,"adaptive_ns":100000,"bitset_ns":50000,"hashset_ns":900000}"#;
    const BASE_K10: &str = r#"{"section":"peps_top_k","name":"complete_k10","papers":2000,"adaptive_ns":80000,"bitset_ns":160000,"hashset_ns":900000}"#;

    /// A `results` row of the current run.
    fn run_row(
        section: &'static str,
        name: &str,
        papers: usize,
        adaptive_ns: u128,
        bitset_ns: u128,
    ) -> Row {
        results_row(section, name, papers, adaptive_ns, bitset_ns, 0)
    }

    /// The report line the writer emits for `row`.
    fn written(row: &Row) -> String {
        row.json()
    }

    /// Runs the guard of `current` against the `baseline` report lines.
    fn guard(baseline: &[&str], current: &[Row]) -> bool {
        let base: Vec<ResultRow> = baseline
            .iter()
            .filter_map(|l| parse_result_row(l))
            .collect();
        let current: Vec<ResultRow> = current
            .iter()
            .filter_map(|r| parse_result_row(&r.json()))
            .collect();
        regression_guard("baseline.json", &base, &current)
    }

    #[test]
    fn parse_reads_a_headline_line() {
        assert_eq!(
            parse_result_row(PR9_HEADLINE),
            Some((
                "peps_top_k".to_owned(),
                "complete_k10".to_owned(),
                2000,
                78956,
                Some(189769)
            ))
        );
    }

    #[test]
    fn parse_takes_a_pr1_bitset_time_as_the_engine_with_no_control() {
        assert_eq!(
            parse_result_row(PR1_HEADLINE),
            Some((
                "peps_top_k".to_owned(),
                "complete_k10".to_owned(),
                2000,
                189104,
                None
            ))
        );
    }

    #[test]
    fn parse_skips_rows_without_a_name() {
        assert_eq!(parse_result_row(PR9_STORAGE), None);
    }

    #[test]
    fn guard_passes_a_raw_slowdown_the_control_explains() {
        // 1.8x slower raw, but the control slowed 1.5x: 1.2x normalised.
        let current = [
            run_row("pairwise_build", "warm", 2000, 180_000, 75_000),
            run_row("peps_top_k", "complete_k10", 2000, 80_000, 160_000),
        ];
        assert!(guard(&[BASE_WARM, BASE_K10, PR9_STORAGE], &current));
    }

    #[test]
    fn guard_fails_past_the_budget() {
        // Same control, engine 1.3x slower.
        let current = [
            run_row("pairwise_build", "warm", 2000, 130_000, 50_000),
            run_row("peps_top_k", "complete_k10", 2000, 80_000, 160_000),
        ];
        assert!(!guard(&[BASE_WARM, BASE_K10], &current));
    }

    #[test]
    fn guard_fails_on_a_missing_headline_row() {
        let current = [run_row("pairwise_build", "warm", 2000, 100_000, 50_000)];
        assert!(!guard(&[BASE_WARM, BASE_K10], &current));
    }

    #[test]
    fn guard_falls_back_to_raw_time_without_a_control() {
        // A tiny current control would pass any ratio if it were used.
        let within = [run_row("peps_top_k", "complete_k10", 2000, 200_000, 1)];
        assert!(guard(&[PR1_HEADLINE], &within));
        let past = [run_row("peps_top_k", "complete_k10", 2000, 250_000, 1)];
        assert!(!guard(&[PR1_HEADLINE], &past));
    }

    #[test]
    fn a_written_headline_row_reads_back() {
        let row = run_row("peps_top_k", "sparse_k10", 20000, 65404, 210628);
        assert_eq!(
            parse_result_row(&written(&row)),
            Some((
                "peps_top_k".to_owned(),
                "sparse_k10".to_owned(),
                20000,
                65404,
                Some(210628)
            ))
        );
    }
}
