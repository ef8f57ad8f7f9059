//! The server process. It runs the README lifecycle — corpus, §6.2
//! extraction, `HypreGraph::load`, `ProfileCache::warm`, `save_to`,
//! `load_from`, `Server::start` — timing each phase, prints the inputs
//! the driver needs, and then obeys one-line commands on stdin:
//!
//! | command | effect |
//! |---|---|
//! | `DELTA` | append the next delta to the ingest corpus and ingest it |
//! | `REWARM` | time a full `ProfileCache::warm` over the ingest corpus |
//! | `STOP` (or end of input) | report counters and peak memory, shut down |
//!
//! The server serves a snapshot of every generated paper, so its answers
//! never change. Deltas go to an `EpochCache` of its own, warmed on the
//! first [`PAPERS`] papers: a delta then costs what it costs a served
//! cache, on the server's core, while the answers stay checkable against
//! one corpus.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dblp_workload::{extract, load, PaperGraph};
use hypre_core::prelude::{
    parse_profile, BaseQuery, EpochCache, HypreGraph, Parallelism, ProfileCache, UserId,
};
use hypre_core::serve::{ServeConfig, Server};
use relstore::{parse_predicate, Database, Predicate};

use crate::corpus::{self, Delta, Workload, PAPERS, SERVED_PAPERS};

/// Prints one protocol line and flushes it.
macro_rules! say {
    ($($arg:tt)*) => {{
        let mut out = io::stdout().lock();
        let _ = writeln!(out, $($arg)*);
        let _ = out.flush();
    }};
}

struct Opts {
    workload: Workload,
    seed: u64,
    snapshot: PathBuf,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut snapshot = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--snapshot" => snapshot = Some(PathBuf::from(value)),
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        snapshot: snapshot.ok_or("--snapshot is required")?,
        setup_only,
    })
}

/// Times `f` and prints it as a set-up phase in seconds.
fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    say!("PHASE\t{name}\t{}", t.elapsed().as_secs_f64());
    out
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn main(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let w = opts.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc > 1 {
        crate::net::pin_to_cpu(nproc - 1).map_err(err("pin server"))?;
    }
    let dataset = phase("dblp.generate_s", || {
        dblp_workload::generate(&corpus::generator(opts.seed, SERVED_PAPERS))
    });
    // Profiles and the cold universe are drawn from the first PAPERS
    // papers; the server's database and snapshot hold every generated
    // paper, and the ingest cache starts from the first PAPERS (the rest
    // arrive as deltas).
    let base = corpus::prefix(&dataset, PAPERS);
    let extracted = phase("dblp.extract_s", || {
        extract(
            &base,
            &extract::ExtractionConfig {
                conflict_rate: 0.03,
                ..extract::ExtractionConfig::default()
            },
        )
    });
    let (served_db, warm_db) = phase("relstore.load_s", || -> Result<_, String> {
        Ok((
            load(&dataset).map_err(err("load corpus"))?,
            load(&corpus::prefix(&dataset, PAPERS)).map_err(err("load prefix"))?,
        ))
    })?;
    let graph = phase("graph.load_s", || -> Result<_, String> {
        let mut graph = HypreGraph::new();
        graph
            .load(&extracted.quantitative, &extracted.qualitative)
            .map_err(err("graph load"))?;
        Ok(graph)
    })?;
    let pool = phase("setup.pool_s", || -> Result<_, String> {
        let (rich, modest) = corpus::study_users(&extracted).ok_or("no study users")?;
        Ok(corpus::pool(&graph, rich, modest))
    })?;
    drop((extracted, graph));

    let universe = if w == Workload::ColdTail {
        cold_universe(&base)?
    } else {
        Vec::new()
    };

    let mut texts: Vec<&str> = pool.iter().flatten().map(|(t, _)| t.as_str()).collect();
    texts.sort_unstable();
    texts.dedup();
    let predicates: Vec<Predicate> = texts
        .iter()
        .map(|t| parse_predicate(t))
        .collect::<relstore::Result<_>>()
        .map_err(err("pool predicate"))?;
    let cache = phase("exec.warm_s", || {
        ProfileCache::warm(&served_db, BaseQuery::dblp(), &predicates)
    })
    .map_err(err("warm"))?;
    phase("exec.snapshot_save_s", || {
        cache.save_to(&opts.snapshot, None)
    })
    .map_err(err("snapshot save"))?;
    drop(cache);
    let bytes = std::fs::metadata(&opts.snapshot)
        .map_err(err("snapshot size"))?
        .len();
    say!("PHASE\texec.snapshot_bytes\t{bytes}");
    let (loaded, _) = phase("exec.snapshot_load_s", || {
        ProfileCache::load_from(&opts.snapshot, &served_db)
    })
    .map_err(err("snapshot load"))?;
    let config = ServeConfig {
        shards: 1,
        parallelism: Parallelism::Sequential,
        ..ServeConfig::default()
    };
    let server = phase("serve.start_s", || {
        Server::start(
            Arc::new(served_db),
            Arc::new(EpochCache::new(loaded)),
            config,
        )
    })
    .map_err(err("server start"))?;

    for (p, profile) in pool.iter().enumerate() {
        for (text, w) in profile {
            say!("POOL\t{p}\t{:016x}\t{text}", w.to_bits());
        }
    }
    for text in &universe {
        say!("UNIV\t{text}");
    }
    say!("READY\t{}", server.local_addr());
    if opts.setup_only {
        server.shutdown();
        say!("BYE");
        return Ok(());
    }

    let deltas = corpus::deltas(&dataset, PAPERS);
    drop((dataset, base));
    // The ingest cache is warmed after READY: it is the deltas' starting
    // point, not part of the server's set-up.
    let ingest = ProfileCache::warm(&warm_db, BaseQuery::dblp(), &predicates)
        .map_err(err("ingest cache warm"))?;
    serve(
        server,
        EpochCache::new(ingest),
        warm_db,
        &deltas,
        &predicates,
    )
}

/// The cold universe in popularity order: relational atoms plus
/// DSL-compiled graph-derived atoms, without duplicates.
fn cold_universe(base: &dblp_workload::DblpDataset) -> Result<Vec<String>, String> {
    let mut pg =
        phase("graphstore.build_s", || PaperGraph::build(base)).map_err(err("paper graph"))?;
    let catalog = phase("graphstore.derive_s", || -> Result<_, String> {
        pg.derive_preference_edges(2).map_err(err("derive"))?;
        Ok(pg.derived_catalog(base))
    })?;
    let derived = corpus::derived_atoms(base);
    let source = corpus::dsl_source(&derived);
    let t = Instant::now();
    let atoms = parse_profile(&source)
        .map_err(err("dsl parse"))?
        .compile(UserId(0), &catalog)
        .map_err(err("dsl compile"))?
        .atoms()
        .map_err(err("dsl atoms"))?;
    say!("PHASE\tdsl.compile_ms\t{}", t.elapsed().as_secs_f64() * 1e3);
    // Name each compiled atom by the first DSL atom that lowers to it.
    let mut names: HashMap<String, String> = HashMap::new();
    for d in &derived {
        if let Some(p) = d.lowered(&catalog) {
            names.entry(p.canonical()).or_insert_with(|| d.source());
        }
    }
    let mut seen = HashSet::new();
    let named = corpus::plain_universe(base)
        .into_iter()
        .map(|text| (text.clone(), text))
        .chain(
            atoms
                .iter()
                .filter(|a| !matches!(a.predicate, Predicate::True | Predicate::False))
                .map(|a| {
                    let text = a.predicate.canonical();
                    (
                        names.get(&text).cloned().unwrap_or_else(|| text.clone()),
                        text,
                    )
                }),
        )
        .filter(|(_, text)| seen.insert(text.clone()))
        .collect();
    Ok(corpus::by_popularity(named))
}

/// Appends `delta` to `copy` with `Table::insert`, ingests it into
/// `epochs` and prints one `INGEST` line: append ns, ingest ns, rows,
/// changed predicates, new tuples, ok, epochs retired.
fn ingest_one(epochs: &EpochCache, copy: &mut Database, delta: &Delta, i: usize) {
    let a = Instant::now();
    let appended = corpus::append(copy, delta);
    let b = Instant::now();
    let report = appended
        .map_err(|e| e.to_string())
        .and_then(|()| epochs.ingest(copy, 0).map_err(|e| e.to_string()));
    let c = Instant::now();
    if let Err(e) = &report {
        eprintln!("e2ebench server: ingest {i} failed: {e}");
    }
    say!(
        "INGEST\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        (b - a).as_nanos(),
        (c - b).as_nanos(),
        delta.rows(),
        report.as_ref().map_or(0, |r| r.changed.len()),
        report.as_ref().map_or(0, |r| r.new_tuples),
        u8::from(report.is_ok()),
        epochs.retired_count()
    );
}

/// Obeys the benchmark's commands on stdin until `STOP` or end of input.
fn serve(
    server: Server,
    epochs: EpochCache,
    mut copy: Database,
    deltas: &[Delta],
    predicates: &[Predicate],
) -> Result<(), String> {
    let mut next = 0usize;
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(err("stdin"))?;
        match line.trim() {
            "DELTA" => {
                let delta = deltas.get(next).ok_or("no delta left")?;
                ingest_one(&epochs, &mut copy, delta, next);
                next += 1;
            }
            "REWARM" => {
                let t = Instant::now();
                let cache = ProfileCache::warm(&copy, BaseQuery::dblp(), predicates)
                    .map_err(err("rewarm"))?;
                say!("REWARM\t{}", t.elapsed().as_nanos());
                drop(cache);
            }
            "STOP" => break,
            _ => return Err(format!("unknown command {line:?}")),
        }
    }
    let s = server.stats();
    say!(
        "STATS\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        s.total_requests,
        s.batches,
        s.groups,
        s.shared,
        s.overloads,
        s.protocol_errors,
        s.connections
    );
    say!("RSS_KB\t{}", peak_rss_kb().unwrap_or(0));
    server.shutdown();
    say!("BYE");
    Ok(())
}

/// `VmHWM` (peak resident set) of this process, in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
