//! End-to-end benchmark of the HYPRE preference server over TCP.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload hot_zipf --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The driver starts the real `serve::Server` in a child process of its
//! own (this binary, `serve` mode), three times, and takes the median
//! set-up time. The last one gets a warm-up and then rounds, each of
//! which ingests one delta on the idle server and sends seeded request
//! streams from one thread over one connection: a slice of an open loop
//! of Poisson arrivals timed from when each request was due, then a
//! slice of a closed loop with a fixed window in flight. It then
//! reconciles the server's wire `Stats` counters with its own and
//! checks every answer against a cold executor. `--trace 1` also
//! repeats half the open loop with client spans and replays the stream
//! in-process through each layer's public functions, and prints the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is one JSON object.

mod check;
mod child;
mod corpus;
mod layers;
mod net;
mod stats;
mod trace;

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypre_core::prelude::ProfileCache;
use hypre_core::serve::wire::StatsReply;

use corpus::{Req, WireProfile, Workload, ROUNDS};
use net::{Client, Sample};
use stats::{median, Dist, Tally};
use trace::Tracer;

/// Server launches per run; `setup_s` is their median.
const LAUNCHES: usize = 3;
/// The open-loop generator has fallen behind its schedule — the run is
/// invalid — when its median lateness exceeds the first bound or its p99
/// the second. Single late wake-ups of a virtual CPU stay under both;
/// a client that cannot keep up does not.
const LATE_P50_LIMIT_MS: f64 = 1.0;
const LATE_P99_LIMIT_MS: f64 = 25.0;
/// Fewest open-loop replies in each window whose p99s `topk_p99_ms` takes
/// the median of: a host stall then moves one window, not the metric.
const P99_WINDOW: usize = 1000;
/// Open-loop requests whose answers a fresh executor each re-derives in
/// `cold_tail` (the rest share one cold executor).
const FRESH_SAMPLE: usize = 64;
/// Most open-loop requests the traced run replays in-process (it also
/// stops after `--seconds / 2`), which bounds the span file.
const REPLAY_MAX: usize = 2000;
/// Where run outputs (snapshots, span files) go, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        child::main(&args[1..]).map(|()| 0)
    } else {
        parse(&args).and_then(|opts| run(&opts))
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

/// A server child process; dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    out: BufReader<ChildStdout>,
    stdin: Option<ChildStdin>,
}

impl ServerProc {
    fn spawn(opts: &Opts, snapshot: &Path, setup_only: bool) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--setup-only", if setup_only { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let out = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let stdin = child.stdin.take();
        Ok(ServerProc { child, out, stdin })
    }

    /// Lines up to and including the first one starting with `tag`.
    fn until(&mut self, tag: &str) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.out.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("server process ended before {tag}"));
            }
            let line = line.trim_end_matches('\n').to_owned();
            let done = line.starts_with(tag);
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }

    fn send(&mut self, command: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server command {command}: {e}"))
    }

    /// Closes stdin and waits for a clean exit.
    fn finish(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server process exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Tab-separated fields after a line's tag.
fn fields(line: &str) -> Vec<&str> {
    line.split('\t').skip(1).collect()
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("bad number {s:?} from the server"))
}

/// One delta as the server reported it.
struct Ingest {
    append_ns: u64,
    ingest_ns: u64,
    rows: u64,
    changed: u64,
    new_tuples: u64,
    ok: bool,
    retired: u64,
}

fn ingests(lines: &[String]) -> Result<Vec<Ingest>, String> {
    lines
        .iter()
        .filter(|l| l.starts_with("INGEST\t"))
        .map(|l| {
            let f = fields(l);
            if f.len() != 7 {
                return Err(format!("bad ingest line {l:?}"));
            }
            Ok(Ingest {
                append_ns: num(f[0])?,
                ingest_ns: num(f[1])?,
                rows: num(f[2])?,
                changed: num(f[3])?,
                new_tuples: num(f[4])?,
                ok: f[5] == "1",
                retired: num(f[6])?,
            })
        })
        .collect()
}

/// Share of atom occurrences by where they resolve, with batches cut at
/// the server's mean batch size: the input properties later claims of
/// the form "helps only inputs with property X" can quote.
#[derive(Default)]
struct Census {
    atoms: u64,
    snapshot: u64,
    memo: u64,
    repeat_miss: u64,
    first_miss: u64,
}

fn census(
    profiles: &[WireProfile],
    reqs: &[Req],
    batch: usize,
    snapshot: &HashSet<&str>,
) -> Census {
    let mut c = Census::default();
    let mut missed: HashSet<&str> = HashSet::new();
    for chunk in reqs.chunks(batch.max(1)) {
        let mut memo: HashSet<&str> = HashSet::new();
        for r in chunk {
            for (text, _) in &profiles[r.profile as usize] {
                c.atoms += 1;
                let t = text.as_str();
                if snapshot.contains(t) {
                    c.snapshot += 1;
                } else if !memo.insert(t) {
                    c.memo += 1;
                } else if !missed.insert(t) {
                    c.repeat_miss += 1;
                } else {
                    c.first_miss += 1;
                }
            }
        }
    }
    c
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A reported metric: value with its sample count.
struct Metric {
    name: &'static str,
    value: f64,
    n: usize,
}

fn m(name: &'static str, value: f64, n: usize) -> Metric {
    Metric { name, value, n }
}

fn run(opts: &Opts) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One I/O thread over one connection.
    let (client_threads, connections) = (1, 1);
    if nproc > 1 {
        net::pin_to_cpu(0).map_err(|e| format!("pin client: {e}"))?;
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let snapshot = PathBuf::from(OUT_DIR).join(format!("snap-{}.hyprsnap", std::process::id()));
    let result = measure(opts, &snapshot, nproc, client_threads, connections);
    let _ = std::fs::remove_file(&snapshot);
    result
}

fn measure(
    opts: &Opts,
    snapshot: &Path,
    nproc: usize,
    client_threads: usize,
    connections: usize,
) -> Result<i32, String> {
    let w = opts.workload;
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} nproc={nproc} client_threads={client_threads} connections={connections}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    // --- set-up, several times ---------------------------------------
    let mut setup_s = Vec::new();
    let mut phases: Vec<HashMap<String, f64>> = Vec::new();
    let mut server = None;
    let mut ready_lines = Vec::new();
    for launch in 0..LAUNCHES {
        let last = launch + 1 == LAUNCHES;
        let t = Instant::now();
        let mut proc = ServerProc::spawn(opts, snapshot, !last)?;
        let lines = proc.until("READY\t")?;
        setup_s.push(t.elapsed().as_secs_f64());
        phases.push(
            lines
                .iter()
                .filter(|l| l.starts_with("PHASE\t"))
                .filter_map(|l| {
                    let f = fields(l);
                    Some((f.first()?.to_string(), f.get(1)?.parse().ok()?))
                })
                .collect(),
        );
        if last {
            ready_lines = lines;
            server = Some(proc);
        } else {
            proc.until("BYE")?;
            proc.finish()?;
        }
    }
    let mut server = server.ok_or("no server launched")?;
    let phase = |name: &str| {
        median(
            &phases
                .iter()
                .filter_map(|p| p.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };

    let mut pool: Vec<WireProfile> = Vec::new();
    let mut universe: Vec<String> = Vec::new();
    let mut addr: Option<SocketAddr> = None;
    for line in &ready_lines {
        let f = fields(line);
        if line.starts_with("POOL\t") && f.len() == 3 {
            let p: usize = num(f[0])?;
            let bits = u64::from_str_radix(f[1], 16).map_err(|e| e.to_string())?;
            pool.resize_with(pool.len().max(p + 1), Vec::new);
            pool[p].push((f[2].to_owned(), f64::from_bits(bits)));
        } else if let Some(text) = line.strip_prefix("UNIV\t") {
            universe.push(text.to_owned());
        } else if line.starts_with("READY\t") {
            addr = Some(num(f[0])?);
        }
    }
    let addr = addr.ok_or("server sent no address")?;
    let streams = corpus::streams(w, opts.seed, opts.seconds, &pool, &universe);
    let snapshot_keys: HashSet<&str> = pool.iter().flatten().map(|(t, _)| t.as_str()).collect();

    // --- measured phases ---------------------------------------------
    // Lowest-priority spinners keep both CPUs from halting while the
    // phases are timed; they do no client work and yield to any thread.
    let awake = net::Awake::on(nproc).map_err(|e| format!("idle spinners: {e}"))?;
    let mut client = Client::connect(addr, &streams.profiles).map_err(|e| e.to_string())?;
    client
        .drive(&streams.warmup, 4)
        .map_err(|e| format!("warm-up: {e}"))?;
    // Each round: one delta on the idle server, then the round's slice of
    // the open loop, then its slice of the closed loop.
    let slice_secs = opts.seconds / 2.0 / ROUNDS as f64;
    let open_rounds = streams.open_rounds();
    let closed_rounds = streams.closed.chunks(streams.closed.len().div_ceil(ROUNDS));
    let mut open: Vec<Sample> = Vec::new();
    let mut open_phase = StatsReply::default();
    let mut closed_phase = StatsReply::default();
    let mut capacities: Vec<f64> = Vec::new();
    let mut capacity_ok = 0u64;
    let mut ingest_lines = Vec::new();
    for (slice, closed) in open_rounds.iter().zip(closed_rounds) {
        server.send("DELTA")?;
        ingest_lines.extend(server.until("INGEST\t")?);
        let a = stats_frame(&mut client)?;
        open.extend(
            client
                .open_loop(slice, None)
                .map_err(|e| format!("open loop: {e}"))?,
        );
        let b = stats_frame(&mut client)?;
        let ok = client
            .closed_loop(
                closed,
                w.window(),
                Duration::from_secs_f64(slice_secs),
                true,
            )
            .map_err(|e| format!("closed loop: {e}"))?;
        let c = stats_frame(&mut client)?;
        accumulate(&mut open_phase, &a, &b);
        accumulate(&mut closed_phase, &b, &c);
        capacities.push(ok as f64 / slice_secs);
        capacity_ok += ok;
    }
    let mut tracer = Tracer::new();
    let traced_open = if opts.trace {
        let half: Vec<Req> = streams
            .open
            .iter()
            .copied()
            .take_while(|r| r.at <= opts.seconds / 2.0)
            .collect();
        Some(
            client
                .open_loop(&half, Some(&mut tracer))
                .map_err(|e| format!("traced open loop: {e}"))?,
        )
    } else {
        None
    };
    let ingested = ingests(&ingest_lines)?;
    let stats = stats_frame(&mut client)?;
    let rewarm_ms = if opts.trace {
        server.send("REWARM")?;
        let lines = server.until("REWARM")?;
        let ns: f64 = num(fields(lines.last().map_or("", String::as_str))[0])?;
        ns / 1e6
    } else {
        0.0
    };
    server.send("STOP")?;
    let final_lines = server.until("BYE")?;
    server.finish()?;
    let mut protocol_errors = 0u64;
    let mut rss_kb = 0u64;
    for line in &final_lines {
        let f = fields(line);
        if line.starts_with("STATS\t") && f.len() == 7 {
            protocol_errors = num(f[5])?;
        } else if line.starts_with("RSS_KB\t") {
            rss_kb = num(f[0])?;
        }
    }

    drop(awake);
    // --- the answer check (after timing) ------------------------------
    let mut tally: Tally = client.tally;
    tally.attempted += ingested.len() as u64;
    tally.failed_ingests = ingested.iter().filter(|i| !i.ok).count() as u64;
    let dataset = dblp_workload::generate(&corpus::generator(opts.seed, corpus::SERVED_PAPERS));
    let served_db = dblp_workload::load(&dataset).map_err(|e| e.to_string())?;
    let mut verdict = check::Verdict::default();
    let check_started = Instant::now();
    // In cold_tail a fresh executor each re-derives a fixed sample of
    // answers; the rest share one cold executor.
    let sample: HashSet<u32> = streams
        .open
        .iter()
        .take(FRESH_SAMPLE)
        .map(|r| r.profile)
        .collect();
    check::fixed(
        &served_db,
        &streams.profiles,
        &client.answers,
        |p| w == Workload::HotZipf || sample.contains(&p),
        &mut verdict,
    )?;
    tally.wrong = verdict.wrong;
    let check_s = check_started.elapsed().as_secs_f64();

    // --- end-to-end metrics -------------------------------------------
    let latencies = |s: &[Sample]| -> Vec<f64> {
        s.iter()
            .filter(|x| x.outcome == net::Outcome::Ok)
            .map(Sample::latency_ms)
            .collect()
    };
    let ok_latencies = latencies(&open);
    let lat = Dist::of(ok_latencies.clone(), 9900);
    let (p99, window_p99s) = stats::windowed_tail(&ok_latencies, 9900, P99_WINDOW);
    let late = Dist::of(open.iter().map(Sample::late_ms).collect(), 9900);
    let ingest_lat: Vec<f64> = ingested
        .iter()
        .filter(|i| i.ok)
        .map(|i| (i.append_ns + i.ingest_ns) as f64 / 1e6)
        .collect();
    let e2e = vec![
        m("setup_s", median(&setup_s), setup_s.len()),
        m("topk_p50_ms", lat.p50, lat.n),
        m("topk_p99_ms", p99, lat.n),
        m(
            "topk_capacity_rps",
            capacity_ok as f64 / (slice_secs * ROUNDS as f64),
            capacity_ok as usize,
        ),
        m("ingest_p50_ms", median(&ingest_lat), ingest_lat.len()),
        m("rss_peak_mb", rss_kb as f64 / 1024.0, 1),
    ];

    // --- validity -------------------------------------------------------
    let mut invalid: Vec<String> = Vec::new();
    if client_threads > nproc.max(1) || connections > nproc.max(1) {
        invalid.push(format!(
            "client uses {client_threads} threads and {connections} connections on {nproc} cores"
        ));
    }
    if late.p50 > LATE_P50_LIMIT_MS || late.tail > LATE_P99_LIMIT_MS {
        invalid.push(format!(
            "open-loop generator fell behind: late p50 {:.3} ms (limit {LATE_P50_LIMIT_MS}), p{} {:.3} ms (limit {LATE_P99_LIMIT_MS})",
            late.p50,
            late.tail_bp as f64 / 100.0,
            late.tail
        ));
    }
    if !lat.tail_is(9900) {
        invalid.push(format!("only {} open-loop samples, too few for p99", lat.n));
    }
    if stats.total_requests != client.sent || stats.overloads != tally.overloads {
        invalid.push(format!(
            "server counted {} requests and {} overloads, client sent {} and saw {} refusals",
            stats.total_requests, stats.overloads, client.sent, tally.overloads
        ));
    }

    // --- report ---------------------------------------------------------
    println!(
        "setup: {LAUNCHES} launches, {:?} s; phase medians: {}",
        setup_s
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        [
            "dblp.generate_s",
            "dblp.extract_s",
            "relstore.load_s",
            "graph.load_s",
            "setup.pool_s",
            "graphstore.build_s",
            "graphstore.derive_s",
            "exec.warm_s",
            "exec.snapshot_save_s",
            "exec.snapshot_load_s",
            "serve.start_s",
        ]
        .iter()
        .filter(|n| phases.iter().any(|p| p.contains_key(**n)))
        .map(|n| format!("{n}={:.4}", phase(n)))
        .collect::<Vec<_>>()
        .join(" ")
    );
    println!(
        "open loop: Poisson {} req/s, {} sent, {} answered; generator late p50 {:.4} ms p{} {:.4} ms",
        w.open_rps(),
        open.len(),
        lat.n,
        late.p50,
        late.tail_bp as f64 / 100.0,
        late.tail
    );
    println!(
        "closed loop: window {}, {capacity_ok} answered in {ROUNDS} slices of {slice_secs:.2} s (req/s {:?}); server batches {} of {:.1} requests, {:.2} groups each",
        w.window(),
        capacities.iter().map(|c| c.round()).collect::<Vec<_>>(),
        closed_phase.batches,
        share(closed_phase.total_requests, closed_phase.batches),
        share(closed_phase.groups, closed_phase.batches)
    );
    println!(
        "ingest: {} deltas of {} papers (one per round, on the idle server), mean {:.1} rows each; ingest ms {:?}",
        ingested.len(),
        corpus::DELTA_PAPERS,
        stats::mean(&ingested.iter().map(|i| i.rows as f64).collect::<Vec<_>>()),
        ingested
            .iter()
            .map(|i| (i.ingest_ns / 1_000_000) as f64)
            .collect::<Vec<_>>()
    );
    // The open loop's mean batch: the replay and the census cut the
    // open-loop stream into chunks of this size.
    let batch = (share(open_phase.total_requests, open_phase.batches).round() as usize).max(1);
    let cen = census(&streams.profiles, &streams.open, batch, &snapshot_keys);
    let atoms_per_request = share(cen.atoms, streams.open.len() as u64);
    println!(
        "census: atom occurrences {} — snapshot {:.4}, batch memo {:.4}, repeat miss {:.4}, first miss {:.4}; requests answered from another's evaluation {:.4}; atoms/request {:.2}; delta rows/ingest {:.1}",
        cen.atoms,
        share(cen.snapshot, cen.atoms),
        share(cen.memo, cen.atoms),
        share(cen.repeat_miss, cen.atoms),
        share(cen.first_miss, cen.atoms),
        share(open_phase.shared, open_phase.total_requests),
        atoms_per_request,
        stats::mean(&ingested.iter().map(|i| i.rows as f64).collect::<Vec<_>>())
    );
    println!(
        "server stats: total_requests={} batches={} groups={} shared={} overloads={} protocol_errors={protocol_errors}; client sent {}",
        stats.total_requests, stats.batches, stats.groups, stats.shared, stats.overloads, client.sent
    );
    println!(
        "check: {} distinct answers ({} against a fresh executor each) in {check_s:.2} s; {} wrong{}",
        verdict.distinct,
        verdict.fresh,
        verdict.wrong,
        verdict
            .first_mismatch
            .as_deref()
            .map_or(String::new(), |m| format!(" (first: {m})"))
    );
    for metric in &e2e {
        println!(
            "metric {} = {:.6} {} (n={})",
            metric.name,
            metric.value,
            layers::unit_of(metric.name),
            metric.n
        );
    }
    println!(
        "latency: p50 of {} open-loop replies; p99 the median over {} windows of at least {P99_WINDOW} replies ({} beyond p99 in each), window p99s {:?} ms; p99 of the whole phase {:.4} ms",
        lat.n,
        window_p99s.len(),
        stats::beyond(lat.n / window_p99s.len(), 9900),
        window_p99s,
        lat.tail
    );
    println!(
        "metric fail_frac = {:.6} ratio ({} failed / {} attempted: errors {}, overloads {}, timeouts {}, wrong {}, failed ingests {})",
        tally.fail_frac(),
        tally.failed(),
        tally.attempted,
        tally.errors,
        tally.overloads,
        tally.timeouts,
        tally.wrong,
        tally.failed_ingests
    );

    let mut reported = e2e;
    if let Some(traced_open) = traced_open {
        // The replay serves the server's snapshot over its database.
        let cache = Arc::new(
            ProfileCache::load_from(snapshot, &served_db)
                .map_err(|e| format!("replay snapshot: {e}"))?
                .0,
        );
        let replayed = trace::replay(
            &served_db,
            &cache,
            &streams.profiles,
            &streams.open[..streams.open.len().min(REPLAY_MAX)],
            batch,
            Duration::from_secs_f64(opts.seconds / 2.0),
            &mut tracer,
        )?;
        let spans = PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.tsv", w.name(), opts.seed));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let traced = Dist::of(latencies(&traced_open), 9900);
        reported = per_layer(
            &tracer,
            &replayed,
            &lat,
            &traced,
            &late,
            &open_phase,
            stats.overloads,
            protocol_errors,
            &ingested,
            rewarm_ms,
            &phase,
            &client.answers,
        );
        println!(
            "trace: {} spans in {}; replayed {} requests in {} batches of {batch}",
            tracer.spans.len(),
            spans.display(),
            replayed.requests,
            replayed.batches
        );
        let us = |name: &str| median(&tracer.micros(name));
        let parts = [
            ("wire.decode_request", us("wire.decode_request")),
            ("relstore.parse_predicate", us("relstore.parse_predicate")),
            ("sched.run", us("sched.run")),
            ("wire.encode_response", us("wire.encode_response")),
        ];
        let covered_ms: f64 = parts.iter().map(|(_, v)| v / 1e3).sum();
        println!(
            "accounting: client p50 {:.4} ms = {} + outside {:.4} ms ({:.1}%)",
            lat.p50,
            parts
                .iter()
                .map(|(n, v)| format!("{n} {:.4} ms", v / 1e3))
                .collect::<Vec<_>>()
                .join(" + "),
            lat.p50 - covered_ms,
            100.0 * (1.0 - covered_ms / lat.p50.max(f64::MIN_POSITIVE))
        );
        let ingest_ms = median(
            &ingested
                .iter()
                .map(|i| i.ingest_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        println!(
            "ingest vs rewarm: exec.ingest_ms {ingest_ms:.3} ms per {}-paper delta (median of {}) against exec.rewarm_ms {rewarm_ms:.3} ms for one full ProfileCache::warm of the {} snapshot predicates over the final corpus — ingest/rewarm {:.3}",
            corpus::DELTA_PAPERS,
            ingested.len(),
            snapshot_keys.len(),
            ingest_ms / rewarm_ms.max(f64::MIN_POSITIVE)
        );
        for metric in &reported {
            let layer = layers::LAYERS.iter().find(|l| l.name == metric.name);
            println!(
                "layer {} = {:.6} {} (n={}; {} is better) -> {}",
                metric.name,
                metric.value,
                layers::unit_of(metric.name),
                metric.n,
                layer.map_or("", |l| l.better),
                layer.map_or("", |l| l.moves)
            );
        }
    }

    let correct = tally.failed() == 0 && invalid.is_empty();
    for why in &invalid {
        println!("INVALID: {why}");
    }
    let metrics = reported
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                layers::unit_of(x.name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted,
        tally.failed()
    );
    Ok(if tally.failed() > 0 {
        1
    } else if !invalid.is_empty() {
        3
    } else {
        0
    })
}

/// The server's counters, read through the wire `Stats` frame.
fn stats_frame(client: &mut Client) -> Result<StatsReply, String> {
    client
        .server_stats()
        .map_err(|e| format!("stats frame: {e}"))
}

/// Adds to `total` the server counters accumulated between two `Stats`
/// replies.
fn accumulate(total: &mut StatsReply, a: &StatsReply, b: &StatsReply) {
    total.total_requests += b.total_requests - a.total_requests;
    total.batches += b.batches - a.batches;
    total.groups += b.groups - a.groups;
    total.shared += b.shared - a.shared;
    total.overloads += b.overloads - a.overloads;
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    t: &Tracer,
    r: &trace::Replayed,
    untraced: &Dist,
    traced: &Dist,
    late: &Dist,
    open_phase: &StatsReply,
    overloads: u64,
    protocol_errors: u64,
    ingested: &[Ingest],
    rewarm_ms: f64,
    phase: &dyn Fn(&str) -> f64,
    answers: &net::Answers,
) -> Vec<Metric> {
    let us = |name: &str| {
        let v = t.micros(name);
        (median(&v), v.len())
    };
    let (decode, n_decode) = us("wire.decode_request");
    let (encode, n_encode) = us("wire.encode_response");
    let (parse, n_parse) = us("relstore.parse_predicate");
    let (run, n_run) = us("sched.run");
    let (open, n_open) = us("exec.with_cache_pinned");
    let (hit, n_hit) = us("exec.tuple_set.snapshot");
    let (miss, n_miss) = us("exec.tuple_set.sql");
    let (pairwise, n_pairwise) = us("exec.pairwise_build");
    let (peps, n_peps) = us("peps.top_k_multi");
    let self_us: Vec<f64> = r.sched_self_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let covered_ms = (decode + parse + run + encode) / 1e3;
    let ok: Vec<&Ingest> = ingested.iter().filter(|i| i.ok).collect();
    let per = |f: &dyn Fn(&Ingest) -> f64| ok.iter().map(|i| f(i)).collect::<Vec<f64>>();
    let ph = |name: &str| phase(name);
    vec![
        m("wire.decode_us", decode, n_decode),
        m("wire.encode_us", encode, n_encode),
        m(
            "wire.reply_bytes",
            share(answers.reply_bytes, answers.replies),
            answers.replies as usize,
        ),
        m(
            "serve.outside_frac",
            1.0 - covered_ms / untraced.p50.max(f64::MIN_POSITIVE),
            untraced.n,
        ),
        m(
            "serve.batch_requests",
            share(open_phase.total_requests, open_phase.batches),
            open_phase.batches as usize,
        ),
        m("serve.overloads", overloads as f64, 1),
        m("serve.protocol_errors", protocol_errors as f64, 1),
        m("sched.run_us", run, n_run),
        m("sched.self_us", median(&self_us), self_us.len()),
        m(
            "sched.shared_frac",
            share(open_phase.shared, open_phase.total_requests),
            open_phase.total_requests as usize,
        ),
        m("exec.open_us", open, n_open),
        m("exec.resolve_hit_us", hit, n_hit),
        m("exec.resolve_miss_us", miss, n_miss),
        m(
            "exec.snapshot_hit_frac",
            share(r.snapshot_hits, r.resolves()),
            r.resolves() as usize,
        ),
        m(
            "exec.memo_hit_frac",
            share(r.memo_hits, r.resolves()),
            r.resolves() as usize,
        ),
        m(
            "exec.sql_per_request",
            share(r.sql, r.requests),
            r.requests as usize,
        ),
        m("exec.pairwise_us", pairwise, n_pairwise),
        m(
            "exec.ingest_ms",
            median(&per(&|i| i.ingest_ns as f64 / 1e6)),
            ok.len(),
        ),
        m(
            "exec.ingest_changed",
            stats::mean(&per(&|i| i.changed as f64)),
            ok.len(),
        ),
        m(
            "exec.ingest_new_tuples",
            stats::mean(&per(&|i| i.new_tuples as f64)),
            ok.len(),
        ),
        m("exec.rewarm_ms", rewarm_ms, 1),
        m(
            "exec.epochs_retired",
            ingested.iter().map(|i| i.retired).max().unwrap_or(0) as f64,
            ingested.len(),
        ),
        m("exec.warm_s", ph("exec.warm_s"), LAUNCHES),
        m("exec.snapshot_save_s", ph("exec.snapshot_save_s"), LAUNCHES),
        m("exec.snapshot_load_s", ph("exec.snapshot_load_s"), LAUNCHES),
        m("exec.snapshot_bytes", ph("exec.snapshot_bytes"), LAUNCHES),
        m("peps.top_k_us", peps, n_peps),
        m(
            "peps.atoms_per_group",
            share(r.atoms_in_groups, r.groups),
            r.groups as usize,
        ),
        m("relstore.parse_us", parse, n_parse),
        m(
            "relstore.append_ms",
            median(&per(&|i| i.append_ns as f64 / 1e6)),
            ok.len(),
        ),
        m("relstore.load_s", ph("relstore.load_s"), LAUNCHES),
        m("graph.load_s", ph("graph.load_s"), LAUNCHES),
        m("dblp.generate_s", ph("dblp.generate_s"), LAUNCHES),
        m("dblp.extract_s", ph("dblp.extract_s"), LAUNCHES),
        m("graphstore.build_s", ph("graphstore.build_s"), LAUNCHES),
        m("graphstore.derive_s", ph("graphstore.derive_s"), LAUNCHES),
        m("dsl.compile_ms", ph("dsl.compile_ms"), LAUNCHES),
        m("client.late_p99_ms", late.tail, late.n),
        m(
            "client.trace_overhead_frac",
            traced.p50 / untraced.p50.max(f64::MIN_POSITIVE) - 1.0,
            traced.n,
        ),
    ]
}
