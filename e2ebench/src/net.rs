//! The load generator: one connection driven by one thread, as an open
//! loop (seeded Poisson arrivals, each request timed from when it was
//! due) or a closed loop (a fixed window in flight).
//!
//! The socket is non-blocking and requests go through a user-space
//! outbox, so a server that stops reading delays replies (which the
//! latency counts) but never the generator. Between events the thread
//! sleeps in `ppoll`, on a high-resolution timer, while [`Awake`] keeps
//! its CPU from halting.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hypre_core::algo::peps::PepsVariant;
use hypre_core::serve::wire::{
    self, ErrorCode, FrameBuffer, Request, Response, StatsReply, WireAtom, MAX_FRAME_BYTES,
};

use crate::corpus::{Req, WireProfile, K};
use crate::stats::Tally;
use crate::trace::Tracer;

/// How long a phase waits without any reply before counting the
/// requests still in flight as timeouts.
const DRAIN: Duration = Duration::from_secs(10);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE` policy: runs only when nothing else on the CPU
/// wants to, and yields to any other thread at once.
const SCHED_IDLE: i32 = 5;

/// Keeps every CPU busy at the lowest priority until dropped: one
/// `SCHED_IDLE` spinner per CPU. A virtual CPU that halts when idle
/// wakes milliseconds late on a busy host, which would put the
/// hypervisor's wake-up latency, not the server's, into every timing.
pub struct Awake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Awake {
    pub fn on(cpus: usize) -> io::Result<Awake> {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut threads = Vec::with_capacity(cpus);
        for cpu in 0..cpus {
            let stop = std::sync::Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("awake-{cpu}"))
                    .spawn(move || {
                        let idle = 0i32;
                        // SAFETY: `idle` is a live `struct sched_param` (one
                        // int, priority 0 as SCHED_IDLE requires); pid 0 is
                        // this thread.
                        let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &idle) };
                        if rc != 0 || pin_to_cpu(cpu).is_err() {
                            return;
                        }
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })?,
            );
        }
        Ok(Awake { stop, threads })
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Pins the calling thread (and the processes it spawns afterwards) to
/// one CPU.
pub fn pin_to_cpu(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu index too large",
        ));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit `cpu_set_t`-sized buffer and the
    // size passed is exactly its length in bytes; pid 0 means this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Waits until `stream` is readable (or, with `out`, writable) or
/// `timeout` passes. A socket read timeout would round to scheduler
/// ticks and make the generator late.
fn poll(stream: &TcpStream, out: bool, timeout: Duration) -> io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if out { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`struct pollfd`,
    // `struct timespec` on 64-bit Linux) locals for the whole call; nfds
    // is 1, matching the single entry; a null sigmask is allowed.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// What became of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Error,
    Overloaded,
    Timeout,
}

/// One request's timing, in nanoseconds from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub outcome: Outcome,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)) as f64 / 1e6
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)) as f64 / 1e6
    }
}

/// Every distinct reply payload received per profile, with its count —
/// what the answer check compares against the reference.
#[derive(Default)]
pub struct Answers {
    pub by_profile: HashMap<u32, Vec<(Vec<u8>, u64)>>,
    pub reply_bytes: u64,
    pub replies: u64,
}

impl Answers {
    fn record(&mut self, profile: u32, payload: Vec<u8>) {
        self.reply_bytes += payload.len() as u64;
        self.replies += 1;
        let seen = self.by_profile.entry(profile).or_default();
        match seen.iter_mut().find(|(p, _)| *p == payload) {
            Some((_, n)) => *n += 1,
            None => seen.push((payload, 1)),
        }
    }
}

/// A client connection plus the state the phases share: encoded request
/// templates, collected answers and the failure tally.
pub struct Client<'a> {
    stream: TcpStream,
    frames: FrameBuffer,
    buf: Vec<u8>,
    outbox: Vec<u8>,
    profiles: &'a [WireProfile],
    templates: HashMap<u32, Vec<u8>>,
    pub answers: Answers,
    pub tally: Tally,
    /// Top-K requests sent (the server's `total_requests` must match).
    pub sent: u64,
}

/// Byte offset of the tenant field in a framed `TopK` request: 4-byte
/// length prefix, then the opcode byte.
const TENANT_AT: usize = 5;

impl<'a> Client<'a> {
    pub fn connect(addr: SocketAddr, profiles: &'a [WireProfile]) -> io::Result<Client<'a>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            frames: FrameBuffer::new(MAX_FRAME_BYTES),
            buf: vec![0u8; 64 * 1024],
            outbox: Vec::new(),
            profiles,
            templates: HashMap::new(),
            answers: Answers::default(),
            tally: Tally::default(),
            sent: 0,
        })
    }

    /// Queues the framed request for `req` — the profile's template with
    /// the tenant patched in. [`Client::pump`] writes it.
    fn send(&mut self, req: &Req) {
        let profiles = self.profiles;
        let template = self.templates.entry(req.profile).or_insert_with(|| {
            let payload = wire::encode_request(&top_k(&profiles[req.profile as usize], 0));
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&payload);
            framed
        });
        let at = self.outbox.len() + TENANT_AT;
        self.outbox.extend_from_slice(template);
        self.outbox[at..at + 8].copy_from_slice(&req.tenant.to_be_bytes());
        self.sent += 1;
        self.tally.attempted += 1;
    }

    /// Writes as much of the outbox as the socket takes now.
    fn flush(&mut self) -> io::Result<()> {
        let mut off = 0;
        while off < self.outbox.len() {
            match self.stream.write(&self.outbox[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.outbox.drain(..off);
        Ok(())
    }

    /// Moves bytes both ways until at least one reply is complete or
    /// `until` passes; complete reply payloads land in `out`.
    fn pump(&mut self, until: Instant, out: &mut Vec<Vec<u8>>) -> io::Result<()> {
        loop {
            self.flush()?;
            loop {
                match self.stream.read(&mut self.buf) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ))
                    }
                    Ok(n) => self.frames.extend(&self.buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(payload) = self
                .frames
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                out.push(payload);
            }
            let now = Instant::now();
            if !out.is_empty() || now >= until {
                return Ok(());
            }
            poll(&self.stream, !self.outbox.is_empty(), until - now)?;
        }
    }

    /// Decodes one reply and files it under its request's profile.
    fn settle(&mut self, profile: u32, payload: Vec<u8>) -> Outcome {
        match wire::decode_response(&payload) {
            Ok(Response::TopK(_)) => {
                self.answers.record(profile, payload);
                Outcome::Ok
            }
            Ok(Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                self.tally.overloads += 1;
                Outcome::Overloaded
            }
            _ => {
                self.tally.errors += 1;
                Outcome::Error
            }
        }
    }

    /// Sends `reqs` on their schedule and times each from when it was
    /// due. With a tracer, every request gets a `client.request` span
    /// (from its due time to its decoded reply) with `client.send` and
    /// `client.decode` children.
    pub fn open_loop(
        &mut self,
        reqs: &[Req],
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<Vec<Sample>> {
        let start = Instant::now() + Duration::from_millis(1);
        let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
        let mut samples: Vec<Sample> = reqs
            .iter()
            .map(|r| {
                let due = (r.at * 1e9) as u64;
                Sample {
                    due,
                    sent: due,
                    done: due,
                    outcome: Outcome::Timeout,
                }
            })
            .collect();
        let mut spans: Vec<Option<u32>> = vec![None; reqs.len()];
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut replies = Vec::new();
        let mut next = 0usize;
        let mut last_progress = Instant::now();
        loop {
            while next < reqs.len() && samples[next].due <= ns(Instant::now()) {
                let s = tracer.as_deref().map(Tracer::now);
                self.send(&reqs[next]);
                samples[next].sent = ns(Instant::now());
                if let (Some(t), Some(s)) = (tracer.as_deref_mut(), s) {
                    let due = t.at(start) + samples[next].due;
                    let id = t.open_at("client.request", None, next as u64, due);
                    t.record("client.send", Some(id), next as u64, s, t.now());
                    spans[next] = Some(id);
                }
                inflight.push_back(next);
                next += 1;
            }
            if next == reqs.len() && inflight.is_empty() {
                break;
            }
            let until = if next < reqs.len() {
                start + Duration::from_nanos(samples[next].due)
            } else {
                Instant::now() + Duration::from_millis(50)
            };
            self.pump(until, &mut replies)?;
            if replies.is_empty() {
                if !inflight.is_empty() && last_progress.elapsed() > DRAIN {
                    break;
                }
                continue;
            }
            last_progress = Instant::now();
            for payload in replies.drain(..) {
                let Some(i) = inflight.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unsolicited reply",
                    ));
                };
                let s = tracer.as_deref().map(Tracer::now);
                samples[i].outcome = self.settle(reqs[i].profile, payload);
                samples[i].done = ns(Instant::now());
                if let (Some(t), Some(s), Some(id)) = (tracer.as_deref_mut(), s, spans[i]) {
                    t.record("client.decode", Some(id), i as u64, s, t.now());
                    t.close(id);
                }
            }
        }
        self.tally.timeouts += inflight.len() as u64;
        Ok(samples)
    }

    /// Keeps `window` requests in flight for `duration` — each reply
    /// answered by the next request, cycling through `reqs` when `cycle`,
    /// else sending each once — and returns the successful replies
    /// received within `duration`.
    pub fn closed_loop(
        &mut self,
        reqs: &[Req],
        window: usize,
        duration: Duration,
        cycle: bool,
    ) -> io::Result<u64> {
        let stop = Instant::now() + duration;
        let mut ok_in_time = 0u64;
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut replies = Vec::new();
        let mut next = 0usize;
        let mut last_progress = Instant::now();
        let mut refill = window;
        loop {
            while refill > 0 && Instant::now() < stop && (cycle || next < reqs.len()) {
                let r = next % reqs.len();
                self.send(&reqs[r]);
                inflight.push_back(r);
                next += 1;
                refill -= 1;
            }
            if inflight.is_empty() {
                break;
            }
            self.pump(Instant::now() + Duration::from_millis(50), &mut replies)?;
            if replies.is_empty() {
                if last_progress.elapsed() > DRAIN {
                    break;
                }
                continue;
            }
            last_progress = Instant::now();
            for payload in replies.drain(..) {
                let Some(i) = inflight.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unsolicited reply",
                    ));
                };
                if self.settle(reqs[i].profile, payload) == Outcome::Ok && last_progress <= stop {
                    ok_in_time += 1;
                }
                refill += 1;
            }
        }
        self.tally.timeouts += inflight.len() as u64;
        Ok(ok_in_time)
    }

    /// Sends every request once with `window` in flight, untimed.
    pub fn drive(&mut self, reqs: &[Req], window: usize) -> io::Result<()> {
        self.closed_loop(reqs, window, Duration::from_secs(120), false)
            .map(|_| ())
    }

    /// The server's counters, read through the wire `Stats` frame (sent
    /// when no request is in flight).
    pub fn server_stats(&mut self) -> io::Result<StatsReply> {
        let payload = wire::encode_request(&Request::Stats { tenant: 0 });
        self.outbox
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.outbox.extend_from_slice(&payload);
        let mut replies = Vec::new();
        self.pump(Instant::now() + DRAIN, &mut replies)?;
        match replies.first().map(|p| wire::decode_response(p)) {
            Some(Ok(Response::Stats(s))) if replies.len() == 1 => Ok(s),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected one Stats reply, got {other:?}"),
            )),
        }
    }
}

/// The `TopK` request for a wire profile.
pub fn top_k(profile: &WireProfile, tenant: u64) -> Request {
    Request::TopK {
        tenant,
        k: K,
        variant: PepsVariant::Complete,
        atoms: profile
            .iter()
            .map(|(predicate, intensity)| WireAtom {
                predicate: predicate.clone(),
                intensity: *intensity,
            })
            .collect(),
    }
}
