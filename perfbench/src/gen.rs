//! The benchmark's open-loop load generator over the wire protocol.
//!
//! One TCP connection, one thread: it sends every request already due
//! in one write, then waits in the kernel until the socket is readable
//! or the next arrival is due, timestamping each response as it is
//! decoded. Latency is taken from each request's *scheduled* arrival, so
//! a stalled sender charges its own delay to the requests behind it, and
//! the sender's lateness is reported on its own. Sleeping instead of
//! spinning keeps the generator off the cores the server needs.

use crate::sys::{cpu_jiffies, thread_cpu_s, wait_readable};
use bsnn_serve::net::{decode_response, encode_request, frame_ready};
use bsnn_serve::{ArrivalProcess, ExitPolicy, InferResponse, NetResponse};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest frame the reader accepts (responses are a few dozen bytes).
const MAX_FRAME: usize = 1 << 16;

/// A small deterministic generator (SplitMix64), so schedules and
/// request orders depend on the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Arrival offsets from the start of a phase, in order.
///
/// `FixedRate` is evenly spaced. `Bursty` sends bursts whose sizes are
/// drawn from the seed between half and one and a half times `burst`;
/// each burst leaves when the average rate says its first request is
/// due, so the average rate is exactly `rps` whatever the draws.
pub fn schedule(arrival: ArrivalProcess, duration: Duration, seed: u64) -> Vec<Duration> {
    let rps = arrival.rps();
    assert!(rps > 0.0, "rate must be positive");
    let n = ((duration.as_secs_f64() * rps).floor() as usize).max(1);
    match arrival {
        ArrivalProcess::FixedRate { .. } => (0..n)
            .map(|i| Duration::from_secs_f64(i as f64 / rps))
            .collect(),
        ArrivalProcess::Bursty { burst, .. } => {
            assert!(burst > 0, "burst must be positive");
            let mut rng = SplitMix::new(seed);
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let size = rng.range(burst.div_ceil(2), burst + burst / 2);
                let at = Duration::from_secs_f64(out.len() as f64 / rps);
                for _ in 0..size.min(n - out.len()) {
                    out.push(at);
                }
            }
            out
        }
    }
}

/// The index of the first not-yet-due arrival at or after `next`, given
/// `elapsed` since the phase start: the sender sends `next..returned`.
pub fn due_until(offsets: &[Duration], next: usize, elapsed: Duration) -> usize {
    next + offsets[next..].partition_point(|&o| o <= elapsed)
}

/// What one phase of load offers.
#[derive(Debug, Clone)]
pub struct Load<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Registry model name.
    pub model: &'a str,
    /// Exit policy attached to every request.
    pub policy: ExitPolicy,
    /// Arrival offsets from the phase start.
    pub offsets: Vec<Duration>,
    /// The image pool.
    pub images: &'a [Vec<f32>],
    /// Image index of request `i` is `order[i % order.len()]`.
    pub order: &'a [usize],
    /// How long to wait for responses after the last arrival.
    pub drain: Duration,
}

/// A request's terminal outcome as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served.
    Ok(InferResponse),
    /// Refused by admission control.
    Shed,
    /// Failed.
    Error(String),
    /// Deadline expired.
    Deadline,
}

impl From<NetResponse> for Outcome {
    fn from(r: NetResponse) -> Self {
        match r {
            NetResponse::Ok { response, .. } => Outcome::Ok(response),
            NetResponse::Shed { .. } => Outcome::Shed,
            NetResponse::Error { message, .. } => Outcome::Error(message),
            NetResponse::DeadlineExceeded { .. } => Outcome::Deadline,
        }
    }
}

/// One offered request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Image pool index the request carried.
    pub image: usize,
    /// Scheduled arrival, ns after the phase start.
    pub scheduled_ns: u64,
    /// When the sender wrote it, ns after the phase start.
    pub sent_ns: u64,
    /// When its (first) response was decoded, ns after the phase start.
    pub done_ns: u64,
    /// Its first terminal outcome; `None` if no response arrived.
    pub outcome: Option<Outcome>,
    /// Terminal responses received for it (exactly 1 when correct).
    pub responses: u32,
}

impl Record {
    /// Client latency from scheduled arrival, µs.
    pub fn latency_us(&self) -> u64 {
        self.done_ns.saturating_sub(self.scheduled_ns) / 1000
    }

    /// How late the sender was, µs.
    pub fn late_us(&self) -> u64 {
        self.sent_ns.saturating_sub(self.scheduled_ns) / 1000
    }

    /// Client round trip from the actual send, µs.
    pub fn round_trip_us(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns) / 1000
    }
}

/// Everything one phase observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// One record per offered request, in schedule order.
    pub records: Vec<Record>,
    /// Responses whose id matched no offered request.
    pub unknown_ids: u64,
    /// Undecodable frames or a broken connection.
    pub protocol_errors: u64,
    /// Request bytes written.
    pub bytes_sent: u64,
    /// Response bytes read (headers included).
    pub bytes_received: u64,
    /// CPU seconds the generator thread used.
    pub cpu_s: f64,
    /// Wall time from phase start to the connection's close.
    pub wall: Duration,
    /// The machine's CPU time ([`cpu_jiffies`]) as each second of the
    /// phase began (read at the generator's first wake in it), then at
    /// the phase's end.
    pub marks: Vec<Option<(u64, u64)>>,
}

/// Offers `load` over one fresh connection and waits for every response
/// (or the drain deadline). `start_at` is the phase start; pass a past
/// instant to begin already behind schedule.
///
/// One thread does both halves: it sends every request already due,
/// then waits in the kernel for the socket to become readable until the
/// next arrival is due, so a response is timestamped when it arrives.
///
/// # Errors
///
/// Returns connection errors; per-request failures are recorded, not
/// returned.
pub fn run_phase(load: &Load<'_>, start_at: Instant) -> io::Result<Phase> {
    assert!(
        !load.images.is_empty() && !load.order.is_empty(),
        "load needs images"
    );
    let cpu0 = thread_cpu_s();
    let stream = TcpStream::connect(load.addr)?;
    stream.set_nodelay(true)?;
    let n = load.offsets.len();
    let last = load.offsets.last().copied().unwrap_or_default();
    let hard_deadline = start_at + last + load.drain;
    let mut buf = Vec::with_capacity(4096);
    let mut rbuf = Vec::with_capacity(4096);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut sent_ns = Vec::with_capacity(n);
    let mut responses = Vec::with_capacity(n);
    let (mut bytes_sent, mut bytes_received, mut errors) = (0u64, 0u64, 0u64);
    let mut next = 0;
    let mut write_open = true;
    let mut marks = vec![cpu_jiffies()];
    loop {
        let elapsed = start_at.elapsed();
        let second = elapsed.as_secs() as usize;
        if marks.len() <= second {
            marks.resize(second + 1, cpu_jiffies());
        }
        let due = if write_open {
            due_until(&load.offsets, next, elapsed)
        } else {
            next
        };
        if due > next {
            buf.clear();
            for i in next..due {
                let image = &load.images[load.order[i % load.order.len()]];
                encode_request(&mut buf, i as u64, load.model, &load.policy, image)
                    .expect("model name fits the wire format");
            }
            sent_ns.resize(due, start_at.elapsed().as_nanos() as u64);
            if (&stream).write_all(&buf).is_err() {
                sent_ns.truncate(next);
                errors += 1;
                write_open = false;
            } else {
                bytes_sent += buf.len() as u64;
                next = due;
            }
        }
        if write_open && next == n {
            // The server closes the connection once it has answered
            // everything sent before this.
            let _ = stream.shutdown(Shutdown::Write);
            write_open = false;
        }
        let wait = if write_open {
            load.offsets[next].saturating_sub(start_at.elapsed())
        } else {
            hard_deadline.saturating_duration_since(Instant::now())
        };
        if wait.is_zero() {
            if write_open {
                continue;
            }
            break;
        }
        if !wait_readable(&stream, wait)? {
            continue;
        }
        let got = match (&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                errors += 1;
                break;
            }
        };
        let at_ns = start_at.elapsed().as_nanos() as u64;
        bytes_received += got as u64;
        rbuf.extend_from_slice(&chunk[..got]);
        let mut used = 0;
        loop {
            match frame_ready(&rbuf[used..], MAX_FRAME) {
                Ok(Some(total)) => {
                    let payload = &rbuf[used + 4..used + total];
                    used += total;
                    match decode_response(payload) {
                        Ok(r) => responses.push((r.request_id(), at_ns, Outcome::from(r))),
                        Err(_) => errors += 1,
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    errors += 1;
                    used = rbuf.len();
                    break;
                }
            }
        }
        rbuf.drain(..used);
    }
    let wall = start_at.elapsed();
    marks.push(cpu_jiffies());

    let mut records: Vec<Record> = (0..n)
        .map(|i| Record {
            image: load.order[i % load.order.len()],
            scheduled_ns: load.offsets[i].as_nanos() as u64,
            sent_ns: sent_ns.get(i).copied().unwrap_or(u64::MAX),
            done_ns: 0,
            outcome: None,
            responses: 0,
        })
        .collect();
    let mut unknown_ids = 0;
    for (id, at_ns, outcome) in responses {
        match records.get_mut(id as usize) {
            Some(r) if r.sent_ns != u64::MAX => {
                r.responses += 1;
                if r.responses == 1 {
                    r.done_ns = at_ns;
                    r.outcome = Some(outcome);
                }
            }
            _ => unknown_ids += 1,
        }
    }
    Ok(Phase {
        records,
        unknown_ids,
        protocol_errors: errors,
        bytes_sent,
        bytes_received,
        cpu_s: thread_cpu_s() - cpu0,
        wall,
        marks,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bsnn_serve::net::{decode_request, encode_response_ok, FrameReader};
    use bsnn_serve::ExitReason;
    use std::net::TcpListener;

    #[test]
    fn fixed_rate_schedule_is_even_and_seed_free() {
        let a = ArrivalProcess::FixedRate { rps: 1000.0 };
        let s = schedule(a, Duration::from_millis(100), 1);
        assert_eq!(s.len(), 100);
        assert_eq!(s, schedule(a, Duration::from_millis(100), 2));
        for w in s.windows(2) {
            assert!((w[1] - w[0]).as_secs_f64() - 0.001 < 1e-9);
        }
    }

    #[test]
    fn bursty_schedule_keeps_the_rate_and_varies_with_the_seed() {
        let a = ArrivalProcess::Bursty {
            rps: 1600.0,
            burst: 16,
        };
        let s = schedule(a, Duration::from_secs(1), 7);
        assert_eq!(s.len(), 1600);
        assert_eq!(s, schedule(a, Duration::from_secs(1), 7), "seeded");
        assert_ne!(s, schedule(a, Duration::from_secs(1), 8));
        // Group the schedule into bursts: every burst is 8..=24 long and
        // leaves exactly when its first request is due at 1600 rps.
        let mut i = 0;
        while i < s.len() {
            let len = s[i..].iter().take_while(|&&o| o == s[i]).count();
            assert!((8..=24).contains(&len) || i + len == s.len(), "burst {len}");
            let due = Duration::from_secs_f64(i as f64 / 1600.0);
            assert_eq!(s[i], due);
            i += len;
        }
    }

    #[test]
    fn due_until_sends_everything_already_due() {
        let offsets: Vec<Duration> = (0..10).map(|i| Duration::from_millis(i * 10)).collect();
        assert_eq!(due_until(&offsets, 0, Duration::ZERO), 1);
        assert_eq!(due_until(&offsets, 0, Duration::from_millis(35)), 4);
        assert_eq!(due_until(&offsets, 4, Duration::from_millis(35)), 4);
        assert_eq!(due_until(&offsets, 4, Duration::from_secs(1)), 10);
    }

    /// A stand-in server: answers every request OK with prediction 3,
    /// steps 8, then closes once the client has shut down its half.
    pub(crate) fn echo_server() -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut frames = FrameReader::new(stream, 1 << 20);
            let mut served = 0;
            while let Ok(Some(payload)) = frames.next_frame() {
                let req = decode_request(&payload).unwrap();
                let mut buf = Vec::new();
                let resp = InferResponse {
                    prediction: 3,
                    steps: 8,
                    spikes: 1,
                    margin: 0.5,
                    exit: ExitReason::Converged,
                    model_epoch: 1,
                    queue_micros: 0,
                    service_micros: 0,
                    batch_size: 1,
                    degraded: false,
                };
                encode_response_ok(&mut buf, req.request_id, &resp);
                writer.write_all(&buf).unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn a_late_start_sends_the_backlog_at_once_and_charges_lateness() {
        let (addr, server) = echo_server();
        let images = vec![vec![0.5f32; 4]];
        let order = [0usize];
        let load = Load {
            addr,
            model: "m",
            policy: ExitPolicy::Fixed { steps: 8 },
            offsets: schedule(
                ArrivalProcess::FixedRate { rps: 1000.0 },
                Duration::from_millis(60),
                0,
            ),
            images: &images,
            order: &order,
            drain: Duration::from_secs(5),
        };
        // Start 30 ms behind: arrivals 0..=30 are already due.
        let phase = run_phase(&load, Instant::now() - Duration::from_millis(30)).unwrap();
        assert_eq!(server.join().unwrap(), 60);
        assert_eq!(phase.records.len(), 60);
        assert_eq!(phase.unknown_ids, 0);
        assert_eq!(phase.protocol_errors, 0);
        let first = &phase.records[0];
        assert!(first.late_us() >= 29_000, "late {}", first.late_us());
        // The whole backlog went out in the first write.
        assert!(phase.records[..31]
            .iter()
            .all(|r| r.sent_ns == first.sent_ns));
        for r in &phase.records {
            assert_eq!(r.responses, 1);
            assert!(r.latency_us() >= r.late_us());
            assert_eq!(r.latency_us(), (r.done_ns - r.scheduled_ns) / 1000);
            assert!(matches!(r.outcome, Some(Outcome::Ok(ref o)) if o.prediction == 3));
        }
        // Requests scheduled after the start are sent roughly on time.
        let tail = &phase.records[59];
        assert!(tail.late_us() < 20_000, "late {}", tail.late_us());
        assert!(phase.bytes_sent > 0 && phase.bytes_received > 0);
    }
}
