//! The benchmark's own load generator on `reram_serve::proto` frames.
//!
//! One thread per connection and at most [`CONNS`] connections. Each
//! thread pipelines requests on its connection: in an open-loop phase it
//! sends on a seeded Poisson schedule whatever the server does, in a
//! closed-loop phase it keeps a fixed window of requests outstanding.
//! Latency is timed from each request's *due* time, so a stalled generator
//! or server charges the wait to every request behind it, and how late the
//! generator sent is reported separately. `Busy` counts as failed, never
//! retried. Every response is checked against the connection's own
//! acknowledged writes (see [`Checker`]).

use reram_obs::TraceContext;
use reram_serve::{Frame, Request, Response, LINE_BYTES};
use reram_workloads::{AccessKind, BenchProfile, Rng64, TraceGenerator};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Connections the generator opens — one generator thread each.
pub const CONNS: usize = 2;

/// Outstanding requests per connection beyond which an open-loop phase
/// stops sending (and counts the skipped requests as failed): the backlog
/// has clearly outgrown the server.
const MAX_OUTSTANDING: usize = 4096;

/// How long a phase waits for answers after its last send.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Largest frame body a response may declare (the stats text is the
/// largest legal payload, far below this).
const MAX_BODY: usize = (1 << 20) + 64;

/// Writes to one line remembered for read checking. A read may legally
/// return any of them that is newer than the write acknowledged when the
/// read was sent.
const RECENT_WRITES: usize = 64;

type Line = [u8; LINE_BYTES];

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Poisson arrivals at `rate_rps` (split evenly over the connections)
    /// for `seconds`.
    Open {
        /// Offered rate, requests per second, all connections together.
        rate_rps: f64,
        /// Phase length, seconds.
        seconds: f64,
    },
    /// Keep `window` requests outstanding per connection until `requests`
    /// (all connections together) have been sent.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
        /// Requests to send, all connections together.
        requests: u64,
    },
    /// Read back every line the connection holds an acknowledged write for,
    /// `window` at a time, and require exactly that value.
    Audit {
        /// Outstanding requests per connection.
        window: usize,
    },
}

/// What one phase measured, merged over the connections.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    /// Requests sent (or skipped by the outstanding cap).
    pub attempted: u64,
    /// Requests answered correctly.
    pub ok: u64,
    /// Requests shed (`Busy`), errored, unanswered or answered wrongly.
    pub failed: u64,
    /// `Busy` answers.
    pub busy: u64,
    /// Reads whose data no acknowledged or in-flight write explains.
    pub mismatches: u64,
    /// Writes acknowledged.
    pub writes_ok: u64,
    /// `(due offset, latency from due)` per answered request, ns.
    pub rtt: Vec<(u64, u64)>,
    /// How late each open-loop send left after its due time, ns.
    pub late_ns: Vec<u64>,
    /// Largest number of outstanding requests seen (summed over the
    /// connections' maxima).
    pub backlog_max: usize,
    /// True when the backlog kept growing (or hit the cap) during the phase.
    pub backlog_grew: bool,
    /// `(trace id, latency from send)` of traced requests, ns.
    pub traced: Vec<(u64, u64)>,
    /// Phase duration, first send to last answer, seconds.
    pub wall_s: f64,
}

impl PhaseStats {
    fn merge(&mut self, o: PhaseStats) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.busy += o.busy;
        self.mismatches += o.mismatches;
        self.writes_ok += o.writes_ok;
        self.rtt.extend(o.rtt);
        self.late_ns.extend(o.late_ns);
        self.backlog_max += o.backlog_max;
        self.backlog_grew |= o.backlog_grew;
        self.traced.extend(o.traced);
        self.wall_s = self.wall_s.max(o.wall_s);
    }

    /// Latency percentile `q`, µs: the median over `windows` equal slices
    /// of the phase (by due time) of each slice's own percentile, so one
    /// host hiccup moves one slice, not the result.
    pub fn windowed_us(&self, q: f64, windows: usize) -> f64 {
        let Some(span) = self.rtt.iter().map(|r| r.0).max() else {
            return 0.0;
        };
        let width = span / windows as u64 + 1;
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &(due, rtt) in &self.rtt {
            slices[((due / width) as usize).min(windows - 1)].push(rtt as f64 / 1e3);
        }
        let per: Vec<f64> = slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| crate::report::quantile(s, q))
            .collect();
        crate::report::median(&per)
    }
}

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

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits up to `timeout` for `stream` to become readable. `ppoll` takes a
/// nanosecond timeout, so the generator wakes on time for its next send
/// instead of at the next scheduler tick.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, `#[repr(C)]` locals matching the C
    // `struct pollfd` / `struct timespec` layouts for the whole call;
    // `nfds = 1` matches the single `pollfd`; a null sigmask leaves the
    // signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(rc > 0)
}

/// Splits every complete frame off the front of `buf`.
fn take_frames(buf: &mut Vec<u8>) -> Result<Vec<Frame>, String> {
    let mut frames = Vec::new();
    let mut at = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_BODY {
            return Err(format!("response frame declares {len} B"));
        }
        if buf.len() - at - 4 < len {
            break;
        }
        let frame = Frame::decode_body(&buf[at + 4..at + 4 + len]).map_err(|e| e.to_string())?;
        frames.push(frame);
        at += 4 + len;
    }
    buf.drain(..at);
    Ok(frames)
}

#[derive(Debug, Default)]
struct LineLog {
    /// The write applied last (by acknowledgement order): send id, data.
    acked: Option<(u64, Line)>,
    /// Recent writes not shed, by send id.
    recent: VecDeque<(u64, Line)>,
}

#[derive(Debug)]
enum Pending {
    Read {
        line: u64,
        acked: Option<(u64, Line)>,
    },
    Write {
        line: u64,
        data: Line,
    },
}

/// Read-your-writes oracle for one connection. Connections own disjoint
/// lines, so a connection's own history explains every value it may read:
/// the value acknowledged last when the read was sent (zeros for a line
/// never written), or any later write to the line — in flight when the
/// read was sent or sent after it, since the server may order a batch by
/// bank completion rather than arrival.
#[derive(Debug, Default)]
pub struct Checker {
    lines: HashMap<u64, LineLog>,
    pending: HashMap<u64, Pending>,
}

impl Checker {
    /// Records request `id` leaving the client.
    pub fn on_send(&mut self, id: u64, req: &Request) {
        match req {
            Request::ReadLine { line } => {
                let acked = self.lines.get(line).and_then(|l| l.acked);
                self.pending
                    .insert(id, Pending::Read { line: *line, acked });
            }
            Request::WriteLine { line, data } => {
                let log = self.lines.entry(*line).or_default();
                log.recent.push_back((id, **data));
                if log.recent.len() > RECENT_WRITES {
                    log.recent.pop_front();
                }
                self.pending.insert(
                    id,
                    Pending::Write {
                        line: *line,
                        data: **data,
                    },
                );
            }
            _ => {}
        }
    }

    /// True when `data` is a value read `id` may return; `strict` (the
    /// audit) accepts only the last acknowledged value.
    pub fn on_read(&mut self, id: u64, data: &Line, strict: bool) -> bool {
        let Some(Pending::Read { line, acked }) = self.pending.remove(&id) else {
            return false;
        };
        let floor = acked.map_or(0, |(seq, _)| seq);
        if acked.map_or(*data == [0u8; LINE_BYTES], |(_, v)| v == *data) {
            return true;
        }
        !strict
            && self
                .lines
                .get(&line)
                .is_some_and(|l| l.recent.iter().any(|(seq, v)| *seq > floor && v == data))
    }

    /// Records write `id` acknowledged.
    pub fn on_write_ok(&mut self, id: u64) {
        if let Some(Pending::Write { line, data }) = self.pending.remove(&id) {
            self.lines.entry(line).or_default().acked = Some((id, data));
        }
    }

    /// Records request `id` refused: a shed write was never applied.
    pub fn on_refused(&mut self, id: u64) {
        if let Some(Pending::Write { line, .. }) = self.pending.remove(&id) {
            if let Some(log) = self.lines.get_mut(&line) {
                log.recent.retain(|(seq, _)| *seq != id);
            }
        }
    }

    /// Lines holding an acknowledged write, ascending.
    pub fn acked_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lines
            .iter()
            .filter(|(_, l)| l.acked.is_some())
            .map(|(k, _)| *k)
            .collect();
        v.sort_unstable();
        v
    }
}

struct InFlight {
    due: u64,
    sent: u64,
    traced: bool,
}

/// One generator connection with its request stream and oracle.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    tmp: Vec<u8>,
    next_id: u64,
    idx: u64,
    gen: TraceGenerator,
    arrivals: Rng64,
    check: Checker,
}

impl Conn {
    /// Opens connection `idx` of [`CONNS`] to `addr`, drawing requests from
    /// `profile` over this connection's `lines` of the served space.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn open(
        addr: SocketAddr,
        idx: usize,
        profile: BenchProfile,
        seed: u64,
        lines: u64,
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let stream_seed = seed.wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            tmp: vec![0u8; 1 << 16],
            next_id: 1,
            idx: idx as u64,
            gen: TraceGenerator::new(profile, stream_seed).with_address_lines(lines),
            arrivals: Rng64::new(stream_seed ^ 0xA11C_E5ED),
            check: Checker::default(),
        })
    }

    fn next_request(&mut self) -> Request {
        let global = |line: u64| line * CONNS as u64 + self.idx;
        match self.gen.next_access().kind {
            AccessKind::Read { line } => Request::ReadLine { line: global(line) },
            AccessKind::Write { line, new, .. } => Request::WriteLine {
                line: global(line),
                data: new,
            },
        }
    }

    /// Runs this connection's share of one phase. `trace_every > 0` stamps
    /// a trace context on every `trace_every`-th request.
    fn drive(&mut self, pace: Pace, t0: Instant, trace_every: u64) -> Result<PhaseStats, String> {
        let mut st = PhaseStats::default();
        let mut out: HashMap<u64, InFlight> = HashMap::new();
        let audit = match pace {
            Pace::Audit { .. } => self.check.acked_lines(),
            _ => Vec::new(),
        };
        let (total, end_ns, window, per_conn_rate) = match pace {
            Pace::Open { rate_rps, seconds } => (
                u64::MAX,
                (seconds * 1e9) as u64,
                usize::MAX,
                rate_rps / CONNS as f64,
            ),
            Pace::Closed { window, requests } => {
                (requests.div_ceil(CONNS as u64), u64::MAX, window, 0.0)
            }
            Pace::Audit { window } => (audit.len() as u64, u64::MAX, window, 0.0),
        };
        let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
        let gap = |rng: &mut Rng64| -> u64 {
            let u = rng.gen_range_f64(1e-12, 1.0);
            (-u.ln() / per_conn_rate * 1e9) as u64
        };
        let mut next_due = if per_conn_rate > 0.0 {
            gap(&mut self.arrivals)
        } else {
            0
        };
        let mut issued = 0u64;
        let mut last_send = 0u64;
        let mut samples: Vec<usize> = Vec::new();
        let mut next_sample = 0u64;
        let mut first_send: Option<u64> = None;
        let mut last_answer = 0u64;
        loop {
            let now = ns(Instant::now());
            // Send everything that is due (open) or fits the window.
            while issued < total && next_due < end_ns {
                let can = if per_conn_rate > 0.0 {
                    next_due <= now
                } else {
                    out.len() < window
                };
                if !can {
                    break;
                }
                issued += 1;
                st.attempted += 1;
                if out.len() >= MAX_OUTSTANDING {
                    st.failed += 1;
                    st.backlog_grew = true;
                } else {
                    let req = match pace {
                        Pace::Audit { .. } => Request::ReadLine {
                            line: audit[(issued - 1) as usize],
                        },
                        _ => self.next_request(),
                    };
                    let id = self.next_id;
                    self.next_id += 1;
                    let traced = trace_every > 0 && id.is_multiple_of(trace_every);
                    let ctx = traced.then(|| TraceContext {
                        trace_id: ((self.idx + 1) << 48) | id,
                        parent_span_id: id,
                    });
                    self.check.on_send(id, &req);
                    let bytes = req.to_frame(id).with_trace(ctx).encode();
                    self.stream.write_all(&bytes).map_err(|e| e.to_string())?;
                    let sent = ns(Instant::now());
                    let due = if per_conn_rate > 0.0 { next_due } else { sent };
                    if per_conn_rate > 0.0 {
                        st.late_ns.push(sent.saturating_sub(due));
                    }
                    first_send.get_or_insert(due);
                    last_send = sent;
                    out.insert(id, InFlight { due, sent, traced });
                }
                if per_conn_rate > 0.0 {
                    next_due += gap(&mut self.arrivals);
                }
            }
            let sending_done = issued >= total || next_due >= end_ns;
            if sending_done && out.is_empty() {
                break;
            }
            if now >= next_sample {
                samples.push(out.len());
                st.backlog_max = st.backlog_max.max(out.len());
                next_sample = now + 10_000_000;
            }
            if sending_done && now > last_send + DRAIN_GRACE.as_nanos() as u64 {
                st.failed += out.len() as u64;
                for id in out.keys() {
                    self.check.on_refused(*id);
                }
                out.clear();
                break;
            }
            let wait = if !sending_done && per_conn_rate > 0.0 {
                next_due.saturating_sub(now).min(10_000_000)
            } else {
                10_000_000
            };
            if wait > 0
                && !wait_readable(&self.stream, Duration::from_nanos(wait))
                    .map_err(|e| e.to_string())?
            {
                continue;
            }
            let n = self.stream.read(&mut self.tmp).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.rbuf.extend_from_slice(&self.tmp[..n]);
            let done = ns(Instant::now());
            for frame in take_frames(&mut self.rbuf)? {
                let Some(f) = out.remove(&frame.request_id) else {
                    st.failed += 1;
                    continue;
                };
                last_answer = done;
                let id = frame.request_id;
                st.rtt.push((f.due, done.saturating_sub(f.due)));
                if f.traced {
                    st.traced
                        .push((((self.idx + 1) << 48) | id, done.saturating_sub(f.sent)));
                }
                match Response::from_frame(&frame) {
                    Ok(Response::ReadOk { data }) => {
                        let strict = matches!(pace, Pace::Audit { .. });
                        if self.check.on_read(id, &data, strict) {
                            st.ok += 1;
                        } else {
                            st.mismatches += 1;
                            st.failed += 1;
                        }
                    }
                    Ok(Response::WriteOk { .. }) => {
                        self.check.on_write_ok(id);
                        st.ok += 1;
                        st.writes_ok += 1;
                    }
                    Ok(Response::Busy { .. }) => {
                        self.check.on_refused(id);
                        st.busy += 1;
                        st.failed += 1;
                    }
                    _ => {
                        self.check.on_refused(id);
                        st.failed += 1;
                    }
                }
            }
        }
        st.backlog_grew |= grew(&samples);
        st.wall_s = last_answer.saturating_sub(first_send.unwrap_or(0)) as f64 / 1e9;
        Ok(st)
    }
}

/// True when the outstanding-request samples trend upward: the last
/// quarter of the phase holds more than twice the first quarter's backlog
/// plus a small absolute slack.
pub fn grew(samples: &[usize]) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&samples[samples.len() - q..]) > 2.0 * mean(&samples[..q]) + 16.0
}

/// Runs one phase on every connection at once (one thread each) and
/// merges the results.
///
/// # Errors
///
/// Transport or framing failures on any connection.
pub fn run_phase(conns: &mut [Conn], pace: Pace, trace_every: u64) -> Result<PhaseStats, String> {
    let t0 = Instant::now();
    let results: Vec<Result<PhaseStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(pace, t0, trace_every)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut all = PhaseStats::default();
    for r in results {
        all.merge(r?);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(b: u8) -> Box<Line> {
        Box::new([b; LINE_BYTES])
    }

    #[test]
    fn checker_accepts_read_your_writes_and_rejects_altered_data() {
        let mut c = Checker::default();
        // Never-written lines read as zeros.
        c.on_send(1, &Request::ReadLine { line: 5 });
        assert!(c.on_read(1, &[0; LINE_BYTES], false));
        c.on_send(
            2,
            &Request::WriteLine {
                line: 5,
                data: line(7),
            },
        );
        c.on_write_ok(2);
        c.on_send(3, &Request::ReadLine { line: 5 });
        assert!(c.on_read(3, &[7; LINE_BYTES], false));
        // An altered response trips the gate.
        c.on_send(4, &Request::ReadLine { line: 5 });
        assert!(!c.on_read(4, &[8; LINE_BYTES], false));
        // A stale value (older than the acknowledged write) trips it too.
        c.on_send(5, &Request::ReadLine { line: 5 });
        assert!(!c.on_read(5, &[0; LINE_BYTES], false));
    }

    #[test]
    fn checker_allows_in_flight_writes_but_not_shed_ones() {
        let mut c = Checker::default();
        c.on_send(
            1,
            &Request::WriteLine {
                line: 9,
                data: line(1),
            },
        );
        c.on_send(2, &Request::ReadLine { line: 9 });
        c.on_send(
            3,
            &Request::WriteLine {
                line: 9,
                data: line(3),
            },
        );
        c.on_refused(3);
        assert!(c.on_read(2, &[1; LINE_BYTES], false));
        c.on_send(4, &Request::ReadLine { line: 9 });
        assert!(!c.on_read(4, &[3; LINE_BYTES], false));
        c.on_write_ok(1);
        assert_eq!(c.acked_lines(), vec![9]);
        // The audit accepts only the acknowledged value.
        c.on_send(
            5,
            &Request::WriteLine {
                line: 9,
                data: line(5),
            },
        );
        c.on_send(6, &Request::ReadLine { line: 9 });
        assert!(!c.on_read(6, &[5; LINE_BYTES], true));
    }

    #[test]
    fn backlog_detection_flags_growth_only() {
        let steady: Vec<usize> = (0..100).map(|i| 3 + i % 5).collect();
        assert!(!grew(&steady));
        let growing: Vec<usize> = (0..100).map(|i| i * 10).collect();
        assert!(grew(&growing));
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let a = Response::WriteOk {
            attempts: 1,
            degraded: false,
        }
        .to_frame(7)
        .encode();
        let b = Response::Busy { retry_after_us: 9 }.to_frame(8).encode();
        let mut buf = a.clone();
        buf.extend_from_slice(&b[..5]);
        let first = take_frames(&mut buf).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].request_id, 7);
        buf.extend_from_slice(&b[5..]);
        let second = take_frames(&mut buf).unwrap();
        assert_eq!(second[0].request_id, 8);
        assert!(buf.is_empty());
        // A corrupted frame is an error, not a silent skip.
        let mut bad = a;
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(take_frames(&mut bad).is_err());
    }
}
