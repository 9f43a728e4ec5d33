//! The end-to-end runs (tracing off): the release `miniperf` binary
//! driven the way users drive it — fresh batch processes, or a real
//! `serve` daemon with `submit` clients — in seeded closed loops. Every
//! request is timed from spawn to exit and its output checked against
//! the expected table.

use crate::specs::{body_of, warmup, Expected, Sequence, Spec, Workload};
use crate::sys;
use crate::{json_str, median, Metric, Report};
use mperf_sweep::ClientSession;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Set-up passes (batch) or daemon starts (serve) per run; `setup_s`
/// is their median.
const SETUP_REPEATS: usize = 5;
const DAEMON_STARTS: usize = 7;
/// Requests beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// What every request needs: the binary, the work and output
/// directories, and the expected outputs.
pub struct Env {
    pub bin: PathBuf,
    /// Journals, sockets and daemon state; removed after the run.
    pub work: PathBuf,
    /// Trace records.
    pub out: PathBuf,
    pub table: BTreeMap<String, Expected>,
}

/// One finished request process.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The pool entry it ran (its argv, placeholders unresolved).
    pub entry: String,
    pub latency: Duration,
    pub cpu_ns: u64,
    pub maxrss_kib: u64,
    /// Exit code and body both matched the expected table.
    pub ok: bool,
}

/// Replace the journal placeholders with files in `dir`, deleting the
/// `{fresh}` journal so the request writes a new one.
pub fn resolve(argv: &[String], dir: &Path) -> io::Result<Vec<String>> {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let mut out = Vec::with_capacity(argv.len());
    for a in argv {
        out.push(match a.as_str() {
            "{fresh}" => {
                match std::fs::remove_file(dir.join("fresh.jrnl")) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
                path("fresh.jrnl")
            }
            "{done}" => path("done.jrnl"),
            _ => a.clone(),
        });
    }
    Ok(out)
}

/// Whether a request printed exactly what the table expects.
pub fn matches(table: &BTreeMap<String, Expected>, key: &str, code: i32, stdout: &[u8]) -> bool {
    let Some(want) = table.get(key) else {
        return false;
    };
    code == want.exit
        && std::str::from_utf8(stdout)
            .ok()
            .and_then(body_of)
            .is_some_and(|b| b == want.body)
}

/// Spawn `miniperf <argv>`, capture stdout, reap it.
pub fn spawn_capture(bin: &Path, argv: &[String]) -> io::Result<(Vec<u8>, sys::Exit)> {
    let mut child = Command::new(bin)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    if let Err(e) = read {
        let _ = sys::signal(child.id(), sys::SIGKILL);
        let _ = sys::wait_child(child.id());
        return Err(e);
    }
    Ok((stdout, sys::wait_child(child.id())?))
}

/// Run one request: `dir` holds its journals (and the daemon socket
/// for a `submit`).
fn request(env: &Env, dir: &Path, spec: &Spec) -> io::Result<Outcome> {
    let mut argv = resolve(&spec.argv, dir)?;
    if spec.is_submit() {
        argv.push("--socket".into());
        argv.push(dir.join("mp.sock").to_string_lossy().into_owned());
    }
    let t0 = Instant::now();
    let (stdout, exit) = spawn_capture(&env.bin, &argv)?;
    let latency = t0.elapsed();
    Ok(Outcome {
        entry: spec.argv.join(" "),
        latency,
        cpu_ns: exit.cpu_ns,
        maxrss_kib: exit.maxrss_kib,
        ok: matches(&env.table, &spec.expect, exit.code, &stdout),
    })
}

/// Every client sends its next request when the previous one returns,
/// until `seconds` have passed. Returns the outcomes and the window's
/// wall time (first send to last completion).
fn closed_loop(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> io::Result<(Vec<Outcome>, Duration)> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<io::Result<Vec<Outcome>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients())
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for spec in Sequence::new(w, seed, c) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        out.push(request(env, dir, &spec)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = t0.elapsed();
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok((all, window))
}

/// A `miniperf serve` child; killed and reaped if dropped while live.
struct Daemon {
    pid: u32,
    dir: PathBuf,
    live: bool,
}

impl Daemon {
    /// Start a daemon with fresh state and cache directories in `dir`;
    /// returns it with the time from spawn until its socket answered a
    /// protocol handshake.
    fn start(bin: &Path, dir: PathBuf) -> io::Result<(Daemon, Duration)> {
        std::fs::create_dir_all(&dir)?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(dir.join("mp.sock"))
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .args(["--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let daemon = Daemon {
            pid: child.id(),
            dir,
            live: true,
        };
        let socket = daemon.dir.join("mp.sock");
        while handshake(&socket).is_err() {
            if t0.elapsed() > Duration::from_secs(10) {
                return Err(io::Error::other("serve daemon did not answer within 10 s"));
            }
            thread::sleep(Duration::from_micros(20));
        }
        Ok((daemon, t0.elapsed()))
    }

    /// SIGTERM (graceful drain) and reap.
    fn stop(mut self) -> io::Result<sys::Exit> {
        self.live = false;
        sys::signal(self.pid, sys::SIGTERM)?;
        sys::wait_child(self.pid)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.live {
            let _ = sys::signal(self.pid, sys::SIGKILL);
            let _ = sys::wait_child(self.pid);
        }
    }
}

fn handshake(socket: &Path) -> Result<(), String> {
    let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let session =
        ClientSession::connect(BufReader::new(read_half), stream).map_err(|e| e.to_string())?;
    session.shutdown().map_err(|e| e.to_string())
}

/// One end-to-end run of workload `w`.
pub fn run(env: &Env, w: Workload, seed: u64, seconds: f64) -> io::Result<Report> {
    let mut setups = Vec::new();
    let mut setup_ok = true;
    let (outcomes, window, daemon_cpu_ns, daemon_rss_kib) = if w == Workload::ServeWarm {
        let mut daemon = None;
        for i in 0..DAEMON_STARTS {
            let (d, t) = Daemon::start(&env.bin, env.work.join(format!("d{i}")))?;
            setups.push(t.as_secs_f64());
            if let Some(old) = daemon.replace(d) {
                setup_ok &= old.stop()?.code == 0;
            }
        }
        let daemon = daemon.expect("at least one daemon start");
        for spec in warmup(w) {
            setup_ok &= request(env, &daemon.dir, &spec)?.ok;
        }
        let cpu0 = sys::proc_cpu_ns(daemon.pid)?;
        let (outcomes, window) = closed_loop(env, w, seed, seconds, &daemon.dir)?;
        let cpu = sys::proc_cpu_ns(daemon.pid)? - cpu0;
        let rss = sys::proc_peak_rss_kib(daemon.pid)?;
        setup_ok &= daemon.stop()?.code == 0;
        (outcomes, window, cpu, rss)
    } else {
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            for spec in warmup(w) {
                setup_ok &= request(env, &env.work, &spec)?.ok;
            }
            setups.push(t0.elapsed().as_secs_f64());
        }
        let (outcomes, window) = closed_loop(env, w, seed, seconds, &env.work)?;
        (outcomes, window, 0, 0)
    };

    let attempted = outcomes.len();
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let done: Vec<&Outcome> = outcomes.iter().filter(|o| o.ok).collect();
    let completed = done.len().max(1);
    let ms = |o: &Outcome| o.latency.as_secs_f64() * 1e3;
    let mut by_entry: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in &done {
        by_entry.entry(&o.entry).or_default().push(ms(o));
    }
    // Every pool entry weighs the same however many of its requests
    // fit in the window, so where the window cuts the last deck does
    // not move the figures.
    let weight = |o: &Outcome| 1.0 / (by_entry[o.entry.as_str()].len() * by_entry.len()) as f64;
    let mut lat: Vec<(f64, f64)> = done.iter().map(|o| (ms(o), weight(o))).collect();
    lat.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tail_pct = tail_percentile(lat.len());
    let client_cpu_ns: f64 = done.iter().map(|o| o.cpu_ns as f64 * weight(o)).sum();
    let cpu_ms = client_cpu_ns / 1e6 + daemon_cpu_ns as f64 / 1e6 / completed as f64;
    let peak_kib = outcomes
        .iter()
        .map(|o| o.maxrss_kib)
        .max()
        .unwrap_or(0)
        .max(daemon_rss_kib);

    let metrics = vec![
        Metric::new("latency_p50_ms", quantile(&lat, 50.0), "ms"),
        Metric::new("latency_tail_ms", quantile(&lat, tail_pct), "ms"),
        Metric::new(
            "throughput_rps",
            done.len() as f64 / window.as_secs_f64(),
            "1/s",
        ),
        Metric::new("cpu_ms_per_request", cpu_ms, "ms"),
        Metric::new("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB"),
        Metric::new("setup_s", median(&setups), "s"),
    ];
    let meta = vec![
        ("requests".into(), attempted.to_string()),
        (
            "error_rate".into(),
            format!("{}", failed as f64 / attempted.max(1) as f64),
        ),
        ("tail_percentile".into(), format!("{tail_pct:.2}")),
        ("tail_requests_beyond".into(), TAIL_BEYOND.to_string()),
        ("clients".into(), w.clients().to_string()),
        (
            "entry_p50_ms".into(),
            format!(
                "{{{}}}",
                by_entry
                    .iter()
                    .map(|(e, v)| format!("{}: {:.3}", json_str(e), median(v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("window_s".into(), format!("{:.3}", window.as_secs_f64())),
        ("setup_ok".into(), setup_ok.to_string()),
    ];
    Ok(Report {
        correct: failed == 0 && setup_ok && attempted > 0,
        attempted,
        failed,
        metrics,
        meta,
    })
}

/// The highest percentile of `n` requests with at least
/// [`TAIL_BEYOND`] of them beyond it (100 when the run is too short).
pub fn tail_percentile(n: usize) -> f64 {
    if n <= TAIL_BEYOND {
        100.0
    } else {
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64
    }
}

/// Percentile `pct` of `(value, weight)` pairs sorted by value: the
/// first value whose cumulative weight reaches `pct`% of the total.
pub fn quantile(sorted: &[(f64, f64)], pct: f64) -> f64 {
    let total: f64 = sorted.iter().map(|(_, w)| w).sum();
    let mut acc = 0.0;
    for (v, w) in sorted {
        acc += w;
        if acc >= total * pct / 100.0 * (1.0 - 1e-12) {
            return *v;
        }
    }
    sorted.last().map_or(0.0, |(v, _)| *v)
}
