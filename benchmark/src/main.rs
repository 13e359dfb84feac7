//! The repo's benchmark. See `README.md` beside this package for the metric
//! tables, why each workload exists and how to read the waterfall.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run, one result line
//! benchmark [--seed S] [--seconds T] [--out PATH]            every workload, both passes
//! benchmark --smoke                                          ~1/20 size self-check
//! benchmark --repeat-check [--seed S]                        two sets of runs, gap vs bound
//! benchmark --emit-spec                                      what BENCHMARK.json must hold
//! ```
//!
//! (`benchmark` = `cargo run --release --manifest-path benchmark/Cargo.toml --`,
//! from the repo root.) A run prints a readable account and then, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. It exits non-zero when any verified answer differs from the
//! `linear_knn` oracle or any outcome is not clean.

mod harness;
mod json;
mod layers;
mod peel;
mod refscan;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Value;
use refscan::RefScan;
use spec::{Metric, DETERMINISTIC, END_TO_END, PER_LAYER, RUN_SECONDS};
use trace::Tracer;
use workloads::{Kind, Workload};

/// Dataset divisor and timings of `--smoke`.
const SMOKE_SHRINK: usize = 20;
const SMOKE_E2E_SECONDS: f64 = 0.3;
const SMOKE_TRACED_SECONDS: f64 = 1.0;
/// Share of a traced run spent in the client loop; the rest goes to probes.
const TRACED_CLIENT_SHARE: f64 = 0.25;

struct Run {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// 1/20-size datasets and a single round.
    smoke: bool,
}

/// The result of one run: the pass's declared metrics by name, and the verdict.
struct Outcome {
    declared: &'static [Metric],
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn line(&self) -> Value {
        let metrics = self
            .declared
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied().unwrap_or(f64::NAN);
                (
                    m.name.to_string(),
                    Value::obj([("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
                )
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// Where trace files go: beside the build, inside the checkout.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn run_one(r: &Run) -> Outcome {
    let name = r.kind.name();
    let started = Instant::now();
    let t = Instant::now();
    let (shrink, rounds) = if r.smoke { (SMOKE_SHRINK, 1) } else { (1, harness::ROUNDS) };
    let window_seconds =
        if r.trace { r.seconds * TRACED_CLIENT_SHARE } else { r.seconds / rounds as f64 };
    let window = Duration::from_secs_f64(window_seconds);
    let mut w = Workload::generate(r.kind, r.seed, shrink, window_seconds);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    w.build_oracle();
    let rs = RefScan::new(w.points.as_flat(), w.points.dims(), w.stream.as_flat());
    let mut tr = Tracer::new(false);
    let mut metrics = BTreeMap::new();
    let mut log = String::new();

    let samples = if r.trace {
        let s = harness::measure(&mut w, &rs, 1, window, &mut tr, true);
        harness::client_view(&s, &mut metrics);
        metrics.insert("data.generate_ms", generate_ms);
        let sim = w.sim_replay();
        tr.set_enabled(true);
        let budget = Duration::from_secs_f64(r.seconds * (1.0 - TRACED_CLIENT_SHARE));
        let drift = metrics["client.ref_drift_frac"];
        layers::run(&w, &sim, budget, drift, &mut tr, &mut metrics, &mut log);
        tr.set_enabled(false);
        s
    } else {
        let s = harness::measure(&mut w, &rs, rounds, window, &mut tr, false);
        harness::end_to_end(&s, &mut metrics, &mut log);
        let sim = w.sim_replay();
        metrics.insert("sim_response_ms", sim.report.avg_response_ms);
        metrics.insert("sim_accessed_mb", sim.report.avg_accessed_mb);
        metrics.insert("index_bytes_per_point", w.index_bytes_per_point());
        metrics.insert("peak_rss_mb", harness::peak_rss_mb());
        s
    };

    let declared: &'static [Metric] = if r.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "== {name}  seed {}  {} pass  {:.1} s measured, {:.1} s in all  ({} batches, {} queries verified, {} failed)",
        r.seed,
        if r.trace { "traced" } else { "end-to-end" },
        r.seconds,
        started.elapsed().as_secs_f64(),
        samples.batch_s.len(),
        samples.verified,
        samples.failed,
    );
    for m in declared {
        let v = metrics.get(m.name).copied().unwrap_or(f64::NAN);
        println!("  {:<36} {:>16.6} {}", m.name, v, m.unit);
    }
    print!("{log}");
    if r.trace {
        let dir = trace_dir();
        let path = dir.join(format!("{name}.trace.jsonl"));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(tr.spans())))
        {
            Ok(()) => println!("trace: {} spans -> {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        println!("spans by entry point (calls, total ms, self ms):");
        for (span, (calls, total, own)) in trace::self_times(tr.spans()) {
            println!(
                "  {span:<36} {calls:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    Outcome { declared, metrics, attempted: samples.verified, failed: samples.failed }
}

// ---- command line -------------------------------------------------------------

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    smoke: bool,
    repeat_check: bool,
    emit_spec: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--out PATH]\n\
         \x20      benchmark --smoke | --repeat-check [--seed N] | --emit-spec\n\
         workloads: {}",
        Kind::ALL.map(Kind::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = Some(it.next()?.parse().ok()?),
            "--seconds" => a.seconds = Some(it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?),
            "--trace" => {
                a.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                });
            }
            "--out" => a.out = Some(it.next()?),
            "--smoke" => a.smoke = true,
            "--repeat-check" => a.repeat_check = true,
            "--emit-spec" => a.emit_spec = true,
            _ => return None,
        }
    }
    Some(a)
}

/// Runs one workload in a child process (so `VmHWM` is that workload's own)
/// and parses the result line. The child's account is echoed.
fn spawn_run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (account, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    println!("{account}");
    let line = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    if !out.status.success() || line.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{}: run failed or answers differ from the oracle", kind.name()));
    }
    Ok(line)
}

/// Value of metric `m` in a workload's `(end-to-end line, traced line)` pair:
/// gated metrics come from the first, per-layer ones from the second.
fn metric_value(pair: &(Value, Value), m: &Metric) -> Option<f64> {
    let line = if m.bound.is_some() { &pair.0 } else { &pair.1 };
    line.get("metrics")?.get(m.name)?.get("value")?.as_f64()
}

/// One full set: every workload, end-to-end pass then traced pass.
fn run_set(seed: u64, seconds: f64) -> Result<BTreeMap<&'static str, (Value, Value)>, String> {
    let mut set = BTreeMap::new();
    for kind in Kind::ALL {
        let e2e = spawn_run(kind, seed, seconds, false)?;
        let layers = spawn_run(kind, seed, seconds, true)?;
        set.insert(kind.name(), (e2e, layers));
    }
    Ok(set)
}

fn run_all(seed: u64, seconds: f64, out: Option<&str>) -> Result<(), String> {
    let started = Instant::now();
    let set = run_set(seed, seconds)?;
    println!("\n== summary (seed {seed})");
    println!("  {:<24} {}", "metric", Kind::ALL.map(|k| format!("{:>20}", k.name())).join(""));
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let cells = Kind::ALL
            .map(|k| format!("{:>20.5}", metric_value(&set[k.name()], m).unwrap_or(f64::NAN)));
        println!("  {:<24} {} {}", m.name, cells.join(""), m.unit);
    }
    println!("all workloads, both passes: {:.0} s", started.elapsed().as_secs_f64());
    if let Some(path) = out {
        let doc = Value::Obj(
            set.into_iter()
                .map(|(k, (e2e, layers))| {
                    (k.to_string(), Value::obj([("end_to_end", e2e), ("per_layer", layers)]))
                })
                .collect(),
        );
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Two full sets of runs of this binary at one seed. Every gated metric's
/// second value may differ from its first by at most its bound (either way:
/// a second set that reads *better* by more than the bound is just as much a
/// benchmark that cannot tell a change from noise); deterministic metrics
/// must be equal bit for bit.
fn repeat_check(seed: u64, seconds: f64) -> Result<(), String> {
    let a = run_set(seed, seconds)?;
    let b = run_set(seed, seconds)?;
    let mut bad = Vec::new();
    println!("\n== repeat check (seed {seed}): first set, second set, relative gap, bound");
    for kind in Kind::ALL {
        let (first, second) = (&a[kind.name()], &b[kind.name()]);
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(x), Some(y)) = (metric_value(first, m), metric_value(second, m)) else {
                bad.push(format!("{} {}: missing", kind.name(), m.name));
                continue;
            };
            let bit_equal = x.to_bits() == y.to_bits();
            if DETERMINISTIC.contains(&m.name) && !bit_equal {
                bad.push(format!("{} {}: deterministic, yet {x} != {y}", kind.name(), m.name));
            }
            let Some(bound) = m.bound else { continue };
            let gap = (y - x).abs() / x.abs();
            let verdict = match (bit_equal, gap <= bound) {
                (true, _) => "bit-equal",
                (false, true) => "ok",
                (false, false) => {
                    bad.push(format!("{} {}: gap {gap:.4} > bound {bound}", kind.name(), m.name));
                    "EXCEEDS BOUND"
                }
            };
            println!(
                "  {:<20} {:<24} {x:>14.6} {y:>14.6} {gap:>8.4} {bound:>7.3}  {verdict}",
                kind.name(),
                m.name,
            );
        }
    }
    if bad.is_empty() {
        println!("repeat check: every gap within its bound, deterministic metrics bit-equal");
        Ok(())
    } else {
        Err(format!("repeat check failed:\n  {}", bad.join("\n  ")))
    }
}

/// The committed `BENCHMARK.json`: at the root of the checkout, which is the
/// working directory when the benchmark runs by its declared command.
fn read_benchmark_json() -> Result<Value, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates.iter().find(|p| p.exists()).ok_or("BENCHMARK.json not found")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks one emitted result line against the declared metric list.
fn validate_line(line: &Value, declared: &[Metric], what: &str) -> Result<(), String> {
    // Through text and back: what is checked is what a reader of stdout gets.
    let line = json::parse(&line.render()).map_err(|e| format!("{what}: emitted line: {e}"))?;
    let Value::Obj(fields) = &line else {
        return Err(format!("{what}: not an object"));
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("{what}: keys {keys:?}"));
    }
    if line.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{what}: answers differ from the oracle"));
    }
    if line.get("attempted").and_then(Value::as_f64).is_none_or(|n| n < 1.0) {
        return Err(format!("{what}: nothing attempted"));
    }
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        return Err(format!("{what}: no metrics object"));
    };
    if metrics.len() != declared.len() {
        return Err(format!("{what}: {} metrics, {} declared", metrics.len(), declared.len()));
    }
    for m in declared {
        let ok_name = m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        let entry = metrics.get(m.name).ok_or(format!("{what}: {} missing", m.name))?;
        let value = entry.get("value").and_then(Value::as_f64);
        if !ok_name || value.is_none_or(|v| !v.is_finite()) {
            return Err(format!("{what}: {} = {value:?} is not a finite number", m.name));
        }
        if entry.get("unit").and_then(Value::as_str) != Some(m.unit) {
            return Err(format!("{what}: {} has the wrong unit", m.name));
        }
        if m.bound.is_some() && value == Some(0.0) {
            return Err(format!("{what}: gated metric {} is zero", m.name));
        }
    }
    Ok(())
}

/// All four workloads at ~1/20 size, one round, both passes, twice: checks
/// the emitted lines against `BENCHMARK.json` and the deterministic metrics
/// against each other.
fn smoke(seed: u64) -> Result<(), String> {
    let started = Instant::now();
    if read_benchmark_json()? != spec::benchmark_json() {
        return Err("BENCHMARK.json differs from the benchmark's declared spec; \
                    regenerate it with --emit-spec"
            .to_string());
    }
    for kind in Kind::ALL {
        let mut repeats = Vec::new();
        for _ in 0..2 {
            let mut both = BTreeMap::new();
            for (trace, seconds) in [(false, SMOKE_E2E_SECONDS), (true, SMOKE_TRACED_SECONDS)] {
                let outcome = run_one(&Run { kind, seed, seconds, trace, smoke: true });
                validate_line(&outcome.line(), outcome.declared, kind.name())?;
                both.extend(outcome.metrics);
            }
            repeats.push(both);
        }
        for name in DETERMINISTIC {
            let (x, y) = (repeats[0][name], repeats[1][name]);
            if x.to_bits() != y.to_bits() {
                return Err(format!("{}: {name} is not deterministic: {x} vs {y}", kind.name()));
            }
        }
        let path = trace_dir().join(format!("{}.trace.jsonl", kind.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spans = trace::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let well_formed = spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.end_ns >= s.start_ns && s.parent.is_none_or(|p| (p as usize) < i));
        if spans.is_empty() || !well_formed {
            return Err(format!("{}: trace file is empty or malformed", path.display()));
        }
    }
    println!("smoke: ok in {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let result = if args.emit_spec {
        println!("{}", spec::benchmark_json().render());
        Ok(())
    } else if args.smoke {
        smoke(seed)
    } else if args.repeat_check {
        repeat_check(seed, seconds)
    } else if let Some(name) = &args.workload {
        let (Some(kind), Some(trace)) = (Kind::from_name(name), args.trace) else { return usage() };
        let outcome = run_one(&Run { kind, seed, seconds, trace, smoke: false });
        println!("{}", outcome.line().render());
        if outcome.failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{name}: {} of {} verified answers failed",
                outcome.failed, outcome.attempted
            ))
        }
    } else {
        run_all(seed, seconds, args.out.as_deref())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
