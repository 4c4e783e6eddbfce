//! Plumbing every workload shares: the run context, set-up timing,
//! one-sample child processes, and the traced/untraced alternation.

use crate::stats::{median, Outcomes};
use crate::sys::{self, ChildSample};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed samples a batch workload takes, however long they run,
/// so every median has at least five values under it.
const MIN_BATCH_SAMPLES: usize = 5;

/// Set-ups a run times before its samples; `setup_s` is their median.
const SETUP_RUNS: usize = 5;

/// A set-up shorter than this is timed in batches this long, so that
/// microsecond set-ups are not lost in timer and scheduling jitter.
const SETUP_BATCH_S: f64 = 0.02;

/// One invocation's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Thread count passed to the program (the host's core count).
    pub threads: usize,
    /// Per-run directory for inputs and sample outputs.
    pub work: PathBuf,
}

/// One named metric with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// What an untraced run measured.
pub struct Measured {
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed operation.
    pub op_s: Vec<f64>,
    /// Peak resident set of each one-sample child, MiB.
    pub rss_mb: Vec<f64>,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Input sizes, by name.
    pub sizes: Vec<(&'static str, u64)>,
    /// The workload's own end-to-end metrics (throughputs, latencies).
    pub named: Vec<Metric>,
}

/// What a traced run measured: the workload's per-layer values.
pub struct Traced {
    /// Per-layer metric values, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Summary of the traced/untraced alternation.
    pub run: TraceLoop,
    /// Input sizes, by name.
    pub sizes: Vec<(&'static str, u64)>,
}

/// Times one set-up, returning its seconds and its result. A set-up
/// faster than [`SETUP_BATCH_S`] is timed again, call by call after
/// discarding the first, until the timed calls add up to that long, and
/// reported as their mean. Each result but the last is dropped at once
/// and outside the timing, so the calls reuse memory: holding thousands
/// of results would time page faults on fresh memory instead.
pub fn time_setup<T>(setup: &mut impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let t = Instant::now();
    let first = setup()?;
    let once = sys::secs(t);
    if once >= SETUP_BATCH_S {
        return Ok((once, first));
    }
    drop(first);
    let (mut timed, mut calls) = (0.0, 0u32);
    loop {
        let t = Instant::now();
        let made = setup()?;
        timed += sys::secs(t);
        calls += 1;
        if timed >= SETUP_BATCH_S {
            return Ok((timed / f64::from(calls), made));
        }
    }
}

/// Times [`SETUP_RUNS`] set-ups one after another (at least `keep`),
/// set-up `i` made by `setup(i)`, and returns their seconds with the
/// results of the first `keep` (at least one), which the samples then
/// use; the others are dropped outside the timing.
pub fn timed_setups<T>(
    keep: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<f64>, Vec<T>), String> {
    let keep = keep.max(1);
    let mut setup_s = Vec::new();
    let mut kept = Vec::new();
    for i in 0..SETUP_RUNS.max(keep) {
        let (secs, made) = time_setup(&mut || setup(i))?;
        setup_s.push(secs);
        if i < keep {
            kept.push(made);
        }
    }
    Ok((setup_s, kept))
}

/// What a batch workload's timed phase measured.
pub struct Samples {
    /// What each successful child measured.
    pub children: Vec<ChildSample>,
    /// Samples attempted and failed.
    pub outcomes: Outcomes,
}

impl Samples {
    /// Seconds of each successful sample's timed operation.
    pub fn op_s(&self) -> Vec<f64> {
        self.children.iter().map(|s| s.op_s).collect()
    }

    /// The run's measurements, with its set-up times and the workload's
    /// own metrics.
    pub fn into_measured(
        self,
        setup_s: Vec<f64>,
        sizes: Vec<(&'static str, u64)>,
        named: Vec<Metric>,
    ) -> Measured {
        Measured {
            op_s: self.op_s(),
            rss_mb: self.children.iter().map(|s| s.rss_mb).collect(),
            setup_s,
            outcomes: self.outcomes,
            sizes,
            named,
        }
    }
}

/// `count` per second of each operation, as the median over operations.
pub fn per_second(name: &'static str, unit: &'static str, count: usize, op_s: &[f64]) -> Metric {
    let rates: Vec<f64> = op_s.iter().map(|s| count as f64 / s).collect();
    Metric {
        name,
        value: median(&rates).unwrap_or(0.0),
        unit,
        samples: rates.len(),
    }
}

/// One input the samples of a batch run take in turn: the seed and
/// arguments its child runs with, and the output it must write.
pub struct SampleInput {
    /// The child's `--seed`.
    pub seed: u64,
    /// Arguments after the child's `--child <path>`.
    pub args: Vec<String>,
    /// What the child must write, byte for byte.
    pub expected: Vec<u8>,
}

/// Runs one-sample children until `seconds` elapsed and at least
/// [`MIN_BATCH_SAMPLES`] ran, sample `k` on input `k mod inputs.len()`.
/// Each child writes its output to a file, which must equal its input's
/// `expected`; a child that fails or differs counts as a failed
/// operation.
pub fn child_samples(ctx: &Ctx, seconds: f64, inputs: &[SampleInput]) -> Result<Samples, String> {
    let started = Instant::now();
    let mut children = Vec::new();
    let mut outcomes = Outcomes::default();
    while children.len() < MIN_BATCH_SAMPLES || sys::secs(started) < seconds {
        let input = inputs
            .get(outcomes.attempted as usize % inputs.len().max(1))
            .ok_or("no sample input")?;
        let artifact = ctx.work.join(format!("sample-{}.out", outcomes.attempted));
        let result = sys::spawn_child(ctx.workload, input.seed, &artifact, &input.args);
        let output = std::fs::read(&artifact).unwrap_or_default();
        let _ = std::fs::remove_file(&artifact);
        match result {
            Ok(sample) => {
                outcomes.record(output == input.expected);
                children.push(sample);
            }
            Err(e) => {
                eprintln!("{}: {e}", ctx.workload);
                outcomes.record(false);
                if outcomes.failed >= 3 && children.is_empty() {
                    return Err(format!("{}: every sample failed: {e}", ctx.workload));
                }
            }
        }
    }
    Ok(Samples { children, outcomes })
}

/// Summary of a traced run's alternation of untraced and traced passes.
pub struct TraceLoop {
    /// Median self seconds of each span name across traced passes.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Median across traced passes of each value the pass returned.
    pub values: BTreeMap<&'static str, f64>,
    /// Median share of a traced pass's wall time covered by layer spans.
    pub coverage: f64,
    /// Traced pass median over untraced pass median, minus one, in %.
    pub overhead_pct: f64,
    /// Process CPU seconds ÷ wall seconds over all passes.
    pub cpu_per_wall: f64,
    /// Passes attempted and failed (traced and untraced).
    pub outcomes: Outcomes,
    /// Traced passes run.
    pub traced: usize,
}

/// What one pass of a traced run returns: whether its output checked
/// out, and the counter values it read.
pub type PassResult = Result<(bool, Vec<(&'static str, f64)>), String>;

/// The root span wrapping one traced pass.
const SAMPLE_SPAN: &str = "sample";

/// Alternates untraced and traced passes of `pass` until `ctx.seconds`
/// elapsed (at least one of each). `pass` gets the tracer to span its
/// layer calls with and returns whether its output checked out, plus any
/// counter values it read. Spans are written to the work directory's
/// parent when the loop ends.
pub fn alternate(
    ctx: &Ctx,
    mut pass: impl FnMut(&Tracer) -> PassResult,
) -> Result<TraceLoop, String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut outcomes = Outcomes::default();
    let started = Instant::now();
    let cpu_start = sys::cpu_seconds();
    while traced_s.is_empty() || sys::secs(started) < ctx.seconds {
        let t = Instant::now();
        let (ok, _) = pass(&off)?;
        untraced_s.push(sys::secs(t));
        outcomes.record(ok);

        on.set_sample(traced_s.len() as u64);
        let t = Instant::now();
        let (ok, got) = on.span(SAMPLE_SPAN, || pass(&on))?;
        traced_s.push(sys::secs(t));
        outcomes.record(ok);
        for (name, v) in got {
            values.entry(name).or_default().push(v);
        }
    }
    let cpu_per_wall = (sys::cpu_seconds() - cpu_start) / sys::secs(started);

    let spans = on.spans();
    let per_sample = trace::self_seconds_by_sample(&spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut covered = vec![0.0; traced_s.len()];
    for (&(sample, name), &s) in &per_sample {
        by_name.entry(name).or_default().push(s);
        if name != SAMPLE_SPAN {
            covered[sample as usize] += s;
        }
    }
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == SAMPLE_SPAN)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    let coverage: Vec<f64> = covered
        .iter()
        .zip(&roots)
        .map(|(c, r)| c / r.max(f64::MIN_POSITIVE))
        .collect();

    let spans_path = ctx
        .work
        .with_file_name(format!("spans-{}-seed{}.json", ctx.workload, ctx.seed));
    std::fs::write(&spans_path, trace::to_json(&spans))
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(TraceLoop {
        self_s: by_name.iter().map(|(k, v)| (*k, med(v))).collect(),
        values: values.iter().map(|(k, v)| (*k, med(v))).collect(),
        coverage: med(&coverage),
        overhead_pct: (med(&traced_s) / med(&untraced_s) - 1.0) * 100.0,
        cpu_per_wall,
        outcomes,
        traced: traced_s.len(),
    })
}

impl TraceLoop {
    /// Median self seconds of span `name` (0 when it never ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Median of pass value `name` (0 when never returned).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// A CSV written by a set-up, removed when dropped. Each set-up writes a
/// fresh file: rewriting one path would time the truncation of the
/// previous copy's cached pages, which no user of the program pays.
pub struct InputFile(pub PathBuf);

impl InputFile {
    /// The child arguments naming this file.
    pub fn child_args(&self) -> Vec<String> {
        vec!["--input".to_owned(), self.0.to_string_lossy().into_owned()]
    }
}

impl Drop for InputFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Reads a child's input path argument.
pub fn input_arg(extra: &[String]) -> Result<&Path, String> {
    match extra {
        [flag, path, ..] if flag == "--input" => Ok(Path::new(path)),
        _ => Err("child needs --input <path>".to_owned()),
    }
}
