//! The FeBiM serving benchmark: four closed-loop workloads, each measured
//! end to end from the client's side with tracing off, or broken down layer
//! by layer in a separate traced run.
//!
//! Every run checks every served answer against a dedicated engine's
//! sequential `infer_into` (prediction, tie-break, modelled delay and
//! energy, bit for bit). A mismatch makes the run incorrect; it is never a
//! metric. See `BENCHMARK.json` for the workloads and metrics and
//! `perfbench/layers.json` for which end-to-end metric each layer metric
//! should move, on which workload.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

use febim_core::{json, FebimEngine, InferenceBackend, InferenceStep, ServeOutcome};
use febim_data::rng::{permutation, seeded_rng};
use febim_data::split::{stratified_split, TrainTestSplit};
use febim_data::synthetic::{gaussian_blobs, iris_like};
use febim_data::Dataset;
use rand::rngs::StdRng;

pub mod host;
pub mod samples;
pub mod trace;

mod churn;
mod layers;
mod replica;

use host::Host;
use samples::Samples;

/// Errors that stop a run before it can report.
pub type Fallible<T> = Result<T, Box<dyn Error>>;

/// End-to-end metrics (`--trace 0`): name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("served_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy", "ratio"),
    ("modelled_delay_ns", "sim-ns"),
    ("modelled_energy_fj", "fJ"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serving.latency_p99_us", "us"),
    ("serving.submit_us", "us"),
    ("serving.dispatch_us", "us"),
    ("serving.batch_us", "us"),
    ("serving.answer_us", "us"),
    ("serving.stage_sum_ratio", "ratio"),
    ("serving.batch_size_mean", "count"),
    ("serving.amortized_energy_ratio", "ratio"),
    ("quant.discretize_ns", "ns"),
    ("crossbar.read_ns", "ns"),
    ("crossbar.activated_columns", "count"),
    ("crossbar.cache_rebuilds", "count"),
    ("crossbar.plane_read_ns", "ns"),
    ("circuit.sense_ns", "ns"),
    ("circuit.modelled_array_delay_ns", "sim-ns"),
    ("circuit.modelled_sense_delay_ns", "sim-ns"),
    ("circuit.modelled_array_energy_fj", "fJ"),
    ("circuit.modelled_sense_energy_fj", "fJ"),
    ("engine.infer_ns", "ns"),
    ("registry.resident_serve_us", "us"),
    ("registry.fault_in_ms", "ms"),
    ("registry.fault_ins", "count"),
    ("registry.hit_ratio", "ratio"),
    ("registry.swaps", "count/cycle"),
    ("device.swap_pulses", "count/cycle"),
    ("device.swap_energy_nj", "nJ/cycle"),
    ("device.program_pulses", "count"),
    ("trace.overhead_p50_us", "us"),
    ("trace.throughput_ratio", "ratio"),
    ("host.calibration_ns", "ns"),
    ("host.nproc", "count"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Iris-scale one-hot monolithic engine, one request in flight: the
    /// wake path alone. A diagnostic, not in `BENCHMARK.json`: on a shared
    /// two-vCPU VM its throughput and tail swing 30% and more between runs
    /// (cross-vCPU wakes), so no bound would hold; its traced run still
    /// shows the four serving stages adding up to the client's latency.
    IrisPingpong,
    /// Fig. 6-scale one-hot monolithic engine, 32 requests in flight.
    Fig6OneHot,
    /// Fig. 6-scale 4-bit bit-plane engine on a 2x4 tile grid, 32 in flight.
    Fig6Packed,
    /// Four Fig. 6-scale tenants on a registry bank that holds three.
    TenantChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::IrisPingpong,
        Workload::Fig6OneHot,
        Workload::Fig6Packed,
        Workload::TenantChurn,
    ];

    /// The workloads `BENCHMARK.json` runs, in its order.
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::Fig6OneHot,
        Workload::Fig6Packed,
        Workload::TenantChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IrisPingpong => "iris-pingpong",
            Workload::Fig6OneHot => "fig6-onehot",
            Workload::Fig6Packed => "fig6-packed",
            Workload::TenantChurn => "tenant-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the request stream (models are fixed).
    pub seed: u64,
    /// Measured seconds (split evenly between the untraced and the traced
    /// segment in a traced run).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Fewest set-ups timed per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Seconds of set-ups to time at least (cheap set-ups repeat more).
    pub setup_seconds: f64,
    /// Unmeasured serving before each measured segment, in seconds.
    pub warmup_seconds: f64,
    /// Sequential calls per layer replay in a traced run.
    pub replay_calls: usize,
    /// Corrupt one oracle answer, so a sound output gate must fail the run.
    pub perturb_oracle: bool,
}

impl Options {
    /// A full run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            setup_repeats: 5,
            setup_seconds: 1.0,
            warmup_seconds: 0.5,
            replay_calls: 20_000,
            perturb_oracle: false,
        }
    }

    /// A run on a tiny stream: one set-up, barely any warm-up, one lap.
    pub fn short(workload: Workload, seed: u64, trace: bool) -> Self {
        Self {
            seconds: 0.05,
            setup_repeats: 1,
            setup_seconds: 0.0,
            warmup_seconds: 0.01,
            replay_calls: 1,
            ..Self::new(workload, seed, 0.05, trace)
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The options the run was made with.
    pub options: Options,
    /// Whether every served answer (and every replayed inference) matched
    /// the oracle and arrived in submission order.
    pub correct: bool,
    /// Requests attempted in the measured segments.
    pub attempted: u64,
    /// Requests refused or failed in the measured segments.
    pub failed: u64,
    /// Answers that disagreed with the oracle or arrived out of order.
    pub mismatches: u64,
    /// The first such disagreement, described.
    pub first_mismatch: Option<String>,
    /// Every metric of the run's kind, in `END_TO_END` / `PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub not_exercised: Vec<&'static str>,
    /// Latency samples behind the percentiles, per measured segment.
    pub latency_samples: Vec<u64>,
    /// Windows whose medians the end-to-end figures are, per segment.
    pub windows: Vec<usize>,
    /// Where the run was measured.
    pub host: Host,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (position, metric) in self.metrics.iter().enumerate() {
            if position > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            ));
        }
        out.push_str("}}");
        out
    }

    /// The run record: options, host envelope, sample counts and gate
    /// details, as one JSON object.
    pub fn record_line(&self) -> String {
        let mut out = String::from("{\"record\": {\"workload\": ");
        json::escape_into(self.options.workload.name(), &mut out);
        out.push_str(&format!(
            ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": ",
            self.options.seed, self.options.seconds, self.options.trace, self.host.nproc
        ));
        json::escape_into(&self.host.cpu_model, &mut out);
        out.push_str(&format!(
            ", \"calibration_ns\": {}}}, \"latency_samples\": {:?}, \"windows\": {:?}, \"mismatches\": {}, \"first_mismatch\": ",
            self.host.calibration_ns, self.latency_samples, self.windows, self.mismatches
        ));
        match &self.first_mismatch {
            Some(text) => json::escape_into(text, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(", \"not_exercised\": [");
        for (position, name) in self.not_exercised.iter().enumerate() {
            if position > 0 {
                out.push_str(", ");
            }
            json::escape_into(name, &mut out);
        }
        out.push_str("]}}");
        out
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when a model cannot be built or a pool cannot start; answers that
/// disagree with the oracle do not fail here but make the report incorrect.
pub fn run(options: &Options) -> Fallible<Report> {
    let host = Host::probe();
    let mut values = MetricValues::default();
    let mut runs = Runs::default();
    match options.workload {
        Workload::IrisPingpong => replica::run::<febim_core::CrossbarBackend>(
            &replica::Spec::iris()?,
            options,
            &mut values,
            &mut runs,
        )?,
        Workload::Fig6OneHot => replica::run::<febim_core::CrossbarBackend>(
            &replica::Spec::fig6_onehot()?,
            options,
            &mut values,
            &mut runs,
        )?,
        Workload::Fig6Packed => replica::run::<febim_core::TiledFabricBackend>(
            &replica::Spec::fig6_packed()?,
            options,
            &mut values,
            &mut runs,
        )?,
        Workload::TenantChurn => churn::run(options, &mut values, &mut runs)?,
    }
    if options.trace {
        values.set("host.calibration_ns", host.calibration_ns);
        values.set("host.nproc", host.nproc as f64);
    } else {
        values.set(
            "peak_rss_mb",
            host::peak_rss_mb().ok_or("the OS reports no memory high-water mark")?,
        );
    }
    let (metrics, not_exercised) = values.finish(options.trace)?;
    Ok(Report {
        options: options.clone(),
        correct: runs.mismatches == 0,
        attempted: runs.attempted,
        failed: runs.failed,
        mismatches: runs.mismatches,
        first_mismatch: runs.first_mismatch,
        metrics,
        not_exercised,
        latency_samples: runs.latency_samples,
        windows: runs.windows,
        host,
    })
}

/// Metric values collected by a workload, by name.
#[derive(Default)]
pub(crate) struct MetricValues(BTreeMap<&'static str, f64>);

impl MetricValues {
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Orders the values by the spec of the run's kind. End-to-end metrics
    /// must all be present; a per-layer metric the workload does not
    /// exercise reads 0 and is listed. Every value must be finite.
    fn finish(self, trace: bool) -> Fallible<(Vec<Metric>, Vec<&'static str>)> {
        let spec = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(spec.len());
        let mut not_exercised = Vec::new();
        for &(name, unit) in spec {
            let value = match self.0.get(name) {
                Some(&value) => value,
                None if trace => {
                    not_exercised.push(name);
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured").into()),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}").into());
            }
            metrics.push(Metric { name, value, unit });
        }
        Ok((metrics, not_exercised))
    }
}

/// Request and gate accounting across a run's measured segments.
#[derive(Default)]
pub(crate) struct Runs {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) mismatches: u64,
    pub(crate) first_mismatch: Option<String>,
    pub(crate) latency_samples: Vec<u64>,
    pub(crate) windows: Vec<usize>,
}

impl Runs {
    pub(crate) fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    /// Folds a measured segment in.
    pub(crate) fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.latency_samples.push(tally.latency.count());
        self.windows.push(tally.windows.len());
    }
}

// ---------------------------------------------------------------------------
// Models, streams and the oracle
// ---------------------------------------------------------------------------

/// Fraction of each class held out as the test split (the repository's
/// convention for its serving benches).
const TEST_RATIO: f64 = 0.7;

/// The iris-like model's data (fixed seed).
pub(crate) fn iris_split() -> Fallible<TrainTestSplit> {
    const SEED: u64 = 7;
    Ok(stratified_split(
        &iris_like(SEED)?,
        TEST_RATIO,
        &mut seeded_rng(SEED),
    )?)
}

/// Fig. 6-scale data: 64 classes x 32 features, a 64x512 one-hot layout.
pub(crate) fn fig6_split(seed: u64) -> Fallible<TrainTestSplit> {
    let dataset = gaussian_blobs(64, 32, 12, 3.0, &mut seeded_rng(seed))?;
    Ok(stratified_split(
        &dataset,
        TEST_RATIO,
        &mut seeded_rng(seed),
    )?)
}

/// Seed of the first Fig. 6 model (the tenants use the next ones).
pub(crate) const FIG6_SEED: u64 = 4242;

/// Test-split indices in laps: each lap is a fresh seeded permutation of
/// every index, so whole laps serve every test sample equally often.
pub(crate) struct LapStream {
    rng: StdRng,
    len: usize,
    order: Vec<usize>,
    position: usize,
}

impl LapStream {
    pub(crate) fn new(seed: u64, len: usize) -> Self {
        Self {
            rng: seeded_rng(seed),
            len,
            order: Vec::new(),
            position: 0,
        }
    }

    /// The next test index.
    pub(crate) fn next_index(&mut self) -> usize {
        if self.at_lap_end() {
            self.order = permutation(&mut self.rng, self.len);
            self.position = 0;
        }
        self.position += 1;
        self.order[self.position - 1]
    }

    /// Whether the last index handed out closed a lap (or none was yet).
    pub(crate) fn at_lap_end(&self) -> bool {
        self.position == self.order.len()
    }
}

/// The dedicated engine's sequential answers for every test sample.
pub(crate) struct Oracle {
    pub(crate) steps: Vec<InferenceStep>,
    pub(crate) labels: Vec<usize>,
    pub(crate) fingerprints: Vec<u64>,
}

impl Oracle {
    /// Runs `engine.infer_into` over `test` in index order. With `perturb`,
    /// the first answer's prediction is corrupted.
    pub(crate) fn build<B: InferenceBackend>(
        engine: &FebimEngine<B>,
        test: &Dataset,
        perturb: bool,
    ) -> Fallible<Self> {
        let mut scratch = engine.make_scratch();
        let mut steps = Vec::with_capacity(test.n_samples());
        for sample in test.samples() {
            steps.push(engine.infer_into(sample, &mut scratch)?);
        }
        if perturb {
            steps[0].prediction = (steps[0].prediction + 1) % test.n_classes();
        }
        Ok(Self {
            steps,
            labels: test.labels().to_vec(),
            fingerprints: test
                .samples()
                .iter()
                .map(|s| trace::fingerprint(s))
                .collect(),
        })
    }

    /// Appends another oracle's entries (indices shift by `self.len()`).
    pub(crate) fn extend(&mut self, other: Oracle) {
        self.steps.extend(other.steps);
        self.labels.extend(other.labels);
        self.fingerprints.extend(other.fingerprints);
    }

    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether a served answer equals the oracle's bit for bit.
    pub(crate) fn matches(&self, index: usize, outcome: &ServeOutcome) -> bool {
        let step = &self.steps[index];
        outcome.prediction == step.prediction
            && outcome.tie_broken == step.tie_broken
            && outcome.delay == step.delay
            && outcome.energy == step.energy
    }

    /// Mean modelled array/sense delay (ns) and energy (fJ) per inference
    /// over the test set, in index order.
    pub(crate) fn modelled_breakdown(&self, values: &mut MetricValues) {
        let n = self.steps.len() as f64;
        let mean = |part: fn(&InferenceStep) -> f64| self.steps.iter().map(part).sum::<f64>() / n;
        values.set(
            "circuit.modelled_array_delay_ns",
            mean(|s| s.delay.array) * 1e9,
        );
        values.set(
            "circuit.modelled_sense_delay_ns",
            mean(|s| s.delay.sensing) * 1e9,
        );
        values.set(
            "circuit.modelled_array_energy_fj",
            mean(|s| s.energy.array) * 1e15,
        );
        values.set(
            "circuit.modelled_sense_energy_fj",
            mean(|s| s.energy.sensing) * 1e15,
        );
    }
}

/// Seconds of one measurement window. Throughput and latency percentiles
/// are taken per window and reported as their medians over the segment, so
/// stalls confined to a minority of windows (a descheduled vCPU, say) do
/// not move a run's figures. A window holds at least a few thousand
/// requests on every workload, so its p99 has more than ten beyond it.
pub(crate) const WINDOW_SECONDS: f64 = 0.1;

/// Latency samples kept exactly per segment and per window (4 MiB each,
/// allocated up front).
const LATENCY_CAPACITY: usize = 1 << 20;

/// One measured segment: request accounting, latencies (whole segment and
/// per window) and how often each oracle index was served.
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) served: Vec<u64>,
    /// Every latency of the segment.
    pub(crate) latency: Samples,
    window: Samples,
    window_start: Instant,
    window_completed: u64,
    /// Closed windows: throughput (1/s), p50 and p99 latency (ns).
    windows: Vec<[f64; 3]>,
}

impl Tally {
    /// An empty segment over `indices` oracle entries; its first window
    /// opens now.
    pub(crate) fn new(indices: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            served: vec![0; indices],
            latency: Samples::new(LATENCY_CAPACITY),
            window: Samples::new(LATENCY_CAPACITY),
            window_start: Instant::now(),
            window_completed: 0,
            windows: Vec::new(),
        }
    }

    /// Opens the first window (measurement starts now).
    pub(crate) fn open(&mut self) {
        self.window.clear();
        self.window_completed = 0;
        self.window_start = Instant::now();
    }

    /// Closes the open window once it has lasted `WINDOW_SECONDS`.
    pub(crate) fn roll(&mut self) {
        if seconds_since(self.window_start) >= WINDOW_SECONDS {
            self.close();
        }
    }

    /// Closes the last, partial window of a segment if it holds answers and
    /// is the only one or at least half a window long.
    pub(crate) fn finish(&mut self) {
        if self.windows.is_empty() || seconds_since(self.window_start) >= WINDOW_SECONDS / 2.0 {
            self.close();
        }
    }

    /// Closes the open window, if it holds answers, and opens the next.
    pub(crate) fn close(&mut self) {
        if self.window_completed > 0 {
            self.windows.push([
                self.window_completed as f64 / seconds_since(self.window_start),
                self.window.median_ns(),
                self.window.percentile_ns(0.99),
            ]);
        }
        self.open();
    }

    /// Books one answer: its latency, and either its oracle check or its
    /// failure.
    pub(crate) fn answer<E: std::fmt::Display>(
        &mut self,
        runs: &mut Runs,
        oracle: &Oracle,
        index: usize,
        answer: Result<ServeOutcome, E>,
        latency_ns: u64,
    ) {
        match answer {
            Ok(outcome) => {
                self.latency.push(latency_ns);
                self.window.push(latency_ns);
                self.window_completed += 1;
                self.served[index] += 1;
                if !oracle.matches(index, &outcome) {
                    runs.mismatch(format!(
                        "oracle index {index}: served {:?}/{}/{:?}/{:?}, oracle {:?}",
                        outcome.prediction,
                        outcome.tie_broken,
                        outcome.delay,
                        outcome.energy,
                        oracle.steps[index]
                    ));
                }
            }
            Err(err) => {
                self.failed += 1;
                eprintln!("request for oracle index {index} failed: {err}");
            }
        }
    }

    pub(crate) fn completed(&self) -> u64 {
        self.served.iter().sum()
    }

    fn window_median(&self, column: usize) -> f64 {
        let values: Vec<f64> = self.windows.iter().map(|window| window[column]).collect();
        samples::median(&values)
    }

    /// Median over windows of completed requests per second.
    pub(crate) fn throughput_rps(&self) -> f64 {
        self.window_median(0)
    }

    /// Median over windows of the p50 latency, in ns.
    pub(crate) fn latency_p50_ns(&self) -> f64 {
        self.window_median(1)
    }

    /// Median over windows of the p99 latency, in ns. Host interference (a
    /// descheduled vCPU, a slow cross-vCPU wake) sets most windows' p99 on a
    /// shared VM, so it moved 20-40% between runs of the same code: it is a
    /// per-layer report of the traced run, not a bounded end-to-end metric.
    pub(crate) fn latency_p99_ns(&self) -> f64 {
        self.window_median(2)
    }

    /// The end-to-end metrics this segment measures (all but `setup_s` and
    /// `peak_rss_mb`).
    pub(crate) fn end_to_end(&self, oracle: &Oracle, values: &mut MetricValues) {
        values.set("throughput_rps", self.throughput_rps());
        values.set("latency_p50_us", self.latency_p50_ns() / 1e3);
        values.set(
            "served_frac",
            self.completed() as f64 / self.attempted.max(1) as f64,
        );
        // Whole laps serve every index equally often; the plain mean in index
        // order then repeats exactly whatever the stream order or length.
        let uniform = self.served.iter().all(|&count| count == self.served[0]);
        let weight = |index: usize| {
            if uniform {
                1.0
            } else {
                self.served[index] as f64
            }
        };
        let total: f64 = (0..oracle.len()).map(weight).sum();
        let mean = |value: &dyn Fn(usize) -> f64| {
            (0..oracle.len()).map(|i| weight(i) * value(i)).sum::<f64>() / total
        };
        let correct =
            |i: usize| f64::from(u8::from(oracle.steps[i].prediction == oracle.labels[i]));
        values.set("accuracy", mean(&correct));
        values.set(
            "modelled_delay_ns",
            mean(&|i| oracle.steps[i].delay.total()) * 1e9,
        );
        values.set(
            "modelled_energy_fj",
            mean(&|i| oracle.steps[i].energy.total()) * 1e15,
        );
    }
}

/// Seconds since `start`.
pub(crate) fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Most set-ups timed in one run.
const MAX_SETUPS: usize = 2000;

/// Times `setup` at least `options.setup_repeats` times and until
/// `options.setup_seconds` have been spent, handing every result but the
/// last to `retire`. Returns the median set-up time and the last result.
pub(crate) fn timed_setups<T>(
    options: &Options,
    mut setup: impl FnMut() -> Fallible<T>,
    mut retire: impl FnMut(T),
) -> Fallible<(f64, T)> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    let mut last = None;
    while times.len() < MAX_SETUPS
        && (times.len() < options.setup_repeats.max(1) || spent < options.setup_seconds)
    {
        let start = Instant::now();
        let fresh = setup()?;
        let took = seconds_since(start);
        times.push(took);
        spent += took;
        if let Some(old) = last.replace(fresh) {
            retire(old);
        }
    }
    Ok((samples::median(&times), last.expect("at least one set-up")))
}
