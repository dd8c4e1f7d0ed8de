//! The replica-pool workloads (`iris-pingpong`, `fig6-onehot`,
//! `fig6-packed`): one engine behind a one-worker `ServingPool`, driven by
//! one closed-loop client thread that keeps a fixed window of requests in
//! flight.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use febim_core::{
    CrossbarBackend, EngineConfig, FebimEngine, InferenceBackend, ServingConfig, ServingPool,
    Ticket, TiledFabricBackend,
};
use febim_crossbar::TileShape;
use febim_data::split::TrainTestSplit;
use febim_data::Dataset;
use febim_quant::{Encoding, QuantizedGnbc};

use crate::layers;
use crate::samples::Samples;
use crate::trace::{partition, Clock, TraceLog, TracedBackend};
use crate::{
    fig6_split, iris_split, seconds_since, timed_setups, Fallible, LapStream, MetricValues,
    Options, Oracle, Runs, Tally, FIG6_SEED,
};

/// Tile shape of the Fig. 6 fabric: a 64x512 layout on a 2x4 grid.
pub(crate) fn fig6_tile() -> TileShape {
    TileShape::new(32, 128).expect("32x128 is a valid tile shape")
}

/// A replica workload: its data, engine configuration and client.
pub(crate) struct Spec {
    split: TrainTestSplit,
    config: EngineConfig,
    /// Requests the client keeps in flight.
    window: usize,
    /// Whether the client polls its oldest ticket (`Ticket::wait_timeout`,
    /// never parking) instead of blocking in `Ticket::wait`. The windowed
    /// workloads poll, so the worker always finds queued work and the
    /// serving kernel, not how fast the host wakes a parked vCPU, sets their
    /// throughput; the ping-pong client blocks, as the wake path is what it
    /// measures.
    polling: bool,
}

impl Spec {
    pub(crate) fn iris() -> Fallible<Self> {
        Ok(Self {
            split: iris_split()?,
            config: EngineConfig::febim_default(),
            window: 1,
            polling: false,
        })
    }

    pub(crate) fn fig6_onehot() -> Fallible<Self> {
        Ok(Self {
            split: fig6_split(FIG6_SEED)?,
            config: EngineConfig::febim_default(),
            window: 32,
            polling: true,
        })
    }

    pub(crate) fn fig6_packed() -> Fallible<Self> {
        Ok(Self {
            split: fig6_split(FIG6_SEED)?,
            config: EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 }),
            window: 32,
            polling: true,
        })
    }
}

/// The engine backends the replica workloads serve, with what the benchmark
/// needs to build, trace and replay each.
pub(crate) trait Fabric: InferenceBackend + Send + Sized + 'static {
    /// The user-facing constructor (`fit` / `fit_tiled`).
    fn fit(train: &Dataset, config: EngineConfig) -> febim_core::Result<FebimEngine<Self>>;
    /// The backend constructor `FebimEngine::fit_with` calls.
    fn build(quantized: Arc<QuantizedGnbc>, config: &EngineConfig) -> febim_core::Result<Self>;
    /// Cumulative conductance-cache rebuilds of the backend's fabric.
    fn rebuilds(&self) -> u64;
    /// Write pulses of programming the engine's model onto erased cells.
    fn program_pulses(engine: &FebimEngine<Self>) -> f64;
    /// Times each layer's public entry point over the stream.
    fn replay(
        engine: &FebimEngine<Self>,
        replay: layers::Replay<'_>,
        values: &mut MetricValues,
    ) -> Fallible<()>;
}

impl Fabric for CrossbarBackend {
    fn fit(train: &Dataset, config: EngineConfig) -> febim_core::Result<FebimEngine<Self>> {
        FebimEngine::fit(train, config)
    }

    fn build(quantized: Arc<QuantizedGnbc>, config: &EngineConfig) -> febim_core::Result<Self> {
        CrossbarBackend::new(quantized, config)
    }

    fn rebuilds(&self) -> u64 {
        let stats = self.array().rebuild_stats();
        stats.full_rebuilds + stats.partial_refreshes
    }

    fn program_pulses(engine: &FebimEngine<Self>) -> f64 {
        // The monolithic backend has no `program_cost`; price its program
        // the same way the fabric does: each programmed cell costs its
        // Preisach pulse train plus the erase pulse.
        let programmer = engine.array().programmer();
        let pulses: u64 = engine
            .program()
            .levels()
            .iter()
            .flatten()
            .flatten()
            .map(|&level| {
                programmer
                    .state_for_level(level)
                    .map_or(0, |state| u64::from(state.write_config.pulse_count) + 1)
            })
            .sum();
        pulses as f64
    }

    fn replay(
        engine: &FebimEngine<Self>,
        replay: layers::Replay<'_>,
        values: &mut MetricValues,
    ) -> Fallible<()> {
        layers::replay_crossbar(engine, replay, values)
    }
}

impl Fabric for TiledFabricBackend {
    fn fit(train: &Dataset, config: EngineConfig) -> febim_core::Result<FebimEngine<Self>> {
        FebimEngine::fit_tiled(train, config, fig6_tile())
    }

    fn build(quantized: Arc<QuantizedGnbc>, config: &EngineConfig) -> febim_core::Result<Self> {
        TiledFabricBackend::new(quantized, config, fig6_tile())
    }

    fn rebuilds(&self) -> u64 {
        let stats = self.grid().rebuild_stats();
        stats.full_rebuilds + stats.tile_rebuilds
    }

    fn program_pulses(engine: &FebimEngine<Self>) -> f64 {
        engine.program_cost().map_or(0.0, |cost| cost.pulses as f64)
    }

    fn replay(
        engine: &FebimEngine<Self>,
        replay: layers::Replay<'_>,
        values: &mut MetricValues,
    ) -> Fallible<()> {
        layers::replay_tiled(engine, replay, values)
    }
}

/// A request the client has in flight.
struct Pending {
    number: u64,
    index: usize,
    sent: u64,
    submitted: u64,
    ticket: Ticket,
}

/// The closed-loop client: keeps `window` requests in flight, waits for the
/// oldest, checks it, sends the next.
struct Client<'a> {
    pool: &'a ServingPool,
    test: &'a [Vec<f64>],
    oracle: &'a Oracle,
    clock: Clock,
    window: usize,
    polling: bool,
    /// Requests accepted by the pool so far: the number the worker gives the
    /// next one.
    accepted: u64,
}

impl Client<'_> {
    /// Serves whole laps of `stream` until `seconds` have passed, calling
    /// `traced` for every answered request with its number, test index and
    /// send/submit/answer stamps.
    fn run(
        &mut self,
        stream: &mut LapStream,
        seconds: f64,
        tally: &mut Tally,
        runs: &mut Runs,
        mut traced: impl FnMut(u64, usize, u64, u64, u64, &mut Runs),
    ) {
        let start = Instant::now();
        tally.open();
        let mut in_flight: VecDeque<Pending> = VecDeque::with_capacity(self.window);
        let mut sending = true;
        loop {
            while sending && in_flight.len() < self.window {
                if stream.at_lap_end() && seconds_since(start) >= seconds {
                    sending = false;
                    break;
                }
                let index = stream.next_index();
                let sample = self.test[index].clone();
                tally.attempted += 1;
                let sent = self.clock.now_ns();
                match self.pool.submit(sample) {
                    Ok(ticket) => {
                        let submitted = self.clock.now_ns();
                        in_flight.push_back(Pending {
                            number: self.accepted,
                            index,
                            sent,
                            submitted,
                            ticket,
                        });
                        self.accepted += 1;
                    }
                    Err(err) => tally.answer(runs, self.oracle, index, Err(err), 0),
                }
            }
            let Some(pending) = in_flight.pop_front() else {
                break;
            };
            let answer = if self.polling {
                pending
                    .ticket
                    .wait_timeout(u64::MAX)
                    .unwrap_or_else(Ticket::wait)
            } else {
                pending.ticket.wait()
            };
            let answered = self.clock.now_ns();
            let ok = answer.is_ok();
            tally.answer(
                runs,
                self.oracle,
                pending.index,
                answer,
                answered - pending.sent,
            );
            if ok {
                traced(
                    pending.number,
                    pending.index,
                    pending.sent,
                    pending.submitted,
                    answered,
                    runs,
                );
            }
            tally.roll();
        }
        tally.finish();
    }
}

/// Serves warm-up laps, then one measured segment, on `pool`.
#[allow(clippy::too_many_arguments)]
fn serve(
    pool: &ServingPool,
    spec: &Spec,
    oracle: &Oracle,
    clock: Clock,
    options: &Options,
    seconds: f64,
    runs: &mut Runs,
    traced: impl FnMut(u64, usize, u64, u64, u64, &mut Runs),
) -> Tally {
    let test = spec.split.test.samples();
    let mut client = Client {
        pool,
        test,
        oracle,
        clock,
        window: spec.window,
        polling: spec.polling,
        accepted: 0,
    };
    let mut stream = LapStream::new(options.seed, test.len());
    // Warm-up answers are gated like the measured ones but not counted.
    let mut warmup = Tally::new(test.len());
    client.run(
        &mut stream,
        options.warmup_seconds,
        &mut warmup,
        runs,
        |_, _, _, _, _, _| {},
    );
    let mut tally = Tally::new(test.len());
    client.run(&mut stream, seconds, &mut tally, runs, traced);
    runs.absorb(&tally);
    tally
}

/// Runs one replica workload on backend `F`.
pub(crate) fn run<F: Fabric>(
    spec: &Spec,
    options: &Options,
    values: &mut MetricValues,
    runs: &mut Runs,
) -> Fallible<()> {
    let split = &spec.split;
    let serving = ServingConfig::febim_default();
    let dedicated = F::fit(&split.train, spec.config.clone())?;
    let oracle = Oracle::build(&dedicated, &split.test, options.perturb_oracle)?;
    let test = split.test.samples();
    let clock = Clock::start();

    if !options.trace {
        let (setup_s, pool) = timed_setups(
            options,
            || {
                let engine = F::fit(&split.train, spec.config.clone())?;
                Ok(ServingPool::new(vec![engine], serving)?)
            },
            |old| {
                old.shutdown();
            },
        )?;
        let tally = serve(
            &pool,
            spec,
            &oracle,
            clock,
            options,
            options.seconds,
            runs,
            |_, _, _, _, _, _| {},
        );
        pool.shutdown();
        tally.end_to_end(&oracle, values);
        values.set("setup_s", setup_s);
        return Ok(());
    }

    // Untraced segment: the baseline the tracing overhead is measured from.
    let half = options.seconds / 2.0;
    let pool = ServingPool::new(vec![F::fit(&split.train, spec.config.clone())?], serving)?;
    let untraced = serve(
        &pool,
        spec,
        &oracle,
        clock,
        options,
        half,
        runs,
        |_, _, _, _, _, _| {},
    );
    pool.shutdown();

    // Traced segment: the same workload on a `TracedBackend` engine.
    let log = Arc::new(TraceLog::new(clock));
    let engine = FebimEngine::fit_with(&split.train, spec.config.clone(), |quantized, config| {
        Ok(TracedBackend::new(
            F::build(quantized, config)?,
            Arc::clone(&log),
            F::rebuilds,
        ))
    })?;
    let pool = ServingPool::new(vec![engine], serving)?;
    let mut stages: [Samples; 4] = std::array::from_fn(|_| Samples::new(1 << 18));
    let mut rebuilds_at_start = None;
    let mut traced = serve(
        &pool,
        spec,
        &oracle,
        clock,
        options,
        half,
        runs,
        |number, index, sent, submitted, answered, runs| {
            rebuilds_at_start.get_or_insert_with(|| log.rebuilds());
            match log.span(number) {
                Some(span) if span.fingerprint == oracle.fingerprints[index] => {
                    let parts = partition(sent, submitted, span, answered);
                    for (stage, nanos) in stages.iter_mut().zip(parts) {
                        stage.push(nanos);
                    }
                }
                Some(_) => runs.mismatch(format!(
                    "request {number} (test index {index}) was not the {number}th sample the worker served"
                )),
                None => runs.mismatch(format!("no batch span recorded for request {number}")),
            }
        },
    );
    let rebuilds = log.rebuilds() - rebuilds_at_start.unwrap_or_else(|| log.rebuilds());
    let stats = pool.shutdown();

    // Stages and their total come from the same traced requests.
    let stage_us: Vec<f64> = stages.iter_mut().map(|s| s.median_ns() / 1e3).collect();
    let traced_p50_us = traced.latency.median_ns() / 1e3;
    for (name, value) in [
        "serving.submit_us",
        "serving.dispatch_us",
        "serving.batch_us",
        "serving.answer_us",
    ]
    .into_iter()
    .zip(&stage_us)
    {
        values.set(name, *value);
    }
    values.set(
        "serving.stage_sum_ratio",
        stage_us.iter().sum::<f64>() / traced_p50_us,
    );
    values.set("serving.batch_size_mean", stats.mean_batch_size);
    values.set("serving.amortized_energy_ratio", stats.energy_ratio());
    values.set("crossbar.cache_rebuilds", rebuilds as f64);
    values.set("serving.latency_p99_us", untraced.latency_p99_ns() / 1e3);
    values.set(
        "trace.overhead_p50_us",
        (traced.latency_p50_ns() - untraced.latency_p50_ns()) / 1e3,
    );
    values.set(
        "trace.throughput_ratio",
        traced.throughput_rps() / untraced.throughput_rps(),
    );
    values.set("device.program_pulses", F::program_pulses(&dedicated));
    oracle.modelled_breakdown(values);
    F::replay(
        &dedicated,
        layers::Replay {
            test,
            oracle: &oracle,
            offset: 0,
            seed: options.seed,
            calls: options.replay_calls,
            runs,
        },
        values,
    )
}
