//! Layer replays of the traced run: the workload's stream, sequentially
//! through a dedicated engine, with a span around each call into a layer's
//! public entry point — `quant` (`QuantizedGnbc::discretize_sample_into`),
//! `crossbar` (`Activation::set_observation` plus the array's or grid's
//! `wordline_currents_into`), `circuit` (`SensingChain::sense_into`) and
//! `core::engine` (`FebimEngine::infer_into`).

use std::time::Instant;

use febim_core::{CrossbarBackend, FebimEngine, InferenceBackend, TiledFabricBackend};
use febim_crossbar::Activation;
use febim_quant::Encoding;

use crate::samples::Samples;
use crate::{Fallible, LapStream, MetricValues, Oracle, Runs};

/// What a replay runs over.
pub(crate) struct Replay<'a> {
    /// The test samples the stream indexes.
    pub(crate) test: &'a [Vec<f64>],
    /// The oracle each replayed inference is checked against.
    pub(crate) oracle: &'a Oracle,
    /// Oracle index of `test[0]`.
    pub(crate) offset: usize,
    /// Stream seed: the replay follows the served stream's order.
    pub(crate) seed: u64,
    /// Minimum calls; the replay runs whole laps.
    pub(crate) calls: usize,
    /// Where mismatches are booked.
    pub(crate) runs: &'a mut Runs,
}

/// Per-layer spans of one replay.
struct Spans {
    infer: Samples,
    discretize: Samples,
    read: Samples,
    sense: Samples,
    activated: u64,
}

/// Runs `call` and books its duration.
fn timed<T>(samples: &mut Samples, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    out
}

const SPAN_CAPACITY: usize = 1 << 18;

/// Replays the stream through `engine.infer_into` (checked against the
/// oracle) and through `layers` for the per-layer spans, then sets the
/// layer metrics the spans support.
fn replay_engine<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    replay: Replay<'_>,
    values: &mut MetricValues,
    mut layers: impl FnMut(&[f64], &mut Spans) -> Fallible<()>,
) -> Fallible<()> {
    let mut spans = Spans {
        infer: Samples::new(SPAN_CAPACITY),
        discretize: Samples::new(SPAN_CAPACITY),
        read: Samples::new(SPAN_CAPACITY),
        sense: Samples::new(SPAN_CAPACITY),
        activated: 0,
    };
    let mut scratch = engine.make_scratch();
    let mut stream = LapStream::new(replay.seed, replay.test.len());
    let mut calls = 0;
    while calls < replay.calls || !stream.at_lap_end() {
        let index = stream.next_index();
        let sample = &replay.test[index];
        let step = timed(&mut spans.infer, || engine.infer_into(sample, &mut scratch))?;
        let expected = &replay.oracle.steps[replay.offset + index];
        if step != *expected {
            replay.runs.mismatch(format!(
                "replayed test index {index}: {step:?}, oracle {expected:?}"
            ));
        }
        layers(sample, &mut spans)?;
        calls += 1;
    }
    let infer_ns = spans.infer.median_ns();
    let discretize_ns = spans.discretize.median_ns();
    values.set("engine.infer_ns", infer_ns);
    values.set("quant.discretize_ns", discretize_ns);
    if spans.read.count() > 0 {
        values.set("crossbar.read_ns", spans.read.median_ns());
        values.set(
            "crossbar.activated_columns",
            spans.activated as f64 / spans.read.count() as f64,
        );
    } else {
        // The packed read's glue is private to the backend: what is left of
        // an inference once the sample is discretized is the plane-partial
        // read plus the shift-add sense.
        values.set("crossbar.plane_read_ns", infer_ns - discretize_ns);
    }
    if spans.sense.count() > 0 {
        values.set("circuit.sense_ns", spans.sense.median_ns());
    }
    Ok(())
}

/// Replay on the monolithic one-hot array: every layer is public.
pub(crate) fn replay_crossbar(
    engine: &FebimEngine<CrossbarBackend>,
    replay: Replay<'_>,
    values: &mut MetricValues,
) -> Fallible<()> {
    let quantized = engine.quantized();
    let array = engine.array();
    let layout = array.layout();
    let sensing = engine.sensing();
    let mut evidence = Vec::new();
    let mut activation = Activation::empty(layout);
    let mut currents = Vec::new();
    let mut mirrored = Vec::new();
    replay_engine(engine, replay, values, |sample, spans| {
        timed(&mut spans.discretize, || {
            quantized.discretize_sample_into(sample, &mut evidence)
        })?;
        timed(&mut spans.read, || {
            activation.set_observation(layout, &evidence)?;
            array.wordline_currents_into(&activation, &mut currents)
        })?;
        spans.activated += activation.len() as u64;
        // An exact tie is an error here and a deterministic tie-break in the
        // engine; either way the sense ran.
        let _ = timed(&mut spans.sense, || {
            sensing.sense_into(&currents, activation.len(), &mut mirrored)
        });
        Ok(())
    })
}

/// Replay on the tiled fabric: the one-hot grid read is public; the fabric's
/// sense step (per-tile pricing) is not, so `circuit.sense_ns` is not
/// measured here.
pub(crate) fn replay_tiled(
    engine: &FebimEngine<TiledFabricBackend>,
    replay: Replay<'_>,
    values: &mut MetricValues,
) -> Fallible<()> {
    let quantized = engine.quantized();
    let grid = engine.grid();
    let layout = grid.layout();
    let one_hot = matches!(engine.config().encoding, Encoding::OneHot);
    let mut evidence = Vec::new();
    let mut activation = Activation::empty(layout);
    let mut currents = Vec::new();
    replay_engine(engine, replay, values, |sample, spans| {
        timed(&mut spans.discretize, || {
            quantized.discretize_sample_into(sample, &mut evidence)
        })?;
        if one_hot {
            timed(&mut spans.read, || {
                activation.set_observation(layout, &evidence)?;
                grid.wordline_currents_into(&activation, &mut currents)
            })?;
            spans.activated += activation.len() as u64;
        }
        Ok(())
    })
}
