//! `tenant-churn`: four Fig. 6-scale one-hot tenants of 8 tiles each on a
//! one-bank `ModelRegistry` that holds 24 tiles, so three fit. One client
//! makes blocking `serve` calls round-robin over a hot set of three
//! tenants; the hot set moves on by one tenant every rotation, so every
//! rotation evicts the coldest tenant and faults the new one back in.

use std::time::Instant;

use febim_core::{
    EngineConfig, FebimEngine, ModelRegistry, RegistryConfig, SwapCost, TiledFabricBackend,
};
use febim_data::split::TrainTestSplit;

use crate::replica::{fig6_tile, Fabric};
use crate::samples::Samples;
use crate::{
    fig6_split, layers, seconds_since, timed_setups, Fallible, LapStream, MetricValues, Options,
    Oracle, Runs, Tally, FIG6_SEED,
};

/// Tenants registered.
const TENANTS: usize = 4;
/// Tenants in the hot set.
const HOT: usize = 3;
/// Tile budget of the bank: three 8-tile tenants.
const BANK_TILES: usize = 24;
/// Requests per rotation of the hot set: 512 per hot tenant, exactly one lap
/// of its 512-sample test split, so whole rotations serve whole laps.
const ROTATION: usize = 1536;
/// Rotations per cycle: after four, every tenant has been evicted and
/// faulted back in once.
const CYCLE: u64 = TENANTS as u64;
/// Registration order. Registering tenant 2 last evicts tenant 3, leaving
/// tenants 0, 1 and 2 resident in LRU order — the state rotation 0 would
/// leave — so the stream starts at rotation 1 and every rotation costs
/// exactly one fault-in.
const REGISTRATION_ORDER: [u64; TENANTS] = [3, 0, 1, 2];

/// Per-call spans of the traced segment, classified by residence before the
/// call.
struct Probe {
    resident: Samples,
    fault_in: Samples,
}

/// The client and its position in the rotation schedule.
struct Churn<'a> {
    registry: &'a ModelRegistry,
    splits: &'a [TrainTestSplit],
    oracle: &'a Oracle,
    lap: usize,
    streams: Vec<LapStream>,
    rotation: u64,
    cycles: u64,
}

impl Churn<'_> {
    /// Serves whole cycles until `seconds` have passed (at least one).
    fn run(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        runs: &mut Runs,
        mut probe: Option<&mut Probe>,
    ) {
        let start = Instant::now();
        tally.open();
        loop {
            for _ in 0..CYCLE {
                let first = self.rotation as usize;
                self.rotation += 1;
                for call in 0..ROTATION {
                    let tenant = (first + call % HOT) % TENANTS;
                    let index = self.streams[tenant].next_index();
                    let sample = self.splits[tenant].test.samples()[index].as_slice();
                    let model = tenant as u64;
                    let resident = probe.is_some() && self.registry.residence_of(model).is_some();
                    tally.attempted += 1;
                    let sent = Instant::now();
                    let answer = self.registry.serve(model, sample);
                    let nanos = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    tally.answer(runs, self.oracle, tenant * self.lap + index, answer, nanos);
                    if let Some(probe) = probe.as_deref_mut() {
                        if resident {
                            probe.resident.push(nanos);
                        } else {
                            probe.fault_in.push(nanos);
                        }
                    }
                }
                // One window per rotation: each holds exactly one fault-in.
                tally.close();
            }
            self.cycles += 1;
            if seconds_since(start) >= seconds {
                break;
            }
        }
    }
}

/// Builds the registry and registers every tenant: the set-up `setup_s`
/// times. Returns the registry and the registrations' swap count and cost.
fn register(splits: &[TrainTestSplit]) -> Fallible<(ModelRegistry, u64, SwapCost)> {
    let registry = ModelRegistry::new(RegistryConfig::new(1, BANK_TILES))?;
    let mut swaps = 0;
    let mut cost = SwapCost::default();
    for model in REGISTRATION_ORDER {
        let placement = registry.register(
            model,
            &splits[model as usize].train,
            EngineConfig::febim_default(),
            fig6_tile(),
        )?;
        if let Some(swap) = placement.swap {
            swaps += 1;
            cost.absorb(swap.erase);
            cost.absorb(swap.program);
        }
    }
    Ok((registry, swaps, cost))
}

/// Runs the workload.
pub(crate) fn run(options: &Options, values: &mut MetricValues, runs: &mut Runs) -> Fallible<()> {
    let splits = (0..TENANTS as u64)
        .map(|tenant| fig6_split(FIG6_SEED + tenant))
        .collect::<Fallible<Vec<_>>>()?;
    let lap = splits[0].test.n_samples();
    if splits.iter().any(|split| split.test.n_samples() != lap) || lap * HOT != ROTATION {
        return Err("a rotation must serve exactly one lap of each hot tenant".into());
    }
    // One dedicated engine per tenant: its answers are the oracle for every
    // registry answer, the first after each fault-in included.
    let mut dedicated = Vec::with_capacity(TENANTS);
    let mut oracle: Option<Oracle> = None;
    for (tenant, split) in splits.iter().enumerate() {
        let engine =
            FebimEngine::fit_tiled(&split.train, EngineConfig::febim_default(), fig6_tile())?;
        let own = Oracle::build(&engine, &split.test, options.perturb_oracle && tenant == 0)?;
        match oracle.as_mut() {
            Some(all) => all.extend(own),
            None => oracle = Some(own),
        }
        dedicated.push(engine);
    }
    let oracle = oracle.expect("at least one tenant");
    let streams = (0..TENANTS as u64)
        .map(|tenant| LapStream::new(options.seed.wrapping_add(tenant), lap))
        .collect();

    let (setup_s, (registry, registration_swaps, registration_cost)) = if options.trace {
        (0.0, register(&splits)?)
    } else {
        timed_setups(
            options,
            || register(&splits),
            |(old, _, _)| {
                old.shutdown();
            },
        )?
    };
    let mut churn = Churn {
        registry: &registry,
        splits: &splits,
        oracle: &oracle,
        lap,
        streams,
        rotation: 1,
        cycles: 0,
    };
    // Warm-up: one cycle, gated like the measured ones.
    churn.run(0.0, &mut Tally::new(oracle.len()), runs, None);

    if !options.trace {
        let mut tally = Tally::new(oracle.len());
        churn.run(options.seconds, &mut tally, runs, None);
        runs.absorb(&tally);
        registry.shutdown();
        tally.end_to_end(&oracle, values);
        values.set("setup_s", setup_s);
        return Ok(());
    }

    let half = options.seconds / 2.0;
    let mut untraced = Tally::new(oracle.len());
    churn.run(half, &mut untraced, runs, None);
    runs.absorb(&untraced);
    let mut probe = Probe {
        resident: Samples::new(1 << 20),
        fault_in: Samples::new(1 << 12),
    };
    let mut traced = Tally::new(oracle.len());
    churn.run(half, &mut traced, runs, Some(&mut probe));
    runs.absorb(&traced);
    let cycles = churn.cycles as f64;
    let stats = registry.shutdown();

    let calls = probe.resident.count() + probe.fault_in.count();
    values.set(
        "registry.resident_serve_us",
        probe.resident.median_ns() / 1e3,
    );
    values.set("registry.fault_in_ms", probe.fault_in.median_ns() / 1e6);
    values.set("registry.fault_ins", probe.fault_in.count() as f64);
    values.set(
        "registry.hit_ratio",
        probe.resident.count() as f64 / calls as f64,
    );
    values.set(
        "registry.swaps",
        (stats.swaps - registration_swaps) as f64 / cycles,
    );
    values.set(
        "device.swap_pulses",
        (stats.swap_pulses - registration_cost.pulses) as f64 / cycles,
    );
    values.set(
        "device.swap_energy_nj",
        (stats.swap_energy_j - registration_cost.energy_j) * 1e9 / cycles,
    );
    values.set(
        "device.program_pulses",
        dedicated
            .iter()
            .map(TiledFabricBackend::program_pulses)
            .sum(),
    );
    values.set("serving.batch_size_mean", stats.mean_batch_size);
    values.set("serving.amortized_energy_ratio", stats.energy_ratio());
    values.set("serving.latency_p99_us", untraced.latency_p99_ns() / 1e3);
    values.set(
        "trace.overhead_p50_us",
        (traced.latency_p50_ns() - untraced.latency_p50_ns()) / 1e3,
    );
    values.set(
        "trace.throughput_ratio",
        traced.throughput_rps() / untraced.throughput_rps(),
    );
    oracle.modelled_breakdown(values);

    let engine = &dedicated[0];
    let before = engine.backend().rebuilds();
    layers::replay_tiled(
        engine,
        layers::Replay {
            test: splits[0].test.samples(),
            oracle: &oracle,
            offset: 0,
            seed: options.seed,
            calls: options.replay_calls,
            runs,
        },
        values,
    )?;
    values.set(
        "crossbar.cache_rebuilds",
        (engine.backend().rebuilds() - before) as f64,
    );
    Ok(())
}
