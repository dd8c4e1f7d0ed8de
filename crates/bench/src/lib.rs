//! # febim-bench
//!
//! Figure/table regeneration binaries and the gated benchmark-record
//! binaries of the FeBiM reproduction, plus the harness the record binaries
//! share.
//!
//! Every data figure and table of the paper's evaluation section has a
//! dedicated binary that regenerates it, prints the series to the console and
//! writes CSV files under `target/experiments/`:
//!
//! | Binary   | Paper content |
//! |----------|---------------|
//! | `fig1c`  | Multi-level I_D-V_G characteristics |
//! | `fig4`   | Probability-to-state mapping and pulse counts |
//! | `fig5`   | Two-cell accumulation and WTA transient |
//! | `fig6`   | Delay/energy vs. array geometry |
//! | `fig7`   | Accuracy vs. feature/likelihood quantization |
//! | `fig8`   | Quantization heat map, crossbar state map, variation Monte-Carlo |
//! | `table1` | Cross-technology comparison |
//!
//! Run, for example, `cargo run -p febim-bench --bin fig6 --release`.
//!
//! Seven record binaries write a checked-in JSON record each, and all but
//! the first two assert gates read from a checked-in budget file:
//!
//! | Binary      | Record                 | Budget                  |
//! |-------------|------------------------|-------------------------|
//! | `perf`      | `BENCH_inference.json` | —                       |
//! | `fabric`    | `BENCH_fabric.json`    | —                       |
//! | `serving`   | `BENCH_serving.json`   | `SERVING_BUDGET.json`   |
//! | `noise`     | `BENCH_noise.json`     | `NOISE_BUDGET.json`     |
//! | `faults`    | `BENCH_faults.json`    | `FAULT_BUDGET.json`     |
//! | `footprint` | `BENCH_footprint.json` | `FOOTPRINT_BUDGET.json` |
//! | `registry`  | `BENCH_registry.json`  | `REGISTRY_BUDGET.json`  |
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin serving -- [--quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the measurement (the CI bench-smoke mode); `--out`
//! overrides the record path and `--budget` the budget path (defaults in the
//! table above, relative to the current directory; `perf` and `fabric` take
//! no `--budget`). Any other argument, or `--out`/`--budget` without a
//! value, prints a usage line and exits with status 2.
//!
//! A timing gate that fails is re-measured up to [`REMEASURES`] times before
//! the binary fails ([`remeasure`]), so one noisy run on a loaded host does
//! not fail CI; a gate that still fails exits non-zero with a message naming
//! the budget file to re-baseline.

#![warn(missing_docs)]

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;

use febim_core::{default_experiment_dir, FebimEngine, InferenceBackend, Table};
use febim_crossbar::{CrossbarLayout, ProgrammingMode, TileGrid, TilePlan, TileShape};
use febim_data::Dataset;
use febim_device::LevelProgrammer;

/// The command line every record binary shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--quick`: shorten the measurement.
    pub quick: bool,
    /// `--out PATH`: where the JSON record is written.
    pub out: String,
    /// `--budget PATH`: the budget file the gates read; `None` for an
    /// ungated binary, which rejects the flag.
    pub budget: Option<String>,
}

impl Args {
    /// Parses the process arguments with the binary's default record path
    /// and (for a gated binary) budget path. An unknown argument, or
    /// `--out`/`--budget` without a value, prints the error and a usage line
    /// and exits with status 2.
    pub fn parse(out: &str, budget: Option<&str>) -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse_from(args, out, budget).unwrap_or_else(|err| {
            let program = std::path::Path::new(&program)
                .file_name()
                .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
            let budget_flag = if budget.is_some() {
                " [--budget PATH]"
            } else {
                ""
            };
            eprintln!("{err}\nusage: {program} [--quick] [--out PATH]{budget_flag}");
            std::process::exit(2);
        })
    }

    /// [`Args::parse`] over `args` (without the program name), returning
    /// the error instead of exiting.
    ///
    /// # Errors
    ///
    /// Names the unknown argument, or the flag that is missing its value.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        out: &str,
        budget: Option<&str>,
    ) -> Result<Self, String> {
        let mut parsed = Self {
            quick: false,
            out: out.to_string(),
            budget: budget.map(str::to_string),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--quick" => {
                    parsed.quick = true;
                    continue;
                }
                "--out" => &mut parsed.out,
                "--budget" if budget.is_some() => parsed.budget.get_or_insert_with(String::new),
                _ => return Err(format!("unknown argument `{arg}`")),
            };
            *slot = args.next().ok_or(format!("`{arg}` needs a PATH"))?;
        }
        Ok(parsed)
    }

    /// `"quick"` or `"full"`, for the binary's banner line.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Reads the gate threshold `key` from the budget file. A gate never
    /// runs ungated: an unreadable file or a missing or non-numeric `key`
    /// prints what could not be read and exits with status 1.
    ///
    /// # Panics
    ///
    /// On an ungated binary's arguments (no budget path).
    pub fn threshold(&self, key: &str) -> f64 {
        load_budget(
            self.budget
                .as_deref()
                .expect("a gated binary has a budget path"),
            key,
        )
    }
}

/// Writes `record` to `path` as pretty JSON inside the envelope every
/// record shares: `bench`, `generated_unix_s` (stamped now) and `quick`
/// come first, then the record's own fields. A failed write prints the
/// error and exits with status 1.
pub fn write_record<R: Serialize>(path: &str, bench: &str, quick: bool, record: &R) {
    let stamped = Stamped {
        bench,
        generated_unix_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |elapsed| elapsed.as_secs()),
        quick,
        record,
    };
    match std::fs::write(path, serde::json::to_string_pretty(&stamped) + "\n") {
        Ok(()) => println!("(written to {path})"),
        Err(err) => {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
    }
}

/// A record inside its envelope (see [`write_record`]).
struct Stamped<'a, R> {
    bench: &'a str,
    generated_unix_s: u64,
    quick: bool,
    record: &'a R,
}

impl<R: Serialize> Serialize for Stamped<'_, R> {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"bench\":");
        serde::json::escape_into(self.bench, out);
        out.push_str(&format!(
            ",\"generated_unix_s\":{},\"quick\":{}",
            self.generated_unix_s, self.quick
        ));
        let body = serde::json::to_string(self.record);
        let fields = body
            .strip_prefix('{')
            .expect("a record serializes to a JSON object");
        if fields != "}" {
            out.push(',');
        }
        out.push_str(fields);
    }
}

/// Re-measurements a failing timing gate takes before it fails.
pub const REMEASURES: usize = 3;

/// The re-measure contract of every timing gate: while `holds(&best)` is
/// false, call `remeasure(attempt, &best)` (attempt counts from 1, at most
/// [`REMEASURES`] times) and keep `best_of(best, new)`. Returns the best
/// value, which fails `holds` when every attempt did; the caller asserts on
/// it with its own message.
pub fn remeasure<T>(
    first: T,
    holds: impl Fn(&T) -> bool,
    best_of: impl Fn(T, T) -> T,
    mut remeasure: impl FnMut(usize, &T) -> T,
) -> T {
    let mut best = first;
    for attempt in 1..=REMEASURES {
        if holds(&best) {
            break;
        }
        let value = remeasure(attempt, &best);
        best = best_of(best, value);
    }
    best
}

/// Request stream: the test split cycled up to `count` samples.
pub fn request_stream(test: &Dataset, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|index| {
            test.sample(index % test.n_samples())
                .expect("sample")
                .to_vec()
        })
        .collect()
}

/// ns/inference of `engine` answering `samples` one at a time through one
/// scratch, best of `passes` passes.
pub fn measure_reads<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    samples: &[Vec<f64>],
    passes: usize,
) -> f64 {
    let mut scratch = engine.make_scratch();
    let mut best_ns = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for sample in samples {
            engine.infer_into(sample, &mut scratch).expect("infer");
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / samples.len() as f64);
    }
    best_ns
}

/// The Fig. 6-scale stress model: 64 wordlines by 32 evidence nodes of 16
/// levels each (512 bitlines), programmed with the staggered level pattern
/// `(row + column) % 10` of the scalability sweeps, on one monolithic array
/// (a 1×1 grid) or on a grid of `tile`-sized tiles.
pub fn fig6_grid(tile: Option<TileShape>) -> TileGrid {
    let layout = CrossbarLayout::new(64, 32, 16, false).expect("layout");
    let plan = match tile {
        Some(shape) => TilePlan::new(layout, shape),
        None => TilePlan::whole(layout),
    }
    .expect("plan");
    let programmer = LevelProgrammer::febim_default(10).expect("programmer");
    let mut grid = TileGrid::new(plan, programmer);
    let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
        .map(|row| {
            (0..layout.columns())
                .map(|column| Some((row + column) % 10))
                .collect()
        })
        .collect();
    grid.program_matrix(&levels, ProgrammingMode::Ideal)
        .expect("program");
    grid
}

/// Minimum per-iteration wall time of `routine` in nanoseconds, measured in
/// calibrated batches until `target` total time has elapsed. The minimum
/// over batches is robust against scheduler noise.
pub fn measure_min_ns<F: FnMut()>(mut routine: F, target: Duration) -> f64 {
    routine(); // warm-up (also warms any conductance caches)
    let mut iters = 1u64;
    let mut elapsed;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let mut best = elapsed.as_nanos() as f64 / iters as f64;
    let mut total = elapsed;
    while total < target {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        let batch = start.elapsed();
        best = best.min(batch.as_nanos() as f64 / iters as f64);
        total += batch;
    }
    best
}

/// Reads the number stored under `key` in the JSON budget file at `path`
/// (see [`Args::threshold`]).
fn load_budget(path: &str, key: &str) -> f64 {
    let value = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde::json::parse(&text).ok())
        .and_then(|budget| match budget.get(key)? {
            serde::json::Value::Int(value) => Some(*value as f64),
            serde::json::Value::Float(value) => Some(*value),
            _ => None,
        });
    value.unwrap_or_else(|| {
        eprintln!(
            "could not read {key} from {path}; regenerate the budget file or pass --budget PATH"
        );
        std::process::exit(1);
    })
}

/// Prints a table to the console and persists it as CSV under the default
/// experiment directory, reporting where it was written.
pub fn emit(table: &Table) {
    println!("{}", table.to_pretty());
    match table.write_csv(&default_experiment_dir()) {
        Ok(path) => println!("(written to {})\n", path.display()),
        Err(err) => println!("(could not write CSV: {err})\n"),
    }
}

/// Formats a physical quantity with an engineering prefix (fJ, ps, uA, ...).
pub fn eng(value: f64, unit: &str) -> String {
    let (scaled, prefix) = if value == 0.0 {
        (0.0, "")
    } else {
        let exponent = value.abs().log10().floor() as i32;
        match exponent {
            e if e <= -13 => (value * 1e15, "f"),
            e if e <= -10 => (value * 1e12, "p"),
            e if e <= -7 => (value * 1e9, "n"),
            e if e <= -4 => (value * 1e6, "u"),
            e if e <= -1 => (value * 1e3, "m"),
            e if e <= 2 => (value, ""),
            e if e <= 5 => (value * 1e-3, "k"),
            e if e <= 8 => (value * 1e-6, "M"),
            e if e <= 11 => (value * 1e-9, "G"),
            _ => (value * 1e-12, "T"),
        }
    };
    format!("{scaled:.2} {prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting_covers_common_ranges() {
        assert_eq!(eng(17.2e-15, "J"), "17.20 fJ");
        assert_eq!(eng(233.0e-12, "s"), "233.00 ps");
        assert_eq!(eng(0.5e-6, "A"), "500.00 nA");
        assert_eq!(eng(1.0e-6, "A"), "1.00 uA");
        assert_eq!(eng(581.4e12, "OPS/W"), "581.40 TOPS/W");
        assert_eq!(eng(26.32e6, "b/mm2"), "26.32 Mb/mm2");
        assert_eq!(eng(0.0, "J"), "0.00 J");
    }

    #[test]
    fn budgets_parse_integers_and_floats() {
        let path = std::env::temp_dir().join(format!("febim_budget_{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"comment": "x", "whole": 512, "fraction": 2.5e3}"#,
        )
        .unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(load_budget(path, "whole"), 512.0);
        assert_eq!(load_budget(path, "fraction"), 2500.0);
        std::fs::remove_file(path).ok();
    }

    fn parse(args: &[&str], budget: Option<&str>) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|arg| arg.to_string()), "OUT.json", budget)
    }

    #[test]
    fn args_default_and_override() {
        let defaults = parse(&[], Some("BUDGET.json")).unwrap();
        assert_eq!(
            defaults,
            Args {
                quick: false,
                out: "OUT.json".into(),
                budget: Some("BUDGET.json".into()),
            }
        );
        assert_eq!(defaults.mode(), "full");
        let set = parse(
            &["--out", "a.json", "--quick", "--budget", "b.json"],
            Some("BUDGET.json"),
        )
        .unwrap();
        assert!(set.quick);
        assert_eq!(set.mode(), "quick");
        assert_eq!(set.out, "a.json");
        assert_eq!(set.budget.as_deref(), Some("b.json"));
        assert_eq!(parse(&["--quick"], None).unwrap().budget, None);
    }

    #[test]
    fn args_reject_unknown_flags_and_missing_values() {
        let err = parse(&["--budgte", "x.json"], Some("BUDGET.json")).unwrap_err();
        assert!(err.contains("--budgte"), "{err}");
        // An ungated binary has no budget to override.
        assert!(parse(&["--budget", "x.json"], None).is_err());
        for flag in ["--out", "--budget"] {
            let err = parse(&["--quick", flag], Some("BUDGET.json")).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn remeasure_skips_a_passing_gate() {
        let best = remeasure(
            1.0,
            |&value| value <= 2.0,
            f64::min,
            |_, _| panic!("a passing gate is not re-measured"),
        );
        assert_eq!(best, 1.0);
    }

    #[test]
    fn remeasure_keeps_the_best_value_and_stops_once_it_passes() {
        let mut attempts = Vec::new();
        let mut values = [7.0, 3.0, 9.0, 1.0].into_iter();
        let best = remeasure(
            5.0,
            |&value| value <= 2.0,
            f64::min,
            |attempt, &best| {
                attempts.push((attempt, best));
                values.next().unwrap()
            },
        );
        // The worse 7.0 never replaces the best; 9.0 is never kept.
        assert_eq!(attempts, vec![(1, 5.0), (2, 5.0), (3, 3.0)]);
        assert_eq!(best, 3.0);
        // A higher-is-better gate keeps the largest value.
        let raised = remeasure(
            0.5,
            |&value| value >= 2.0,
            f64::max,
            |attempt, _| attempt as f64,
        );
        assert_eq!(raised, 2.0);
    }

    #[test]
    fn remeasure_returns_the_failing_best_after_three_attempts() {
        let mut calls = 0;
        let best = remeasure(
            10.0,
            |&value| value <= 1.0,
            f64::min,
            |_, _| {
                calls += 1;
                10.0 - calls as f64
            },
        );
        assert_eq!(calls, REMEASURES);
        assert_eq!(best, 7.0);
    }

    #[test]
    fn request_stream_cycles_the_test_split() {
        let dataset = febim_data::synthetic::iris_like(42).unwrap();
        let n = dataset.n_samples();
        let stream = request_stream(&dataset, 2 * n + 3);
        assert_eq!(stream.len(), 2 * n + 3);
        for (index, sample) in stream.iter().enumerate() {
            assert_eq!(sample.as_slice(), dataset.sample(index % n).unwrap());
        }
    }

    #[test]
    fn records_are_stamped_json() {
        #[derive(Serialize)]
        struct Record {
            alpha: u32,
            beta: Vec<f64>,
        }
        let path = std::env::temp_dir().join(format!("febim_record_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let record = Record {
            alpha: 7,
            beta: vec![0.5, 1.5],
        };
        write_record(path, "smoke", true, &record);
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let value = serde::json::parse(&text).unwrap();
        let serde::json::Value::Object(fields) = &value else {
            panic!("a record is an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "generated_unix_s", "quick", "alpha", "beta"]
        );
        assert_eq!(value.get("bench").and_then(|v| v.as_str()), Some("smoke"));
        assert_eq!(value.get("quick"), Some(&serde::json::Value::Bool(true)));
        assert!(
            value
                .get("generated_unix_s")
                .and_then(|v| v.as_int())
                .unwrap()
                > 0
        );
        assert_eq!(value.get("alpha").and_then(|v| v.as_int()), Some(7));
    }

    #[test]
    fn fig6_grids_agree_on_every_read() {
        let array = fig6_grid(None);
        let grid = fig6_grid(Some(TileShape::new(32, 128).unwrap()));
        assert_eq!(array.layout().columns(), 512);
        assert!(grid.plan().row_tiles() >= 2 && grid.plan().col_tiles() >= 2);
        let all = febim_crossbar::Activation::all_columns(array.layout());
        assert_eq!(
            array.wordline_currents(&all).unwrap(),
            grid.wordline_currents(&all).unwrap()
        );
    }

    #[test]
    fn emit_writes_csv() {
        let mut table = Table::new("bench_lib_smoke", &["k", "v"]);
        table.push_row(&["a".to_string(), "1".to_string()]);
        emit(&table);
        let path = default_experiment_dir().join("bench_lib_smoke.csv");
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}
