//! Bench-style characterization of waveform-domain chains, and the
//! table-driven edge-domain model built from it.
//!
//! The fast edge engine does not re-derive the buffer physics; instead it
//! does what one does with the physical prototype: **measure** the delay of
//! the full chain on a grid of control voltages and toggle intervals, then
//! interpolate. Because the preceding interval determines how far the
//! bandwidth-limited stages settled, a `delay(vctrl, preceding-interval)`
//! table reproduces both the Fig. 7 control curve and the Fig. 15
//! frequency roll-off, and applying it per-edge on real data produces the
//! data-dependent jitter the paper observes at 6.4 Gb/s.

use std::sync::LazyLock;

use crate::block::{AnalogBlock, EdgeTransform, TappedCascade};
use crate::Fingerprint;
use vardelay_measure::MeasureDelayError;
use vardelay_obs as obs;
use vardelay_runner::{cache_enabled, Memo, Runner};
use vardelay_siggen::{BitPattern, EdgeStream, SplitMix64};
use vardelay_units::{BitRate, Time, Voltage};
use vardelay_waveform::{pool, to_edge_stream, RenderConfig, Waveform};

/// A grid point of a characterization sweep could not be measured — the
/// chain output carried no usable signal (e.g. a dead driver under fault
/// injection). The typed form lets a quarantined channel degrade instead
/// of panicking the worker that was characterizing it.
#[derive(Debug, Clone, PartialEq)]
pub enum CharacterizeError {
    /// The chain output produced too few crossings to measure: the signal
    /// was completely lost at this grid point.
    SignalLost {
        /// Control voltage of the failing grid point.
        vctrl: Voltage,
        /// Toggle interval of the failing grid point.
        interval: Time,
        /// Crossings actually observed (at or below the warm-up count).
        edges: usize,
    },
    /// Crossings existed but could not be paired into a delay.
    Unmeasurable {
        /// Control voltage of the failing grid point.
        vctrl: Voltage,
        /// Toggle interval of the failing grid point.
        interval: Time,
        /// The underlying measurement failure.
        source: MeasureDelayError,
    },
}

impl core::fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CharacterizeError::SignalLost {
                vctrl,
                interval,
                edges,
            } => write!(
                f,
                "chain output lost the signal at vctrl={vctrl}, interval={interval} \
                 ({edges} crossings)"
            ),
            CharacterizeError::Unmeasurable {
                vctrl,
                interval,
                source,
            } => write!(
                f,
                "chain output carries no measurable edges at vctrl={vctrl}, \
                 interval={interval}: {source}"
            ),
        }
    }
}

impl std::error::Error for CharacterizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharacterizeError::SignalLost { .. } => None,
            CharacterizeError::Unmeasurable { source, .. } => Some(source),
        }
    }
}

/// A measured `delay(vctrl, preceding-interval)` lookup table with
/// bilinear interpolation and boundary clamping.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayTable {
    vctrls: Vec<Voltage>,
    intervals: Vec<Time>,
    /// `delays[i][j]` is the mean delay at `vctrls[i]`, `intervals[j]`.
    delays: Vec<Vec<Time>>,
}

impl DelayTable {
    /// Builds a table from grids and measured values.
    ///
    /// # Panics
    ///
    /// Panics if grids are empty, unsorted, or the value matrix has the
    /// wrong shape.
    pub fn new(vctrls: Vec<Voltage>, intervals: Vec<Time>, delays: Vec<Vec<Time>>) -> Self {
        assert!(
            !vctrls.is_empty() && !intervals.is_empty(),
            "grids must be non-empty"
        );
        assert!(
            vctrls.windows(2).all(|w| w[0] < w[1]),
            "vctrl grid must be strictly ascending"
        );
        assert!(
            intervals.windows(2).all(|w| w[0] < w[1]),
            "interval grid must be strictly ascending"
        );
        assert_eq!(delays.len(), vctrls.len(), "one delay row per vctrl");
        assert!(
            delays.iter().all(|row| row.len() == intervals.len()),
            "one delay per interval in every row"
        );
        DelayTable {
            vctrls,
            intervals,
            delays,
        }
    }

    /// The control-voltage grid.
    pub fn vctrls(&self) -> &[Voltage] {
        &self.vctrls
    }

    /// The preceding-interval grid.
    pub fn intervals(&self) -> &[Time] {
        &self.intervals
    }

    fn bracket<T>(grid: &[T], x: T) -> (usize, usize, f64)
    where
        T: Copy + PartialOrd + core::ops::Sub<Output = T> + core::ops::Div<T, Output = f64>,
    {
        if grid.len() == 1 {
            return (0, 0, 0.0);
        }
        let mut i = grid.partition_point(|&g| g <= x);
        if i == 0 {
            return (0, 0, 0.0);
        }
        if i >= grid.len() {
            i = grid.len();
            return (i - 1, i - 1, 0.0);
        }
        let (lo, hi) = (i - 1, i);
        let frac = (x - grid[lo]) / (grid[hi] - grid[lo]);
        (lo, hi, frac.clamp(0.0, 1.0))
    }

    /// Looks up the delay with bilinear interpolation, clamping outside the
    /// measured grid.
    pub fn delay_at(&self, vctrl: Voltage, interval: Time) -> Time {
        let (v0, v1, fv) = Self::bracket(&self.vctrls, vctrl);
        let (i0, i1, fi) = Self::bracket(&self.intervals, interval);
        let d00 = self.delays[v0][i0];
        let d01 = self.delays[v0][i1];
        let d10 = self.delays[v1][i0];
        let d11 = self.delays[v1][i1];
        let low = d00 + (d01 - d00) * fi;
        let high = d10 + (d11 - d10) * fi;
        low + (high - low) * fv
    }

    /// The delay-vs-`Vctrl` curve at one preceding interval: one
    /// `(vctrl, delay)` point per grid voltage, interpolated across the
    /// interval axis. This is the cache-backed solve entry point the
    /// calibration path uses — a table memoized by
    /// [`measure_delay_tables_cached_with`] answers every later curve request
    /// without re-measuring, so concurrent consumers (e.g. the
    /// `vardelay-serve` channels) share one characterization.
    pub fn curve_at(&self, interval: Time) -> Vec<(Voltage, Time)> {
        self.vctrls
            .iter()
            .map(|&v| (v, self.delay_at(v, interval)))
            .collect()
    }

    /// The measured delay span (max − min across the whole table).
    pub fn delay_span(&self) -> Time {
        let mut lo = Time::from_s(f64::INFINITY);
        let mut hi = Time::from_s(f64::NEG_INFINITY);
        for row in &self.delays {
            for &d in row {
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
        hi - lo
    }
}

/// Measures a `delay(vctrl, interval)` table by driving a freshly-built
/// chain with toggling clock stimuli, exactly as on the bench.
///
/// For every grid point the chain is rebuilt by `build(vctrl)` (so noise
/// seeds and filter states reset), driven with a 1010… pattern whose bit
/// period equals the interval, and the mean delay over the steady-state
/// tail of the capture is recorded. Chains built for characterization
/// should disable voltage noise so the table is a clean mean.
///
/// # Panics
///
/// Panics if the grids are empty or if a chain output produces no
/// measurable crossings at some grid point (signal completely lost).
pub fn measure_delay_table(
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> DelayTable {
    measure_delay_table_with(Runner::global(), build, vctrls, intervals, render)
}

/// [`measure_delay_table`] on an explicit [`Runner`] (used by the
/// determinism regression tests to force thread counts).
///
/// Every grid cell builds its own chain from scratch and shares no state
/// with any other cell, so the fan-out is bit-identical to the serial
/// nested loop at every thread count.
pub fn measure_delay_table_with(
    runner: Runner,
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> DelayTable {
    match try_measure_delay_table_with(runner, build, vctrls, intervals, render) {
        Ok(table) => table,
        Err(e) => panic!("{e}"),
    }
}

/// [`measure_delay_table`] returning a typed error instead of panicking
/// when a grid point carries no measurable signal — the entry point for
/// fault-tolerant callers (a dead-driver channel under fault injection
/// yields `Err`, and the channel can be quarantined rather than taking
/// the worker down).
///
/// # Errors
///
/// Returns [`CharacterizeError`] for the first grid point (in row-major
/// `vctrls × intervals` order) whose output lost the signal or could not
/// be paired into a delay.
pub fn try_measure_delay_table(
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<DelayTable, CharacterizeError> {
    try_measure_delay_table_with(Runner::global(), build, vctrls, intervals, render)
}

/// [`try_measure_delay_table`] on an explicit [`Runner`].
///
/// # Errors
///
/// Returns [`CharacterizeError`] for the first failing grid point.
pub fn try_measure_delay_table_with(
    runner: Runner,
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<DelayTable, CharacterizeError> {
    let drive = |vctrl: Voltage, wf: &Waveform, tap: &mut dyn FnMut(Waveform)| {
        tap(build(vctrl).process(wf));
    };
    let mut tables = measure_grid(runner, 1, &drive, vctrls, intervals, render)?;
    Ok(tables.pop().expect("one table per tap"))
}

/// Measures one `delay(vctrl, interval)` table per cascade depth in a
/// single sweep: every grid cell builds one chain with `build(vctrl)`,
/// drives it to the deepest of `depths`, and measures the output tapped
/// at each depth (see [`TappedCascade`]). Tables come back in `depths`
/// order, each equal to the table [`try_measure_delay_table_with`] would
/// measure on a `depth`-deep chain.
///
/// # Errors
///
/// Returns [`CharacterizeError`] for the first failing grid point (in
/// row-major `vctrls × intervals` order, shallowest depth first).
///
/// # Panics
///
/// Panics if `depths` is empty or not strictly ascending.
fn try_measure_delay_tables_tapped_with(
    runner: Runner,
    build: &(dyn Fn(Voltage) -> Box<dyn TappedCascade + Send> + Sync),
    depths: &[usize],
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<Vec<DelayTable>, CharacterizeError> {
    assert!(!depths.is_empty(), "at least one depth required");
    assert!(
        depths.windows(2).all(|w| w[0] < w[1]),
        "depths must be strictly ascending"
    );
    let drive = |vctrl: Voltage, wf: &Waveform, tap: &mut dyn FnMut(Waveform)| {
        build(vctrl).process_taps(wf, depths, tap);
    };
    measure_grid(runner, depths.len(), &drive, vctrls, intervals, render)
}

/// Runs one grid cell: drives the chain built for `vctrl` with the
/// stimulus and hands each tapped output to the callback, in tap order.
type DriveCell<'a> = dyn Fn(Voltage, &Waveform, &mut dyn FnMut(Waveform)) + Sync + 'a;

/// The bench sweep behind every table: for each `(vctrl, interval)` cell,
/// render a 1010… stimulus toggling every `interval`, let `drive` produce
/// `taps` outputs, and record each output's steady-state mean delay.
///
/// Every grid cell builds its own chain from scratch and shares no state
/// with any other cell, so the fan-out is bit-identical to the serial
/// nested loop at every thread count. Each output is reduced to its edge
/// stream as soon as it arrives and its buffer recycled, so a cell keeps
/// at most one tapped trace alive.
fn measure_grid(
    runner: Runner,
    taps: usize,
    drive: &DriveCell<'_>,
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<Vec<DelayTable>, CharacterizeError> {
    assert!(
        !vctrls.is_empty() && !intervals.is_empty(),
        "grids must be non-empty"
    );
    const WARMUP_EDGES: usize = 8;
    const TOTAL_BITS: usize = 24;

    let cells: Vec<(Voltage, Time)> = vctrls
        .iter()
        .flat_map(|&v| intervals.iter().map(move |&i| (v, i)))
        .collect();
    let measured = runner
        .par_map(&cells, |_, &(vctrl, interval)| {
            let rate = BitRate::from_bps(1.0 / interval.as_s());
            let stimulus = EdgeStream::nrz(&BitPattern::clock(TOTAL_BITS), rate);
            let wf = Waveform::render(&stimulus, render);
            let mut delays = Vec::with_capacity(taps);
            drive(vctrl, &wf, &mut |out_wf| {
                let out = to_edge_stream(&out_wf, 0.0, rate.bit_period());
                pool::recycle(out_wf.into_samples());
                delays.push(if out.len() <= WARMUP_EDGES {
                    Err(CharacterizeError::SignalLost {
                        vctrl,
                        interval,
                        edges: out.len(),
                    })
                } else {
                    // Polarity-safe tail pairing: robust to start-up
                    // transients and to a final edge cut off by the
                    // capture window.
                    vardelay_measure::tail_mean_delay(&stimulus, &out, WARMUP_EDGES).map_err(
                        |source| CharacterizeError::Unmeasurable {
                            vctrl,
                            interval,
                            source,
                        },
                    )
                });
            });
            pool::recycle(wf.into_samples());
            assert_eq!(delays.len(), taps, "one output per tap");
            delays.into_iter().collect::<Result<Vec<Time>, _>>()
        })
        .into_iter()
        .collect::<Result<Vec<Vec<Time>>, CharacterizeError>>()?;
    Ok((0..taps)
        .map(|tap| {
            let delays = measured
                .chunks(intervals.len())
                .map(|row| row.iter().map(|cell| cell[tap]).collect())
                .collect();
            DelayTable::new(vctrls.to_vec(), intervals.to_vec(), delays)
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Characterization cache
// ---------------------------------------------------------------------------

static MEMO: LazyLock<Memo<u64, DelayTable>> = LazyLock::new(|| {
    Memo::pure(
        "analog.cache_hits",
        "analog.cache_misses",
        "analog.single_flight_waits",
    )
});

/// `(hits, misses)` counters of the process-wide characterization cache.
/// A miss is counted once per *measurement*, not once per caller — a
/// racer that waited for another thread's in-flight measurement counts
/// under [`characterization_single_flight_waits`] instead.
pub fn characterization_cache_stats() -> (u64, u64) {
    let [hits, misses, ..] = MEMO.stats();
    (hits, misses)
}

/// How many cache lookups blocked on another thread's in-flight
/// measurement of the same key (and were spared a duplicate sweep).
pub fn characterization_single_flight_waits() -> u64 {
    let [_, _, waits, _] = MEMO.stats();
    waits
}

/// Empties the characterization cache (counters are left running). Meant
/// for tests and for benchmarks that need a cold start. Threads already
/// waiting on an in-flight measurement keep their slot and complete
/// normally; only future lookups start cold.
pub fn clear_characterization_cache() {
    MEMO.clear();
}

/// One `delay(vctrl, interval)` table per cascade depth from a single
/// tapped sweep (see [`TappedCascade`]), memoized per depth on
/// `(model_keys[k], grids, render)`.
///
/// `model_keys[k]` must fingerprint **everything** the `depths[k]`-deep
/// chain depends on that can influence the measurement (see
/// `ModelConfig::fingerprint` in `vardelay-core`, and DESIGN.md §8 for the
/// invalidation rule); the grid values and render settings are folded in
/// here. A cached depth is cloned out and not re-measured; the rest are
/// measured in one tapped sweep to the deepest of them, counting one miss
/// per table, and racing families single-flight per depth. When every
/// depth hits, `build` is never called. Disable with the
/// `VARDELAY_NO_CACHE` environment variable (checked once per process):
/// every call then measures every depth and stores nothing.
///
/// # Panics
///
/// Panics if `model_keys` and `depths` differ in length, if `depths` is
/// not strictly ascending, or if a grid point carries no measurable
/// signal.
pub fn measure_delay_tables_cached_with(
    runner: Runner,
    model_keys: &[u64],
    build: &(dyn Fn(Voltage) -> Box<dyn TappedCascade + Send> + Sync),
    depths: &[usize],
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Vec<DelayTable> {
    assert_eq!(model_keys.len(), depths.len(), "one model key per depth");
    let measure = |positions: &[usize]| {
        let owned: Vec<usize> = positions.iter().map(|&k| depths[k]).collect();
        try_measure_delay_tables_tapped_with(runner, build, &owned, vctrls, intervals, render)
            .unwrap_or_else(|e| panic!("{e}"))
    };
    if !cache_enabled() {
        let all: Vec<usize> = (0..depths.len()).collect();
        return measure(&all);
    }
    let key = |&model_key: &u64| grid_key(model_key, vctrls, intervals, render);
    let keys: Vec<u64> = model_keys.iter().map(key).collect();
    let tables = MEMO.get_or_init(&keys, drop, |owned| {
        let _span = obs::span("analog.characterize_miss_us");
        measure(owned)
    });
    tables.iter().map(|t| DelayTable::clone(t)).collect()
}

/// The cache key of one table: the model key folded with the grid values
/// and render settings.
fn grid_key(model_key: u64, vctrls: &[Voltage], intervals: &[Time], render: &RenderConfig) -> u64 {
    let vctrls: Vec<f64> = vctrls.iter().map(|v| v.as_v()).collect();
    let intervals: Vec<f64> = intervals.iter().map(|i| i.as_s()).collect();
    Fingerprint::new()
        .push_u64(model_key)
        .push_f64_slice(&vctrls)
        .push_f64_slice(&intervals)
        .push_f64(render.dt.as_s())
        .push_f64(render.swing.as_v())
        .push_f64(render.rise_time.as_s())
        .push_f64(render.padding.as_s())
        .finish()
}

/// A table-driven edge-domain delay element with per-edge random jitter —
/// the fast model of a characterized chain.
#[derive(Debug, Clone)]
pub struct CharacterizedDelay {
    table: DelayTable,
    vctrl: Voltage,
    rj_sigma: Time,
    rng: SplitMix64,
    label: String,
}

impl CharacterizedDelay {
    /// Creates a model at the given operating point.
    pub fn new(table: DelayTable, vctrl: Voltage, rj_sigma: Time, seed: u64) -> Self {
        CharacterizedDelay {
            table,
            vctrl,
            rj_sigma,
            rng: SplitMix64::new(seed),
            label: "characterized-delay".to_owned(),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &DelayTable {
        &self.table
    }

    /// Current control voltage.
    pub fn vctrl(&self) -> Voltage {
        self.vctrl
    }

    /// Reprograms the control voltage.
    pub fn set_vctrl(&mut self, vctrl: Voltage) {
        self.vctrl = vctrl;
    }

    /// Delays a stream using per-edge control voltages (one per edge) —
    /// the jitter-injection path, where `Vctrl` moves with coupled noise.
    ///
    /// # Panics
    ///
    /// Panics if `vctrls.len()` differs from the edge count.
    pub fn transform_with_vctrls(&mut self, input: &EdgeStream, vctrls: &[Voltage]) -> EdgeStream {
        assert_eq!(
            vctrls.len(),
            input.len(),
            "one control voltage per edge required"
        );
        let times = self.displaced_times(input, |i| vctrls[i]);
        input.with_times(&times)
    }

    fn displaced_times(
        &mut self,
        input: &EdgeStream,
        vctrl_of: impl Fn(usize) -> Voltage,
    ) -> Vec<Time> {
        // The first edge has no preceding interval; assume steady state by
        // borrowing the following interval (falling back to the longest
        // characterized one for single-edge streams). Without this, the
        // first edge becomes a large delay outlier that dominates
        // peak-to-peak jitter measurements.
        let long = *self
            .table
            .intervals()
            .last()
            .expect("table grids are non-empty");
        let first_interval = match input.edges() {
            [a, b, ..] => b.time - a.time,
            _ => long,
        };
        let mut prev: Option<Time> = None;
        input
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let interval = prev.map_or(first_interval, |p| e.time - p);
                prev = Some(e.time);
                let mut d = self.table.delay_at(vctrl_of(i), interval);
                if self.rj_sigma > Time::ZERO {
                    d += self.rj_sigma * self.rng.gaussian();
                }
                e.time + d
            })
            .collect()
    }
}

impl EdgeTransform for CharacterizedDelay {
    fn transform(&mut self, input: &EdgeStream) -> EdgeStream {
        let vctrl = self.vctrl;
        let times = self.displaced_times(input, |_| vctrl);
        input.with_times(&times)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tline::TransmissionLine;
    use crate::vga_buffer::{VgaBuffer, VgaBufferConfig};
    use std::sync::atomic::Ordering;
    use std::sync::Mutex;

    /// Tests that assert on the global hit/miss/wait counters must not
    /// interleave with other cache-touching tests in this binary.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        COUNTER_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn table_2x2() -> DelayTable {
        DelayTable::new(
            vec![Voltage::from_v(0.0), Voltage::from_v(1.0)],
            vec![Time::from_ps(100.0), Time::from_ps(200.0)],
            vec![
                vec![Time::from_ps(10.0), Time::from_ps(20.0)],
                vec![Time::from_ps(30.0), Time::from_ps(40.0)],
            ],
        )
    }

    #[test]
    fn bilinear_interpolation() {
        let t = table_2x2();
        let mid = t.delay_at(Voltage::from_v(0.5), Time::from_ps(150.0));
        assert!((mid.as_ps() - 25.0).abs() < 1e-9);
        // Clamping outside the grid.
        let low = t.delay_at(Voltage::from_v(-5.0), Time::from_ps(50.0));
        assert!((low.as_ps() - 10.0).abs() < 1e-9);
        let high = t.delay_at(Voltage::from_v(5.0), Time::from_ps(500.0));
        assert!((high.as_ps() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn delay_span() {
        assert!((table_2x2().delay_span().as_ps() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn measured_table_of_a_pure_line_is_flat() {
        let build = |_v: Voltage| -> Box<dyn AnalogBlock + Send> {
            Box::new(TransmissionLine::new(Time::from_ps(33.0)))
        };
        let table = measure_delay_table(
            &build,
            &[Voltage::ZERO, Voltage::from_v(1.5)],
            &[Time::from_ps(500.0), Time::from_ps(1000.0)],
            &RenderConfig::default_source(),
        );
        for v in table.vctrls() {
            for i in table.intervals() {
                let d = table.delay_at(*v, *i);
                assert!((d.as_ps() - 33.0).abs() < 0.5, "d {d}");
            }
        }
    }

    #[test]
    fn measured_vga_table_shows_amplitude_dependence() {
        let mut cfg = VgaBufferConfig::paper_default();
        cfg.core.noise_rms = Voltage::ZERO;
        let build = move |v: Voltage| -> Box<dyn AnalogBlock + Send> {
            let mut buf = VgaBuffer::new(cfg.clone(), 1);
            buf.set_vctrl(v);
            Box::new(buf)
        };
        let table = measure_delay_table(
            &build,
            &[Voltage::ZERO, Voltage::from_v(0.75), Voltage::from_v(1.5)],
            &[Time::from_ps(1000.0)],
            &RenderConfig::default_source(),
        );
        let long = Time::from_ps(1000.0);
        let d_lo = table.delay_at(Voltage::ZERO, long);
        let d_hi = table.delay_at(Voltage::from_v(1.5), long);
        let range = (d_hi - d_lo).as_ps();
        assert!((5.0..20.0).contains(&range), "range {range} ps");
    }

    #[test]
    fn characterized_delay_applies_table() {
        let table = table_2x2();
        let mut model = CharacterizedDelay::new(table, Voltage::from_v(1.0), Time::ZERO, 1);
        let stream = EdgeStream::nrz(&BitPattern::clock(10), BitRate::from_bps(1.0 / 200e-12));
        let out = model.transform(&stream);
        let d = vardelay_measure::mean_delay(&stream, &out).unwrap();
        // All intervals are 200 ps → delay 40 ps at vctrl = 1 V.
        assert!((d.as_ps() - 40.0).abs() < 0.1, "d {d}");
    }

    #[test]
    fn per_edge_vctrls_modulate_delay() {
        let table = table_2x2();
        let mut model = CharacterizedDelay::new(table, Voltage::ZERO, Time::ZERO, 1);
        let stream = EdgeStream::nrz(&BitPattern::clock(4), BitRate::from_bps(1.0 / 200e-12));
        let vctrls: Vec<Voltage> = (0..stream.len())
            .map(|i| {
                if i % 2 == 0 {
                    Voltage::ZERO
                } else {
                    Voltage::from_v(1.0)
                }
            })
            .collect();
        let out = model.transform_with_vctrls(&stream, &vctrls);
        let seq = vardelay_measure::delay_sequence(&stream, &out).unwrap();
        assert!((seq[1] - seq[0]).as_ps() > 15.0); // 40 vs 20 ps
    }

    #[test]
    fn measured_table_is_thread_count_invariant() {
        let build = |_v: Voltage| -> Box<dyn AnalogBlock + Send> {
            Box::new(TransmissionLine::new(Time::from_ps(21.0)))
        };
        let vctrls = [Voltage::ZERO, Voltage::from_v(0.7), Voltage::from_v(1.5)];
        let intervals = [Time::from_ps(400.0), Time::from_ps(800.0)];
        let render = RenderConfig::default_source();
        let serial =
            measure_delay_table_with(Runner::serial(), &build, &vctrls, &intervals, &render);
        for threads in [2, 4, 8] {
            let parallel = measure_delay_table_with(
                Runner::new(threads),
                &build,
                &vctrls,
                &intervals,
                &render,
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    /// A cascade of identical `step_ps` lines: the tap at depth `d` is the
    /// input delayed by `d · step_ps`. Records every depth list it is
    /// driven with in `driven`, so tests can see which depths a sweep
    /// actually measured.
    struct LineCascade {
        step_ps: f64,
        driven: Option<&'static Mutex<Vec<Vec<usize>>>>,
    }

    impl TappedCascade for LineCascade {
        fn process_taps(
            &mut self,
            input: &Waveform,
            depths: &[usize],
            tap: &mut dyn FnMut(Waveform),
        ) {
            if let Some(driven) = self.driven {
                driven.lock().unwrap().push(depths.to_vec());
            }
            for &d in depths {
                tap(TransmissionLine::new(Time::from_ps(self.step_ps * d as f64)).process(input));
            }
        }
    }

    fn lines(step_ps: f64) -> Box<dyn TappedCascade + Send> {
        Box::new(LineCascade {
            step_ps,
            driven: None,
        })
    }

    /// A one-depth family through the cache: the single-table lookup
    /// `FineDelayLine::characterize_with` makes.
    fn cached_one(
        key: u64,
        build: &(dyn Fn(Voltage) -> Box<dyn TappedCascade + Send> + Sync),
        vctrls: &[Voltage],
        intervals: &[Time],
    ) -> DelayTable {
        let render = RenderConfig::default_source();
        let runner = Runner::global();
        measure_delay_tables_cached_with(runner, &[key], build, &[1], vctrls, intervals, &render)
            .pop()
            .expect("one table per depth")
    }

    #[test]
    fn cached_table_matches_uncached_and_hits_on_repeat() {
        let _counters = counter_lock();
        let build = |_v: Voltage| -> Box<dyn AnalogBlock + Send> {
            Box::new(TransmissionLine::new(Time::from_ps(11.0)))
        };
        let tapped = |_v: Voltage| lines(11.0);
        let vctrls = [Voltage::ZERO, Voltage::from_v(1.0)];
        let intervals = [Time::from_ps(600.0)];
        let render = RenderConfig::default_source();
        // A key private to this test so parallel tests cannot collide.
        let key = 0xc0de_cafe_0000_0001;
        let uncached = measure_delay_table(&build, &vctrls, &intervals, &render);
        let first = cached_one(key, &tapped, &vctrls, &intervals);
        assert_eq!(first, uncached);
        let (hits_before, _) = characterization_cache_stats();
        let second = cached_one(key, &tapped, &vctrls, &intervals);
        assert_eq!(second, first);
        if cache_enabled() {
            let (hits_after, _) = characterization_cache_stats();
            assert!(hits_after > hits_before, "repeat lookup should hit");
        }
    }

    #[test]
    fn cache_distinguishes_grids_and_keys() {
        let _counters = counter_lock();
        let build = |_v: Voltage| lines(5.0);
        let key = 0xc0de_cafe_0000_0002;
        let a = cached_one(key, &build, &[Voltage::ZERO], &[Time::from_ps(500.0)]);
        // Same key, different grid → different cache entry, correct grid out.
        let b = cached_one(key, &build, &[Voltage::ZERO], &[Time::from_ps(900.0)]);
        assert_ne!(a.intervals(), b.intervals());
    }

    /// The cache-stampede regression test (ISSUE 2): two threads missing
    /// on the same key must produce **one** measurement and **one**
    /// counted miss; the loser waits for the winner's table instead of
    /// re-running the full `vctrls × intervals` sweep.
    ///
    /// The barrier forces the race deterministically: the leader's build
    /// closure blocks on the barrier *inside* the single-flight slot, and
    /// the second thread only starts its lookup once the barrier has
    /// released — i.e. provably while the first measurement is still in
    /// flight.
    #[test]
    fn racing_identical_keys_measure_once_and_count_one_miss() {
        if !cache_enabled() {
            return; // VARDELAY_NO_CACHE=1: nothing to single-flight.
        }
        let _counters = counter_lock();
        let key = 0xc0de_cafe_0000_0003;
        let build_calls = std::sync::atomic::AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        let vctrls = [Voltage::ZERO];
        let intervals = [Time::from_ps(700.0)];

        let leader_build = |_v: Voltage| {
            barrier.wait();
            // Hold the measurement in flight long enough for the second
            // thread to reach the cache and block on the slot.
            std::thread::sleep(std::time::Duration::from_millis(200));
            build_calls.fetch_add(1, Ordering::Relaxed);
            lines(17.0)
        };
        let racer_build = |_v: Voltage| {
            build_calls.fetch_add(1, Ordering::Relaxed);
            lines(17.0)
        };

        let (hits0, misses0) = characterization_cache_stats();
        let waits0 = characterization_single_flight_waits();
        let (a, b) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| cached_one(key, &leader_build, &vctrls, &intervals));
            let racer = scope.spawn(|| {
                // Released exactly when the leader is inside its build
                // closure, i.e. mid-measurement.
                barrier.wait();
                cached_one(key, &racer_build, &vctrls, &intervals)
            });
            (leader.join().unwrap(), racer.join().unwrap())
        });

        assert_eq!(a, b, "racers must observe the same table");
        assert_eq!(
            build_calls.load(Ordering::Relaxed),
            1,
            "exactly one measurement may run for one key"
        );
        let (hits1, misses1) = characterization_cache_stats();
        assert_eq!(misses1 - misses0, 1, "exactly one miss for the race");
        // The racer either blocked on the in-flight measurement (the
        // expected path) or — if wildly descheduled — arrived after
        // completion and counted a plain hit; both prove no stampede.
        let waited = characterization_single_flight_waits() - waits0;
        let hit = hits1 - hits0;
        assert_eq!(waited + hit, 1, "waits {waited} hits {hit}");

        // A later lookup on the same key is a plain hit.
        let again = cached_one(key, &racer_build, &vctrls, &intervals);
        assert_eq!(again, a);
        assert_eq!(characterization_cache_stats().1, misses1, "no extra miss");
        assert_eq!(build_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn depth_family_measures_only_uncached_depths() {
        if !cache_enabled() {
            return; // VARDELAY_NO_CACHE=1: every call measures.
        }
        let _counters = counter_lock();
        static DRIVEN: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let build = |_v: Voltage| -> Box<dyn TappedCascade + Send> {
            Box::new(LineCascade {
                step_ps: 11.0,
                driven: Some(&DRIVEN),
            })
        };
        let vctrls = [Voltage::ZERO, Voltage::from_v(1.0)];
        let intervals = [Time::from_ps(600.0)];
        let render = RenderConfig::default_source();
        let keys = [
            0xc0de_cafe_0000_0011,
            0xc0de_cafe_0000_0012,
            0xc0de_cafe_0000_0013,
        ];
        let runner = Runner::serial();

        let (_, misses0) = characterization_cache_stats();
        let first = measure_delay_tables_cached_with(
            runner,
            &keys[..2],
            &build,
            &[1, 2],
            &vctrls,
            &intervals,
            &render,
        );
        for (depth, table) in [1.0, 2.0].iter().zip(&first) {
            let d = table.delay_at(Voltage::ZERO, Time::from_ps(600.0));
            assert!((d.as_ps() - 11.0 * depth).abs() < 0.5, "depth {depth}: {d}");
        }
        assert_eq!(
            characterization_cache_stats().1 - misses0,
            2,
            "one miss per table"
        );
        assert!(DRIVEN.lock().unwrap().iter().all(|d| d == &[1, 2]));

        // Extending the family measures only the new depth…
        DRIVEN.lock().unwrap().clear();
        let (hits1, misses1) = characterization_cache_stats();
        let second = measure_delay_tables_cached_with(
            runner,
            &keys,
            &build,
            &[1, 2, 3],
            &vctrls,
            &intervals,
            &render,
        );
        assert_eq!(second[..2], first[..]);
        let (hits2, misses2) = characterization_cache_stats();
        assert_eq!((hits2 - hits1, misses2 - misses1), (2, 1));
        let driven = DRIVEN.lock().unwrap().clone();
        assert_eq!(driven.len(), vctrls.len() * intervals.len());
        assert!(driven.iter().all(|d| d == &[3]), "{driven:?}");

        // …and a single-depth lookup on a family key is a plain hit.
        let never = |_v: Voltage| -> Box<dyn TappedCascade + Send> {
            panic!("a cached key must not be measured")
        };
        let single = cached_one(keys[2], &never, &vctrls, &intervals);
        assert_eq!(single, second[2]);
    }

    /// Two families sharing depths 2 and 4 race, forced by a barrier as in
    /// the single-key test: the leader holds claims on 1, 2 and 4 while the
    /// racer starts. The racer blocks on depth 2, then finds 2 and 4
    /// filled and measures only depth 8. Every table counts one miss.
    #[test]
    fn racing_depth_families_share_overlapping_depths() {
        if !cache_enabled() {
            return;
        }
        let _counters = counter_lock();
        static DRIVEN: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let barrier = std::sync::Barrier::new(2);
        let cascade = || -> Box<dyn TappedCascade + Send> {
            Box::new(LineCascade {
                step_ps: 7.0,
                driven: Some(&DRIVEN),
            })
        };
        let leader_build = |_v: Voltage| {
            barrier.wait();
            std::thread::sleep(std::time::Duration::from_millis(200));
            cascade()
        };
        let racer_build = |_v: Voltage| cascade();
        let vctrls = [Voltage::ZERO];
        let intervals = [Time::from_ps(700.0)];
        let render = RenderConfig::default_source();
        let [k1, k2, k4, k8] = [
            0xc0de_cafe_0000_0021,
            0xc0de_cafe_0000_0022,
            0xc0de_cafe_0000_0024,
            0xc0de_cafe_0000_0028,
        ];
        let runner = Runner::serial();

        let (_, misses0) = characterization_cache_stats();
        let (a, b) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                measure_delay_tables_cached_with(
                    runner,
                    &[k1, k2, k4],
                    &leader_build,
                    &[1, 2, 4],
                    &vctrls,
                    &intervals,
                    &render,
                )
            });
            let racer = scope.spawn(|| {
                barrier.wait();
                measure_delay_tables_cached_with(
                    runner,
                    &[k2, k4, k8],
                    &racer_build,
                    &[2, 4, 8],
                    &vctrls,
                    &intervals,
                    &render,
                )
            });
            (leader.join().unwrap(), racer.join().unwrap())
        });
        assert_eq!(a[1..], b[..2]);
        assert_eq!(characterization_cache_stats().1 - misses0, 4);
        assert_eq!(*DRIVEN.lock().unwrap(), vec![vec![1, 2, 4], vec![8]]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn table_grid_validated() {
        let _ = DelayTable::new(
            vec![Voltage::from_v(1.0), Voltage::from_v(0.0)],
            vec![Time::from_ps(1.0)],
            vec![vec![Time::ZERO], vec![Time::ZERO]],
        );
    }
}
