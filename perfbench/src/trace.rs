//! In-memory spans for the traced run: a shared clock, a
//! [`TracedBackend`] that stamps every batch the serving worker runs, and
//! the partition of a request's client-observed interval into stages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use febim_core::{
    BackendInfo, BatchTelemetry, EvalScratch, InferenceBackend, InferenceStep, Result, SwapCost,
};
use febim_crossbar::{FaultSchedule, RefreshOutcome, ScrubOutcome};

/// Nanoseconds since one shared epoch, comparable across threads.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// FNV-1a over a sample's feature bits: identifies which sample a batch
/// slot carried without storing the sample.
pub fn fingerprint(sample: &[f64]) -> u64 {
    sample.iter().fold(0xcbf2_9ce4_8422_2325, |hash, value| {
        (hash ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Ring slots; far more than the requests a closed-loop client keeps in
/// flight, so a slot is never reused before the client has read it.
const SLOTS: usize = 1024;

#[derive(Default)]
struct Slot {
    /// Sample number + 1 of the last write (0 = never written); stored last
    /// with `Release` so a reader that sees it also sees the other fields.
    tag: AtomicU64,
    fingerprint: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// The batch span one sample rode in, as recorded by the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpan {
    /// Fingerprint of the sample the worker saw under this number.
    pub fingerprint: u64,
    /// Batch start, clock ns.
    pub start: u64,
    /// Batch end, clock ns.
    pub end: u64,
}

/// Spans written by the serving worker and read by the client. Samples are
/// numbered in the order the worker receives them; with one worker popping
/// its ring in FIFO order that is the order the client submitted them.
pub struct TraceLog {
    clock: Clock,
    next: AtomicU64,
    slots: Box<[Slot]>,
    rebuilds: AtomicU64,
}

impl TraceLog {
    /// An empty log on `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            next: AtomicU64::new(0),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            rebuilds: AtomicU64::new(0),
        }
    }

    fn record_batch(&self, samples: &[Vec<f64>], start: u64, end: u64) {
        for sample in samples {
            let number = self.next.fetch_add(1, Ordering::Relaxed);
            let slot = &self.slots[(number % SLOTS as u64) as usize];
            slot.fingerprint
                .store(fingerprint(sample), Ordering::Relaxed);
            slot.start.store(start, Ordering::Relaxed);
            slot.end.store(end, Ordering::Relaxed);
            slot.tag.store(number + 1, Ordering::Release);
        }
    }

    /// The span of sample `number`, if the worker has recorded it and the
    /// slot still holds it.
    pub fn span(&self, number: u64) -> Option<BatchSpan> {
        let slot = &self.slots[(number % SLOTS as u64) as usize];
        if slot.tag.load(Ordering::Acquire) != number + 1 {
            return None;
        }
        Some(BatchSpan {
            fingerprint: slot.fingerprint.load(Ordering::Relaxed),
            start: slot.start.load(Ordering::Relaxed),
            end: slot.end.load(Ordering::Relaxed),
        })
    }

    /// Cache rebuilds the backend had counted after its latest batch.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }
}

/// An [`InferenceBackend`] that forwards every call to `inner` and records,
/// around each `infer_batch_into`, the batch span of every sample in it plus
/// the inner backend's cache-rebuild count. Built through
/// `FebimEngine::fit_with`, it rides the serving pool like any backend.
pub struct TracedBackend<B> {
    inner: B,
    log: Arc<TraceLog>,
    rebuilds: fn(&B) -> u64,
}

impl<B> TracedBackend<B> {
    /// Wraps `inner`, logging into `log`; `rebuilds` reads the inner
    /// backend's cumulative cache-rebuild count.
    pub fn new(inner: B, log: Arc<TraceLog>, rebuilds: fn(&B) -> u64) -> Self {
        Self {
            inner,
            log,
            rebuilds,
        }
    }
}

impl<B: InferenceBackend> InferenceBackend for TracedBackend<B> {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn make_scratch(&self) -> EvalScratch {
        self.inner.make_scratch()
    }

    fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> Result<InferenceStep> {
        self.inner.infer_into(sample, scratch)
    }

    fn infer_batch_into(
        &self,
        samples: &[Vec<f64>],
        scratch: &mut EvalScratch,
        steps: &mut Vec<InferenceStep>,
    ) -> Result<BatchTelemetry> {
        let start = self.log.clock.now_ns();
        let result = self.inner.infer_batch_into(samples, scratch, steps);
        let end = self.log.clock.now_ns();
        self.log
            .rebuilds
            .store((self.rebuilds)(&self.inner), Ordering::Relaxed);
        self.log.record_batch(samples, start, end);
        result
    }

    fn reprogram(&mut self) -> Result<()> {
        self.inner.reprogram()
    }

    fn current_map_into(&self, out: &mut Vec<f64>) -> Result<()> {
        self.inner.current_map_into(out)
    }

    fn advance_time(&mut self, ticks: u64) {
        self.inner.advance_time(ticks);
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }

    fn state_epoch(&self) -> u64 {
        self.inner.state_epoch()
    }

    fn worst_effective_shift(&self) -> f64 {
        self.inner.worst_effective_shift()
    }

    fn recalibrate(&mut self, max_vth_shift: f64) -> Result<RefreshOutcome> {
        self.inner.recalibrate(max_vth_shift)
    }

    fn scrub(&mut self, max_vth_shift: f64) -> Result<ScrubOutcome> {
        self.inner.scrub(max_vth_shift)
    }

    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.inner.set_fault_schedule(schedule);
    }

    fn pending_faults(&self) -> usize {
        self.inner.pending_faults()
    }

    fn program_cost(&self) -> Option<SwapCost> {
        self.inner.program_cost()
    }

    fn decommission(&mut self) -> Result<Option<SwapCost>> {
        self.inner.decommission()
    }
}

/// Splits a request's client-observed interval `[sent, answered]` into
/// `submit`, `dispatch`, `batch` and `answer` stages. Worker stamps are
/// clipped into the interval and into order, so the stages never go
/// negative (a worker may start the batch before `submit` has returned)
/// and always sum to `answered - sent`.
pub fn partition(sent: u64, submitted: u64, span: BatchSpan, answered: u64) -> [u64; 4] {
    let submitted = submitted.clamp(sent, answered);
    let start = span.start.clamp(submitted, answered);
    let end = span.end.clamp(start, answered);
    [
        submitted - sent,
        start - submitted,
        end - start,
        answered - end,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_partition_the_interval_even_when_stamps_overlap() {
        let span = BatchSpan {
            fingerprint: 0,
            start: 105,
            end: 130,
        };
        // The batch started before submit returned at 110.
        let stages = partition(100, 110, span, 150);
        assert_eq!(stages, [10, 0, 20, 20]);
        assert_eq!(stages.iter().sum::<u64>(), 50);
        let late = BatchSpan {
            fingerprint: 0,
            start: 120,
            end: 170,
        };
        assert_eq!(partition(100, 110, late, 150), [10, 10, 30, 0]);
    }

    #[test]
    fn spans_are_found_by_sample_number_only() {
        let log = TraceLog::new(Clock::start());
        let samples = vec![vec![1.0, 2.0], vec![3.0]];
        log.record_batch(&samples, 5, 9);
        let span = log.span(1).expect("second sample recorded");
        assert_eq!(span.fingerprint, fingerprint(&[3.0]));
        assert_eq!((span.start, span.end), (5, 9));
        assert!(log.span(2).is_none());
        assert!(log.span(1 + SLOTS as u64).is_none());
    }
}
