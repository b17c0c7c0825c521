//! Bench-side wrappers around the program's public traits, and readings of
//! its process-global counters.
//!
//! The model leg reaches the engine through [`ModelErrorSource`] and the
//! predictors through [`Predictor`]; wrapping both is how the benchmark
//! times the model leg from outside without touching program code.

use crate::trace::Tracer;
use gridtuner_core::error::CoreError;
use gridtuner_engine::ModelErrorSource;
use gridtuner_predict::{PredictError, Predictor};
use gridtuner_spatial::{CountMatrix, CountSeries, SlotClock, SlotId};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// A model-error source that counts its evaluations (the paper's "model
/// trainings") and, when tracing, records each as a `model_leg` span.
pub struct TimedModel<M> {
    inner: M,
    tracer: Rc<Tracer>,
    calls: usize,
    values: HashMap<u32, f64>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M, tracer: Rc<Tracer>) -> Self {
        TimedModel {
            inner,
            tracer,
            calls: 0,
            values: HashMap::new(),
        }
    }

    /// Model-leg evaluations so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// The value the source returned at `side`, if it was evaluated.
    pub fn value(&self, side: u32) -> Option<f64> {
        self.values.get(&side).copied()
    }
}

impl<M: ModelErrorSource> ModelErrorSource for TimedModel<M> {
    fn model_error(&mut self, side: u32) -> Result<f64, CoreError> {
        let _span = self.tracer.span("model_leg");
        self.calls += 1;
        let v = self.inner.model_error(side)?;
        self.values.insert(side, v);
        Ok(v)
    }

    fn data_dependent(&self) -> bool {
        self.inner.data_dependent()
    }
}

/// A predictor that records `predict.fit` / `predict.eval` spans and
/// counts the sample-epochs its fits train.
pub struct TimedPredictor {
    inner: Box<dyn Predictor>,
    tracer: Rc<Tracer>,
    /// Training samples per epoch for a fit ending at `train_end`:
    /// `min(max_samples, train_end - first_usable_slot)`.
    first_usable: u32,
    max_samples: u64,
    sample_epochs: Rc<Cell<u64>>,
}

impl TimedPredictor {
    pub fn boxed(
        inner: Box<dyn Predictor>,
        tracer: Rc<Tracer>,
        first_usable: u32,
        max_samples: usize,
        sample_epochs: Rc<Cell<u64>>,
    ) -> Box<dyn Predictor> {
        Box::new(TimedPredictor {
            inner,
            tracer,
            first_usable,
            max_samples: max_samples as u64,
            sample_epochs,
        })
    }
}

impl Predictor for TimedPredictor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&mut self, series: &CountSeries, clock: &SlotClock, train_end: SlotId) {
        let epochs = train_epochs();
        {
            let _span = self.tracer.span("predict.fit");
            self.inner.fit(series, clock, train_end);
        }
        let samples =
            u64::from(train_end.0.saturating_sub(self.first_usable)).min(self.max_samples);
        let trained = (train_epochs() - epochs) * samples;
        self.sample_epochs.set(self.sample_epochs.get() + trained);
    }

    fn try_predict(
        &mut self,
        series: &CountSeries,
        clock: &SlotClock,
        slot: SlotId,
    ) -> Result<CountMatrix, PredictError> {
        let _span = self.tracer.span("predict.eval");
        self.inner.try_predict(series, clock, slot)
    }
}

/// Training epochs run in this process (the predictors' own counter).
fn train_epochs() -> u64 {
    gridtuner_obs::counter!("train.epochs").get()
}

/// The program's process-global kernel and pool counters. Their changes
/// over a decision are exact only with one session per process, which is
/// how the benchmark runs; they are never used as correctness checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cell_evals: u64,
    pub dedup_hits: u64,
    pub pmf_memo_hits: u64,
    pub dispatches: u64,
    pub lock_waits: u64,
}

impl Counters {
    pub fn now() -> Self {
        Counters {
            cell_evals: gridtuner_obs::counter!("expr.cell_evals").get(),
            dedup_hits: gridtuner_obs::counter!("expr.dedup_hits").get(),
            pmf_memo_hits: gridtuner_obs::counter!("expr.pmf_memo_hits").get(),
            dispatches: gridtuner_obs::counter!("par.dispatches").get(),
            lock_waits: gridtuner_obs::counter!("pmf_memo.lock_waits").get(),
        }
    }

    /// The change since `start`.
    pub fn since(start: Counters) -> Counters {
        let now = Counters::now();
        Counters {
            cell_evals: now.cell_evals - start.cell_evals,
            dedup_hits: now.dedup_hits - start.dedup_hits,
            pmf_memo_hits: now.pmf_memo_hits - start.pmf_memo_hits,
            dispatches: now.dispatches - start.dispatches,
            lock_waits: now.lock_waits - start.lock_waits,
        }
    }
}
