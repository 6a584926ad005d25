//! A metering [`CrowdSource`]: forwards every call to the simulated crowd
//! and keeps the platform's invoice — dollars charged, rounds dispatched,
//! judgments bought — independent of how the database splits costs
//! between queries.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crowddb_core::{
    AttributeRequest, CrowdDbError, CrowdSource, OutstandingEstimate, SimulatedCrowd,
};
use crowdsim::{BatchCrowdRun, CrowdRun, Judgment, WorkerId};

use crate::trace::Tracer;

/// Judgments kept for re-aggregating offline (bounded).
const CAPTURE_LIMIT: usize = 4096;

/// The platform's invoice: one line per crowd round.
#[derive(Debug, Clone, Default)]
pub struct Invoice {
    /// Per round: dollars charged and judgments bought (gold included).
    pub rounds: Vec<(f64, u64)>,
    /// The first judgments of the first question, for the EM layer case.
    pub captured: Vec<Judgment>,
}

/// What the rounds from one invoice line onwards cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bill {
    /// Dollars charged.
    pub dollars: f64,
    /// Crowd rounds dispatched.
    pub rounds: u64,
    /// Judgments bought.
    pub judgments: u64,
}

impl Invoice {
    fn charge(&mut self, dollars: f64, judgments: usize, first_question: &[Judgment]) {
        self.rounds.push((dollars, judgments as u64));
        if self.captured.len() < CAPTURE_LIMIT {
            let room = CAPTURE_LIMIT - self.captured.len();
            self.captured
                .extend(first_question.iter().take(room).cloned());
        }
    }

    /// The bill of every round from line `from` on.  Summing the lines in
    /// order keeps the figure exactly repeatable.
    pub fn since(&self, from: usize) -> Bill {
        let lines = &self.rounds[from.min(self.rounds.len())..];
        Bill {
            dollars: lines.iter().map(|l| l.0).sum(),
            rounds: lines.len() as u64,
            judgments: lines.iter().map(|l| l.1).sum(),
        }
    }

    /// Judgments bought over the whole run.
    pub fn judgments(&self) -> u64 {
        self.since(0).judgments
    }
}

/// The wrapper the database is given in place of the simulated crowd.
pub struct MeteredCrowd {
    inner: SimulatedCrowd,
    invoice: Arc<Mutex<Invoice>>,
    tracer: Option<Arc<Tracer>>,
}

impl MeteredCrowd {
    /// Wraps `inner`, charging to `invoice` and, when tracing, recording a
    /// span per dispatch under the tracer's current operation.
    pub fn new(
        inner: SimulatedCrowd,
        invoice: Arc<Mutex<Invoice>>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        MeteredCrowd {
            inner,
            invoice,
            tracer,
        }
    }

    fn span(&self, name: &'static str, start: Instant) {
        if let Some(t) = &self.tracer {
            t.record(name, t.current_op(), false, start, Instant::now(), vec![]);
        }
    }

    fn bill_batch(&self, batch: &BatchCrowdRun) {
        let first = batch
            .question_judgments
            .first()
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        self.invoice.lock().expect("invoice lock poisoned").charge(
            batch.total_cost,
            batch.total_judgments(),
            first,
        );
    }
}

impl CrowdSource for MeteredCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        attribute: &str,
        seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        let start = Instant::now();
        let run = self.inner.collect(items, attribute, seed)?;
        self.span("crowd_source.dispatch", start);
        self.invoice.lock().expect("invoice lock poisoned").charge(
            run.total_cost,
            run.judgments.len(),
            &run.judgments,
        );
        Ok(run)
    }

    fn collect_batch(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        let start = Instant::now();
        let batch = self.inner.collect_batch(requests, seed)?;
        self.span("crowd_source.dispatch", start);
        self.bill_batch(&batch);
        Ok(batch)
    }

    fn collect_adaptive(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
        judgments_per_item: usize,
        preferred_workers: Option<&HashSet<WorkerId>>,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        let start = Instant::now();
        let batch =
            self.inner
                .collect_adaptive(requests, seed, judgments_per_item, preferred_workers)?;
        self.span("crowd_source.dispatch", start);
        self.bill_batch(&batch);
        Ok(batch)
    }

    fn adaptive_round_cost(&self, n_items: usize, judgments_per_item: usize) -> Option<f64> {
        self.inner.adaptive_round_cost(n_items, judgments_per_item)
    }

    fn estimate_cost(&self, n_items: usize) -> Option<f64> {
        self.inner.estimate_cost(n_items)
    }

    fn estimate_outstanding(&self, attribute: &str, items: &[u32]) -> Option<OutstandingEstimate> {
        self.inner.estimate_outstanding(attribute, items)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}
