//! The worker-pool experiment executor.
//!
//! [`Engine::run`] executes every job of a [`Suite`] on a pool of worker
//! threads fed by a [`ShardedQueue`] of job indices. Each worker pops an
//! index, runs the job's scenario end to end (pre-training through the
//! shared single-flight cache in `replay4ncl::cache`, then the CL phase),
//! and records the result under that index. Results are re-assembled in
//! suite order, so the produced [`SuiteReport`] is **bit-identical
//! regardless of worker count or completion order** — the determinism
//! contract the workspace's seeded-RNG tests extend to the engine level.
//!
//! Progress is streamed to an [`EventSink`] as jobs start and finish;
//! sinks must be `Sync` because workers emit concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use replay4ncl::{cache, scenario, NclError, ScenarioResult};

use crate::error::RuntimeError;
use crate::job::{Job, Suite};
use crate::queue::ShardedQueue;
use crate::report::{JobRecord, SuiteReport};

/// A progress event emitted while a suite executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The suite started; `workers` is the effective pool size.
    SuiteStarted {
        /// Suite name.
        suite: String,
        /// Number of jobs queued.
        jobs: usize,
        /// Worker threads actually spawned.
        workers: usize,
    },
    /// A worker picked up a job.
    JobStarted {
        /// Index of the job in suite order.
        index: usize,
        /// Job label.
        label: String,
        /// Worker that runs it.
        worker: usize,
    },
    /// A job completed successfully.
    JobFinished {
        /// Index of the job in suite order.
        index: usize,
        /// Job label.
        label: String,
        /// Worker that ran it.
        worker: usize,
        /// Catastrophic-forgetting measure of the result.
        forgetting: f64,
        /// Final new-task accuracy of the result.
        new_acc: f64,
    },
    /// A job failed; the suite still drains the queue before reporting
    /// the (first, in suite order) failure.
    JobFailed {
        /// Index of the job in suite order.
        index: usize,
        /// Job label.
        label: String,
        /// Worker that ran it.
        worker: usize,
        /// Rendered failure.
        error: String,
    },
    /// All jobs finished.
    SuiteFinished {
        /// Suite name.
        suite: String,
        /// Number of jobs run.
        jobs: usize,
    },
}

/// Receiver of engine progress events. Workers emit concurrently, so
/// implementations must be `Sync`.
pub trait EventSink: Sync {
    /// Called once per event, in emission order per worker (no global
    /// ordering across workers).
    fn event(&self, event: &Event);
}

/// Sink that discards every event (the [`Engine::run`] default).
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&self, _event: &Event) {}
}

/// Sink that prints one progress line per event to stderr, with a running
/// `done/total` counter.
#[derive(Debug, Default)]
pub struct StderrProgress {
    completed: AtomicUsize,
}

impl EventSink for StderrProgress {
    fn event(&self, event: &Event) {
        match event {
            Event::SuiteStarted {
                suite,
                jobs,
                workers,
            } => eprintln!("suite '{suite}': {jobs} jobs on {workers} workers"),
            Event::JobStarted { label, worker, .. } => {
                eprintln!("  [worker {worker}] {label} ...");
            }
            Event::JobFinished {
                label,
                forgetting,
                new_acc,
                ..
            } => {
                let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "  [{done} done] {label}: new acc {:.2}%, forgetting {:.2}%",
                    100.0 * new_acc,
                    100.0 * forgetting,
                );
            }
            Event::JobFailed { label, error, .. } => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                eprintln!("  FAILED {label}: {error}");
            }
            Event::SuiteFinished { suite, jobs } => {
                eprintln!("suite '{suite}': {jobs} jobs finished");
            }
        }
    }
}

/// The concurrent experiment executor.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// Creates an engine with the given worker-pool size (clamped to at
    /// least 1). The pool is additionally capped to the job count per run,
    /// so an over-provisioned engine never spawns idle threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
        }
    }

    /// Configured pool size.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job of the suite and assembles the report in suite
    /// order. Equivalent to [`Engine::run_with_events`] with a
    /// [`NullSink`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSuite`] for malformed suites and
    /// [`RuntimeError::Job`] (the first failing job in suite order) if a
    /// scenario fails.
    pub fn run(&self, suite: &Suite) -> Result<SuiteReport, RuntimeError> {
        self.run_with_events(suite, &NullSink)
    }

    /// Runs the suite, streaming progress events to `sink`.
    ///
    /// Every queued job is attempted even if one fails (so a long sweep
    /// surfaces *all* progress before erroring); the first failure in
    /// suite order is then returned.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_with_events(
        &self,
        suite: &Suite,
        sink: &dyn EventSink,
    ) -> Result<SuiteReport, RuntimeError> {
        suite.validate()?;
        let workers = self.workers.min(suite.len());
        sink.event(&Event::SuiteStarted {
            suite: suite.name.clone(),
            jobs: suite.len(),
            workers,
        });

        let queue = ShardedQueue::new(workers, 0..suite.len());
        let slots: Vec<Mutex<Option<Result<ScenarioResult, NclError>>>> =
            (0..suite.len()).map(|_| Mutex::new(None)).collect();

        let scope_result = crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let (queue, slots) = (&queue, &slots);
                scope.spawn(move |_| {
                    while let Some(index) = queue.pop(worker) {
                        let job = &suite.jobs[index];
                        sink.event(&Event::JobStarted {
                            index,
                            label: job.label.clone(),
                            worker,
                        });
                        let outcome = run_job(job);
                        match &outcome {
                            Ok(result) => sink.event(&Event::JobFinished {
                                index,
                                label: job.label.clone(),
                                worker,
                                forgetting: result.forgetting(),
                                new_acc: result.final_new_acc(),
                            }),
                            Err(e) => sink.event(&Event::JobFailed {
                                index,
                                label: job.label.clone(),
                                worker,
                                error: e.to_string(),
                            }),
                        }
                        *slots[index].lock() = Some(outcome);
                    }
                });
            }
        });
        if let Err(payload) = scope_result {
            std::panic::resume_unwind(payload);
        }

        sink.event(&Event::SuiteFinished {
            suite: suite.name.clone(),
            jobs: suite.len(),
        });

        assemble_report(suite, slots.into_iter().map(Mutex::into_inner))
    }
}

/// Assembles per-job outcomes (in suite order) into a report, or the
/// first failure *in suite order* — not completion order — wrapped with
/// its job label.
fn assemble_report(
    suite: &Suite,
    outcomes: impl IntoIterator<Item = Option<Result<ScenarioResult, NclError>>>,
) -> Result<SuiteReport, RuntimeError> {
    let mut records = Vec::with_capacity(suite.len());
    for (job, outcome) in suite.jobs.iter().zip(outcomes) {
        match outcome {
            Some(Ok(result)) => records.push(JobRecord {
                label: job.label.clone(),
                result,
            }),
            Some(Err(source)) => {
                return Err(RuntimeError::Job {
                    label: job.label.clone(),
                    source,
                })
            }
            None => unreachable!("queue drained but job {} never ran", job.label),
        }
    }
    Ok(SuiteReport::new(suite.name.clone(), records))
}

/// Runs one job end to end: pre-training (through the shared cache, which
/// single-flights concurrent workers with the same pre-train key) plus the
/// CL scenario.
fn run_job(job: &Job) -> Result<ScenarioResult, NclError> {
    let (network, pretrain_acc) = cache::pretrained_network(&job.config)?;
    scenario::run_method(&job.config, &job.method, &network, pretrain_acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay4ncl::{MethodSpec, ScenarioConfig};

    fn tiny_config(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 2;
        c.cl_epochs = 2;
        c.seed = seed;
        c
    }

    fn tiny_suite() -> Suite {
        let config = tiny_config(0xE46);
        let t_star = (config.data.steps * 2 / 5).max(1);
        Suite::new("engine-smoke")
            .with_job(Job::new("baseline", config.clone(), MethodSpec::baseline()))
            .with_job(Job::new(
                "spikinglr",
                config.clone(),
                MethodSpec::spiking_lr(2),
            ))
            .with_job(Job::new(
                "replay4ncl",
                config,
                MethodSpec::replay4ncl(2, t_star),
            ))
    }

    /// Sink that records every event (order-insensitive assertions only).
    #[derive(Default)]
    struct Recorder(Mutex<Vec<Event>>);

    impl EventSink for Recorder {
        fn event(&self, event: &Event) {
            self.0.lock().push(event.clone());
        }
    }

    #[test]
    fn runs_jobs_and_reports_in_suite_order() {
        let suite = tiny_suite();
        let recorder = Recorder::default();
        let report = Engine::new(2)
            .run_with_events(&suite, &recorder)
            .expect("suite runs");
        let labels: Vec<&str> = report.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["baseline", "spikinglr", "replay4ncl"]);
        for (job, record) in suite.jobs.iter().zip(&report.jobs) {
            assert_eq!(record.result.method, job.method);
        }

        let events = recorder.0.into_inner();
        let started = events
            .iter()
            .filter(|e| matches!(e, Event::JobStarted { .. }))
            .count();
        let finished = events
            .iter()
            .filter(|e| matches!(e, Event::JobFinished { .. }))
            .count();
        assert_eq!(started, 3);
        assert_eq!(finished, 3);
        assert!(matches!(
            events.first(),
            Some(Event::SuiteStarted { workers: 2, .. })
        ));
        assert!(matches!(events.last(), Some(Event::SuiteFinished { .. })));
    }

    #[test]
    fn worker_pool_caps_to_job_count() {
        let suite = tiny_suite();
        let recorder = Recorder::default();
        Engine::new(64)
            .run_with_events(&suite, &recorder)
            .expect("suite runs");
        let events = recorder.0.into_inner();
        assert!(matches!(
            events.first(),
            Some(Event::SuiteStarted { workers: 3, .. })
        ));
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Engine::new(0).workers(), 1);
    }

    #[test]
    fn invalid_suite_is_rejected_before_spawning() {
        let err = Engine::new(2).run(&Suite::new("empty")).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSuite { .. }));
    }

    #[test]
    fn invalid_job_is_caught_by_suite_validation_before_spawning() {
        let mut bad = MethodSpec::replay4ncl(2, 16);
        bad.replay.as_mut().unwrap().per_class = 0;
        let config = tiny_config(0xBAD);
        let suite = Suite::new("fails")
            .with_job(Job::new("ok", config.clone(), MethodSpec::baseline()))
            .with_job(Job::new("broken", config, bad));
        let err = Engine::new(2).run(&suite).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSuite { .. }), "{err}");
    }

    fn fake_result() -> replay4ncl::ScenarioResult {
        use ncl_hw::memory::MemoryFootprint;
        use ncl_hw::{HardwareProfile, OpCounts};
        replay4ncl::ScenarioResult {
            method: MethodSpec::baseline(),
            insertion_layer: 0,
            operating_steps: 8,
            pretrain_acc: 0.9,
            epochs: vec![replay4ncl::EpochRecord {
                epoch: 0,
                mean_loss: 0.1,
                old_acc: 0.8,
                new_acc: 0.7,
                ops: OpCounts::default(),
            }],
            prep_ops: OpCounts::default(),
            memory: MemoryFootprint {
                samples: 0,
                payload_bits_per_sample: 0,
                total_bits: 0,
            },
            profile: HardwareProfile::embedded(),
        }
    }

    fn runtime_failure() -> NclError {
        NclError::InvalidConfig {
            what: "simulated",
            detail: "runtime failure".into(),
        }
    }

    #[test]
    fn assembly_reports_the_first_failure_in_suite_order() {
        // Runtime job failures (past suite validation) cannot be provoked
        // from a valid config, so the drain-then-report contract is tested
        // on the assembly step directly: jobs 1 *and* 2 failed, and the
        // error must name job 1 — suite order, not completion order.
        let config = tiny_config(0xFA11);
        let suite = Suite::new("partial")
            .with_job(Job::new("a", config.clone(), MethodSpec::baseline()))
            .with_job(Job::new("b", config.clone(), MethodSpec::baseline()))
            .with_job(Job::new("c", config, MethodSpec::baseline()));
        let outcomes = vec![
            Some(Ok(fake_result())),
            Some(Err(runtime_failure())),
            Some(Err(runtime_failure())),
        ];
        match assemble_report(&suite, outcomes) {
            Err(RuntimeError::Job { label, .. }) => assert_eq!(label, "b"),
            other => panic!("expected Job error, got {other:?}"),
        }
        // All-success assembly keeps suite order.
        let ok = assemble_report(
            &suite,
            (0..3).map(|_| Some(Ok(fake_result()))).collect::<Vec<_>>(),
        )
        .expect("assembles");
        assert_eq!(ok.jobs.len(), 3);
        assert_eq!(ok.jobs[2].label, "c");
    }
}
