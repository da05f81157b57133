//! The process-wide set of parked threads serving workers run on.
//!
//! Spawning an OS thread was about half of a guarded engine start (two
//! workers, 62 of 138 µs on a 2-vCPU x86-64 VM), and every engine paid
//! it again. A thread that finishes a job parks here instead of exiting,
//! and the next job goes to a parked thread: a new thread is spawned only
//! when none is parked. The set is never trimmed, so it grows to the most
//! jobs ever running at once.
//!
//! A job's panic is caught on its own thread and counted against the
//! batch it belongs to; the thread then parks like any other. The threads
//! live as long as the process and are never joined: [`Jobs::wait`]
//! reports what a join would, once every job of the batch has finished.
//! Each job's thread is parked again before its job counts as finished,
//! so a batch started right after a wait finds those threads parked.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One job: the work and the batch it reports to.
struct Task {
    work: Box<dyn FnOnce() + Send>,
    batch: Arc<Batch>,
}

/// The completion state of one batch of jobs.
struct Batch {
    /// `(jobs still running, jobs that panicked)`.
    tally: Mutex<(usize, usize)>,
    finished: Condvar,
}

/// A set of threads parked between jobs.
pub(crate) struct ParkedThreads {
    state: Mutex<Parked>,
    wake: Condvar,
    spawned: AtomicUsize,
}

struct Parked {
    /// Parked threads no queued task has claimed yet.
    idle: usize,
    /// Tasks handed to parked threads and not yet picked up.
    tasks: VecDeque<Task>,
}

/// A running batch of jobs, handed out by [`ParkedThreads::run`].
pub(crate) struct Jobs {
    batch: Arc<Batch>,
    count: usize,
}

static GLOBAL: ParkedThreads = ParkedThreads::new();

impl ParkedThreads {
    pub(crate) const fn new() -> Self {
        Self {
            state: Mutex::new(Parked {
                idle: 0,
                tasks: VecDeque::new(),
            }),
            wake: Condvar::new(),
            spawned: AtomicUsize::new(0),
        }
    }

    /// The set every engine runs its workers on.
    pub(crate) fn global() -> &'static Self {
        &GLOBAL
    }

    /// Threads this set has spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs each job on its own thread: a parked one while any is parked,
    /// otherwise a new one.
    pub(crate) fn run(&'static self, jobs: Vec<Box<dyn FnOnce() + Send>>) -> Jobs {
        let count = jobs.len();
        let batch = Arc::new(Batch {
            tally: Mutex::new((count, 0)),
            finished: Condvar::new(),
        });
        let mut tasks = jobs.into_iter().map(|work| Task {
            work,
            batch: Arc::clone(&batch),
        });
        let mut state = self.state.lock().expect("parked-thread lock poisoned");
        let parked = state.idle.min(count);
        state.idle -= parked;
        state.tasks.extend(tasks.by_ref().take(parked));
        drop(state);
        for _ in 0..parked {
            self.wake.notify_one();
        }
        for task in tasks {
            let n = self.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("serve-worker-{n}"))
                .spawn(move || self.serve(task))
                .expect("spawning a serving worker cannot fail");
        }
        Jobs { batch, count }
    }

    /// A thread's life: run the task, park, take the next one.
    fn serve(&self, mut task: Task) -> ! {
        loop {
            let Task { work, batch } = task;
            let panicked = panic::catch_unwind(AssertUnwindSafe(work)).is_err();
            self.state.lock().expect("parked-thread lock poisoned").idle += 1;
            batch.finish(panicked);
            drop(batch);
            let mut state = self.state.lock().expect("parked-thread lock poisoned");
            task = loop {
                if let Some(next) = state.tasks.pop_front() {
                    break next;
                }
                state = self.wake.wait(state).expect("parked-thread lock poisoned");
            };
        }
    }
}

impl Batch {
    fn finish(&self, panicked: bool) {
        let mut tally = self.tally.lock().expect("batch lock poisoned");
        tally.0 -= 1;
        tally.1 += usize::from(panicked);
        if tally.0 == 0 {
            self.finished.notify_all();
        }
    }
}

impl Jobs {
    /// Jobs in the batch.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Blocks until every job of the batch has finished; returns how many
    /// of them panicked.
    pub(crate) fn wait(&self) -> usize {
        let mut tally = self.batch.tally.lock().expect("batch lock poisoned");
        while tally.0 > 0 {
            tally = self
                .batch
                .finished
                .wait(tally)
                .expect("batch lock poisoned");
        }
        tally.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A set of its own, so tests running in parallel do not share
    /// threads or the spawn count.
    fn private_set() -> &'static ParkedThreads {
        Box::leak(Box::new(ParkedThreads::new()))
    }

    /// `n` jobs, each recording its thread's id. None finishes before all
    /// have started, so they run on `n` threads.
    fn recording(n: usize, ids: &Arc<Mutex<Vec<ThreadId>>>) -> Vec<Box<dyn FnOnce() + Send>> {
        let all_started = Arc::new(Barrier::new(n));
        (0..n)
            .map(|_| {
                let ids = Arc::clone(ids);
                let all_started = Arc::clone(&all_started);
                Box::new(move || {
                    ids.lock().unwrap().push(std::thread::current().id());
                    all_started.wait();
                }) as Box<dyn FnOnce() + Send>
            })
            .collect()
    }

    #[test]
    fn a_panic_is_reported_after_every_job_finished_and_its_thread_parks() {
        let set = private_set();
        let panicked_on = Arc::new(Mutex::new(None));
        let (release, released) = mpsc::channel::<()>();
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new({
                let panicked_on = Arc::clone(&panicked_on);
                move || {
                    *panicked_on.lock().unwrap() = Some(std::thread::current().id());
                    panic!("planted worker panic");
                }
            }),
            Box::new(move || released.recv().unwrap()),
        ];
        let jobs = set.run(jobs);
        assert_eq!(jobs.len(), 2);
        std::thread::scope(|s| {
            let (report, reported) = mpsc::channel();
            let jobs = &jobs;
            s.spawn(move || report.send(jobs.wait()).unwrap());
            // The panic is counted, and the wait still blocks on the job
            // that has not finished.
            while jobs.batch.tally.lock().unwrap().1 == 0 {
                std::thread::yield_now();
            }
            assert!(
                reported.recv_timeout(Duration::from_millis(100)).is_err(),
                "the panic surfaced before the other job finished"
            );
            release.send(()).unwrap();
            assert_eq!(reported.recv().unwrap(), 1);
        });
        let ids = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(set.run(recording(2, &ids)).wait(), 0);
        assert_eq!(set.spawned(), 2, "the panicked job's thread parked again");
        let panicked_on = panicked_on.lock().unwrap().unwrap();
        assert!(ids.lock().unwrap().contains(&panicked_on));
    }
}
