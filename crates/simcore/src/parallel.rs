//! Deterministic scoped-thread fan-out over an indexed job set.
//!
//! The atomic work-index pool pattern used by the harness's experiment
//! runner (`run_many`) generalises to any batch of independent jobs:
//! workers claim job indices from one shared atomic counter and each
//! writes its result into a dedicated `OnceLock` slot, so results return
//! in input order without a queue or a results lock. Extracted here so
//! the drift pipeline's per-`(app, node)` artifact builds can fan out
//! through the same machinery. [`spawn_background`] is the detached
//! variant of the same discipline: the fan-out runs on real threads
//! while the caller keeps executing, and results are joined lazily
//! through an index-addressed [`BackgroundTasks`] handle whose ledger
//! (execute exactly once, join exactly once) is verified at retirement.
//!
//! Determinism: each job's result is a pure function of its index (the
//! caller guarantees jobs are independent), every index is claimed by
//! exactly one worker, and the output vector is assembled by index — so
//! the result is bit-identical to a sequential `(0..n).map(f)` loop
//! regardless of thread count or OS scheduling.
//!
//! This module is the **only** sanctioned home for thread spawning in
//! the workspace (simlint's `no-adhoc-threading` rule): every parallel
//! construct must route through one of the fan-outs here so the
//! claim/slot discipline — and the checking below — covers it.
//!
//! # Race checking
//!
//! Two layers close the loop on the discipline the comments above only
//! promise:
//!
//! * the `race-check` cargo feature instruments [`fan_out_indexed`] and
//!   [`fan_out_indexed_owned`] with a claim bitmap — one atomic claim
//!   counter per index — and asserts, after the scoped threads join,
//!   that every index was claimed exactly once and no slot was lost
//!   ([`spawn_background`] keeps the same ledger unconditionally);
//! * [`fan_out_check`] is a seeded adversarial schedule-replay harness:
//!   it derives K deterministic claim-order permutations from a
//!   [`Prng`] seed, replays the job set under each permutation at every
//!   requested thread count (worker `w` deterministically executes
//!   permuted positions `w, w+W, w+2W, …`), and asserts each replay is
//!   bit-equal to the sequential loop. A job set that secretly depends
//!   on claim order or worker assignment fails loudly instead of
//!   passing because the OS happened to schedule benignly.

use crate::rng::Prng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The worker-thread count a fan-out over `n` jobs actually uses:
/// `threads` capped at the job count, with `threads == 0` falling back
/// to the host's available parallelism (the ambient default the
/// schedulers run under). Exposed so callers can *record* the resolved
/// count — bench rows document the host parallelism they ran under.
pub fn resolved_threads(n: usize, threads: usize) -> usize {
    if n == 0 {
        return 0;
    }
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n)
    } else {
        threads.min(n)
    }
}

/// One claim counter per job index, armed by the `race-check` feature:
/// [`fan_out_indexed`] bumps an index's counter when a worker claims it,
/// [`fan_out_indexed_owned`] when a worker starts a job dealt to it, and
/// [`verify`](ClaimLedger::verify) asserts — after the scoped threads
/// joined — that every index was claimed exactly once. A double claim
/// (two workers running the same job) or a lost slot (an index no
/// worker ran) is a broken work-index pool, never a benign race: both
/// would silently desynchronise the parallel result from the
/// sequential loop. ([`fan_out_check`]'s forced replays and
/// [`spawn_background`] verify a ledger unconditionally; only the two
/// scoped production fan-outs' instrumentation is behind the feature.)
struct ClaimLedger {
    claims: Vec<AtomicUsize>,
}

impl ClaimLedger {
    fn new(n: usize) -> Self {
        ClaimLedger {
            claims: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Records that a worker claimed `idx`.
    fn claim(&self, idx: usize) {
        self.claims[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Asserts the exactly-once claim discipline. Called after the
    /// scoped threads joined, so all claim counters are quiescent.
    fn verify(&self, context: &str) {
        for (idx, c) in self.claims.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            assert!(
                n == 1,
                "race-check: {context}: index {idx} claimed {n} times (expected exactly once)"
            );
        }
    }
}

/// Runs `work(index, state)` for every index in `0..n`, fanning out
/// across up to `threads` worker threads (0 = one per job, capped at the
/// available parallelism). Each worker owns one `make_state()` value for
/// its lifetime, so per-thread scratch buffers are built once per worker
/// rather than once per job. Results return in index order.
///
/// With `threads <= 1` or `n <= 1` the jobs run inline on the caller's
/// thread — same results, no spawn cost.
pub fn fan_out_indexed<T, S, M, F>(n: usize, threads: usize, make_state: M, work: F) -> Vec<T>
where
    T: Send + Sync,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let max_threads = resolved_threads(n, threads);
    if max_threads <= 1 || n == 1 {
        let mut state = make_state();
        return (0..n).map(|i| work(i, &mut state)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    #[cfg(feature = "race-check")]
    let ledger = ClaimLedger::new(n);

    std::thread::scope(|scope| {
        for _ in 0..max_threads {
            scope.spawn(|| {
                let mut state = make_state();
                loop {
                    // Each index is claimed by exactly one worker, so the
                    // matching slot write can never collide.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    #[cfg(feature = "race-check")]
                    ledger.claim(idx);
                    let result = work(idx, &mut state);
                    if slots[idx].set(result).is_err() {
                        unreachable!("slot {idx} claimed twice");
                    }
                }
            });
        }
    });

    #[cfg(feature = "race-check")]
    ledger.verify("fan_out_indexed");

    slots
        .into_iter()
        // simlint: allow(no-unwrap-in-lib) — the scoped threads above joined, so every slot was filled
        .map(|slot| slot.into_inner().expect("every job completed"))
        .collect()
}

/// Runs `work(index, job, state)` for every job in `jobs`, handing each
/// worker **ownership** of the jobs it executes. Results return in
/// input order, bit-identical to the sequential
/// `jobs.into_iter().enumerate().map(…)` loop at any thread count.
///
/// Ownership changes the distribution scheme: the indexed fan-outs
/// share their (borrowed) inputs and let workers claim indices
/// dynamically, but an owned job must be *moved* to exactly one worker,
/// and doing that through shared slots would need a lock per handoff
/// (the `Vec<Mutex<_>>` pattern this function replaces). Instead the
/// caller's thread deals jobs round-robin — worker `w` owns jobs
/// `w, w+W, w+2W, …` — so every handoff is a plain move before the
/// workers start, and each result still lands in its own index-addressed
/// `OnceLock` slot. The static deal gives up the atomic pool's dynamic
/// load balancing, which is irrelevant for the near-uniform job sets
/// this serves (per-`(app, node)` artifact builds of equal-sized
/// pools); determinism is untouched because results are a pure function
/// of the job, never of the worker or claim order.
pub fn fan_out_indexed_owned<J, T, S, M, F>(
    jobs: Vec<J>,
    threads: usize,
    make_state: M,
    work: F,
) -> Vec<T>
where
    J: Send,
    T: Send + Sync,
    M: Fn() -> S + Sync,
    F: Fn(usize, J, &mut S) -> T + Sync,
{
    let n = jobs.len();
    let max_threads = resolved_threads(n, threads);
    if max_threads <= 1 || n == 1 {
        let mut state = make_state();
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| work(i, job, &mut state))
            .collect();
    }

    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    #[cfg(feature = "race-check")]
    let ledger = ClaimLedger::new(n);

    std::thread::scope(|scope| {
        for deal in deal_round_robin(jobs, max_threads) {
            let slots = &slots;
            let make_state = &make_state;
            let work = &work;
            #[cfg(feature = "race-check")]
            let ledger = &ledger;
            scope.spawn(move || {
                let mut state = make_state();
                for (idx, job) in deal {
                    #[cfg(feature = "race-check")]
                    ledger.claim(idx);
                    let result = work(idx, job, &mut state);
                    if slots[idx].set(result).is_err() {
                        unreachable!("slot {idx} dealt twice");
                    }
                }
            });
        }
    });

    #[cfg(feature = "race-check")]
    ledger.verify("fan_out_indexed_owned");

    slots
        .into_iter()
        // simlint: allow(no-unwrap-in-lib) — the scoped threads above joined and every index was dealt to exactly one worker
        .map(|slot| slot.into_inner().expect("every job completed"))
        .collect()
}

/// Deals owned jobs round-robin into `workers` per-worker lists of
/// `(index, job)` — worker `w` gets jobs `w, w+W, w+2W, …` — on the
/// caller's thread, so each list moves into its worker wholesale.
fn deal_round_robin<J>(jobs: Vec<J>, workers: usize) -> Vec<Vec<(usize, J)>> {
    let mut deals: Vec<Vec<(usize, J)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deals[i % workers].push((i, job));
    }
    deals
}

/// Per-slot completion state shared between a background stage's
/// workers and the caller holding its [`BackgroundTasks`] handle.
struct BackgroundShared<T> {
    /// `None` = pending, `Some` = completed and not yet joined. A
    /// joined result is moved out under the same lock, so pending and
    /// taken are distinguished by the handle's own `taken` bitmap.
    slots: Mutex<BackgroundSlots<T>>,
    /// Signalled on every slot completion and on worker exit.
    cv: Condvar,
}

struct BackgroundSlots<T> {
    results: Vec<Option<T>>,
    /// Workers still running. Guarded by the same lock as `results` so
    /// a join can distinguish "not yet" from "never coming": a worker
    /// that dies (panics) decrements this on unwind, and a waiter whose
    /// slot is empty with no producers left must fail loudly instead of
    /// sleeping forever.
    workers_alive: usize,
}

/// Decrements `workers_alive` (and wakes waiters) when a worker exits —
/// including by panic, so a caller blocked in [`BackgroundTasks::take`]
/// fails loudly instead of deadlocking on a slot that will never fill.
struct WorkerExitGuard<T>(Arc<BackgroundShared<T>>);

impl<T> Drop for WorkerExitGuard<T> {
    fn drop(&mut self) {
        // simlint: allow(no-unwrap-in-lib) — a poisoned lock here means another worker panicked mid-insert; propagating the panic is the correct outcome
        let mut slots = self.0.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.workers_alive -= 1;
        self.0.cv.notify_all();
    }
}

/// Handle to a detached background fan-out started by
/// [`spawn_background`]: the jobs run on real (non-scoped) worker
/// threads while the caller keeps executing, and each result is joined
/// lazily — [`take`](Self::take) every index, then
/// [`finish`](Self::finish) to retire the stage.
///
/// Determinism is the fan-out contract unchanged: jobs are dealt
/// round-robin exactly like [`fan_out_indexed_owned`], every result is
/// a pure function of its job, and results are index-addressed — so
/// *when* the caller joins a slot affects wall-clock only, never the
/// value. The ledger discipline is enforced unconditionally (not just
/// under `race-check`): workers record an execute-exactly-once claim
/// per index, the handle records a join-exactly-once bitmap, and
/// [`finish`](Self::finish) verifies both — a double join or an
/// abandoned slot is a broken pipeline, never a benign outcome.
pub struct BackgroundTasks<T> {
    shared: Arc<BackgroundShared<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Join-exactly-once bitmap, caller-side (the handle is `!Sync`-ish
    /// by use: joins happen on one thread).
    taken: Vec<bool>,
    /// Execute-exactly-once claims, worker-side.
    ledger: Arc<ClaimLedger>,
}

/// Launches `work(index, job, state)` for every job in `jobs` on up to
/// `threads` detached worker threads (0 = available parallelism) and
/// returns immediately with a [`BackgroundTasks`] handle; results are
/// joined lazily through it. At least one worker is spawned for a
/// non-empty job set even when the host reports a single core — the
/// point of a *background* stage is to overlap the caller, and on one
/// core the OS timeslices the overlap instead.
///
/// Jobs are owned and moved to their workers before any run (the
/// round-robin deal of [`fan_out_indexed_owned`]), so the handoff needs
/// no queue lock; `make_state` builds one per-worker scratch value, so
/// per-thread buffers warm once per worker, not once per job.
pub fn spawn_background<J, T, S, M, F>(
    jobs: Vec<J>,
    threads: usize,
    make_state: M,
    work: F,
) -> BackgroundTasks<T>
where
    J: Send + 'static,
    T: Send + 'static,
    M: Fn() -> S + Send + Sync + 'static,
    F: Fn(usize, J, &mut S) -> T + Send + Sync + 'static,
{
    let n = jobs.len();
    let shared = Arc::new(BackgroundShared {
        slots: Mutex::new(BackgroundSlots {
            results: (0..n).map(|_| None).collect(),
            workers_alive: 0,
        }),
        cv: Condvar::new(),
    });
    let ledger = Arc::new(ClaimLedger::new(n));
    if n == 0 {
        return BackgroundTasks {
            shared,
            workers: Vec::new(),
            taken: Vec::new(),
            ledger,
        };
    }

    let max_threads = resolved_threads(n, threads).max(1);
    let deals = deal_round_robin(jobs, max_threads);

    // simlint: allow(no-unwrap-in-lib) — the workers have not started yet, so the lock cannot be poisoned or contended
    shared.slots.lock().unwrap().workers_alive = max_threads;
    let ctx = Arc::new((make_state, work));
    let workers = deals
        .into_iter()
        .map(|deal| {
            let shared = Arc::clone(&shared);
            let ledger = Arc::clone(&ledger);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                let _exit = WorkerExitGuard(Arc::clone(&shared));
                let (make_state, work) = &*ctx;
                let mut state = make_state();
                for (idx, job) in deal {
                    ledger.claim(idx);
                    let result = work(idx, job, &mut state);
                    // simlint: allow(no-unwrap-in-lib) — poisoning requires a panic inside this short insert section; propagating it is correct
                    let mut slots = shared.slots.lock().unwrap();
                    debug_assert!(slots.results[idx].is_none(), "slot {idx} dealt twice");
                    slots.results[idx] = Some(result);
                    shared.cv.notify_all();
                }
            })
        })
        .collect();

    BackgroundTasks {
        shared,
        workers,
        taken: vec![false; n],
        ledger,
    }
}

impl<T> BackgroundTasks<T> {
    /// Joins slot `idx`, blocking until its worker has produced the
    /// result, and moves the value out.
    ///
    /// # Panics
    /// Panics if `idx` was already taken (the join-exactly-once ledger)
    /// or if every worker exited without producing it (a worker panic —
    /// surfaced here instead of deadlocking).
    pub fn take(&mut self, idx: usize) -> T {
        assert!(
            !self.taken[idx],
            "background ledger: slot {idx} joined twice"
        );
        // simlint: allow(no-unwrap-in-lib) — a poisoned lock means a worker panicked mid-insert; propagating is correct
        let mut slots = self.shared.slots.lock().unwrap();
        loop {
            if let Some(result) = slots.results[idx].take() {
                self.taken[idx] = true;
                return result;
            }
            assert!(
                slots.workers_alive > 0,
                "background ledger: slot {idx} abandoned (worker died before producing it)"
            );
            // simlint: allow(no-unwrap-in-lib) — same poisoning argument as the lock above
            slots = self.shared.cv.wait(slots).unwrap();
        }
    }

    /// Retires the stage: joins the worker threads and verifies the
    /// full ledger — every job executed exactly once (worker claims)
    /// and every result joined exactly once (caller bitmap).
    ///
    /// # Panics
    /// Panics if a worker panicked or any slot was never joined.
    pub fn finish(mut self) {
        for handle in self.workers.drain(..) {
            // simlint: allow(no-unwrap-in-lib) — a worker panic must propagate to the caller, not vanish
            handle.join().expect("background worker panicked");
        }
        self.ledger.verify("spawn_background");
        for (idx, taken) in self.taken.iter().enumerate() {
            assert!(
                taken,
                "background ledger: slot {idx} spawned but never joined"
            );
        }
    }
}

impl<T> Drop for BackgroundTasks<T> {
    /// Joins any still-running workers so a handle dropped on an error
    /// path never leaves detached threads mutating shared state. No
    /// ledger assertions here — [`finish`](Self::finish) is the checked
    /// retirement; double-panicking an unwind helps nobody.
    fn drop(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Seeded adversarial schedule-replay check for a [`fan_out_indexed`]
/// job set. Returns the sequential reference result after asserting
/// that every adversarial execution reproduces it bit-for-bit:
///
/// 1. the production [`fan_out_indexed`] pool at every thread count in
///    `thread_counts` (racy claim order, whatever the OS does);
/// 2. for each of `permutations` seeds split from `seed`, a **forced**
///    deterministic schedule at every thread count: the claim order is
///    a seeded permutation of `0..n`, and worker `w` executes exactly
///    the permuted positions `w, w+W, w+2W, …` — so which worker runs
///    which job, and in what order, is fully pinned and replayable.
///    A claim ledger asserts every index ran exactly once per replay.
///
/// Together the two layers catch both failure classes of the pool
/// pattern: results that depend on *claim order* (shared mutable
/// capture, order-sensitive accumulation) and results that depend on
/// *worker identity* (per-worker state leaking between jobs).
///
/// `work` takes the job index plus the worker's state, exactly like
/// [`fan_out_indexed`]; `make_state` builds one state per worker per
/// replay. Panics (with the offending schedule named) on any mismatch.
pub fn fan_out_check<T, S, M, F>(
    seed: u64,
    permutations: usize,
    thread_counts: &[usize],
    n: usize,
    make_state: M,
    work: F,
) -> Vec<T>
where
    T: Send + Sync + Clone + PartialEq + std::fmt::Debug,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    // Sequential reference: one state, ascending index order.
    let mut state = make_state();
    let reference: Vec<T> = (0..n).map(|i| work(i, &mut state)).collect();

    for &threads in thread_counts {
        // Layer 1: the production pool, OS-scheduled claim order.
        let pooled = fan_out_indexed(n, threads, &make_state, &work);
        assert_eq!(
            pooled, reference,
            "fan_out_check(seed {seed}): production pool at {threads} thread(s) \
             diverged from the sequential loop"
        );
    }

    // simlint: allow(prng-stream-discipline) — fan_out_check is a test harness entry point: its `seed` parameter is the root of the replay-permutation stream
    let root = Prng::new(seed);
    for p in 0..permutations {
        // A deterministic claim-order permutation per replay, from a
        // stably-keyed child stream so replays never correlate.
        let mut perm: Vec<usize> = (0..n).collect();
        root.split(p as u64).shuffle(&mut perm);

        for &threads in thread_counts {
            let replayed = replay_schedule(&perm, threads.max(1), &make_state, &work);
            assert_eq!(
                replayed, reference,
                "fan_out_check(seed {seed}): forced schedule (permutation {p}, \
                 {threads} thread(s)) diverged from the sequential loop"
            );
        }
    }
    reference
}

/// Executes one forced schedule: worker `w` of `threads` runs the
/// permuted positions `w, w+threads, …` of `perm`, in that order, with
/// its own state — a fully deterministic claim order and worker
/// assignment. Verifies the exactly-once claim ledger before returning
/// the index-ordered results.
fn replay_schedule<T, S, M, F>(perm: &[usize], threads: usize, make_state: &M, work: &F) -> Vec<T>
where
    T: Send + Sync,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let n = perm.len();
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let ledger = ClaimLedger::new(n);

    std::thread::scope(|scope| {
        for w in 0..threads.min(n.max(1)) {
            let slots = &slots;
            let ledger = &ledger;
            scope.spawn(move || {
                let mut state = make_state();
                let mut pos = w;
                while pos < n {
                    let idx = perm[pos];
                    ledger.claim(idx);
                    let result = work(idx, &mut state);
                    if slots[idx].set(result).is_err() {
                        unreachable!("forced schedule dealt index {idx} twice");
                    }
                    pos += threads;
                }
            });
        }
    });

    ledger.verify("replay_schedule");
    slots
        .into_iter()
        // simlint: allow(no-unwrap-in-lib) — the ledger above verified every index was claimed exactly once
        .map(|slot| slot.into_inner().expect("every position executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_in_order() {
        let seq: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(31)).collect();
        for threads in [0, 1, 2, 5, 64] {
            let par = fan_out_indexed(97, threads, || (), |i, ()| (i as u64).wrapping_mul(31));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_are_fine() {
        assert!(fan_out_indexed(0, 4, || (), |i, ()| i).is_empty());
        assert_eq!(fan_out_indexed(1, 4, || (), |i, ()| i + 7), vec![7]);
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the jobs it ran; the total over all
        // returned (job, state-before) pairs must cover every job once.
        let results = fan_out_indexed(
            50,
            4,
            || 0usize,
            |i, ran: &mut usize| {
                *ran += 1;
                i
            },
        );
        let mut sorted = results.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(results, (0..50).collect::<Vec<_>>(), "input order kept");
    }

    #[test]
    fn resolved_threads_caps_and_falls_back() {
        assert_eq!(resolved_threads(0, 8), 0);
        assert_eq!(resolved_threads(5, 8), 5);
        assert_eq!(resolved_threads(8, 3), 3);
        let ambient = resolved_threads(1024, 0);
        assert!((1..=1024).contains(&ambient));
    }

    #[test]
    fn owned_fan_out_moves_each_job_exactly_once() {
        // Jobs are owned Strings; results carry the job back out, so the
        // order + content check proves every job was moved to exactly
        // one worker and its result landed in its own slot.
        for threads in [0, 1, 2, 3, 7, 64] {
            let jobs: Vec<String> = (0..41).map(|i| format!("job-{i}")).collect();
            let out = fan_out_indexed_owned(jobs, threads, || 0usize, |i, job, ran| {
                *ran += 1;
                (i, job)
            });
            for (i, (idx, job)) in out.iter().enumerate() {
                assert_eq!(*idx, i, "threads={threads}");
                assert_eq!(job, &format!("job-{i}"), "threads={threads}");
            }
        }
    }

    #[test]
    fn owned_fan_out_empty_and_single() {
        assert!(fan_out_indexed_owned(Vec::<u8>::new(), 4, || (), |i, j, ()| (i, j)).is_empty());
        assert_eq!(
            fan_out_indexed_owned(vec![9u8], 4, || (), |i, j, ()| (i, j)),
            vec![(0, 9u8)]
        );
    }

    #[test]
    fn fan_out_check_accepts_pure_jobs() {
        let reference = fan_out_check(
            42,
            3,
            &[1, 2, 4, 8],
            37,
            || 0u64,
            |i, acc: &mut u64| {
                // Worker-local state mutation is fine: the result only
                // depends on the index.
                *acc = acc.wrapping_add(1);
                (i as u64).wrapping_mul(0x9E37_79B9)
            },
        );
        assert_eq!(reference.len(), 37);
        assert_eq!(reference[3], 3u64.wrapping_mul(0x9E37_79B9));
    }

    #[test]
    #[should_panic(expected = "diverged from the sequential loop")]
    fn fan_out_check_rejects_state_dependent_jobs() {
        // A job whose result depends on how many jobs its worker ran
        // before it — exactly the per-worker-state leak the forced
        // schedules are built to expose.
        fan_out_check(
            7,
            2,
            &[2, 4],
            16,
            || 0usize,
            |i, ran: &mut usize| {
                *ran += 1;
                i + *ran
            },
        );
    }

    #[test]
    fn background_matches_sequential_at_any_thread_count() {
        let seq: Vec<u64> = (0..53).map(|i| (i as u64).wrapping_mul(97) ^ 5).collect();
        for threads in [0, 1, 2, 4, 8] {
            let jobs: Vec<u64> = (0..53).collect();
            let mut stage = spawn_background(jobs, threads, || (), |_, j, ()| {
                j.wrapping_mul(97) ^ 5
            });
            let joined: Vec<u64> = (0..53).map(|i| stage.take(i)).collect();
            assert_eq!(joined, seq, "threads={threads}");
            stage.finish();
        }
    }

    #[test]
    fn background_join_order_is_immaterial() {
        // Adversarial replay over the handoff: join the slots in seeded
        // permuted orders, at several thread counts, and assert the
        // joined values always equal the sequential reference — the
        // background analogue of fan_out_check's forced schedules.
        let n = 37;
        let reference: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let root = Prng::new(1213);
        for p in 0..4u64 {
            let mut order: Vec<usize> = (0..n).collect();
            root.split(p).shuffle(&mut order);
            for threads in [1, 2, 4, 8] {
                let jobs: Vec<u64> = (0..n as u64).collect();
                let mut stage =
                    spawn_background(jobs, threads, || (), |_, j, ()| {
                        j.wrapping_mul(0x9E37_79B9)
                    });
                let mut joined = vec![0u64; n];
                for &idx in &order {
                    joined[idx] = stage.take(idx);
                }
                stage.finish();
                assert_eq!(joined, reference, "permutation {p}, threads={threads}");
            }
        }
    }

    #[test]
    fn background_empty_stage_retires_cleanly() {
        let stage = spawn_background(Vec::<u8>::new(), 4, || (), |i, _, ()| i);
        stage.finish();
    }

    #[test]
    fn background_worker_state_warms_once_per_worker() {
        // Results only depend on the job, even though each worker's
        // scratch accumulates across the jobs it was dealt.
        let mut stage = spawn_background(
            (0..24u64).collect(),
            4,
            || 0u64,
            |_, j, ran: &mut u64| {
                *ran += 1;
                j + 100
            },
        );
        let out: Vec<u64> = (0..24).map(|i| stage.take(i)).collect();
        stage.finish();
        assert_eq!(out, (100..124).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn background_double_join_panics() {
        let mut stage = spawn_background(vec![1u8, 2, 3], 2, || (), |_, j, ()| j);
        let _ = stage.take(1);
        let _ = stage.take(1);
    }

    #[test]
    #[should_panic(expected = "never joined")]
    fn background_abandoned_slot_fails_finish() {
        let mut stage = spawn_background(vec![1u8, 2, 3], 2, || (), |_, j, ()| j);
        let _ = stage.take(0);
        stage.finish();
    }

    #[test]
    fn forced_schedules_cover_every_index_once() {
        // Direct replay_schedule exercise: an adversarial permutation
        // still executes each index exactly once (the ledger inside
        // would panic otherwise) and returns in index order.
        let perm: Vec<usize> = (0..20).rev().collect();
        let out = replay_schedule(&perm, 3, &|| (), &|i, ()| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }
}
