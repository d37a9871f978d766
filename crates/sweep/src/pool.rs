//! The worker pool: fan deterministic jobs across threads, collect results
//! in input order.
//!
//! Each job is a single-threaded, deterministic simulation; only
//! *independent* runs parallelize. Workers on a `std::thread::scope` claim
//! the next input index from one shared atomic counter and keep their
//! `(index, output)` pairs locally; the pairs are then placed by index, so
//! the result vector — and anything rendered from it — is byte-identical to
//! a serial loop over the same inputs. Threads live only in this harness
//! crate; the simulation crates stay thread-free and clock-free.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over every item of `inputs`, in parallel across up to `threads`
/// workers, returning outputs in input order.
///
/// `f` must be deterministic per input for sweep results to be reproducible;
/// the parallelism here never reorders or perturbs individual runs.
pub fn run_sweep<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1).min(inputs.len());
    if threads <= 1 {
        return inputs.iter().map(&f).collect();
    }

    // Relaxed suffices: the counter only hands out indices; inputs were
    // written before the workers spawned and results come back via `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(idx) else { return done };
            done.push((idx, f(input)));
        }
    };
    // Worker threads are a throughput detail: results land in index order
    // regardless of completion order, so parallelism never reaches replay.
    let mut pairs: Vec<(usize, O)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
        // A panicking job re-raises its own payload here, as it would in a
        // serial loop.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(idx, _)| idx);
    pairs.into_iter().map(|(_, out)| out).collect()
}

/// Default worker count: the machine's parallelism, bounded to something
/// polite for shared boxes.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = run_sweep(&inputs, 8, |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_path_matches_parallel() {
        let inputs: Vec<u64> = (0..50).collect();
        let seq = run_sweep(&inputs, 1, |&x| x + 7);
        let par = run_sweep(&inputs, 8, |&x| x + 7);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = run_sweep(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_inputs_is_fine() {
        let out = run_sweep(&[1u64, 2], 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn work_is_actually_distributed() {
        // Record which thread handled each item; with 4 workers and 64
        // slow-ish items more than one thread should participate.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ids = StdMutex::new(HashSet::new());
        let inputs: Vec<u64> = (0..64).collect();
        run_sweep(&inputs, 4, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ids.lock().unwrap().len() > 1);
    }
}
