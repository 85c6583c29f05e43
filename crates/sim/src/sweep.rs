//! Parallel parameter-sweep driver.
//!
//! Every experiment in the paper reproduction is a sweep over hosts,
//! guests, and assignment strategies — hundreds of independent simulator
//! runs. This driver fans them out across cores on scoped threads; each
//! run is fully deterministic, so the parallel sweep's results are
//! identical to a sequential one.

/// Map `f` over `items` in parallel, preserving order.
///
/// `items` is cut into one contiguous chunk per available core, each
/// mapped on its own scoped thread; the chunks' results are concatenated
/// in input order. A panic in `f` is re-raised on the caller's thread.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Send + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(cores).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<T>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        // Empty, shorter than the core count, and uneven chunkings.
        for n in [0u64, 1, 2, 3, 7, 100] {
            let xs: Vec<u64> = (0..n).collect();
            let ys = par_map(&xs, |&x| x * x);
            assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }
}
