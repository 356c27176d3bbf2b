//! Order statistics over host-time samples.

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `samples`: the
/// smallest sample such that at least `p` percent of all samples are at
/// or below it. Unlike interpolating definitions it always returns a
/// value that was measured. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median (see [`percentile`]); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// How many samples lie strictly above the `p`-th percentile: a tail
/// percentile is only reported with at least ten samples beyond it.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(v) => samples.iter().filter(|&&x| x > v).count(),
        None => 0,
    }
}

/// Which of `windows` consecutive windows of `len` seconds the time `at`
/// (seconds from the start of the measured phase) falls in. Times at or
/// past the end fall in the last window.
pub fn window_of(at: f64, windows: usize, len: f64) -> usize {
    let last = windows.max(1) - 1;
    if len > 0.0 {
        ((at / len).max(0.0) as usize).min(last)
    } else {
        last
    }
}

/// The host time stolen in each of `windows` windows of `len` seconds,
/// from `readings` of a cumulative counter `(at, count)` taken in time
/// order, and `last`, the count at the end of the phase. A window's
/// share runs from its first reading to the next window's first (or to
/// `last`). A window without readings gets `None`.
pub fn stolen_per_window(
    readings: &[(f64, f64)],
    windows: usize,
    len: f64,
    last: f64,
) -> Vec<Option<f64>> {
    let mut first: Vec<Option<f64>> = vec![None; windows.max(1)];
    for &(at, count) in readings {
        first[window_of(at, windows, len)].get_or_insert(count);
    }
    (0..first.len())
        .map(|w| {
            let next = first[w + 1..].iter().flatten().next().copied();
            first[w].map(|f| next.unwrap_or(last) - f)
        })
        .collect()
}

/// Which windows to keep: the windows with the least stolen time, ties
/// going to the earlier window, taken in that order until they hold at
/// least `min_ops` ops (`ops[w]` in window `w`) and number at least
/// `min_windows`, or none are left. Windows without readings are never
/// kept.
pub fn quietest(
    stolen: &[Option<f64>],
    ops: &[usize],
    min_ops: usize,
    min_windows: usize,
) -> Vec<bool> {
    let mut order: Vec<usize> = (0..stolen.len()).filter(|&w| stolen[w].is_some()).collect();
    order.sort_by(|&a, &b| {
        stolen[a]
            .unwrap()
            .total_cmp(&stolen[b].unwrap())
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; stolen.len()];
    let (mut kept_ops, mut kept) = (0, 0);
    for w in order {
        if kept_ops >= min_ops && kept >= min_windows {
            break;
        }
        keep[w] = true;
        kept_ops += ops[w];
        kept += 1;
    }
    keep
}
