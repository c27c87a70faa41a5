//! Wall-clock helpers for the time-scalability experiments.

use std::time::Instant;

/// Runs `f` and returns `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` `n` times, returning the minimum wall time (the conventional
/// noise-robust micro-measurement).
pub fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(n > 0, "best_of needs at least one run");
    (0..n)
        .map(|_| time_it(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// Runs `f` `n` times, returning the median wall time: for a call that
/// takes well under a millisecond, the minimum of a few runs moves with
/// whatever else the host is doing, while the median of many does not.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(n > 0, "median_of needs at least one run");
    median((0..n).map(|_| time_it(&mut f).1).collect())
}

/// The middle value of `times`, or the mean of the middle two.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_value_and_positive_time() {
        let (v, t) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn median_is_the_middle_value() {
        assert_eq!(median(vec![3.0, 1.0, 100.0]), 3.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 100.0]), 3.0);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn median_of_ignores_one_slow_run() {
        let mut calls = 0;
        let t = median_of(5, || {
            calls += 1;
            let ms = if calls == 1 { 200 } else { 1 };
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        assert_eq!(calls, 5);
        assert!((0.0005..0.2).contains(&t), "t {t}");
    }

    #[test]
    fn best_of_is_min() {
        let t = best_of(3, || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(t >= 0.0005, "t {t}");
    }
}
