//! # `pw-bench` — timing sweeps for the paper-reproduction binaries
//!
//! The paper's "evaluation" is a complexity classification (Fig. 2 and Theorems 3.1–5.3),
//! so the harness measures how each decision procedure *scales* with the database size on
//! two kinds of workload: the random (easy) families of `pw-workloads` for the PTIME cells
//! and the reduction-generated (hard) families of `pw-reductions` for the NP / coNP / Π₂ᵖ
//! cells.  This library provides the timing sweep and growth-classification helpers shared
//! by the `experiments`, `fig2-matrix` and `parallel-speedup` binaries.

use std::time::{Duration, Instant};

/// One measured point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The size parameter (rows, vertices, variables, …).
    pub size: usize,
    /// Wall-clock time of the decision call.
    pub elapsed: Duration,
    /// The decision outcome (kept so the optimiser cannot discard the call and so the
    /// tables can report it).
    pub answer: bool,
}

/// A measured sweep: a label plus its points.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Human-readable label (problem, representation, algorithm).
    pub label: String,
    /// The measured points, in increasing size order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Run `f` for every size in `sizes`, timing each call.
    pub fn run(
        label: impl Into<String>,
        sizes: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize) -> bool,
    ) -> Sweep {
        let mut points = Vec::new();
        for size in sizes {
            let start = Instant::now();
            let answer = f(size);
            points.push(SweepPoint {
                size,
                elapsed: start.elapsed(),
                answer,
            });
        }
        Sweep {
            label: label.into(),
            points,
        }
    }

    /// Crude growth classification: fit the ratio of successive times against the ratio of
    /// successive sizes.  Returns the estimated polynomial degree when growth looks
    /// polynomial, or `None` when it looks super-polynomial (degree estimate keeps
    /// increasing and exceeds `max_degree`).
    pub fn polynomial_degree_estimate(&self) -> Option<f64> {
        let usable: Vec<&SweepPoint> = self
            .points
            .iter()
            .filter(|p| p.elapsed > Duration::from_micros(5))
            .collect();
        if usable.len() < 2 {
            return Some(0.0);
        }
        let mut degrees = Vec::new();
        for pair in usable.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.size == a.size {
                continue;
            }
            let time_ratio = b.elapsed.as_secs_f64() / a.elapsed.as_secs_f64().max(1e-9);
            let size_ratio = b.size as f64 / a.size as f64;
            degrees.push(time_ratio.ln() / size_ratio.ln());
        }
        if degrees.is_empty() {
            return Some(0.0);
        }
        let last = *degrees.last().unwrap();
        let max = degrees.iter().cloned().fold(f64::MIN, f64::max);
        // Heuristic: exponential growth shows an ever-increasing apparent degree.
        const MAX_POLY_DEGREE: f64 = 4.5;
        if max > MAX_POLY_DEGREE && last > MAX_POLY_DEGREE {
            None
        } else {
            Some(degrees.iter().sum::<f64>() / degrees.len() as f64)
        }
    }

    /// A one-word verdict for the printed tables.
    pub fn growth_class(&self) -> &'static str {
        match self.polynomial_degree_estimate() {
            Some(_) => "polynomial",
            None => "super-polynomial",
        }
    }

    /// Render as aligned text rows (size, time, answer).
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.label);
        for p in &self.points {
            out.push_str(&format!(
                "  n = {:>6}   {:>12.3?}   answer = {}\n",
                p.size, p.elapsed, p.answer
            ));
        }
        out.push_str(&format!(
            "  growth: {} (degree estimate {:?})\n",
            self.growth_class(),
            self.polynomial_degree_estimate()
        ));
        out
    }
}

/// Format a duration in a compact human unit for the matrix tables.
pub fn compact(d: Duration) -> String {
    if d < Duration::from_micros(1) {
        format!("{}ns", d.as_nanos())
    } else if d < Duration::from_millis(1) {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    } else if d < Duration::from_secs(1) {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_records_every_point() {
        let sweep = Sweep::run("noop", [1, 2, 4], |n| n % 2 == 0);
        assert_eq!(sweep.points.len(), 3);
        assert!(!sweep.points[0].answer);
        assert!(sweep.points[2].answer);
    }

    #[test]
    fn polynomial_work_is_classified_as_polynomial() {
        // Quadratic work.
        let sweep = Sweep::run("quadratic", [64, 128, 256, 512], |n| {
            let mut acc = 0u64;
            for i in 0..n {
                for j in 0..n {
                    acc = acc.wrapping_add((i * j) as u64);
                }
            }
            acc > 0
        });
        assert_eq!(sweep.growth_class(), "polynomial");
    }

    #[test]
    fn exponential_work_is_classified_as_super_polynomial() {
        // Sizes far enough apart that each step multiplies the work by ~φ⁴ ≈ 6.8× and
        // every point runs long enough to dominate scheduler noise on a loaded box.
        let sweep = Sweep::run("exponential", [20, 24, 28], |n| {
            fn fib(n: usize) -> u64 {
                if n < 2 {
                    1
                } else {
                    fib(n - 1).wrapping_add(fib(n - 2))
                }
            }
            fib(n) > 0
        });
        assert_eq!(sweep.growth_class(), "super-polynomial");
    }

    #[test]
    fn compact_formats_each_range() {
        assert!(compact(Duration::from_nanos(10)).ends_with("ns"));
        assert!(compact(Duration::from_micros(10)).ends_with("µs"));
        assert!(compact(Duration::from_millis(10)).ends_with("ms"));
        assert!(compact(Duration::from_secs(2)).ends_with('s'));
    }
}
