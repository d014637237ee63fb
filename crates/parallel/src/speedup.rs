//! Figure 8 instrumentation: likelihood-versus-wall-clock traces.
//!
//! The paper plots *distance to optimal training likelihood* against time
//! for the CPU and GPU implementations; the GPU curve reaches any target
//! accuracy ~57× sooner. These helpers turn [`TrainingHistory`] telemetry
//! into such traces and compute the speedup at a target.

use ocular_core::trainer::TrainingHistory;

/// Objective values paired with cumulative wall-clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTrace {
    /// `seconds[j]` = cumulative time when `objective[j]` was reached;
    /// entry 0 is the initial objective at t = 0.
    pub seconds: Vec<f64>,
    /// Objective values (non-increasing for line-search training).
    pub objective: Vec<f64>,
}

impl TimedTrace {
    /// Builds from trainer telemetry.
    pub fn from_history(h: &TrainingHistory) -> TimedTrace {
        let mut seconds = Vec::with_capacity(h.objective.len());
        seconds.push(0.0);
        let mut acc = 0.0;
        for &s in &h.sweep_seconds {
            acc += s;
            seconds.push(acc);
        }
        TimedTrace {
            seconds,
            objective: h.objective.clone(),
        }
    }

    /// First time at which the objective is `<= target`, if reached.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.objective
            .iter()
            .position(|&q| q <= target)
            .map(|ix| self.seconds[ix])
    }

    /// Final (best) objective.
    pub fn best(&self) -> f64 {
        self.objective.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The Figure 8 y-axis: `objective − q_opt` per point, with `q_opt`
    /// supplied by the caller (the best value across all compared traces).
    pub fn distance_to(&self, q_opt: f64) -> Vec<f64> {
        self.objective
            .iter()
            .map(|&q| (q - q_opt).max(0.0))
            .collect()
    }

    /// CSV serialisation (`seconds,objective`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("seconds,objective\n");
        for (s, q) in self.seconds.iter().zip(&self.objective) {
            out.push_str(&format!("{s:.6},{q:.6}\n"));
        }
        out
    }
}

/// Speedup of `fast` over `slow` at the accuracy target
/// `q_opt + rel_gap · |q_opt|`, where `q_opt` is the best objective either
/// trace reached. Returns `None` if either trace never reaches the target.
pub fn speedup_at_threshold(slow: &TimedTrace, fast: &TimedTrace, rel_gap: f64) -> Option<f64> {
    let q_opt = slow.best().min(fast.best());
    let target = q_opt + rel_gap * q_opt.abs();
    let ts = slow.time_to_reach(target)?;
    let tf = fast.time_to_reach(target)?;
    if tf <= 0.0 {
        return None;
    }
    Some(ts / tf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(times: &[f64], obj: &[f64]) -> TrainingHistory {
        TrainingHistory {
            objective: obj.to_vec(),
            sweep_seconds: times.to_vec(),
            search: Vec::new(),
            converged: true,
        }
    }

    #[test]
    fn trace_accumulates_time() {
        let h = history(&[1.0, 2.0, 3.0], &[100.0, 50.0, 25.0, 12.0]);
        let t = TimedTrace::from_history(&h);
        assert_eq!(t.seconds, vec![0.0, 1.0, 3.0, 6.0]);
        assert_eq!(t.objective.len(), 4);
    }

    #[test]
    fn time_to_reach_interpolates_at_points() {
        let t = TimedTrace {
            seconds: vec![0.0, 1.0, 3.0],
            objective: vec![100.0, 40.0, 10.0],
        };
        assert_eq!(t.time_to_reach(100.0), Some(0.0));
        assert_eq!(t.time_to_reach(40.0), Some(1.0));
        assert_eq!(t.time_to_reach(39.0), Some(3.0));
        assert_eq!(t.time_to_reach(5.0), None);
    }

    #[test]
    fn speedup_computed_from_traces() {
        // slow reaches 10 at t=30; fast reaches 10 at t=3 → speedup 10
        let slow = TimedTrace {
            seconds: vec![0.0, 30.0],
            objective: vec![100.0, 10.0],
        };
        let fast = TimedTrace {
            seconds: vec![0.0, 3.0],
            objective: vec![100.0, 10.0],
        };
        let s = speedup_at_threshold(&slow, &fast, 1e-9).unwrap();
        assert!((s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_none_when_unreached() {
        let slow = TimedTrace {
            seconds: vec![0.0, 1.0],
            objective: vec![100.0, 90.0],
        };
        let fast = TimedTrace {
            seconds: vec![0.0, 1.0],
            objective: vec![100.0, 10.0],
        };
        // target is near 10; slow never reaches it
        assert!(speedup_at_threshold(&slow, &fast, 1e-6).is_none());
    }

    #[test]
    fn distance_to_optimal_clamps_at_zero() {
        let t = TimedTrace {
            seconds: vec![0.0, 1.0],
            objective: vec![5.0, 2.0],
        };
        assert_eq!(t.distance_to(2.0), vec![3.0, 0.0]);
        assert_eq!(t.best(), 2.0);
    }

    #[test]
    fn csv_renders() {
        let t = TimedTrace {
            seconds: vec![0.0, 0.5],
            objective: vec![2.0, 1.0],
        };
        let csv = t.to_csv();
        assert!(csv.contains("seconds,objective"));
        assert!(csv.contains("0.500000,1.000000"));
    }
}
