//! ASCII rendering of simulation traces — one lane per task, useful for
//! demos, debugging and the Figure 2 harness.

use crate::multi::SimResult;
use crate::trace::TraceEvent;

/// Renders the trace as one text lane per task.
///
/// Symbols: `#` running, `!` preemption instant (delay charged), `|`
/// completion, `.` otherwise. Time is scaled to `width` columns over
/// `[0, until]`. Returns an empty string if the result carries no trace
/// (run with [`SimConfig::with_trace`]).
///
/// [`SimConfig::with_trace`]: crate::SimConfig::with_trace
///
/// # Panics
///
/// Panics if `until` is not finite and positive or `width` is zero
/// (programming errors in test/demo code, where this is used).
#[must_use]
pub fn render_timeline(result: &SimResult, tasks: usize, until: f64, width: usize) -> String {
    assert!(until.is_finite() && until > 0.0, "bad horizon");
    assert!(width > 0, "bad width");
    if result.trace.is_empty() {
        return String::new();
    }
    let column = |t: f64| -> usize { (((t / until) * width as f64) as usize).min(width - 1) };
    let mut lanes: Vec<Vec<char>> = vec![vec!['.'; width]; tasks];
    // Running intervals, per core: from each Dispatched to the next event
    // that stops that core's job (Preempted or Completed).
    let mut running: Vec<Option<(usize, f64)>> = Vec::new(); // (task, since)
    let mark_run = |lanes: &mut Vec<Vec<char>>, task: usize, from: f64, to: f64| {
        if task >= lanes.len() {
            return;
        }
        let (lo, hi) = (column(from), column(to));
        for cell in &mut lanes[task][lo..=hi] {
            if *cell == '.' {
                *cell = '#';
            }
        }
    };
    for event in &result.trace {
        let (at, task, core, symbol) = match *event {
            TraceEvent::Dispatched { at, task, core, .. } => (at, task, core, None),
            TraceEvent::Preempted { at, task, core, .. } => (at, task, core, Some('!')),
            TraceEvent::Completed { at, task, core, .. } => (at, task, core, Some('|')),
            TraceEvent::Released { .. }
            | TraceEvent::NprStarted { .. }
            | TraceEvent::NprExpired { .. } => continue,
        };
        if running.len() <= core {
            running.resize(core + 1, None);
        }
        if let Some((t, since)) = running[core].take() {
            mark_run(&mut lanes, t, since, at);
        }
        match symbol {
            None => running[core] = Some((task, at)),
            Some(symbol) if task < lanes.len() => lanes[task][column(at)] = symbol,
            Some(_) => {}
        }
    }
    let mut out = String::new();
    for (task, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("task {task} |"));
        out.extend(lane.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "        0{:>width$}\n",
        format!("{until:.0}"),
        width = width
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::simulate;
    use crate::policy::{PreemptionMode, SimConfig};
    use crate::scenario::{Scenario, SimTask};
    use fnpr_core::DelayCurve;

    fn traced_run() -> SimResult {
        let curve = DelayCurve::constant(2.0, 10.0).unwrap();
        let s = Scenario {
            tasks: vec![
                SimTask {
                    exec_time: 1.0,
                    deadline: 100.0,
                    q: None,
                    delay_curve: None,
                },
                SimTask {
                    exec_time: 10.0,
                    deadline: 100.0,
                    q: Some(4.0),
                    delay_curve: Some(curve),
                },
            ],
            releases: vec![(1, 0.0), (0, 3.0)],
        };
        let config = SimConfig {
            cores: 1,
            policy: crate::policy::PriorityPolicy::FixedPriority,
            mode: PreemptionMode::FloatingNpr,
            horizon: 100.0,
            collect_trace: true,
        };
        simulate(&s, &config)
    }

    #[test]
    fn timeline_shows_lanes_and_events() {
        let result = traced_run();
        let rendered = render_timeline(&result, 2, 15.0, 60);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3); // two lanes + axis
        assert!(lines[0].starts_with("task 0 |"));
        assert!(lines[1].contains('#'), "victim lane shows execution");
        assert!(lines[1].contains('!'), "victim lane shows the preemption");
        assert!(
            lines[0].contains('|') || lines[1].contains('|'),
            "completions marked"
        );
    }

    #[test]
    fn empty_trace_renders_empty() {
        let curve = DelayCurve::constant(1.0, 5.0).unwrap();
        let s = Scenario {
            tasks: vec![SimTask {
                exec_time: 5.0,
                deadline: 100.0,
                q: None,
                delay_curve: Some(curve),
            }],
            releases: vec![(0, 0.0)],
        };
        let result = simulate(&s, &SimConfig::floating_npr_fp(100.0)); // no trace
        assert_eq!(render_timeline(&result, 1, 10.0, 40), "");
    }
}
