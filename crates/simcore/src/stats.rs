//! Statistics collectors: time series and Gantt timelines.

use lifl_types::SimTime;
use serde::{Deserialize, Serialize};

/// A named series of `(time, value)` samples, used for Fig. 9 and Fig. 10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TimeSeries {
    /// Series label (for example "LIFL" or "arrival rate").
    pub name: String,
    /// Samples in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a raw `(x, y)` sample (for series whose x-axis is not time).
    pub fn push_xy(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The first x at which the series reaches at least `threshold`, if ever.
    /// Used for "time to accuracy": the x-axis may be hours or CPU-hours.
    pub fn first_crossing(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(_, v)| *v >= threshold)
            .map(|(x, _)| *x)
    }
}

/// One task interval on a Gantt chart (Fig. 4 / Fig. 7(c) timelines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GanttSegment {
    /// Row label, for example "LF1" or "Top".
    pub row: String,
    /// Task category, for example "Network", "Agg." or "Eval.".
    pub task: String,
    /// Interval start.
    pub start: f64,
    /// Interval end.
    pub end: f64,
}

/// A collection of Gantt segments with helpers to summarise rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Gantt {
    /// All segments in insertion order.
    pub segments: Vec<GanttSegment>,
}

impl Gantt {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment.
    pub fn add(
        &mut self,
        row: impl Into<String>,
        task: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        self.segments.push(GanttSegment {
            row: row.into(),
            task: task.into(),
            start: start.as_secs(),
            end: end.as_secs().max(start.as_secs()),
        });
    }

    /// The latest end time across all segments (the makespan).
    pub fn makespan(&self) -> f64 {
        self.segments.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Distinct row labels in insertion order.
    pub fn rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for s in &self.segments {
            if !rows.contains(&s.row) {
                rows.push(s.row.clone());
            }
        }
        rows
    }

    /// Renders a coarse ASCII timeline, one line per row.
    pub fn render_ascii(&self, width: usize) -> String {
        let makespan = self.makespan().max(1e-9);
        let width = width.max(10);
        let mut out = String::new();
        for row in self.rows() {
            let mut line = vec![' '; width];
            for seg in self.segments.iter().filter(|s| s.row == row) {
                let a = ((seg.start / makespan) * width as f64).floor() as usize;
                let b = ((seg.end / makespan) * width as f64).ceil() as usize;
                let ch = seg.task.chars().next().unwrap_or('#');
                for cell in line.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(&format!("{row:>6} |{}|\n", line.iter().collect::<String>()));
        }
        out.push_str(&format!("  span: {:.1}s\n", makespan));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_crossing() {
        let mut ts = TimeSeries::new("acc");
        ts.push_xy(0.0, 10.0);
        ts.push_xy(100.0, 50.0);
        ts.push_xy(200.0, 75.0);
        assert_eq!(ts.first_crossing(70.0), Some(200.0));
        assert_eq!(ts.first_crossing(90.0), None);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn gantt_makespan_and_busy() {
        let mut g = Gantt::new();
        g.add(
            "LF1",
            "Network",
            SimTime::from_secs(0.0),
            SimTime::from_secs(5.0),
        );
        g.add(
            "LF1",
            "Agg.",
            SimTime::from_secs(5.0),
            SimTime::from_secs(8.0),
        );
        g.add(
            "Top",
            "Agg.",
            SimTime::from_secs(8.0),
            SimTime::from_secs(12.0),
        );
        assert_eq!(g.makespan(), 12.0);
        assert_eq!(g.rows(), vec!["LF1".to_string(), "Top".to_string()]);
        let art = g.render_ascii(40);
        assert!(art.contains("LF1"));
        assert!(art.contains("Top"));
    }

    #[test]
    fn gantt_segment_end_never_before_start() {
        let mut g = Gantt::new();
        g.add("A", "x", SimTime::from_secs(5.0), SimTime::from_secs(3.0));
        assert_eq!(g.segments[0].end, 5.0);
    }
}
