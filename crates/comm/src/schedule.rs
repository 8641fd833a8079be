//! The compute/transfer overlap scheduler (Figures 7 and 15).
//!
//! Given a computation phase and a communication phase, the baseline must
//! serialize them (AES and DRAM bandwidth contention), while the unified
//! granularity lets TensorTEE hide the transfer inside the computation.
//! [`Timeline`] renders the two-stream picture the figures draw.

use tee_sim::Time;

/// Serialized execution: compute then transfer (Figure 7).
pub fn serialized_time(compute: Time, transfer: Time) -> Time {
    compute + transfer
}

/// Overlapped execution (Figure 15): the transfer hides inside the
/// computation; only the excess is exposed.
pub fn overlapped_time(compute: Time, transfer: Time) -> Time {
    compute.max(transfer)
}

/// The exposed (non-overlapped) tail of a transfer hidden behind a compute
/// window: `overlapped_time(window, transfer) − window`. Zero when the
/// transfer fits inside the window, including the exact-fit boundary.
///
/// The end-to-end simulators use this for the gradient transfer and ring
/// all-reduce hidden behind the backward window, and the weight transfer
/// hidden behind the CPU optimizer (§4.4, Figure 15).
pub fn exposed_time(window: Time, transfer: Time) -> Time {
    transfer.saturating_sub(window)
}

/// A labeled segment on a two-stream timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Stream row (0 = compute, 1 = communication).
    pub row: usize,
    /// Label drawn in the segment.
    pub label: String,
    /// Start time.
    pub start: Time,
    /// End time.
    pub end: Time,
}

/// A two-stream execution timeline that renders like the paper's figures.
///
/// # Example
///
/// ```
/// use tee_comm::schedule::Timeline;
/// use tee_sim::Time;
///
/// let mut t = Timeline::new();
/// t.push(0, "bwd", Time::ZERO, Time::from_us(10));
/// t.push(1, "grad", Time::ZERO, Time::from_us(4));
/// let art = t.render(40);
/// assert!(art.contains("bwd"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    segments: Vec<Segment>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `row > 1`.
    pub fn push(&mut self, row: usize, label: impl Into<String>, start: Time, end: Time) {
        assert!(end >= start, "segment ends before it starts");
        assert!(row <= 1, "timeline has two rows");
        self.segments.push(Segment {
            row,
            label: label.into(),
            start,
            end,
        });
    }

    /// Latest segment end.
    pub fn makespan(&self) -> Time {
        self.segments
            .iter()
            .map(|s| s.end)
            .fold(Time::ZERO, Time::max)
    }

    /// Renders an ASCII chart `width` characters wide, two rows
    /// (compute on top, communication below), as in Figures 7/15.
    pub fn render(&self, width: usize) -> String {
        let span = self.makespan().as_ps().max(1);
        let mut rows = [vec![b' '; width], vec![b' '; width]];
        for seg in &self.segments {
            let a = (seg.start.as_ps() as u128 * width as u128 / span as u128) as usize;
            let b = ((seg.end.as_ps() as u128 * width as u128).div_ceil(span as u128) as usize)
                .min(width);
            let row = &mut rows[seg.row];
            for c in row.iter_mut().take(b).skip(a) {
                *c = b'=';
            }
            // Write the label inside the bar when it fits.
            let label = seg.label.as_bytes();
            if b > a && b - a >= label.len() + 2 {
                let off = a + (b - a - label.len()) / 2;
                row[off..off + label.len()].copy_from_slice(label);
            }
        }
        format!(
            "compute |{}|\ncomm    |{}|  (makespan {})",
            String::from_utf8_lossy(&rows[0]),
            String::from_utf8_lossy(&rows[1]),
            self.makespan()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_vs_overlapped() {
        let c = Time::from_us(10);
        let x = Time::from_us(4);
        assert_eq!(serialized_time(c, x), Time::from_us(14));
        assert_eq!(overlapped_time(c, x), Time::from_us(10));
        // Transfer larger than compute: exposed excess.
        assert_eq!(overlapped_time(x, c), Time::from_us(10));
    }

    #[test]
    fn zero_length_transfer_is_free() {
        let c = Time::from_us(10);
        assert_eq!(serialized_time(c, Time::ZERO), c);
        assert_eq!(overlapped_time(c, Time::ZERO), c);
        assert_eq!(exposed_time(c, Time::ZERO), Time::ZERO);
        // A zero-length compute window exposes the whole transfer.
        assert_eq!(exposed_time(Time::ZERO, c), c);
        // And nothing happening at all takes no time.
        assert_eq!(overlapped_time(Time::ZERO, Time::ZERO), Time::ZERO);
        assert_eq!(exposed_time(Time::ZERO, Time::ZERO), Time::ZERO);
    }

    #[test]
    fn transfer_longer_than_compute_exposes_excess() {
        let c = Time::from_us(4);
        let x = Time::from_us(10);
        assert_eq!(overlapped_time(c, x), x);
        assert_eq!(exposed_time(c, x), Time::from_us(6));
        // Exposed tail + window reconstructs the overlapped makespan.
        assert_eq!(c + exposed_time(c, x), overlapped_time(c, x));
    }

    #[test]
    fn exact_overlap_boundary_exposes_nothing() {
        let t = Time::from_us(7);
        assert_eq!(overlapped_time(t, t), t);
        assert_eq!(exposed_time(t, t), Time::ZERO);
        // One picosecond past the boundary is the smallest exposed tail.
        let just_over = t + Time::from_ps(1);
        assert_eq!(exposed_time(t, just_over), Time::from_ps(1));
        let just_under = t.saturating_sub(Time::from_ps(1));
        assert_eq!(exposed_time(t, just_under), Time::ZERO);
    }

    #[test]
    fn makespan_tracks_latest_end() {
        let mut t = Timeline::new();
        t.push(0, "a", Time::ZERO, Time::from_us(3));
        t.push(1, "b", Time::from_us(1), Time::from_us(5));
        assert_eq!(t.makespan(), Time::from_us(5));
    }

    #[test]
    fn render_has_two_rows_and_labels() {
        let mut t = Timeline::new();
        t.push(0, "fwd", Time::ZERO, Time::from_us(8));
        t.push(1, "w", Time::from_us(2), Time::from_us(6));
        let art = t.render(60);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains("fwd"));
        assert!(art.contains('='));
    }

    #[test]
    fn empty_timeline_renders() {
        let art = Timeline::new().render(10);
        assert!(art.contains("compute"));
    }

    #[test]
    #[should_panic]
    fn bad_segment_rejected() {
        Timeline::new().push(0, "x", Time::from_us(2), Time::from_us(1));
    }
}
