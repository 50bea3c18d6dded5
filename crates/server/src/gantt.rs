//! ASCII execution timelines (the Figure 5 / Figure 10 style Gantt
//! charts), rendered from a full-detail run's query records.

use std::fmt;

use mig_gpu::ProfileSize;

use crate::query::QueryRecord;

/// A borrowed timeline view: each [`QueryRecord`] renders as its
/// `started..completed` interval on row `partition`. It records nothing —
/// the records come from a [`ReportDetail::Full`](crate::ReportDetail::Full)
/// run's report (`report.records`), the rows from the server's partitions
/// ([`InferenceServer::partitions`](crate::InferenceServer::partitions)) or
/// a multi-model report's
/// [`partition_sizes`](crate::MultiRunReport::partition_sizes), which also
/// cover instances created mid-run.
///
/// # Examples
///
/// ```
/// use des_engine::SimTime;
/// use inference_server::{Gantt, QueryId, QueryRecord};
/// use mig_gpu::ProfileSize;
///
/// let t = SimTime::from_nanos;
/// let records = [QueryRecord {
///     id: QueryId(0),
///     batch: 4,
///     arrival: t(0),
///     dispatched: t(0),
///     started: t(0),
///     completed: t(500),
///     partition: 0,
/// }];
/// let sizes = [ProfileSize::G1, ProfileSize::G7];
/// let art = Gantt::new(&sizes, &records).render_ascii(40);
/// assert!(art.contains("GPU(1)"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Gantt<'a> {
    partition_sizes: &'a [ProfileSize],
    records: &'a [QueryRecord],
}

impl<'a> Gantt<'a> {
    /// A timeline with one row per entry of `partition_sizes`, drawing
    /// every record on its partition's row.
    #[must_use]
    pub fn new(partition_sizes: &'a [ProfileSize], records: &'a [QueryRecord]) -> Self {
        Gantt {
            partition_sizes,
            records,
        }
    }

    /// Renders the timeline as one text row per partition, `width`
    /// characters of timeline. Busy cells show the last digit of the query
    /// id; idle cells show `·`.
    #[must_use]
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let horizon = self
            .records
            .iter()
            .map(|r| r.completed.as_nanos())
            .max()
            .unwrap_or(1)
            .max(1);
        let cell = |t: u64| (t as u128 * width as u128 / horizon as u128) as usize;
        let mut out = String::new();
        for (p, size) in self.partition_sizes.iter().enumerate() {
            let mut cells = vec!['\u{b7}'; width];
            for r in self.records.iter().filter(|r| r.partition == p) {
                let lo = cell(r.started.as_nanos());
                let hi = cell(r.completed.as_nanos()).clamp(lo + 1, width);
                let digit = char::from_digit((r.id.0 % 10) as u32, 10).unwrap_or('#');
                for c in cells.iter_mut().take(hi).skip(lo.min(width - 1)) {
                    *c = digit;
                }
            }
            out.push_str(&format!("{size:>7} \u{2502}"));
            out.extend(cells);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Gantt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_ascii(72))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryId;
    use des_engine::SimTime;

    fn record(partition: usize, id: u64, start: u64, end: u64) -> QueryRecord {
        QueryRecord {
            id: QueryId(id),
            batch: 1,
            arrival: SimTime::from_nanos(start),
            dispatched: SimTime::from_nanos(start),
            started: SimTime::from_nanos(start),
            completed: SimTime::from_nanos(end),
            partition,
        }
    }

    #[test]
    fn render_has_one_row_per_partition() {
        let sizes = [ProfileSize::G1, ProfileSize::G2, ProfileSize::G7];
        let art = Gantt::new(&sizes, &[record(0, 1, 0, 100)]).render_ascii(40);
        assert_eq!(art.lines().count(), 3);
        assert!(art.contains("GPU(2)"));
    }

    #[test]
    fn busy_cells_show_query_digit() {
        let records = [record(0, 7, 0, 1_000), record(1, 3, 500, 1_000)];
        let art = Gantt::new(&[ProfileSize::G1, ProfileSize::G2], &records).render_ascii(20);
        let rows: Vec<&str> = art.lines().collect();
        assert!(rows[0].contains('7') && !rows[0].contains('3'), "{art}");
        // Row 1 is idle until its query starts halfway through.
        assert!(rows[1].contains("\u{b7}3"), "{art}");
    }

    #[test]
    fn rows_without_records_render_idle() {
        let art = Gantt::new(&[ProfileSize::G3], &[]).render_ascii(10);
        assert_eq!(art.matches('\u{b7}').count(), 10);
        let art = Gantt::new(&[ProfileSize::G1, ProfileSize::G3], &[record(0, 1, 0, 100)])
            .render_ascii(10);
        let idle = art.lines().nth(1).expect("row 1");
        assert_eq!(idle.matches('\u{b7}').count(), 10, "{art}");
    }
}
