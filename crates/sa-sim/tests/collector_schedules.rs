//! Property suite for the output-schedule frontiers of both dataflows'
//! collectors, on deliberately awkward geometries: collapse depths that do
//! not divide the row count, rows != cols, and single-column arrays.
//!
//! [`OutputCollector::due_range`] (weight-stationary) and
//! [`OsCollector::due_cols`] (output-stationary) are the O(1) dense-range
//! forms of the per-column drain schedules; the bulk harvesting paths of
//! both engines trust them blindly, so each is checked column by column
//! against the naive per-column predicate spelled out in its schedule
//! derivation, together with its `last_due_cycle` bound.

use proptest::prelude::*;
use sa_sim::{ArrayConfig, Dataflow, OsCollector, OutputCollector};

/// The naive weight-stationary predicate: column `m` registers a result at
/// cycle `c` iff `fill_latency + floor(m / k) <= c` and fewer than `T`
/// results came due for it so far.
fn ws_due(config: ArrayConfig, t: usize, col: u32, cycle: u64) -> bool {
    let start = u64::from(config.row_blocks()) - 1 + u64::from(col / config.collapse_depth);
    cycle >= start && cycle - start < t as u64
}

/// The naive output-stationary predicate: column `m` drains one resident
/// accumulator per cycle for `R` cycles starting at
/// `N + row_blocks - 1 + floor(m / k)`.
fn os_due(config: ArrayConfig, n: u64, col: u32, cycle: u64) -> bool {
    if n == 0 {
        // An empty reduction leaves nothing resident: no drain window.
        return false;
    }
    let start = n + u64::from(config.row_blocks()) - 1 + u64::from(col / config.collapse_depth);
    cycle >= start && cycle - start < u64::from(config.rows)
}

/// Asserts that a reported dense range equals the set of due columns under
/// the naive predicate — same members, contiguous, nothing outside.
fn assert_range_matches(
    range: Option<(u32, u32)>,
    cols: u32,
    cycle: u64,
    due: impl Fn(u32) -> bool,
    label: &str,
) {
    let naive: Vec<u32> = (0..cols).filter(|&m| due(m)).collect();
    match range {
        None => assert!(
            naive.is_empty(),
            "{label}: cycle {cycle} reported nothing due but naive says {naive:?}"
        ),
        Some((first, last)) => {
            assert!(
                !naive.is_empty() && first == naive[0] && last == *naive.last().unwrap(),
                "{label}: cycle {cycle} reported {first}..={last} but naive says {naive:?}"
            );
            assert_eq!(
                naive.len() as u64,
                u64::from(last - first) + 1,
                "{label}: cycle {cycle} due set is not contiguous: {naive:?}"
            );
        }
    }
}

fn assert_ws_schedule(rows: u32, cols: u32, k: u32, t: usize) {
    let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
    let collector = OutputCollector::new(config, t);
    let last_due = collector.last_due_cycle();
    // The naive last-due bound must agree with the collector's.
    let naive_last = (0..cols)
        .flat_map(|m| (0..200u64).filter(move |&c| ws_due(config, t, m, c)))
        .max();
    assert_eq!(
        last_due, naive_last,
        "ws last_due: {rows}x{cols} k={k} t={t}"
    );
    let horizon = last_due.map_or(8, |due| due + 4);
    for cycle in 0..=horizon {
        assert_range_matches(
            collector.due_range(cycle),
            cols,
            cycle,
            |m| ws_due(config, t, m, cycle),
            "ws due_range",
        );
        if let Some(due) = last_due {
            assert!(
                cycle <= due || collector.due_range(cycle).is_none(),
                "ws due_range: cycle {cycle} past last_due {due} still reports columns"
            );
        }
    }
}

fn assert_os_schedule(rows: u32, cols: u32, k: u32, n: u64) {
    let config = ArrayConfig::new(rows, cols)
        .with_collapse_depth(k)
        .with_dataflow(Dataflow::OutputStationary);
    let collector = OsCollector::new(config, n);
    let last_due = collector.last_due_cycle();
    let naive_last = (0..cols)
        .flat_map(|m| (0..300u64).filter(move |&c| os_due(config, n, m, c)))
        .max();
    assert_eq!(
        last_due, naive_last,
        "os last_due: {rows}x{cols} k={k} n={n}"
    );
    let horizon = last_due.map_or(8, |due| due + 4);
    for cycle in 0..=horizon {
        let range = collector.due_cols(cycle);
        assert_range_matches(
            range,
            cols,
            cycle,
            |m| os_due(config, n, m, cycle),
            "os due_cols",
        );
        // Every due column drains bottom-up: the due row walks from the
        // last array row to the first over the column's R-cycle window.
        if let Some((first, last)) = range {
            for col in first..=last {
                let row = collector.due_row(cycle, col);
                assert!(
                    row < rows,
                    "os due_row: cycle {cycle} col {col} row {row} out of range"
                );
                assert_eq!(
                    u64::from(rows - 1 - row),
                    cycle - collector.drain_start(col),
                    "os due_row: cycle {cycle} col {col} drains out of order"
                );
            }
        }
    }
}

#[test]
fn schedules_match_on_awkward_fixed_geometries() {
    // k not dividing the row count, rows != cols, and single-column
    // arrays — the shapes the derivations' floor/ceil terms get wrong
    // first.
    for (rows, cols, k) in [
        (10u32, 6u32, 4u32),
        (7, 3, 2),
        (9, 7, 3),
        (5, 1, 1),
        (1, 1, 1),
        (12, 5, 5),
        (66, 3, 3),
        (3, 66, 3),
    ] {
        for t in [0usize, 1, 3, 7] {
            assert_ws_schedule(rows, cols, k, t);
        }
        for n in [0u64, 1, 4, 9] {
            assert_os_schedule(rows, cols, k, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The weight-stationary due range equals the naive per-column
    /// schedule on every cycle up to (and past) the last due cycle.
    #[test]
    fn ws_due_range_matches_the_per_column_schedule(
        rows in 1u32..=16,
        cols in 1u32..=16,
        k in 1u32..=8,
        t in 0usize..=10,
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_ws_schedule(rows, cols, k, t);
    }

    /// The output-stationary due range (and the bottom-up due row inside
    /// it) equals the naive per-column drain schedule on every cycle.
    #[test]
    fn os_due_cols_matches_the_per_column_schedule(
        rows in 1u32..=16,
        cols in 1u32..=16,
        k in 1u32..=8,
        n in 0u64..=10,
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_os_schedule(rows, cols, k, n);
    }

    /// Driving `collect_due` over the whole schedule with a synthetic
    /// accumulator file collects every output element exactly once, in a
    /// complete collector whose output maps `(row, col)` faithfully.
    #[test]
    fn os_collect_due_collects_every_element_exactly_once(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1u64..=10,
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let mut collector = OsCollector::new(config, n);
        // A recognizable encoding per element, standing in for settled
        // accumulators.
        let acc: Vec<i64> = (0..rows as i64 * cols as i64).map(|i| 1000 + i).collect();
        let last = collector.last_due_cycle().unwrap();
        for cycle in 0..=last {
            collector.collect_due(cycle, &acc).unwrap();
        }
        prop_assert!(collector.is_complete());
        let output = collector.into_output().unwrap();
        for row in 0..rows as usize {
            for col in 0..cols as usize {
                prop_assert_eq!(
                    output[(row, col)],
                    1000 + (row * cols as usize + col) as i64
                );
            }
        }
    }
}
