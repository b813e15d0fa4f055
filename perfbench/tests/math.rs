//! The benchmark's own arithmetic: quantiles as Python's
//! `statistics.quantiles` computes them, pooling across instances, and
//! span self time.

use perfbench::stats::{beyond, median, p90, pool, quantile, quartiles, spread};
use perfbench::trace::{self_times, Span, Tracer};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&one_to_ten);
    assert!(
        close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
        "{q:?}"
    );
    // Unsorted input; statistics.quantiles([5, 1, 4, 2, 3], n=4)
    let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert!(
        close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
        "{q:?}"
    );
    // Two points: Python extrapolates past the ends.
    let q = quartiles(&[1.0, 2.0]);
    assert!(
        close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
        "{q:?}"
    );
}

#[test]
fn median_and_p90_on_known_vectors() {
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(median(&one_to_ten), 5.5));
    // statistics.quantiles(range(1, 11), n=10)[8] == 9.9
    assert!(close(p90(&one_to_ten), 9.9));
    assert!(close(p90(&[5.0, 1.0, 4.0, 2.0, 3.0]), 5.4));
    assert!(close(
        median(&[10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 10.5]),
        11.0
    ));
    assert!(close(median(&[7.0]), 7.0));
    assert!(close(quantile(&[7.0], 0.9), 7.0));
    // One sample in ten lies beyond p90 of 1..=10.
    assert_eq!(beyond(&one_to_ten, 0.9), 1);
}

#[test]
fn pooling_takes_percentiles_over_every_request() {
    let instances = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0], vec![]];
    let pooled = pool(&instances);
    assert_eq!(pooled.len(), 5);
    // The pooled median, not the median of per-instance medians (8.5).
    assert!(close(median(&pooled), 3.0));
    // statistics.quantiles([1, 2, 3, 10, 20], n=10)[8]: five samples put
    // p90 past the last one, so the method extrapolates.
    assert!(close(p90(&pooled), 24.0));
}

#[test]
fn spread_reports_quartile_and_range_shares() {
    let s = spread(&[10.0, 12.0, 11.0, 13.0, 9.0, 30.0, 10.5]);
    assert!(
        close(s.median, 11.0) && close(s.q1, 10.0) && close(s.q3, 13.0),
        "{s:?}"
    );
    assert!(close(s.iqr_share, 3.0 / 11.0));
    assert!(close(s.range_share, 21.0 / 11.0));
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 1,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // request [0, 100) > load [10, 40) > verify [15, 25)
    //                  > run [50, 90)
    let spans = [
        span("request", 0, 100, None),
        span("load", 10, 40, Some(0)),
        span("verify", 15, 25, Some(1)),
        span("run", 50, 90, Some(0)),
    ];
    // A grandchild is covered by its parent, not subtracted again.
    assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
}

#[test]
fn self_time_of_back_to_back_and_overlapping_children() {
    // Back-to-back children sharing a boundary cover [10, 50); a child
    // overlapping them and one running past the parent's end are clipped.
    let spans = [
        span("parent", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 30, 50, Some(0)),
        span("c", 40, 60, Some(0)),
        span("d", 90, 120, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
}

#[test]
fn tracer_nests_spans_and_totals_self_time() {
    let mut tr = Tracer::on();
    tr.set_request(7);
    let outer = tr.begin("outer");
    tr.span("inner", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    tr.span("inner", || ());
    tr.end(outer);
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
    let totals = tr.totals();
    assert_eq!(totals["inner"].count, 2);
    let outer = totals["outer"];
    assert_eq!(outer.self_ns, outer.total_ns - totals["inner"].total_ns);
    assert!(totals["inner"].total_ns >= 2_000_000);

    let mut off = Tracer::off();
    let s = off.begin("outer");
    off.span("inner", || ());
    off.end(s);
    assert!(off.spans().is_empty() && off.totals().is_empty());
}
