//! `ceu-par-stats` has one definition: what `write_par_stats_jsonl`
//! writes, `parse_par_stats` reads back field for field, and malformed
//! values are refused with the line they sit on.

use proptest::prelude::*;
use wsn_sim::parstats::DEFAULT_WINDOW_CAP;
use wsn_sim::{
    parse_par_stats, write_par_stats_jsonl, Attribution, ParShardStats, ParStats, ParTotals,
    ParWindowStats,
};

/// Small counters and ones across the whole range (JSON integers must
/// keep every bit of a `u64`).
fn n64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, 0..u64::MAX]
}

fn n32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..100, 0..u32::MAX]
}

fn arb_window() -> impl Strategy<Value = ParWindowStats> {
    let per_worker = (
        prop::collection::vec(n64(), 0..4),
        prop::collection::vec(n64(), 0..4),
        prop::collection::vec(n32(), 0..4),
    );
    let samples = (
        prop::collection::vec((n64(), n32(), n32()), 0..3),
        prop::collection::vec((n32(), n32(), n64(), n64()), 0..3),
    );
    (
        prop::collection::vec(n64(), 12..13),
        prop::collection::vec(n32(), 3..4),
        per_worker,
        samples,
        0u8..2,
    )
        .prop_map(
            |(n, m, (busy_ns, events_per_worker, motes_per_worker), (sends, shard_busy), c)| {
                ParWindowStats {
                    index: n[0],
                    t_wall_ns: n[1],
                    start_us: n[2],
                    end_us: n[3],
                    lookahead_us: n[4],
                    clipped: c == 1,
                    threads: m[0],
                    workers: m[1],
                    motes: m[2],
                    events: n[5],
                    busy_ns,
                    events_per_worker,
                    motes_per_worker,
                    drain_ns: n[6],
                    par_ns: n[7],
                    merge_ns: n[8],
                    heap_pushes: n[9],
                    heap_pops: n[10],
                    cross_sends: n[11],
                    send_sample: sends,
                    shard_busy,
                }
            },
        )
}

fn arb_shard() -> impl Strategy<Value = ParShardStats> {
    (prop::collection::vec(n32(), 2..3), prop::collection::vec(n64(), 5..6)).prop_map(|(m, n)| {
        ParShardStats {
            shard: m[0],
            motes: m[1],
            windows: n[0],
            events: n[1],
            busy_ns: n[2],
            cross_sends: n[3],
            channel_wait_ns: n[4],
        }
    })
}

fn arb_stats() -> impl Strategy<Value = ParStats> {
    (
        prop::collection::vec(n32(), 3..4),
        prop::collection::vec(n64(), 18..19),
        0u8..2,
        prop::collection::vec(arb_window(), 0..3),
        prop::collection::vec(arb_shard(), 0..3),
    )
        .prop_map(|(m, n, fallback, windows, per_shard)| {
            let mut s = ParStats::new(DEFAULT_WINDOW_CAP);
            (s.threads, s.motes, s.shards) = (m[0], m[1], m[2]);
            (s.lookahead_us, s.wall_ns, s.dropped_windows) = (n[0], n[1], n[2]);
            s.fallback = fallback == 1;
            s.totals = ParTotals {
                windows: n[3],
                events: n[4],
                motes_stepped: n[5],
                cross_sends: n[6],
                heap_pushes: n[7],
                heap_pops: n[8],
                drain_ns: n[9],
                par_ns: n[10],
                merge_ns: n[11],
                critical_busy_ns: n[12],
                attribution: Attribution {
                    busy_ns: n[13],
                    imbalance_ns: n[14],
                    lookahead_ns: n[15],
                    barrier_ns: n[16],
                    merge_ns: n[17],
                },
            };
            (s.windows, s.per_shard) = (windows, per_shard);
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_reads_back_what_write_wrote(runs in prop::collection::vec(arb_stats(), 1..3)) {
        let mut buf = Vec::new();
        for s in &runs {
            write_par_stats_jsonl(s, &mut buf).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(parse_par_stats(&text), Ok(runs));
    }
}

const RUN: &str = r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":2,"wall_ns":10}"#;

#[test]
fn values_that_do_not_fit_their_field_name_the_line() {
    let too_many_threads = RUN.replace(r#""threads":2"#, &format!(r#""threads":{}"#, 1u64 << 32));
    let err = parse_par_stats(&format!("\n{too_many_threads}")).unwrap_err();
    assert!(err.starts_with("line 2: `threads` does not fit a u32"), "{err}");

    let window = r#"{"schema":"ceu-par-stats/v2","kind":"window","i":0,"busy_ns":[1,"x"]}"#;
    let err = parse_par_stats(&format!("{RUN}\n{window}")).unwrap_err();
    assert!(err.starts_with("line 2: `busy_ns` does not fit a u64"), "{err}");

    for bad in [r#""wall_ns":-1"#, r#""wall_ns":1.5"#, r#""wall_ns":"10""#, r#""wall_ns":null"#] {
        let err = parse_par_stats(&RUN.replace(r#""wall_ns":10"#, bad)).unwrap_err();
        assert!(err.starts_with("line 1: `wall_ns` does not fit a u64"), "{bad}: {err}");
    }
    let err = parse_par_stats(&RUN.replace(r#""threads":2"#, r#""fallback":1"#)).unwrap_err();
    assert_eq!(err, "line 1: `fallback` is not a bool");
}

#[test]
fn v1_streams_read_missing_keys_as_zero() {
    let v1 = r#"{"schema":"ceu-par-stats/v1","kind":"run","threads":2,"wall_ns":10}
{"schema":"ceu-par-stats/v1","kind":"window","i":4,"busy_ns":[7]}"#;
    let runs = parse_par_stats(v1).unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!((runs[0].threads, runs[0].wall_ns, runs[0].shards), (2, 10, 0));
    assert!(runs[0].per_shard.is_empty());
    assert_eq!(runs[0].windows[0].index, 4);
    assert_eq!(runs[0].windows[0].busy_ns, vec![7]);
    assert!(runs[0].windows[0].shard_busy.is_empty());
}
