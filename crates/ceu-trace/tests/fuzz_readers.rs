//! No input makes a `ceu-trace` reader panic: arbitrary bytes, and valid
//! trace, black-box and par-stats lines whose numbers are replaced by 0,
//! `u64::MAX` or a value of the wrong type. Every reader and renderer
//! returns `Ok` or `Err`; a Perfetto export that succeeds is valid JSON.
//!
//! CI runs this file under `PROPTEST_SEED=1..16`.

use proptest::prelude::*;

/// A world trace: a boot, a cross-mote reaction, a crash and a reboot.
const WORLD: &str = r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}
{"t_us":0,"mote":0,"seq":2,"ev":{"ev":"TrackRun","block":0,"rank":0}}
{"t_us":0,"mote":0,"seq":3,"ev":{"ev":"EmitInt","event":1,"depth":1}}
{"t_us":0,"mote":0,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":1000,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"event","id":0,"parent":{"mote":0,"seq":1}},"now_us":1000,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":2,"ev":{"ev":"GateFired","gate":2}}
{"t_us":1000,"mote":1,"seq":3,"ev":{"ev":"ReactionEnd","now_us":1000,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":2000,"mote":0,"seq":5,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":2},"cause":{"type":"timer","deadline_us":2000,"parent":{"mote":1,"seq":1}},"now_us":2000,"wall_ns":0}}
{"t_us":2500,"mote":1,"seq":4,"ev":{"ev":"MoteCrashed","kind":"runtime-error","line":2,"col":3}}
{"t_us":3000,"mote":1,"seq":5,"ev":{"ev":"MoteRebooted","boots":1}}
{"ev":"ReactionStart","id":{"mote":0,"seq":9},"cause":{"type":"async","id":1},"now_us":42,"wall_ns":5}
{"ev":"Terminated","value":3}
"#;

/// A world `ceu-blackbox/v1` dump whose crash points into [`SRC`].
const DUMP: &str = r#"{"schema":"ceu-blackbox/v1","reason":"mote-crashed","t_us":5000,"mote":1,"crash_us":5000,"kind":"runtime-error","cause":"division by zero","line":2,"col":3,"motes":3,"shards":2,"ring_capacity":512,"ring_records":6,"ring_dropped":1}
{"blackbox":"shard","shard":0,"motes":2,"lookahead_us":1000,"ring_len":3,"ring_dropped":1,"ring_recorded":4}
{"blackbox":"machine","boots":1,"ring_len":4,"ring_dropped":0,"ring_recorded":4}
{"blackbox":"window","shard":0,"start_us":0,"end_us":1000,"events":4}
{"blackbox":"window","shard":1,"start_us":1000,"end_us":2000,"events":2}
{"blackbox":"mote","mote":1,"up":false,"sent":1,"received":1,"dropped_in_flight":0,"crashes":1,"reboots":0}
{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":1,"seq":1},"cause":{"type":"event","id":0,"parent":{"mote":0,"seq":1}},"now_us":1000,"wall_ns":0}}
{"t_us":1000,"mote":1,"seq":2,"ev":{"ev":"ReactionEnd","now_us":1000,"wall_ns":0,"tracks":1,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}
{"t_us":5000,"mote":1,"seq":3,"ev":{"ev":"MoteCrashed","kind":"runtime-error","line":2,"col":3}}
"#;

const SRC: &str = "input int Kick;\nint v = 1 / 0;\nawait Kick;\n";

/// A `ceu-par-stats/v2` run, then a v1 run.
const PAR_STATS: &str = r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":2,"lookahead_us":700,"motes":4,"shards":2,"fallback":false,"wall_ns":10000,"window_wall_ns":9000,"windows":2,"dropped_windows":1,"events":30,"motes_stepped":8,"cross_sends":6,"heap_pushes":40,"heap_pops":38,"busy_ns":6000,"imbalance_ns":1000,"lookahead_ns":2000,"barrier_ns":4000,"merge_ns":5000,"critical_busy_ns":4000,"drain_wall_ns":1000,"par_wall_ns":6500,"merge_wall_ns":1500}
{"schema":"ceu-par-stats/v2","kind":"shard","shard":0,"motes":2,"windows":2,"events":20,"busy_ns":4000,"cross_sends":4,"channel_wait_ns":300}
{"schema":"ceu-par-stats/v2","kind":"shard","shard":1,"motes":2,"windows":2,"events":10,"busy_ns":2000,"cross_sends":2,"channel_wait_ns":100}
{"schema":"ceu-par-stats/v2","kind":"window","i":0,"t_wall_ns":0,"start_us":1000,"end_us":1700,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":16,"busy_ns":[2000,1500],"events_per_worker":[9,7],"motes_per_worker":[2,2],"drain_ns":500,"par_ns":3000,"merge_ns":800,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[{"at_us":1200,"from":0,"to":1}],"shard_busy":[{"shard":0,"worker":0,"busy_ns":2000,"events":9},{"shard":1,"worker":1,"busy_ns":1500,"events":7}]}
{"schema":"ceu-par-stats/v2","kind":"window","i":1,"t_wall_ns":4500,"start_us":1700,"end_us":2400,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":14,"busy_ns":[1400,1100],"events_per_worker":[8,6],"motes_per_worker":[2,2],"drain_ns":400,"par_ns":3200,"merge_ns":700,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[],"shard_busy":[{"shard":0,"worker":0,"busy_ns":1400,"events":8},{"shard":1,"worker":1,"busy_ns":1100,"events":6}]}
{"schema":"ceu-par-stats/v1","kind":"run","threads":2,"lookahead_us":700,"motes":4,"fallback":false,"wall_ns":10000,"window_wall_ns":9000,"windows":2,"dropped_windows":0,"events":30,"motes_stepped":8,"cross_sends":6,"heap_pushes":40,"heap_pops":38,"busy_ns":6000,"imbalance_ns":1000,"lookahead_ns":2000,"barrier_ns":4000,"merge_ns":5000,"critical_busy_ns":4000,"drain_wall_ns":1000,"par_wall_ns":6500,"merge_wall_ns":1500}
{"schema":"ceu-par-stats/v1","kind":"window","i":0,"t_wall_ns":0,"start_us":1000,"end_us":1700,"lookahead_us":700,"clipped":false,"threads":2,"workers":2,"motes":4,"events":16,"busy_ns":[2000,1500],"events_per_worker":[9,7],"motes_per_worker":[2,2],"drain_ns":500,"par_ns":3000,"merge_ns":800,"wall_ns":4300,"heap_pushes":20,"heap_pops":19,"cross_sends":3,"sends":[{"at_us":1200,"from":0,"to":1}]}
"#;

/// What a numeric field may be replaced with.
const REPLACEMENTS: [&str; 6] = ["0", "18446744073709551615", "\"x\"", "true", "null", "[1]"];

/// `text` with each number (outside strings) kept, or — where `picks`
/// says so — replaced by one of [`REPLACEMENTS`].
fn mutate(text: &str, picks: &[u8]) -> String {
    let (mut out, mut in_string, mut escaped, mut n) = (String::new(), false, false, 0usize);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        let starts_number = !in_string && (c.is_ascii_digit() || c == '-');
        if !starts_number {
            if in_string {
                in_string = escaped || c != '"';
                escaped = !escaped && c == '\\';
            } else {
                in_string = c == '"';
            }
            out.push(c);
            continue;
        }
        let mut number = c.to_string();
        while let Some(&d) = chars.peek() {
            if !(d.is_ascii_digit() || matches!(d, '.' | 'e' | 'E' | '+' | '-')) {
                break;
            }
            number.push(d);
            chars.next();
        }
        let pick = picks[n % picks.len()] as usize;
        n += 1;
        out.push_str(REPLACEMENTS.get(pick).copied().unwrap_or(&number));
    }
    out
}

/// Every `ceu-trace` reader and renderer over `text`.
fn read_everything(text: &str) {
    if let Ok(records) = ceu_trace::parse_jsonl(text) {
        let _ = ceu_trace::summary(&records);
        let _ = ceu_trace::render_critical_path(&ceu_trace::critical_path(&records));
        let json = ceu_trace::to_perfetto(&records);
        assert!(serde_json::from_str(&json).is_ok(), "to-perfetto wrote invalid JSON:\n{json}");
    }
    let _ = ceu_trace::diff(text, WORLD);
    if let Ok(dump) = ceu_trace::parse_blackbox(text) {
        let _ = ceu_trace::render_blackbox(&dump, Some(SRC), 8);
        let _ = ceu_trace::render_blackbox(&dump, None, 1);
    }
    let _ = ceu_trace::par_report(text);
    if let Ok(events) = ceu_trace::par_stats_perfetto_events(text) {
        let json = format!("[{}]", events.join(","));
        assert!(serde_json::from_str(&json).is_ok(), "par-stats tracks are invalid JSON:\n{json}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256)) {
        read_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mangled_numbers_never_panic(
        corpus in prop::sample::select(vec![WORLD, DUMP, PAR_STATS]),
        // mostly keep the number; otherwise 0, u64::MAX or a wrong type
        picks in prop::collection::vec(0u8..24, 1..64),
    ) {
        read_everything(&mutate(corpus, &picks));
    }
}

#[test]
fn u64_max_everywhere_never_panics() {
    for corpus in [WORLD, DUMP, PAR_STATS] {
        read_everything(&mutate(corpus, &[1]));
        read_everything(&mutate(corpus, &[0]));
    }
}
