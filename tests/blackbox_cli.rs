//! `ceuc run --faults --blackbox` end to end: an injected crash exits
//! with the crash status, lands a `ceu-blackbox/v1` dump, and
//! `ceu-trace blackbox` renders that dump into the triage page.

use std::io::Write as _;
use std::process::Command;

fn ceuc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ceuc"))
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ceuc-blackbox-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

/// Stays reactive forever so a scheduled fault, not termination, ends it.
const REACTIVE: &str = "input int Kick;\nint v = 0;\nloop do\n v = await Kick;\nend";

#[test]
fn fault_plan_crash_dumps_and_renders() {
    let prog = write_tmp("faulty.ceu", REACTIVE);
    let script = write_tmp("faulty.script", "event Kick 1\ntime 10ms\n");
    let plan = write_tmp("faulty.plan", "at 5ms crash 0\n");
    let dump_path = std::env::temp_dir().join("ceuc-blackbox-tests").join("faulty.jsonl");
    let _ = std::fs::remove_file(&dump_path);

    let out = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--faults")
        .arg(&plan)
        .arg("--blackbox")
        .arg(&dump_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "crash exit status: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crashed at 5000us"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("black-box dump written"), "{stderr}");

    let text = std::fs::read_to_string(&dump_path).expect("dump landed at --blackbox PATH");
    let dump = ceu_trace::parse_blackbox(&text).expect("dump parses");
    assert_eq!(dump.crashed_mote(), Some(0));
    assert!(!dump.records.is_empty(), "the ring kept the final reactions");

    let page = ceu_trace::render_blackbox(&dump, Some(REACTIVE), 8);
    assert!(page.starts_with("black box: machine-crashed"), "{page}");
    assert!(page.contains("fault-injected crash"), "{page}");
    assert!(page.contains("machine:"), "machine ring stats render: {page}");
    assert!(page.contains("mote 0: final"), "final reactions render: {page}");
}

#[test]
fn runtime_error_crash_also_dumps() {
    let prog = write_tmp("div0.ceu", "input int Kick;\nint v = 1;\nv = v / (v - 1);\nreturn v;");
    let script = write_tmp("div0.script", "time 1ms\n");
    let dump_path = std::env::temp_dir().join("ceuc-blackbox-tests").join("div0.jsonl");
    let _ = std::fs::remove_file(&dump_path);

    let out = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--blackbox")
        .arg(&dump_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "runtime error is a crash: {out:?}");
    let text = std::fs::read_to_string(&dump_path).expect("dump written on runtime error");
    let dump = ceu_trace::parse_blackbox(&text).expect("dump parses");
    let page = ceu_trace::render_blackbox(&dump, None, 8);
    assert!(page.starts_with("black box: machine-crashed"), "{page}");
}

/// Runs a program that ticks every millisecond for 50ms under the fault
/// `plan`, with `sink` (`--trace=jsonl --trace-out` or `--blackbox`)
/// writing to a fresh `out`; returns the exit code and the file written.
fn run_ticker(name: &str, plan: &str, sink: &[&str]) -> (Option<i32>, String) {
    let prog = write_tmp("ticker.ceu", "int v = 0;\nloop do\n await 1ms;\n v = v + 1;\nend");
    let script = write_tmp("ticker.script", "time 50ms\n");
    let plan = write_tmp(&format!("{name}.plan"), plan);
    let out = std::env::temp_dir().join("ceuc-blackbox-tests").join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&out);
    let status = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--faults")
        .arg(&plan)
        .args(sink)
        .arg(&out)
        .status()
        .unwrap();
    (status.code(), std::fs::read_to_string(&out).expect("output written"))
}

#[test]
fn trace_follows_the_machine_across_a_reboot() {
    let plan = "at 5ms reboot 0 after 10ms\n";
    let (code, text) = run_ticker("reboot-trace", plan, &["--trace=jsonl", "--trace-out"]);
    assert_eq!(code, Some(0), "the revived run stays healthy");
    let starts: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .filter(|doc| doc.get("ev").and_then(|v| v.as_str()) == Some("ReactionStart"))
        .collect();
    let boot = |doc: &&serde_json::Value| {
        doc.get("cause").and_then(|c| c.get("type")).and_then(|t| t.as_str()) == Some("boot")
    };
    let boots = starts.iter().filter(boot).count();
    assert_eq!(boots, 2, "both lives are traced:\n{text}");
    let last_now = starts.last().and_then(|doc| doc.get("now_us")?.as_u64());
    assert_eq!(last_now, Some(50_000), "the trace runs to the end of the script:\n{text}");
}

#[test]
fn chrome_timestamps_keep_one_axis_across_a_reboot() {
    let plan = "at 5ms reboot 0 after 10ms\n";
    let (code, text) = run_ticker("reboot-chrome", plan, &["--trace=chrome", "--trace-out"]);
    assert_eq!(code, Some(0), "the revived run stays healthy");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid Chrome JSON");
    let entries = doc.as_array().expect("JSON array format");
    let boots = entries
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.ends_with(" (boot)")))
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
        .count();
    assert_eq!(boots, 2, "both lives are traced:\n{text}");
    let ts: Vec<f64> =
        entries.iter().map(|e| e.get("ts").and_then(|t| t.as_f64()).unwrap()).collect();
    for (i, w) in ts.windows(2).enumerate() {
        assert!(w[0] <= w[1], "ts runs backwards at entry {}: {} -> {}\n{text}", i + 1, w[0], w[1]);
    }
}

#[test]
fn blackbox_dump_covers_the_life_that_crashed() {
    let plan = "at 5ms reboot 0 after 10ms\nat 30ms crash 0\n";
    let (code, text) = run_ticker("reboot-crash", plan, &["--blackbox"]);
    assert_eq!(code, Some(2), "the second crash is final");
    let dump = ceu_trace::parse_blackbox(&text).expect("dump parses");
    let last = dump.records.last().expect("the ring kept the final reactions");
    assert_eq!(last.t_us, 30_000, "the last record is from the second life's final reaction");
}

/// The machine flavour of `ceu-blackbox/v1`, byte for byte: header with
/// `shards: 0`, one `machine` stat line, then the ring in world-trace
/// wire shape.
#[test]
fn machine_dump_keeps_its_bytes() {
    let prog = write_tmp("pinned.ceu", REACTIVE);
    let script = write_tmp("pinned.script", "event Kick 1\ntime 10ms\n");
    let plan = write_tmp("pinned.plan", "at 5ms crash 0\n");
    let dump_path = std::env::temp_dir().join("ceuc-blackbox-tests").join("pinned.jsonl");
    let _ = std::fs::remove_file(&dump_path);
    let out = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--faults")
        .arg(&plan)
        .arg("--blackbox")
        .arg(&dump_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "crash exit status: {out:?}");
    let text = std::fs::read_to_string(&dump_path).expect("dump landed at --blackbox PATH");
    assert_eq!(
        text,
        concat!(
            r#"{"schema":"ceu-blackbox/v1","reason":"machine-crashed","t_us":5000,"mote":0,"crash_us":5000,"cause":"fault-injected crash","motes":1,"shards":0,"ring_capacity":4096,"ring_records":4,"ring_dropped":0}"#,
            "\n",
            r#"{"blackbox":"machine","boots":1,"ring_len":4,"ring_dropped":0,"ring_recorded":4}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":1,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":1},"cause":{"type":"boot"},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":2,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":2,"emits":0,"gates_fired":0,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":3,"ev":{"ev":"ReactionStart","id":{"mote":0,"seq":2},"cause":{"type":"event","id":0},"now_us":0,"wall_ns":0}}"#,
            "\n",
            r#"{"t_us":0,"mote":0,"seq":4,"ev":{"ev":"ReactionEnd","now_us":0,"wall_ns":0,"tracks":2,"emits":0,"gates_fired":1,"gates_armed":1,"queue_peak":1,"emit_depth_max":0}}"#,
            "\n"
        )
    );
}
