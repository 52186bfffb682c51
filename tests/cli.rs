//! End-to-end tests of the `ceuc` CLI binary (spawned as a subprocess).

use ceu::runtime::telemetry::{to_perfetto, TimeAxis};
use std::io::Write as _;
use std::process::Command;

fn ceuc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ceuc"))
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ceuc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const OK_PROGRAM: &str = "input int Restart;\nint v = 0;\npar/or do\n loop do\n  await 1s;\n  v = v + 1;\n end\nwith\n v = await Restart;\nend\nreturn v;";

#[test]
fn check_accepts_safe_program() {
    let path = write_tmp("ok.ceu", OK_PROGRAM);
    let out = ceuc().arg("check").arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok (bounded, deterministic)"), "{stdout}");
}

#[test]
fn check_rejects_tight_loop_with_diagnostic() {
    let path = write_tmp("tight.ceu", "int v;\nloop do\n v = v + 1;\nend");
    let out = ceuc().arg("check").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tight loop"), "{stderr}");
    assert!(stderr.contains("2:1"), "span points at the loop: {stderr}");
}

#[test]
fn check_rejects_nondeterminism_with_both_spans() {
    let path = write_tmp("race.ceu", "int v;\npar/and do\n v = 1;\nwith\n v = 2;\nend\nreturn v;");
    let out = ceuc().arg("check").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("concurrent access to variable `v`"), "{stderr}");
}

#[test]
fn run_executes_a_script() {
    let prog = write_tmp("run.ceu", OK_PROGRAM);
    let script = write_tmp("run.script", "time 2500ms\nprint v\nevent Restart 7  # reset\n");
    let out = ceuc().arg("run").arg(&prog).arg(&script).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("v = 2"), "{stdout}");
    assert!(stdout.contains("terminated: 7"), "{stdout}");
}

#[test]
fn emit_c_produces_the_paper_shape() {
    let path = write_tmp("emit.ceu", OK_PROGRAM);
    let out = ceuc().arg("emit-c").arg(&path).output().unwrap();
    assert!(out.status.success());
    let c = String::from_utf8_lossy(&out.stdout);
    assert!(c.contains("switch (track)"), "{c}");
    assert!(c.contains("void ceu_go_event"));
}

#[test]
fn dfa_and_flow_emit_dot() {
    let path = write_tmp("dot.ceu", OK_PROGRAM);
    for cmd in ["dfa", "flow"] {
        let out = ceuc().arg(cmd).arg(&path).output().unwrap();
        assert!(out.status.success(), "{cmd}");
        let dot = String::from_utf8_lossy(&out.stdout);
        assert!(dot.starts_with("digraph"), "{cmd}: {dot}");
    }
}

#[test]
fn report_prints_memory_numbers() {
    let path = write_tmp("report.ceu", OK_PROGRAM);
    let out = ceuc().arg("report").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ROM (generated C bytes):"), "{stdout}");
    assert!(stdout.contains("RAM (static state bytes):"), "{stdout}");
}

#[test]
fn bad_usage_and_missing_files_fail_cleanly() {
    let out = ceuc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = ceuc().arg("check").arg("/nonexistent/x.ceu").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let path = write_tmp("cmd.ceu", OK_PROGRAM);
    let out = ceuc().arg("frobnicate").arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn script_errors_carry_line_numbers() {
    let prog = write_tmp("se.ceu", OK_PROGRAM);
    let script = write_tmp("se.script", "time 1s\nevent Nope\n");
    let out = ceuc().arg("run").arg(&prog).arg(&script).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown event"), "{stderr}");
}

#[test]
fn run_trace_jsonl_pairs_reactions_with_injected_events() {
    let prog = write_tmp("trace.ceu", OK_PROGRAM);
    let script = write_tmp("trace.script", "time 1500ms\nevent Restart 3\n");
    let trace = std::env::temp_dir().join("ceuc-cli-tests").join("trace.jsonl");
    let out = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--trace=jsonl")
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace).unwrap();
    let (mut starts, mut ends) = (0, 0);
    let mut depth = 0i64;
    for line in text.lines() {
        let doc = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line is not valid JSON: {line} ({e:?})"));
        match doc.get("ev").and_then(|v| v.as_str()).expect("every line has `ev`") {
            "ReactionStart" => {
                starts += 1;
                depth += 1;
            }
            "ReactionEnd" => {
                ends += 1;
                depth -= 1;
            }
            _ => {}
        }
        assert!((0..=1).contains(&depth), "reactions must not nest or underflow");
    }
    // boot + one timer expiry (1s) + the Restart event = 3 chains
    assert_eq!(starts, 3, "one ReactionStart per cause:\n{text}");
    assert_eq!(starts, ends, "every chain closes:\n{text}");
}

#[test]
fn run_trace_chrome_stays_valid_json_when_the_script_fails() {
    let prog = write_tmp("chrome-fail.ceu", OK_PROGRAM);
    let script = write_tmp("chrome-fail.script", "time 3ms\nbogus\n");
    let trace = std::env::temp_dir().join("ceuc-cli-tests").join("chrome-fail.json");
    let out = ceuc()
        .arg("run")
        .arg(&prog)
        .arg(&script)
        .arg("--trace=chrome")
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a script error exits 1: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown directive `bogus`"), "{stderr}");

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("the trace array is closed on error: {text} ({e:?})"));
    let entries = doc.as_array().expect("a trace-event JSON array");
    assert!(!entries.is_empty(), "the boot reaction ran before the error");
}

/// `--trace=chrome` is the `--trace=jsonl` trace rendered by the one
/// Perfetto writer on the host axis: with `ts` dropped, both give the
/// same events in the same order.
#[test]
fn run_trace_chrome_is_the_jsonl_trace_on_the_host_axis() {
    let prog = write_tmp("axes.ceu", OK_PROGRAM);
    let script = write_tmp("axes.script", "time 1500ms\nevent Restart 3\n");
    let trace = |fmt: &str| {
        let path = std::env::temp_dir().join("ceuc-cli-tests").join(format!("axes.{fmt}"));
        let out = ceuc()
            .arg("run")
            .arg(&prog)
            .arg(&script)
            .arg(format!("--trace={fmt}"))
            .arg("--trace-out")
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&path).unwrap()
    };
    let records = ceu_trace::parse_jsonl(&trace("jsonl")).expect("the jsonl trace parses");
    let virtual_axis = to_perfetto(&records, TimeAxis::Virtual, &[]);
    let host_axis = trace("chrome");
    let without_ts = |json: &str| {
        let doc = serde_json::from_str(json).unwrap_or_else(|e| panic!("{json} ({e:?})"));
        let entries = doc.as_array().expect("a trace-event JSON array");
        entries
            .iter()
            .map(|e| ["ph", "name", "pid", "tid", "args"].map(|k| e.get(k).cloned()))
            .collect::<Vec<_>>()
    };
    let (v, h) = (without_ts(&virtual_axis), without_ts(&host_axis));
    assert!(v.len() > 10, "reactions, tracks and gates are all rendered:\n{host_axis}");
    assert_eq!(v, h, "virtual:\n{virtual_axis}\nhost:\n{host_axis}");
}

#[test]
fn run_metrics_prints_a_summary() {
    let prog = write_tmp("met.ceu", OK_PROGRAM);
    let script = write_tmp("met.script", "time 2s\nevent Restart 1\n");
    let out = ceuc().arg("run").arg(&prog).arg(&script).arg("--metrics").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- metrics ---"), "{stdout}");
    // boot + 2 timer reactions + the event
    assert!(stdout.contains("reactions"), "{stdout}");
    assert!(stdout.contains("terminated: 1"), "{stdout}");
}

#[test]
fn run_watchdog_aborts_runaway_reactions() {
    let prog = write_tmp("wd.ceu", OK_PROGRAM);
    let script = write_tmp("wd.script", "time 1s\n");
    let out = ceuc().arg("run").arg(&prog).arg(&script).args(["--fuel", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "the boot chain alone exceeds one block: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuel budget (1 steps)"), "{stderr}");
    // the boot chain runs dry entering the first `par/or` arm, a glue
    // block that carries the span of the arm's first statement
    assert!(stderr.contains("runtime error at 4:2: reaction chain exhausted"), "{stderr}");
    assert!(!stderr.contains("at 0:0"), "{stderr}");
    // a budget that runs dry inside a track names the track's first
    // statement, not `0:0`
    let prog = write_tmp(
        "wd_span.ceu",
        "input int E;\nint v = 0;\nif v == 0 then\n v = 1;\nend\nv = await E;\nreturn v;",
    );
    let out = ceuc().arg("run").arg(&prog).args(["--fuel", "1"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("runtime error at 2:1: reaction chain exhausted"), "{stderr}");
    assert!(!stderr.contains("at 0:0"), "{stderr}");
    // a loop's escape block, which no statement is lowered into, names
    // its `loop`
    let prog = write_tmp(
        "wd_esc.ceu",
        "input int E;\nint v = 0;\nloop do\n break;\nend\nv = await E;\nreturn v;",
    );
    for fuel in ["2", "3"] {
        let out = ceuc().arg("run").arg(&prog).args(["--fuel", fuel]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("runtime error at 3:1: reaction chain exhausted"), "{stderr}");
        assert!(!stderr.contains("at 0:0"), "{stderr}");
    }
}

#[test]
fn run_fuel_refuses_bad_budgets() {
    let prog = write_tmp("badfuel.ceu", OK_PROGRAM);
    let bad: [&[&str]; 5] = [
        &["--fuel", "0"],
        &["--fuel"],
        &["--fuel", "lots"],
        &["--fuel", "-3"],
        &["--fuel", "5000001"],
    ];
    for args in bad {
        let out = ceuc().arg("run").arg(&prog).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("ceuc: --fuel"), "{args:?}: {stderr}");
    }
    // the cap itself is accepted; one step more names it
    let out = ceuc().arg("run").arg(&prog).args(["--fuel", "5000001"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "ceuc: --fuel: at most 5000000 steps\n");
    let out = ceuc().arg("run").arg(&prog).args(["--fuel", "5000000"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn run_reboot_due_past_the_end_of_time_never_comes() {
    // crash + reboot `u64::MAX` µs later: the revive time saturates, so
    // the machine stays down (no overflow, no wrap to before the crash)
    let prog = write_tmp("forever.ceu", OK_PROGRAM);
    let script = write_tmp("forever.script", "time 10ms\ntime 50ms\n");
    let plan = write_tmp("forever.plan", "at 5ms reboot 0 after 18446744073709551615us\n");
    let out =
        ceuc().arg("run").arg(&prog).arg(&script).arg("--faults").arg(&plan).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "ends powered off: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("machine rebooted"), "{stderr}");
}

#[test]
fn run_rejects_unknown_flags() {
    let prog = write_tmp("uf.ceu", OK_PROGRAM);
    let out = ceuc().arg("run").arg(&prog).arg("--no-such-flag").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn fmt_produces_canonical_reparsable_output() {
    let path = write_tmp("fmt.ceu", "int   v;v=1\n;;await 1s;");
    let out = ceuc().arg("fmt").arg(&path).output().unwrap();
    assert!(out.status.success());
    let formatted = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(formatted.contains("int v;"), "{formatted}");
    // formatting is idempotent: fmt(fmt(x)) == fmt(x)
    let path2 = write_tmp("fmt2.ceu", &formatted);
    let out2 = ceuc().arg("fmt").arg(&path2).output().unwrap();
    assert_eq!(formatted, String::from_utf8_lossy(&out2.stdout));
}
