//! The compiled artifact is shareable and machines travel across threads.
//!
//! Compile-time half: `CompiledProgram: Send + Sync` and `Machine: Send`
//! (static-assertion style — fails to *compile* if an `Rc`, `Cell`, or
//! non-`Send` field sneaks back into either type), and `Value` stays a
//! `Copy` type of at most 16 bytes. Runtime half: one
//! `Arc<CompiledProgram>` instanced on several threads, and a machine
//! moved across a thread boundary mid-run, both behaving identically to
//! single-thread execution.

use ceu_codegen::{compile_source, CompiledProgram};
use ceu_runtime::{Host, Machine, NullHost, Value};
use std::sync::Arc;

// Compile-time assertions. A `const` block so breakage is a build error,
// not a test failure.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    const fn assert_copy<T: Copy>() {}
    assert_send_sync::<CompiledProgram>();
    assert_send_sync::<Arc<CompiledProgram>>();
    assert_send::<Machine>();
    assert_copy::<Value>();
    assert!(std::mem::size_of::<Value>() <= 16);
};

const SRC: &str = r#"
    input int Tick;
    int v = 0;
    loop do
        int d = await Tick;
        v = v + d;
    end
"#;

fn drive(m: &mut Machine, host: &mut dyn Host, ticks: i64) -> i64 {
    for d in 1..=ticks {
        let ev = m.event_id("Tick").expect("Tick event");
        m.go_event(ev, Some(d.into()), host).expect("react");
    }
    m.read_var("v#0").and_then(|v| v.as_int()).expect("v")
}

#[test]
fn one_program_many_threads() {
    let prog = Arc::new(compile_source(SRC).expect("compile"));
    let expected = {
        let mut m = Machine::from_arc(Arc::clone(&prog));
        m.go_init(&mut NullHost).expect("init");
        drive(&mut m, &mut NullHost, 10)
    };

    let results: Vec<i64> = std::thread::scope(|s| {
        (0..4)
            .map(|_| {
                let prog = Arc::clone(&prog);
                s.spawn(move || {
                    let mut m = Machine::from_arc(prog);
                    m.go_init(&mut NullHost).expect("init");
                    drive(&mut m, &mut NullHost, 10)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    assert_eq!(results, vec![expected; 4]);
}

#[test]
fn machine_moves_across_threads_mid_run() {
    let prog = Arc::new(compile_source(SRC).expect("compile"));
    let mut m = Machine::from_arc(Arc::clone(&prog));
    m.go_init(&mut NullHost).expect("init");
    let halfway = drive(&mut m, &mut NullHost, 5);

    // Move the half-run machine onto another thread and keep going.
    let total = std::thread::spawn(move || {
        let ev = m.event_id("Tick").expect("Tick event");
        for d in 6..=10i64 {
            m.go_event(ev, Some(d.into()), &mut NullHost).expect("react");
        }
        m.read_var("v#0").and_then(|v| v.as_int()).expect("v")
    })
    .join()
    .expect("thread");

    assert_eq!(halfway, (1..=5).sum::<i64>());
    assert_eq!(total, (1..=10).sum::<i64>());
}
