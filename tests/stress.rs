//! Scale smoke tests: wide fan-outs, long virtual runs, deep recursion of
//! internal emits — the shapes that stress the scheduler, the timer wheel
//! and the emit stack.

use ceu::runtime::{NullHost, Status, Value};
use ceu::{Compiler, Machine, Simulator};

#[test]
fn two_hundred_trails_share_one_event() {
    let mut src = String::from("input void E;\nint n;\npar do\n");
    for i in 0..200 {
        if i > 0 {
            src.push_str("with\n");
        }
        src.push_str(" loop do\n  await E;\n end\n");
    }
    src.push_str("with\n loop do\n  await E;\n  n = n + 1;\n end\nend");
    let p = Compiler::unchecked().compile(&src).unwrap();
    assert!(p.gates.len() >= 201);
    let mut sim = Simulator::new(p, NullHost);
    sim.start().unwrap();
    for _ in 0..50 {
        sim.event("E", None).unwrap();
    }
    assert_eq!(sim.read_source_var("n"), Some(&Value::Int(50)));
}

#[test]
fn a_virtual_day_of_timers() {
    // 86_400 reactions of a 1s loop plus a 7s loop: the timer wheel must
    // stay exact over a day of virtual time
    let src = "int a, b;\npar do\n loop do\n  await 1s;\n  a = a + 1;\n end\nwith\n loop do\n  await 7s;\n  b = b + 1;\n end\nend";
    let p = Compiler::unchecked().compile(src).unwrap();
    let mut sim = Simulator::new(p, NullHost);
    sim.start().unwrap();
    sim.advance_to(86_400_000_000).unwrap();
    assert_eq!(sim.read_source_var("a"), Some(&Value::Int(86_400)));
    assert_eq!(sim.read_source_var("b"), Some(&Value::Int(86_400 / 7)));
}

#[test]
fn deep_emit_chain() {
    // 64 chained internal events propagate within one reaction
    let n = 64;
    let mut src = String::from("input void Go;\nint v;\ninternal void ");
    src.push_str(&(0..n).map(|i| format!("e{i}")).collect::<Vec<_>>().join(", "));
    src.push_str(";\npar do\n");
    for i in 0..n - 1 {
        src.push_str(&format!(" loop do\n  await e{i};\n  emit e{};\n end\nwith\n", i + 1));
    }
    src.push_str(&format!(
        " loop do\n  await e{};\n  v = v + 1;\n end\nwith\n loop do\n  await Go;\n  emit e0;\n end\nend",
        n - 1
    ));
    let p = Compiler::new().compile(&src).unwrap();
    let mut sim = Simulator::new(p, NullHost);
    sim.start().unwrap();
    sim.event("Go", None).unwrap();
    sim.event("Go", None).unwrap();
    assert_eq!(sim.read_source_var("v"), Some(&Value::Int(2)));
}

#[test]
fn nested_par_ors_thirty_two_deep() {
    let depth = 32;
    let mut src = String::from("input void E;\nint v;\n");
    for _ in 0..depth {
        src.push_str("par/or do\n");
    }
    src.push_str("await E;\n");
    for _ in 0..depth {
        src.push_str("with\n await forever;\nend\n");
    }
    src.push_str("v = 1;\nawait forever;");
    let p = Compiler::new().compile(&src).unwrap();
    let mut sim = Simulator::new(p, NullHost);
    sim.start().unwrap();
    sim.event("E", None).unwrap();
    assert_eq!(sim.read_source_var("v"), Some(&Value::Int(1)));
    assert_eq!(sim.status(), Status::Running);
}

#[test]
fn thousand_iteration_async_under_watchdogs() {
    let src = r#"
        int r;
        par/or do
           r = async do
              int i = 0;
              loop do
                 if i == 100000 then break; end
                 i = i + 1;
              end
              return i;
           end;
        with
           await 1h;
           r = 0 - 1;
        end
        return r;
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut sim = Simulator::new(p, NullHost);
    sim.start().unwrap();
    assert_eq!(sim.status(), Status::Terminated(Some(100000)));
}

#[test]
fn a_runaway_reaction_without_a_fuel_limit_exhausts_the_default_budget() {
    // statically unbounded, so only the unchecked compiler admits it; with
    // no fuel limit set, the runtime's default budget is what stops it
    let src = "input void Go;\nint n;\nawait Go;\nloop do\n n = n + 1;\nend";
    let mut m = Machine::new(Compiler::unchecked().compile(src).unwrap());
    m.enable_metrics();
    assert_eq!(m.fuel_limit(), 5_000_000);
    m.go_init(&mut NullHost).unwrap();
    let go = m.event_id("Go").unwrap();
    let err = m.go_event(go, None, &mut NullHost).unwrap_err();
    assert!(err.fuel, "{err}");
    assert!(err.message.contains("5000000"), "{err}");
    assert_eq!(m.metrics().unwrap().watchdog_trips, 1);
}
