//! Dataflow in Céu (§2.2): dependency chains and mutual dependencies
//! expressed with internal events.
//!
//! Part 1 is the `v1 → v2 → v3` propagation chain; part 2 is the
//! Celsius/Fahrenheit pair, whose mutual dependency would need explicit
//! `delay` combinators in classic dataflow languages but simply works
//! under Céu's stack policy for internal events.
//!
//! ```sh
//! cargo run --example dataflow_temperature
//! ```

use ceu::runtime::{NullHost, Value};
use ceu::{Compiler, Simulator};

const CHAIN: &str = r#"
    input int Set;
    int v1, v2, v3;
    internal void v1_evt, v2_evt, v3_evt;
    par do
       loop do              // v2 = v1 + 1
          await v1_evt;
          v2 = v1 + 1;
          emit v2_evt;
       end
    with
       loop do              // v3 = v2 * 2
          await v2_evt;
          v3 = v2 * 2;
          emit v3_evt;
       end
    with
       loop do              // external writes to v1
          v1 = await Set;
          emit v1_evt;
       end
    end
"#;

const TEMPERATURE: &str = r#"
    input int SetC, SetF;
    int tc, tf;
    internal void tc_evt, tf_evt;
    par do
       loop do              // tf follows tc
          await tc_evt;
          tf = 9 * tc / 5 + 32;
          emit tf_evt;
       end
    with
       loop do              // tc follows tf — mutual dependency, no cycle
          await tf_evt;
          tc = 5 * (tf-32) / 9;
          emit tc_evt;
       end
    with
       loop do
          tc = await SetC;
          emit tc_evt;
       end
    with
       loop do
          tf = await SetF;
          emit tf_evt;
       end
    end
"#;

fn main() {
    // ---- dependency chain ----
    let program = Compiler::new().compile(CHAIN).expect("chain is deterministic");
    let mut sim = Simulator::new(program, NullHost);
    sim.start().unwrap();
    for set in [10, 15, 0] {
        sim.event("Set", Some(Value::Int(set))).unwrap();
        let v2 = *sim.read_var("v2#1").unwrap();
        let v3 = *sim.read_var("v3#2").unwrap();
        println!("v1={set:3}  →  v2={v2:3}  →  v3={v3}");
        assert_eq!(v2, Value::Int(set + 1));
        assert_eq!(v3, Value::Int((set + 1) * 2));
    }

    // ---- mutual dependency ----
    let program = Compiler::new().compile(TEMPERATURE).expect("temperature is deterministic");
    let mut sim = Simulator::new(program, NullHost);
    sim.start().unwrap();

    sim.event("SetC", Some(Value::Int(100))).unwrap();
    println!("set 100°C → {}°F", sim.read_var("tf#1").unwrap());
    assert_eq!(sim.read_var("tf#1"), Some(&Value::Int(212)));

    sim.event("SetF", Some(Value::Int(32))).unwrap();
    println!("set  32°F → {}°C", sim.read_var("tc#0").unwrap());
    assert_eq!(sim.read_var("tc#0"), Some(&Value::Int(0)));

    sim.event("SetC", Some(Value::Int(-40))).unwrap();
    println!("set -40°C → {}°F (the crossing point)", sim.read_var("tf#1").unwrap());
    assert_eq!(sim.read_var("tf#1"), Some(&Value::Int(-40)));

    println!("dataflow ok — no delay combinators, no cycles");
}
