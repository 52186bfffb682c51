//! Quickstart: the paper's §1 introductory program, driven interactively.
//!
//! Three trails run in parallel: one increments `v` every second, one
//! resets it on every `Restart` input, and one prints every change
//! (notified through the internal event `changed`).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ceu::runtime::{Host, HostResult, Status, Value};
use ceu::{CompiledProgram, Compiler, Simulator};
use std::sync::Arc;

/// The §1 program, verbatim.
const PROGRAM: &str = r#"
    input int Restart;     // an external event
    internal void changed; // an internal event
    int v = 0;             // a variable
    par do
       loop do             // 1st trail
          await 1s;
          v = v + 1;
          emit changed;
       end
    with
       loop do             // 2nd trail
          v = await Restart;
          emit changed;
       end
    with
       loop do             // 3rd trail
          await changed;
          _printf("v = %d\n", v);
       end
    end
"#;

/// A host that implements `_printf` for the usual two-argument form. It
/// holds the program, whose string pool gives a `Value::Str` its text.
struct Stdio(Arc<CompiledProgram>);

impl Host for Stdio {
    fn call(&mut self, name: &str, args: &[Value]) -> HostResult<Value> {
        match name {
            "printf" => {
                if let [Value::Str(fmt), rest @ ..] = args {
                    let mut out = self.0.str(*fmt).to_string();
                    for v in rest {
                        out = out.replacen("%d", &v.to_string(), 1);
                    }
                    print!("{out}");
                } else {
                    println!("{args:?}");
                }
                Ok(Value::Int(0))
            }
            other => Err(format!("no `_{other}`")),
        }
    }
}

fn main() {
    // the compiler runs the full pipeline: parse → bounded-execution check
    // → resolve → codegen → DFA determinism analysis
    let program = Compiler::new().compile(PROGRAM).expect("program is safe");
    println!(
        "compiled: {} tracks, {} gates, {} data slots",
        program.blocks.len(),
        program.gates.len(),
        program.data_len
    );

    let program = Arc::new(program);
    let mut sim = Simulator::from_arc(Arc::clone(&program), Stdio(program));
    sim.start().expect("boot");

    println!("--- three seconds pass ---");
    sim.advance_by(3_000_000).expect("time");

    println!("--- Restart = 100 ---");
    sim.event("Restart", Some(Value::Int(100))).expect("event");

    println!("--- two more seconds ---");
    sim.advance_by(2_000_000).expect("time");

    assert_eq!(sim.read_var("v#0"), Some(&Value::Int(102)));
    assert_eq!(sim.status(), Status::Running);
    println!("final v = 102, program still reactive — quickstart ok");
}
