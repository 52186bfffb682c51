//! The Céu sources of the Table-1 applications (the paper ported four
//! preexisting nesC applications; the nesC-analog counterparts live in
//! `wsn_sim::nesc`), plus the Table-2 responsiveness programs and the
//! bench workloads.
//!
//! This is a zero-dependency leaf crate so that *build scripts* can
//! depend on it too: `crates/native-corpus` AOT-compiles every program
//! here to Rust at build time (see `ceu_codegen::rsbackend`), and the
//! bench/test crates consume both this crate and the generated native
//! code without a dependency cycle.

/// Blink: three leds at three periods. The three timers coincide at every
/// second, so the toggles must be declared mutually deterministic.
pub const BLINK_CEU: &str = r#"
    deterministic _Leds_led0Toggle, _Leds_led1Toggle, _Leds_led2Toggle;
    par do
       loop do
          _Leds_led0Toggle();
          await 250ms;
       end
    with
       loop do
          _Leds_led1Toggle();
          await 500ms;
       end
    with
       loop do
          _Leds_led2Toggle();
          await 1s;
       end
    end
"#;

/// Sense: periodic sampling shown on the leds.
pub const SENSE_CEU: &str = r#"
    loop do
       int v = _Read_read();
       _Leds_set(v & 7);
       await 100ms;
    end
"#;

/// Client (RadioCountToLeds): broadcast a counter every 250ms, display
/// received counters.
pub const CLIENT_CEU: &str = r#"
    input _message_t* Radio_receive;
    pure _Radio_getPayload;
    int counter = 0;
    par do
       _message_t msg;
       loop do
          counter = counter + 1;
          int* p = _Radio_getPayload(&msg);
          *p = counter;
          _Radio_send((_TOS_NODE_ID+1)%2, &msg);
          await 250ms;
       end
    with
       loop do
          _message_t* m = await Radio_receive;
          int* p = _Radio_getPayload(m);
          _Leds_set(*p);
       end
    end
"#;

/// Server: answer each request with `2*value + 1`.
pub const SERVER_CEU: &str = r#"
    input _message_t* Radio_receive;
    pure _Radio_getPayload;
    loop do
       _message_t* req = await Radio_receive;
       int* p = _Radio_getPayload(req);
       int reply = 2 * *p + 1;
       *p = reply;
       _Leds_set(reply & 7);
       _Radio_send(_Radio_source(req), req);
    end
"#;

/// Table-2 receiver: count messages; optionally run five long computations
/// in parallel (asyncs — the synchronous side keeps priority).
pub fn receiver_ceu(loops: usize) -> String {
    let mut src = String::from(
        "input _message_t* Radio_receive;\npure _Radio_getPayload;\npar do\n   loop do\n      _message_t* msg = await Radio_receive;\n      _got();\n   end\n",
    );
    for _ in 0..loops {
        src.push_str(
            "with\n   async do\n      int i = 0;\n      loop do\n         i = i + 1;\n      end\n      return i;\n   end\n   await forever;\n",
        );
    }
    src.push_str("with\n   await forever;\nend\n");
    src
}

/// §2.6 nondeterministic program of Figure 2 (2-await vs 3-await loops).
/// Refused by the checked compiler — not part of [`all_programs`].
pub const FIG2_PROGRAM: &str = r#"
    input void A;
    int v;
    par do
       loop do
          await A;
          await A;
          v = 1;
       end
    with
       loop do
          await A;
          await A;
          await A;
          v = 2;
       end
    end
"#;

/// §4 guiding example (flow-graph figure).
pub const GUIDING_EXAMPLE: &str = r#"
    input int A, B;
    input void C;
    int ret;
    loop do
       par/or do
          int a = await A;
          int b = await B;
          ret = a + b;
          break;
       with
          par/and do
             await C;
          with
             await A;
          end
       end
    end
    return ret;
"#;

/// Figure 1's four-trail program (reaction-chain trace).
pub const FIG1_PROGRAM: &str = r#"
    input void A, B, C;
    par do
       await A;
    with
       await B;
    with
       await A;
       par do
          await B;
       with
          await B;
       end
    end
"#;

/// §2.2 dataflow chain (scheduler-ablation workload).
pub const DATAFLOW_CHAIN: &str = r#"
    input void Go;
    int v1, v2, v3;
    internal void v1_evt, v2_evt;
    par do
       loop do
          await v1_evt;
          v2 = v1 + 1;
          emit v2_evt;
       end
    with
       loop do
          await v2_evt;
          v3 = v2 * 2;
       end
    with
       loop do
          await Go;
          v1 = v1 + 10;
          emit v1_evt;
       end
    end
"#;

/// Céu blink-synchronization program (§5): two leds at 400ms / 1000ms.
pub const BLINK_SYNC_CEU: &str = r#"
    deterministic _led0, _led1;
    par do
       int on0 = 0;
       loop do
          on0 = 1 - on0;
          _led0(on0);
          await 400ms;
       end
    with
       int on1 = 0;
       loop do
          on1 = 1 - on1;
          _led1(on1);
          await 1000ms;
       end
    end
"#;

/// Expression-heavy reaction loop — `benchmark/`'s `react_expr` workloads
/// (exercises the flat evaluator / native expression lowering).
pub const EXPR_HEAVY: &str = r#"
    input int E;
    int v, acc;
    loop do
       v = await E;
       v = (v + (2 * 3)) * 1 + 0;
       v = v + (10 - 2 - 3) * (1 + 1);
       v = (v * 1 + 0) + (4 / 2) + (7 % 4);
       v = v + (1 * (2 + 2) - 0) + (v * 0);
       acc = acc + v;
    end
"#;

/// Every checked-compilable corpus program, by stable name — the set the
/// differential tests iterate and `crates/native-corpus` AOT-compiles.
pub fn all_programs() -> Vec<(&'static str, String)> {
    vec![
        ("blink", BLINK_CEU.to_string()),
        ("sense", SENSE_CEU.to_string()),
        ("client", CLIENT_CEU.to_string()),
        ("server", SERVER_CEU.to_string()),
        ("guiding", GUIDING_EXAMPLE.to_string()),
        ("fig1", FIG1_PROGRAM.to_string()),
        ("dataflow", DATAFLOW_CHAIN.to_string()),
        ("blink_sync", BLINK_SYNC_CEU.to_string()),
        ("receiver0", receiver_ceu(0)),
        ("receiver5", receiver_ceu(5)),
        ("expr_heavy", EXPR_HEAVY.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_corpus_programs_compile_checked() {
        for (name, src) in all_programs() {
            ceu::Compiler::new()
                .compile(&src)
                .unwrap_or_else(|e| panic!("{name} must pass the analyses: {e}"));
        }
    }

    #[test]
    fn fig2_program_is_refused_as_the_paper_says() {
        assert!(ceu::Compiler::new().compile(FIG2_PROGRAM).is_err());
    }

    #[test]
    fn program_names_are_unique() {
        let names: Vec<_> = all_programs().into_iter().map(|(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
