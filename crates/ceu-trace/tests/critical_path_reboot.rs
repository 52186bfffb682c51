//! `critical-path` over a trace with a crash and a reboot: every hop
//! links to its parent in the life the parent's mote is still in, never
//! to a reaction of a life that ended before the hop ran.

use wsn_sim::{write_trace_jsonl, CeuMote, FaultPlan, Radio, RebootPolicy, Topology, World};

/// Three motes passing a counter around a ring; each kicks its own first
/// packet at boot, so traffic flows from time zero.
const RING: &str = r#"
    input _message_t* Radio_receive;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          _Leds_set(*cnt);
          *cnt = *cnt + 1;
          _Radio_send((_TOS_NODE_ID+1)%3, msg);
       end
    with
       _message_t msg;
       int* cnt = _Radio_getPayload(&msg);
       *cnt = _TOS_NODE_ID;
       _Radio_send((_TOS_NODE_ID+1)%3, &msg);
       await forever;
    end
"#;

#[test]
fn critical_path_never_links_a_hop_to_an_earlier_life() {
    let prog = ceu::Compiler::new().compile(RING).unwrap();
    let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 7));
    w.set_reboot_policy(RebootPolicy::After(2_000));
    w.enable_trace();
    for id in 0..3 {
        let mut mote = CeuMote::new(prog.clone(), id);
        mote.enable_trace();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w.set_fault_plan(&FaultPlan::parse("at 5000 crash 1").unwrap()).unwrap();
    w.run_until(30_000);
    let mut buf = Vec::new();
    write_trace_jsonl(&w.take_trace(), &mut buf).unwrap();
    let records = ceu_trace::parse_jsonl(&String::from_utf8(buf).unwrap()).unwrap();

    let reboots: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.event.kind() == "MoteRebooted")
        .map(|r| (r.mote as u64, r.t_us))
        .collect();
    assert!(!reboots.is_empty(), "the crashed mote must come back");
    let chain = ceu_trace::critical_path(&records);
    assert!(chain.len() >= 10, "the ring keeps bouncing: {} hops", chain.len());
    // a parent whose mote rebooted between the parent and the hop ran in
    // a life that was already over when the hop started
    for hop in chain.windows(2) {
        let (parent, child) = (&hop[0], &hop[1]);
        let ended =
            reboots.iter().any(|&(m, t)| m == parent.mote && parent.t_us < t && t <= child.t_us);
        assert!(
            !ended,
            "hop m{}.{} @{}µs -> m{}.{} @{}µs links to an earlier life:\n{}",
            parent.mote,
            parent.seq,
            parent.t_us,
            child.mote,
            child.seq,
            child.t_us,
            ceu_trace::render_critical_path(&chain)
        );
    }
}
