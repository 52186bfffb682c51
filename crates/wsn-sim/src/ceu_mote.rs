//! The TinyOS-style Céu binding: runs a compiled Céu program on a
//! simulated mote. Mirrors the paper's TinyOS integration — every OS
//! service is a `_C` call, every OS event becomes a Céu input event.
//!
//! Provided C surface (what the ring demo uses):
//!
//! * `_TOS_NODE_ID` — the mote id;
//! * `_Radio_getPayload(msg)` — pointer into a message buffer;
//! * `_Radio_send(dst, msg)` — transmit;
//! * `_Leds_set(mask)`, `_Leds_led0Toggle()`/`1`/`2`;
//! * input event `Radio_receive` carrying a `_message_t*`.

use crate::radio::Packet;
use crate::world::{Backend, CrashCause, MoteCtx};
use ceu::ast::EventId;
use ceu::runtime::{Host, HostResult, Machine, Ptr, RuntimeError, TraceMask, Value};
use ceu::CompiledProgram;
use std::collections::HashMap;

/// Pending LED operation, applied to the simulated LEDs after a reaction.
#[derive(Clone, Copy, Debug)]
enum LedOp {
    Set(u8),
    Toggle(u8),
}

/// The "C world" of a TinyOS mote.
pub struct TosHost {
    node_id: i64,
    /// Message buffers addressed by host handles.
    msgs: Vec<Vec<i64>>,
    /// Source mote of each received buffer (for `_Radio_source`).
    msg_srcs: Vec<i64>,
    /// Maps `&localMsg` data addresses to buffers (for `_message_t msg;`).
    by_data_addr: HashMap<usize, usize>,
    outbox: Vec<(usize, Packet)>,
    led_ops: Vec<LedOp>,
    /// Extra host functions (per-experiment hooks), name → handler.
    #[allow(clippy::type_complexity)]
    pub extra: HashMap<String, Box<dyn FnMut(&[Value]) -> Value + Send>>,
}

impl TosHost {
    pub fn new(node_id: i64) -> Self {
        TosHost {
            node_id,
            msgs: Vec::new(),
            msg_srcs: Vec::new(),
            by_data_addr: HashMap::new(),
            outbox: Vec::new(),
            led_ops: Vec::new(),
            extra: HashMap::new(),
        }
    }

    fn alloc_msg(&mut self, payload: Vec<i64>) -> usize {
        self.alloc_msg_from(payload, -1)
    }

    fn alloc_msg_from(&mut self, payload: Vec<i64>, src: i64) -> usize {
        self.msgs.push(payload);
        self.msg_srcs.push(src);
        self.msgs.len() - 1
    }

    /// Resolves a `_message_t*`-ish value to a buffer handle.
    fn msg_handle(&mut self, v: &Value) -> HostResult<usize> {
        match v {
            Value::Ptr(Ptr::Host(h)) => Ok(*h as usize),
            // `&msg` on a Céu-declared `_message_t msg`: lazily back it
            // with a real buffer, keyed by its data address
            Value::Ptr(Ptr::Data(a)) => {
                if let Some(&h) = self.by_data_addr.get(a) {
                    return Ok(h);
                }
                let h = self.alloc_msg(vec![0]);
                self.by_data_addr.insert(*a, h);
                Ok(h)
            }
            other => Err(format!("not a message reference: {other}")),
        }
    }
}

impl Host for TosHost {
    fn call(&mut self, name: &str, args: &[Value]) -> HostResult<Value> {
        match name {
            "Radio_getPayload" => {
                let h = self.msg_handle(args.first().ok_or("getPayload needs a message")?)?;
                Ok(Value::Ptr(Ptr::Host(h as u64)))
            }
            "Radio_send" => {
                let dst = args
                    .first()
                    .and_then(|v| v.as_int())
                    .ok_or("Radio_send needs a destination")?;
                let h = self.msg_handle(args.get(1).ok_or("Radio_send needs a message")?)?;
                let payload = self.msgs[h].clone();
                self.outbox.push((
                    dst as usize,
                    Packet::new(self.node_id as usize, dst as usize, payload),
                ));
                Ok(Value::Int(0))
            }
            "Radio_source" => {
                let h = self.msg_handle(args.first().ok_or("Radio_source needs a message")?)?;
                Ok(Value::Int(self.msg_srcs.get(h).copied().unwrap_or(-1)))
            }
            "Leds_set" => {
                let mask = args.first().and_then(|v| v.as_int()).unwrap_or(0) as u8;
                self.led_ops.push(LedOp::Set(mask));
                Ok(Value::Int(0))
            }
            "Leds_led0Toggle" => {
                self.led_ops.push(LedOp::Toggle(0));
                Ok(Value::Int(0))
            }
            "Leds_led1Toggle" => {
                self.led_ops.push(LedOp::Toggle(1));
                Ok(Value::Int(0))
            }
            "Leds_led2Toggle" => {
                self.led_ops.push(LedOp::Toggle(2));
                Ok(Value::Int(0))
            }
            other => match self.extra.get_mut(other) {
                Some(f) => Ok(f(args)),
                None => Err(format!("TinyOS binding has no function `_{other}`")),
            },
        }
    }

    fn global(&mut self, name: &str) -> HostResult<Value> {
        match name {
            "TOS_NODE_ID" => Ok(Value::Int(self.node_id)),
            other => Err(format!("TinyOS binding has no global `_{other}`")),
        }
    }

    fn deref(&mut self, handle: u64) -> HostResult<Value> {
        self.msgs
            .get(handle as usize)
            .and_then(|m| m.first())
            .map(|&v| Value::Int(v))
            .ok_or_else(|| format!("bad message handle {handle}"))
    }

    fn store(&mut self, handle: u64, v: Value) -> HostResult<()> {
        let cell = self
            .msgs
            .get_mut(handle as usize)
            .and_then(|m| m.first_mut())
            .ok_or_else(|| format!("bad message handle {handle}"))?;
        *cell = v.as_int().ok_or("payload must be an integer")?;
        Ok(())
    }
}

/// A mote running a Céu program.
pub struct CeuMote {
    machine: Machine,
    host: TosHost,
    node_id: i64,
    radio_evt: Option<EventId>,
    /// go_async slices granted per CPU slice from the world.
    pub async_per_slice: u32,
    /// Largest gap observed between world time and the machine's clock at
    /// the moment a callback arrived (how stale the mote's view of time
    /// was, before the pre-reaction `go_time` resync).
    max_clock_lag_us: u64,
}

impl CeuMote {
    pub fn new(program: CompiledProgram, node_id: i64) -> Self {
        Self::from_shared(std::sync::Arc::new(program), node_id)
    }

    /// Builds a mote over a *shared* compiled artifact: one
    /// `Arc<CompiledProgram>` can back an entire network (a million motes
    /// hold a million machine states but one program), which is what the
    /// soak bench leans on. Behaviourally identical to [`CeuMote::new`].
    pub fn from_shared(program: std::sync::Arc<CompiledProgram>, node_id: i64) -> Self {
        let mut machine = Machine::from_arc(program);
        // reaction ids carry the mote, so cross-mote causal links resolve
        machine.set_trace_mote(node_id as u32);
        let radio_evt = machine.event_id("Radio_receive");
        CeuMote {
            machine,
            host: TosHost::new(node_id),
            node_id,
            radio_evt,
            async_per_slice: 8,
            max_clock_lag_us: 0,
        }
    }

    /// Switches on machine-level tracing, buffered per callback and
    /// drained into [`MoteCtx::vm_events`] so the world can merge a unified
    /// trace (enable the world side with `World::enable_trace`). The first
    /// enable wins; later calls keep its mask.
    pub fn enable_trace(&mut self) {
        self.enable_trace_masked(TraceMask::Full);
    }

    /// [`enable_trace`](Self::enable_trace) at reaction granularity only:
    /// the per-track / per-gate firehose never leaves the machine, and the
    /// per-reaction host-clock samples are skipped. This is the always-on
    /// flight-recorder configuration — the buffer carries exactly the
    /// events the world's per-shard rings keep, at low single-digit
    /// overhead instead of full-trace cost.
    pub fn enable_trace_coarse(&mut self) {
        self.enable_trace_masked(TraceMask::Coarse);
    }

    fn enable_trace_masked(&mut self, mask: TraceMask) {
        if self.machine.event_mask().is_none() {
            self.machine.enable_events(mask);
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Switches on the embedded machine's metrics registry.
    pub fn enable_metrics(&mut self) {
        self.machine.enable_metrics();
    }

    pub fn metrics(&self) -> Option<&ceu::runtime::Metrics> {
        self.machine.metrics()
    }

    /// High-water mark of virtual-clock drift: how far world time had run
    /// ahead of the mote's synchronous clock when a callback was delivered.
    pub fn max_clock_lag_us(&self) -> u64 {
        self.max_clock_lag_us
    }

    fn note_lag(&mut self, world_now: u64) {
        let lag = world_now.saturating_sub(self.machine.now());
        self.max_clock_lag_us = self.max_clock_lag_us.max(lag);
    }

    pub fn host_mut(&mut self) -> &mut TosHost {
        &mut self.host
    }

    /// Applies post-reaction effects to the simulation world.
    fn sync_world(&mut self, ctx: &mut MoteCtx) {
        for op in self.host.led_ops.drain(..) {
            match op {
                LedOp::Set(mask) => ctx.leds.set_mask(ctx.now, mask),
                LedOp::Toggle(led) => ctx.leds.toggle(ctx.now, led),
            }
        }
        // packets leave stamped with the reaction that emitted them — the
        // receive side records it as the causal parent
        let origin = self.machine.last_reaction_id();
        for (dst, pkt) in self.host.outbox.drain(..) {
            ctx.send(dst, pkt.with_origin(origin));
        }
        if let Some(d) = self.machine.next_deadline() {
            ctx.set_timer_at(d);
        }
        // output events already reached the host through `Host::output`;
        // drain the machine-side buffer so it never grows across a run
        self.machine.drain_outputs(|_, _| {});
        ctx.wants_cpu = self.machine.has_runnable_async();
        self.machine.drain_events_into(ctx.vm_events);
    }

    /// A machine error crashes the *mote*, not the process: the failing
    /// reaction's queued effects (LEDs, sends, outputs) are discarded,
    /// trace events up to the failure are surfaced, and the world is told
    /// to transition the mote to `Crashed`.
    fn fail_with(&mut self, ctx: &mut MoteCtx, e: &RuntimeError) {
        self.host.led_ops.clear();
        self.host.outbox.clear();
        self.machine.drain_outputs(|_, _| {});
        self.machine.drain_events_into(ctx.vm_events);
        ctx.fail(CrashCause::from_error(e));
    }
}

impl Backend for CeuMote {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        if let Err(e) = self.machine.go_time(ctx.now, &mut self.host) {
            return self.fail_with(ctx, &e);
        }
        if let Err(e) = self.machine.go_init(&mut self.host) {
            return self.fail_with(ctx, &e);
        }
        self.sync_world(ctx);
    }

    fn deliver(&mut self, ctx: &mut MoteCtx, packet: Packet) {
        let Some(evt) = self.radio_evt else { return };
        // keep the machine clock in sync before handling the event
        self.note_lag(ctx.now);
        if let Err(e) = self.machine.go_time(ctx.now, &mut self.host) {
            return self.fail_with(ctx, &e);
        }
        let h = self.host.alloc_msg_from(packet.payload, packet.src as i64);
        if let Err(e) = self.machine.go_event_from(
            evt,
            Some(Value::Ptr(Ptr::Host(h as u64))),
            packet.origin,
            &mut self.host,
        ) {
            return self.fail_with(ctx, &e);
        }
        self.sync_world(ctx);
    }

    fn timer(&mut self, ctx: &mut MoteCtx) {
        self.note_lag(ctx.now);
        if let Err(e) = self.machine.go_time(ctx.now, &mut self.host) {
            return self.fail_with(ctx, &e);
        }
        self.sync_world(ctx);
    }

    fn cpu(&mut self, ctx: &mut MoteCtx) {
        for _ in 0..self.async_per_slice {
            match self.machine.go_async(&mut self.host) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return self.fail_with(ctx, &e),
            }
        }
        self.sync_world(ctx);
    }

    /// Reboot with full state loss, as a crashed device would: the
    /// machine's program state goes back to its boot image
    /// ([`Machine::reboot`]), the C world starts fresh (experiment hooks
    /// carry over), then the normal boot sequence runs. The machine's
    /// settings survive, and its reaction ids keep counting, so every life
    /// of the mote stays apart in the trace.
    fn reboot(&mut self, ctx: &mut MoteCtx) {
        self.machine.reboot();
        let extra = std::mem::take(&mut self.host.extra);
        self.host = TosHost::new(self.node_id);
        self.host.extra = extra;
        self.boot(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::{Radio, Topology};
    use crate::world::World;

    /// A one-hop echo: wait for a message, add one, send it back.
    const ECHO: &str = r#"
        input _message_t* Radio_receive;
        loop do
           _message_t* msg = await Radio_receive;
           int* cnt = _Radio_getPayload(msg);
           _Leds_set(*cnt);
           *cnt = *cnt + 1;
           _Radio_send((_TOS_NODE_ID+1)%2, msg);
        end
    "#;

    /// Sends the first message at boot.
    const KICK: &str = r#"
        input _message_t* Radio_receive;
        internal void go;
        par do
           loop do
              _message_t* msg = await Radio_receive;
              int* cnt = _Radio_getPayload(msg);
              _Leds_set(*cnt);
              *cnt = *cnt + 1;
              _Radio_send((_TOS_NODE_ID+1)%2, msg);
           end
        with
           _message_t msg;
           int* cnt = _Radio_getPayload(&msg);
           *cnt = 1;
           _Radio_send(1, &msg)
           await forever;
        end
    "#;

    #[test]
    fn two_ceu_motes_bounce_a_counter() {
        let prog = ceu::Compiler::new().compile(ECHO).unwrap();
        let kick = ceu::Compiler::new().compile(KICK).unwrap();
        let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 1));
        w.add_mote(Box::new(CeuMote::new(kick, 0)));
        w.add_mote(Box::new(CeuMote::new(prog, 1)));
        w.boot();
        w.run_until(10_500);
        // 1ms per hop, counter bounces: mote1 sees 1,3,5,… mote0 sees 2,4,…
        assert!(w.stats.delivered >= 10, "delivered {}", w.stats.delivered);
        let m1_first = w.leds(1).history.first().cloned();
        assert_eq!(m1_first, Some((1_000, 0, true)), "mote 1 lit led0 from mask 1 at 1ms");
        // per-mote accounting: what mote 1 received, mote 0 sent (the
        // final packet may still be in flight at the deadline)
        let in_flight = w.mote_stats(0).sent - w.mote_stats(1).received;
        assert!(in_flight <= 1, "at most one packet in flight, got {in_flight}");
        assert!(w.mote_stats(0).received >= 5);
    }

    #[test]
    fn cross_mote_causality_links_send_to_receive() {
        use ceu::runtime::{Cause, TraceEvent};

        let trace_world = || {
            let prog = ceu::Compiler::new().compile(ECHO).unwrap();
            let kick = ceu::Compiler::new().compile(KICK).unwrap();
            let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 1));
            for (p, id) in [(kick, 0), (prog, 1)] {
                let mut mote = CeuMote::new(p, id);
                mote.enable_trace();
                w.add_mote(Box::new(mote));
            }
            w.enable_trace();
            w.boot();
            w
        };

        let mut seq = trace_world();
        seq.run_until(10_500);
        let trace = seq.take_trace();

        // every radio-caused reaction names a parent on the *other* mote
        let mut cross_links = 0;
        for e in &trace {
            if let TraceEvent::ReactionStart {
                id,
                cause: Cause::Event { parent: Some(p), .. },
                ..
            } = e.event
            {
                assert_ne!(p.mote, id.mote, "radio parents are cross-mote here");
                assert_eq!(e.mote as u32, id.mote, "reaction ids carry the mote");
                cross_links += 1;
            }
        }
        assert!(cross_links >= 5, "the counter bounces: got {cross_links} causal links");

        // the unified stream is identical under the parallel stepper
        let mut par = trace_world();
        par.run_until_parallel(10_500, 4);
        assert_eq!(trace, par.take_trace(), "sequential vs 4-thread world trace");
    }

    /// Serves radio messages, but a parallel trail calls a C function the
    /// TinyOS binding doesn't have, 5 ms into every life — a guaranteed
    /// machine error (and after a reboot, the rebooted machine re-arms it).
    const FRAGILE: &str = r#"
        input _message_t* Radio_receive;
        par do
           loop do
              _message_t* msg = await Radio_receive;
              _Leds_led0Toggle();
           end
        with
           await 5ms;
           _Boom();
           await forever;
        end
    "#;

    /// Bare-metal beacon: one packet per millisecond at a fixed peer.
    struct Beacon {
        to: usize,
    }

    impl Backend for Beacon {
        fn boot(&mut self, ctx: &mut MoteCtx) {
            ctx.set_timer_at(1_000);
        }
        fn deliver(&mut self, _: &mut MoteCtx, _: Packet) {}
        fn timer(&mut self, ctx: &mut MoteCtx) {
            ctx.send(self.to, Packet::with_value(ctx.id, self.to, 1));
            ctx.set_timer_at(ctx.now + 1_000);
        }
        fn cpu(&mut self, _: &mut MoteCtx) {}
    }

    #[test]
    fn ceu_machine_errors_crash_and_reboot_the_mote() {
        use crate::faults::RebootPolicy;

        let build = || {
            let prog = ceu::Compiler::new().compile(FRAGILE).unwrap();
            let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 1));
            w.set_reboot_policy(RebootPolicy::After(2_000));
            w.enable_trace();
            w.add_mote(Box::new(Beacon { to: 1 }));
            let mut mote = CeuMote::new(prog, 1);
            mote.enable_trace();
            w.add_mote(Box::new(mote));
            w.boot();
            w
        };
        let mut seq = build();
        seq.run_until(30_000);
        let stats = *seq.mote_stats(1);
        assert!(stats.crashes >= 2, "one crash per life: {stats:?}");
        assert!(stats.reboots >= 2, "revived by the policy each time: {stats:?}");
        assert!(seq.mote_status(1).is_up() || stats.reboots + 1 == stats.crashes);
        // it keeps serving between outages — led toggles well past the
        // first crash (5 ms) prove the reboot actually re-booted
        assert!(seq.leds(1).history.iter().any(|(t, _, _)| *t > 10_000), "service resumed");
        // beacons that were mid-air when the mote dropped were discarded
        assert!(seq.stats.dropped_in_flight >= 1);
        // and the whole chaotic run is bit-identical under the parallel
        // stepper, crash causes and all
        let mut par = build();
        par.run_until_parallel(30_000, 4);
        assert_eq!(*par.mote_stats(1), stats);
        assert_eq!(seq.take_trace(), par.take_trace());
    }

    #[test]
    fn shared_handle_exposes_metrics_and_clock_lag() {
        use std::sync::{Arc, Mutex};

        let prog = ceu::Compiler::new().compile(ECHO).unwrap();
        let kick = ceu::Compiler::new().compile(KICK).unwrap();
        let echo = Arc::new(Mutex::new(CeuMote::new(prog, 1)));
        echo.lock().unwrap().enable_metrics();
        let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.0, 1));
        w.add_mote(Box::new(CeuMote::new(kick, 0)));
        w.add_mote(Box::new(Arc::clone(&echo)));
        w.boot();
        w.run_until(10_500);

        let mote = echo.lock().unwrap();
        let m = mote.metrics().expect("metrics enabled");
        assert!(m.reactions >= 5, "one reaction per delivered message, got {}", m.reactions);
        assert_eq!(m.discarded_events, 0);
        // deliveries arrive 1ms after the machine last saw time advance,
        // so the drift high-water mark is at least one radio hop
        assert!(mote.max_clock_lag_us() >= 1_000, "lag {}", mote.max_clock_lag_us());
    }
}
