//! A driver that owns a [`Machine`] and a [`Host`] and applies the paper's
//! driving discipline (§2, §4.5): reactions run to completion, asyncs only
//! execute while the input side is quiet, and time advances explicitly.

use ceu_codegen::CompiledProgram;
use ceu_runtime::{
    Host, Machine, Result, RuntimeError, Status, TraceEvent, TraceMask, TraceSink, Value,
};
use std::sync::Arc;

/// A machine plus its host, with convenience driving methods. This is what
/// the examples and the WSN/Arduino substrates embed.
pub struct Simulator<H: Host> {
    machine: Machine,
    host: H,
    /// Consumer of the machine's buffered events, fed after every machine
    /// call ([`set_trace_sink`](Self::set_trace_sink)).
    sink: Option<Box<dyn TraceSink + Send>>,
    /// Reused drain buffer between the machine and `sink`.
    drained: Vec<TraceEvent>,
}

impl<H: Host> Simulator<H> {
    pub fn new(program: CompiledProgram, host: H) -> Self {
        Self::from_arc(Arc::new(program), host)
    }

    /// Instantiates over an already-shared artifact — the cheap path when
    /// many simulators (motes, bench workers) run one program.
    pub fn from_arc(program: Arc<CompiledProgram>, host: H) -> Self {
        Simulator { machine: Machine::from_arc(program), host, sink: None, drained: Vec::new() }
    }

    pub fn host(&self) -> &H {
        &self.host
    }

    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Switches on the machine's event channel at `mask` and routes it to
    /// `sink`. The buffer is drained into the sink after every machine
    /// call — each async slice and error return included — so it stays
    /// bounded however long a drive runs, and events leading up to a
    /// failure still arrive. A sink still attached when the simulator is
    /// dropped is finished then, so every exit path leaves a complete
    /// trace; one detached with [`take_trace_sink`](Self::take_trace_sink)
    /// is the caller's to finish.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>, mask: TraceMask) {
        self.machine.enable_events(mask);
        self.sink = Some(sink);
    }

    /// Detaches the trace sink, e.g. to finish it.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink + Send>> {
        self.sink.take()
    }

    /// One machine call, followed by draining its events into the sink
    /// whether or not the call failed.
    fn step<T>(&mut self, call: impl FnOnce(&mut Machine, &mut H) -> Result<T>) -> Result<T> {
        let r = call(&mut self.machine, &mut self.host);
        if let Some(sink) = &mut self.sink {
            self.machine.drain_events_into(&mut self.drained);
            for e in self.drained.drain(..) {
                sink.on_event(&e);
            }
        }
        r
    }

    /// Switches on the machine's metrics registry (idempotent).
    pub fn enable_metrics(&mut self) {
        self.machine.enable_metrics();
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&ceu_runtime::Metrics> {
        self.machine.metrics()
    }

    /// Snapshots and resets the metrics registry (`None` when disabled).
    pub fn take_metrics(&mut self) -> Option<ceu_runtime::Metrics> {
        self.machine.take_metrics()
    }

    /// Drains the machine's output-event buffer (emission order) through
    /// `f` without allocating — see [`Machine::drain_outputs`]. Drivers
    /// composing programs (GALS) call this after each step instead of
    /// [`Machine::take_outputs`], which gives up the buffer.
    pub fn drain_outputs(&mut self, f: impl FnMut(ceu_ast::EventId, Option<Value>)) {
        self.machine.drain_outputs(f);
    }

    pub fn status(&self) -> Status {
        self.machine.status()
    }

    /// Boot reaction, then let any started asyncs run.
    pub fn start(&mut self) -> Result<Status> {
        self.step(|m, h| m.go_init(h))?;
        self.settle()?;
        Ok(self.status())
    }

    /// Feeds one external input event (by name) and reacts to it.
    pub fn event(&mut self, name: &str, value: Option<Value>) -> Result<Status> {
        let id = self.machine.event_id(name).ok_or_else(|| {
            RuntimeError::new(Default::default(), format!("unknown event `{name}`"))
        })?;
        self.step(|m, h| m.go_event(id, value, h))?;
        self.settle()?;
        Ok(self.status())
    }

    /// Advances the wall clock to the given absolute time (µs).
    pub fn advance_to(&mut self, us: u64) -> Result<Status> {
        self.step(|m, h| m.go_time(us, h))?;
        self.settle()?;
        Ok(self.status())
    }

    /// Advances the wall clock by a delta (µs), saturating at the end of
    /// time.
    pub fn advance_by(&mut self, us: u64) -> Result<Status> {
        let target = self.machine.now().saturating_add(us);
        self.advance_to(target)
    }

    /// Runs async blocks until they are all blocked or done (bounded by
    /// `max_slices` to keep truly unbounded asyncs controllable).
    pub fn run_asyncs(&mut self, max_slices: usize) -> Result<usize> {
        let mut n = 0;
        while n < max_slices && !self.status().is_terminated() && self.step(|m, h| m.go_async(h))? {
            n += 1;
        }
        Ok(n)
    }

    /// Lets asyncs settle completely (the common case: asyncs that
    /// terminate, e.g. simulation drivers).
    fn settle(&mut self) -> Result<()> {
        // a generous bound: simulation asyncs emit input and finish; a
        // truly infinite async must be driven with run_asyncs instead
        const SETTLE_SLICES: usize = 2_000_000;
        let mut n = 0;
        while !self.status().is_terminated() && self.step(|m, h| m.go_async(h))? {
            n += 1;
            if n >= SETTLE_SLICES {
                return Err(RuntimeError::new(
                    Default::default(),
                    "async blocks did not settle (infinite computation?); drive with run_asyncs",
                ));
            }
        }
        Ok(())
    }

    /// Reads a variable by its unique name (`name#k`).
    pub fn read_var(&self, unique: &str) -> Option<&Value> {
        self.machine.read_var(unique)
    }

    /// Reads a variable by its source name (first declaration wins when
    /// scopes shadow; prefer [`Simulator::read_var`] with the unique name
    /// in that case).
    pub fn read_source_var(&self, name: &str) -> Option<&Value> {
        let unique = self
            .machine
            .program()
            .slots
            .iter()
            .find(|s| s.name.split('#').next() == Some(name))?
            .name
            .clone();
        self.machine.read_var(&unique)
    }
}

impl<H: Host> Drop for Simulator<H> {
    fn drop(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ceu_runtime::NullHost;

    #[test]
    fn simulator_drives_a_simple_program() {
        let p =
            Compiler::new().compile("input int X;\nint v;\nv = await X;\nreturn v * 2;").unwrap();
        let mut sim = Simulator::new(p, NullHost);
        sim.start().unwrap();
        sim.event("X", Some(Value::Int(21))).unwrap();
        assert_eq!(sim.status(), Status::Terminated(Some(42)));
    }

    #[test]
    fn unknown_event_is_an_error() {
        let p = Compiler::new().compile("await 1s;").unwrap();
        let mut sim = Simulator::new(p, NullHost);
        sim.start().unwrap();
        assert!(sim.event("Nope", None).is_err());
    }

    #[test]
    fn advance_by_accumulates() {
        let p = Compiler::new().compile("int n;\nloop do\n await 10ms;\n n = n + 1;\nend").unwrap();
        let mut sim = Simulator::new(p, NullHost);
        sim.start().unwrap();
        sim.advance_by(25_000).unwrap();
        sim.advance_by(25_000).unwrap();
        assert_eq!(sim.read_var("n#0"), Some(&Value::Int(5)));
    }

    #[test]
    fn advance_by_saturates_at_the_end_of_time() {
        let p = Compiler::new()
            .compile("input void Go;\nint n;\nawait 10ms;\nn = 1;\nawait Go;\nn = 2;")
            .unwrap();
        let mut sim = Simulator::new(p, NullHost);
        sim.start().unwrap();
        sim.advance_by(5_000).unwrap();
        sim.advance_by(u64::MAX).unwrap();
        assert_eq!(sim.machine().now(), u64::MAX);
        assert_eq!(sim.read_var("n#0"), Some(&Value::Int(1)));
    }

    #[test]
    fn infinite_async_is_reported_not_hung() {
        let p = Compiler::new()
            .compile(
                "int r;\npar/or do\n r = async do\n  int i = 0;\n  loop do\n   i = i + 1;\n  end\n  return i;\n end;\nwith\n await 1s;\nend",
            )
            .unwrap();
        let mut sim = Simulator::new(p, NullHost);
        let err = sim.start().unwrap_err();
        assert!(err.message.contains("did not settle"));
    }
}
