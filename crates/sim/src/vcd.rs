//! Value Change Dump (IEEE 1364) writer for simulation traces.
//!
//! Converts a [`Trace`] recorded by
//! [`simulate_traced`](crate::simulate_traced) into standard VCD text so
//! waveforms can be inspected in GTKWave or any other viewer — the
//! debugging loop every simulator needs.

use crate::engine::Trace;
use std::fmt::Write as _;
use tr_netlist::{Circuit, NetId};

/// Generates the VCD identifier for net `i` (printable ASCII 33–126,
/// base-94, like commercial tools emit).
fn ident(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (i % 94) as u8));
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Renders a trace as a VCD document.
///
/// The timescale is 1 fs (the engine's native resolution). Net names come
/// from the circuit; primary inputs and outputs are grouped into scopes
/// so viewers display them tidily.
pub fn write(circuit: &Circuit, trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date 1996-03-11 $end"); // the DATE'96 wink
    let _ = writeln!(out, "$version tr-sim switch-level simulator $end");
    let _ = writeln!(out, "$timescale 1 fs $end");

    let mut input_mask = vec![false; circuit.net_count()];
    for n in circuit.primary_inputs() {
        input_mask[n.0] = true;
    }
    let mut output_mask = vec![false; circuit.net_count()];
    for n in circuit.primary_outputs() {
        output_mask[n.0] = true;
    }
    let is_input = |n: NetId| input_mask[n.0];
    let is_output = |n: NetId| output_mask[n.0];

    let _ = writeln!(out, "$scope module {} $end", sanitize(circuit.name()));
    let _ = writeln!(out, "$scope module inputs $end");
    for n in 0..circuit.net_count() {
        if is_input(NetId(n)) {
            let _ = writeln!(
                out,
                "$var wire 1 {} {} $end",
                ident(n),
                sanitize(circuit.net_name(NetId(n)))
            );
        }
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$scope module outputs $end");
    for n in 0..circuit.net_count() {
        if is_output(NetId(n)) && !is_input(NetId(n)) {
            let _ = writeln!(
                out,
                "$var wire 1 {} {} $end",
                ident(n),
                sanitize(circuit.net_name(NetId(n)))
            );
        }
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$scope module internal $end");
    for n in 0..circuit.net_count() {
        if !is_input(NetId(n)) && !is_output(NetId(n)) {
            let _ = writeln!(
                out,
                "$var wire 1 {} {} $end",
                ident(n),
                sanitize(circuit.net_name(NetId(n)))
            );
        }
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    let _ = writeln!(out, "$dumpvars");
    for (n, &v) in trace.initial.iter().enumerate() {
        let _ = writeln!(out, "{}{}", u8::from(v), ident(n));
    }
    let _ = writeln!(out, "$end");

    let mut last_time = None;
    for ev in &trace.events {
        if last_time != Some(ev.time_fs) {
            let _ = writeln!(out, "#{}", ev.time_fs);
            last_time = Some(ev.time_fs);
        }
        let _ = writeln!(out, "{}{}", u8::from(ev.value), ident(ev.net));
    }
    out
}

/// Writes the VCD to a file.
///
/// # Errors
///
/// Propagates I/O errors from the filesystem.
pub fn write_to_file(
    circuit: &Circuit,
    trace: &Trace,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, write(circuit, trace))
}

/// VCD identifiers may not contain whitespace; net names from generators
/// are already clean, but user `.bench`/BLIF names might not be.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_traced, InputDrive, SimConfig};
    use tr_gatelib::{CellKind, Library, Process};
    use tr_timing::TimingModel;

    fn toy() -> (Circuit, Library, Process, TimingModel) {
        let lib = Library::standard();
        let process = Process::default();
        let timing = TimingModel::new(&lib, process.clone());
        let mut c = Circuit::new("toy");
        let a = c.add_input("a");
        let (_, y) = c.add_gate(CellKind::Inv, vec![a], "y");
        c.mark_output(y);
        (c, lib, process, timing)
    }

    #[test]
    fn vcd_structure() {
        let (c, lib, process, timing) = toy();
        let drives = vec![InputDrive::Waveform {
            initial: false,
            toggles: vec![1.0e-6, 2.0e-6],
        }];
        let cfg = SimConfig {
            duration: 1.0e-4,
            warmup: 0.0,
            seed: 0,
        };
        let (report, trace) = simulate_traced(&c, &lib, &process, &timing, &drives, &cfg);
        let text = write(&c, &trace);
        assert!(text.contains("$timescale 1 fs $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("$dumpvars"));
        // 2 input toggles + 2 output commits = 4 change lines.
        let changes = text
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count();
        // dumpvars section also emits one line per net (2 nets).
        assert_eq!(changes, 2 + 4);
        assert_eq!(report.net_transitions.iter().sum::<u64>(), 4);
    }

    #[test]
    fn trace_is_chronological_and_consistent() {
        let (c, lib, process, timing) = toy();
        let drives = vec![InputDrive::Waveform {
            initial: true,
            toggles: vec![5.0e-7, 9.0e-7, 1.3e-6],
        }];
        let cfg = SimConfig {
            duration: 1.0e-4,
            warmup: 0.0,
            seed: 0,
        };
        let (_, trace) = simulate_traced(&c, &lib, &process, &timing, &drives, &cfg);
        for w in trace.events.windows(2) {
            assert!(w[0].time_fs <= w[1].time_fs);
        }
        // Replaying the trace gives the simulator's final state.
        let mut vals = trace.initial.clone();
        for ev in &trace.events {
            vals[ev.net] = ev.value;
        }
        // a toggled 3 times from true → false; y = !a = true.
        assert!(!vals[0]);
        assert!(vals[1]);
    }

    #[test]
    fn identifiers_are_unique_and_printable() {
        let ids: Vec<String> = (0..500).map(ident).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }

    #[test]
    fn write_to_file_roundtrip() {
        let (c, lib, process, timing) = toy();
        let drives = vec![InputDrive::Waveform {
            initial: false,
            toggles: vec![1.0e-6],
        }];
        let cfg = SimConfig {
            duration: 1.0e-4,
            warmup: 0.0,
            seed: 0,
        };
        let (_, trace) = simulate_traced(&c, &lib, &process, &timing, &drives, &cfg);
        let dir = std::env::temp_dir().join("tr_sim_vcd_test.vcd");
        write_to_file(&c, &trace, &dir).unwrap();
        let read_back = std::fs::read_to_string(&dir).unwrap();
        assert_eq!(read_back, write(&c, &trace));
        let _ = std::fs::remove_file(dir);
    }
}
