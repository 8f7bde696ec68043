//! Every kernel's in-memory trace rebuilds exactly the records functional
//! execution produced, and survives a round trip through a trace file.
//!
//! A [`Trace`] keeps each record packed (PC text index, taken bit, two
//! payload words) and derives the rest from the program text on every read,
//! so this walks every instruction mix the workload suite has — both
//! variants of every SPECint- and SPECfp-like kernel — against
//! [`execute_step`].

use msp_isa::{execute_step, write_trace_to_path, ArchState, PackedInst, Trace, TraceReader};
use msp_workloads::{spec_fp_like, spec_int_like, Variant, Workload};
use std::path::PathBuf;

/// Records checked per kernel and variant.
const BUDGET: u64 = 50_000;
/// Checkpoint interval of the captured traces, so the file round trip also
/// covers checkpoints and basic-block vectors.
const INTERVAL: u64 = 20_000;

fn every_kernel() -> Vec<Workload> {
    [Variant::Original, Variant::Modified]
        .into_iter()
        .flat_map(|v| spec_int_like(v).into_iter().chain(spec_fp_like(v)))
        .collect()
}

#[test]
fn every_kernel_rebuilds_the_executed_records() {
    let kernels = every_kernel();
    assert_eq!(kernels.len(), 36, "18 kernels x 2 variants");
    for w in &kernels {
        let program = w.program();
        let trace = Trace::capture_with_checkpoints(program, BUDGET, INTERVAL);
        assert_eq!(trace.len(), BUDGET, "{} runs past the budget", w.name());
        let mut state = ArchState::new(program);
        for (i, rec) in trace.records().iter().enumerate() {
            let expected = execute_step(&mut state, program).expect("kernel runs on");
            assert_eq!(rec, expected, "{} {} record {i}", w.name(), w.variant());
            assert_eq!(trace.get(i as u64), Some(expected));
            assert_eq!(PackedInst::pack(&expected).unpack(program), expected);
        }
        assert_eq!(&state, trace.end_state());
    }
}

#[test]
fn every_kernel_trace_survives_a_trace_file() {
    let dir = std::env::temp_dir();
    for (n, w) in every_kernel().iter().enumerate() {
        let program = w.program();
        let trace = Trace::capture_with_checkpoints(program, BUDGET, INTERVAL);
        let path: PathBuf = dir.join(format!(
            "msp-workloads-packed-{}-{n}.msptrace",
            std::process::id()
        ));
        write_trace_to_path(&path, program, &trace).expect("trace file is written");
        let decoded =
            TraceReader::open(&path, program).and_then(|reader| reader.read_trace(program));
        let _ = std::fs::remove_file(&path);
        let decoded = decoded.expect("trace file reads back");
        assert!(
            decoded == trace,
            "{} {}: read_trace(write_trace_to_path(t)) differs from t",
            w.name(),
            w.variant()
        );
    }
}
