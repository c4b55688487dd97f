//! The oracle runs after the timed loop: a mismatching output must not add
//! the oracle's CPU time to `cpu_s` or its memory to `peak_rss_mb`. This
//! test has a binary of its own because both figures are process-wide.

use si_perfbench::check::{parse_references, reference_text, Oracle};
use si_perfbench::pool::{draw, Workload};
use si_perfbench::run::{run_with, Config};
use si_perfbench::stats::process_cpu_s;

/// CPU seconds and MiB the stand-in oracle burns on its one call.
const BURN_CPU_S: f64 = 2.0;
const BURN_MIB: usize = 256;

#[test]
fn a_forced_mismatch_leaves_cpu_and_memory_unchanged() {
    let cfg = Config {
        workload: Workload::AutoSmall,
        seed: 3,
        seconds: 0.0,
        trace: false,
    };
    let mut refs = parse_references(reference_text(cfg.workload)).expect("parses");
    let id = draw(cfg.workload, cfg.seed)[0].id.clone();
    refs.get_mut(&id)
        .expect("reference")
        .equations
        .push_str(" + x");
    let burn: Oracle<'_> = &|_, _| {
        let start = process_cpu_s().expect("/proc/self/stat");
        let mut block = vec![0u8; BURN_MIB << 20];
        let mut i = 0usize;
        while process_cpu_s().expect("/proc/self/stat") - start < BURN_CPU_S {
            for page in block.chunks_mut(4096) {
                page[0] = page[0].wrapping_add(i as u8);
            }
            i += 1;
        }
        std::hint::black_box(&block);
        Ok(())
    };
    let report = run_with(&cfg, &refs, burn).expect("runs");
    assert_eq!((report.failed, report.pins_changed), (0, 1));
    let metric = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric")
    };
    // Inside the timed loop the burn would lift the per-round mean by at
    // least BURN_CPU_S / rounds; a round of this workload takes well under
    // a tenth of a second of CPU.
    assert!(
        metric("cpu_s") < BURN_CPU_S / report.rounds as f64 / 2.0,
        "cpu_s {} over {} rounds",
        metric("cpu_s"),
        report.rounds
    );
    assert!(metric("peak_rss_mb") < (BURN_MIB / 2) as f64);
}
