//! Fig. 6: kernel-OpenMP performance relative to Linux as a function of
//! CPUs — NAS BT and SP on the Phi KNL preset, plus the 8-socket/192-core
//! repetition and the EPCC overhead table. The Linux baseline and the
//! Aster/RTK/PIK/CCK designs are declared as stack compositions; their
//! OpenMP modes (the baseline and the table columns) derive from the
//! composed stacks' os, translation and timing axes, so the OS axis's
//! framekernel mid-point appears as its own column.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, s, Cell};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_omp::epcc::{epcc_table, Construct};
use interweave_omp::nas::fig6_specs;
use interweave_omp::sim::{fig6_series, geomean_rel, knl_cpu_counts};
use interweave_omp::OmpMode;

pub(super) fn scenarios() -> Vec<Scenario> {
    let knl = MachineConfig::phi_knl();
    vec![
        Scenario::new("linux", StackConfig::commodity(), knl.clone()),
        Scenario::new("aster", StackConfig::framekernel(), knl.clone()),
        Scenario::new("rtk", StackConfig::nautilus(), knl.clone()),
        Scenario::new("pik", StackConfig::pik(), knl.clone()),
        Scenario::new("cck", StackConfig::cck(), knl),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    // Every scenario's OpenMP mode derives from its composition: the first
    // is the baseline, the rest are the columns under comparison.
    let modes = sc.iter().map(|point| {
        point.stack.omp_mode().ok_or(ScenarioError::Unsupported {
            id: point.id,
            needs: "an OpenMP stack (os, translation and timing of one of its modes)",
        })
    });
    let series = modes.collect::<Result<Vec<OmpMode>, _>>()?;
    let (baseline, measured, modes) = (series[0], series[2], &series[1..]);
    let mode_names: Vec<&'static str> = modes.iter().map(|m| m.name()).collect();
    let knl = sc[0].stack.machine();
    let mut h = Harness::new(cli, sc);

    let counts = knl_cpu_counts();
    let mut all_points = Vec::new();

    for spec in fig6_specs() {
        let pts = fig6_series(&spec, knl, &counts, &series, 42);
        let mut rows = Vec::new();
        for &p in &counts {
            let get = |m: OmpMode| {
                pts.iter()
                    .find(|r| r.cpus == p && r.mode == m)
                    .map(|r| r.relative)
                    .unwrap_or(0.0)
            };
            let mut row = vec![s(p)];
            row.extend(modes.iter().map(|&m| f(get(m), 3)));
            rows.push(row);
        }
        let mut header = vec!["CPUs"];
        header.extend(&mode_names);
        h.table(
            &format!(
                "Fig. 6 — NAS {} on {}: performance relative to {} (1.0 = baseline)",
                spec.name,
                knl.name,
                baseline.name()
            ),
            &header,
            rows,
        );
        all_points.extend(pts);
    }

    let geomean_rows = |points: &[interweave_omp::sim::RelPerf]| -> Vec<Vec<Cell>> {
        modes
            .iter()
            .map(|&m| vec![s(m.name()), f(geomean_rel(points, m), 3)])
            .collect()
    };
    h.table(
        "Geometric means across scales and benchmarks (paper: RTK ≈ +22 %)",
        &["mode", "geomean rel. perf."],
        geomean_rows(&all_points),
    );

    // The 192-core repetition (§V-A: "~20% for RTK and PIK").
    let big = MachineConfig::big_server_8s();
    let big_counts = [1usize, 4, 16, 48, 96, 192];
    let mut big_points = Vec::new();
    for spec in fig6_specs() {
        let spec = spec.scaled(8);
        big_points.extend(fig6_series(&spec, &big, &big_counts, &series, 7));
    }
    h.table(
        &format!("Repetition on {} (paper: ~20 % for RTK and PIK)", big.name),
        &["mode", "geomean rel. perf."],
        geomean_rows(&big_points),
    );

    // EPCC construct overheads.
    h.table(
        "EPCC-style construct overheads (cycles)",
        &["construct", "mode", "threads", "overhead"],
        epcc_table(knl, &[2, 8, 32, 64])
            .into_iter()
            .filter(|r| r.construct == Construct::Barrier || r.threads == 64)
            .map(|r| {
                vec![
                    s(r.construct.name()),
                    s(r.mode.name()),
                    s(r.threads),
                    s(r.overhead.get()),
                ]
            }),
    );

    // Noise-sensitivity ablation.
    use interweave_omp::sim::noise_sensitivity;
    let spec = interweave_omp::nas::bt();
    let pts = noise_sensitivity(&spec, knl, 32, &[0.0, 0.5, 1.0, 2.0, 4.0], 42);
    let rows: Vec<Vec<Cell>> = pts
        .iter()
        .map(|(scale, rel)| vec![Cell::float(*scale, 1, "x"), f(*rel, 3)])
        .collect();
    h.table(
        "Noise-sensitivity ablation — RTK advantage vs Linux noise level (BT, 32 CPUs)",
        &["noise scale", "RTK relative perf"],
        rows,
    );
    h.note(
        "Even a hypothetical noiseless Linux loses on primitive costs; real\n\
noise amplifies through barriers into the bulk of Fig. 6's gap.",
    );

    let gain = geomean_rel(&all_points, measured);
    let headline = format!(
        "{} geomean {} of {} ({:+.1}%)",
        measured.name(),
        f(gain, 3),
        baseline.name(),
        100.0 * (gain - 1.0)
    );
    Ok(h.finish(&sc[2], headline))
}
