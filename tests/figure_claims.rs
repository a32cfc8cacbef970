//! EXPERIMENTS.md's "shape reproduced?" claims as assertions over the
//! committed figure CSVs under `results/`, stated as the CSVs show them
//! (deviations from the paper included). Regenerate the CSVs with
//! `cargo run --release -p bench --bin experiments`; a change that moves
//! a figure's shape then fails here instead of drifting silently.

/// The data rows of `results/<name>`, each split on commas, after
/// checking the header.
fn rows(name: &str, header: &str) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/").to_string() + name;
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(header), "{name}: header");
    lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

fn num(cell: &str) -> f64 {
    cell.parse()
        .unwrap_or_else(|e| panic!("{cell:?} is not a number: {e}"))
}

fn strictly_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Fig 5: inversion (% of FIFO) per SFC1 curve, in window order w = 0…100 %.
fn fig5_curve(curve: &str) -> Vec<f64> {
    let rows = rows("fig5.csv", "window_pct,curve,inversion_pct_of_fifo");
    let series: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r[1] == curve)
        .map(|r| (num(&r[0]), num(&r[2])))
        .collect();
    let windows: Vec<f64> = series.iter().map(|&(w, _)| w).collect();
    assert_eq!(windows.first(), Some(&0.0), "{curve}: starts at w = 0");
    assert_eq!(windows.last(), Some(&100.0), "{curve}: ends at w = 100");
    assert!(strictly_increasing(&windows), "{curve}: windows in order");
    series.into_iter().map(|(_, inv)| inv).collect()
}

#[test]
fn fig5_inversion_grows_with_the_window_except_gray_and_hilbert() {
    for curve in ["sweep", "c-scan", "scan", "spiral", "diagonal"] {
        let inv = fig5_curve(curve);
        assert!(
            inv.windows(2).all(|w| w[0] <= w[1]),
            "{curve}: inversion must not fall as w grows: {inv:?}"
        );
    }
    // Deviation: Gray and Hilbert inversion ends below its w = 0 value.
    for curve in ["gray", "hilbert"] {
        let inv = fig5_curve(curve);
        assert!(
            inv[inv.len() - 1] < inv[0],
            "{curve}: inversion at w = 100 % must end below w = 0: {inv:?}"
        );
    }
}

#[test]
fn fig5_diagonal_is_lowest_at_zero_window() {
    let diagonal = fig5_curve("diagonal")[0];
    for curve in ["sweep", "c-scan", "scan", "gray", "hilbert", "spiral"] {
        let other = fig5_curve(curve)[0];
        assert!(
            diagonal < other,
            "diagonal {diagonal} must undercut {curve} {other} at w = 0"
        );
    }
}

#[test]
fn fig8_weighted_losses_fall_and_inversion_rises_strictly_in_f() {
    let rows = rows(
        "fig8.csv",
        "series,f,inversion_pct_of_edf,losses_pct_of_edf",
    );
    let weighted: Vec<&Vec<String>> = rows
        .iter()
        .filter(|r| r[0].starts_with("weighted"))
        .collect();
    let f: Vec<f64> = weighted.iter().map(|r| num(&r[1])).collect();
    assert_eq!(f.first(), Some(&0.0));
    assert_eq!(f.last(), Some(&8.0));
    assert!(strictly_increasing(&f), "f in order: {f:?}");
    let inversion: Vec<f64> = weighted.iter().map(|r| num(&r[2])).collect();
    let losses: Vec<f64> = weighted.iter().map(|r| num(&r[3])).collect();
    assert!(
        strictly_increasing(&inversion),
        "inversion must rise strictly in f: {inversion:?}"
    );
    assert!(
        losses.windows(2).all(|w| w[0] > w[1]),
        "losses must fall strictly in f: {losses:?}"
    );
}

#[test]
fn fig10_losses_bottom_out_at_r4_and_beat_cscan_only_for_r2_to_r6() {
    let rows = rows(
        "fig10.csv",
        "series,r,inversion_pct_of_cscan,losses_pct_of_cscan,mean_seek_ms",
    );
    let cscan = rows.iter().find(|r| r[0] == "c-scan").expect("c-scan row");
    let cscan_losses = num(&cscan[3]);
    let sweep: Vec<(u32, f64)> = rows
        .iter()
        .filter(|r| r[0].starts_with("r="))
        .map(|r| (r[1].parse().expect("integer R"), num(&r[3])))
        .collect();
    assert_eq!(
        sweep.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
        (1..=10).collect::<Vec<_>>()
    );
    let (best_r, _) = sweep
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");
    assert_eq!(best_r, 4, "loss minimum: {sweep:?}");
    for &(r, losses) in &sweep {
        if (2..=6).contains(&r) {
            assert!(losses < cscan_losses, "R={r}: {losses} vs C-SCAN");
        } else if r >= 7 {
            assert!(losses > cscan_losses, "R={r}: {losses} vs C-SCAN");
        }
    }
}
