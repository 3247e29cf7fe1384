//! Cross-commit behaviour pins: FNV-1a digests of whole `numfabric-run …
//! --json` reports. The replay tests in `tests/determinism.rs` prove a
//! build agrees with *itself*; these prove it agrees with the commit the
//! digests were recorded at, so "byte-identical to the parent" is a test
//! and not a claim. They live in this package (not the facade's
//! `tests/determinism.rs`) because only the package that owns a binary can
//! name it through `CARGO_BIN_EXE_*`.
//!
//! A digest may change only in a commit that says why. The recorded set
//! spans every route-selection path: healthy ECMP on all three fabric
//! families, symmetric cable-cut re-selection with and without restore
//! (`recovery`, for NUMFabric and DCTCP), asymmetric `down-fwd`
//! re-selection, seeded wire loss, the churn driver and the sweep engine's
//! default mini-grid, and pFabric's incast and churn. A second set
//! digests the plain-text tables of two hand-built-topology figures, of
//! Table 2's parameter settings and of the generic `dynamic` and
//! `semi-dynamic` drivers.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `numfabric-run <args>` and digest its stdout.
fn stdout_digest(args: &str) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_numfabric-run"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn numfabric-run");
    assert!(
        out.status.success(),
        "numfabric-run `{args}` exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.stdout.is_empty(),
        "numfabric-run `{args}` printed nothing"
    );
    fnv1a(&out.stdout)
}

/// Run `numfabric-run <args> --json` and digest its stdout.
fn report_digest(args: &str) -> u64 {
    stdout_digest(&format!("{args} --json"))
}

/// Every pin whose digest differs from the recorded one, described.
fn moved_pins(pins: &[(&str, u64)], digest: fn(&str) -> u64) -> Vec<String> {
    pins.iter()
        .filter_map(|&(args, want)| {
            let got = digest(args);
            (got != want).then(|| format!("`{args}`: recorded {want:#018x}, got {got:#018x}"))
        })
        .collect()
}

/// `(command line, digest)`, recorded at commit adab581 (the parent of the
/// route-index change). `recovery --protocol dctcp`, the only pinned run of
/// DCTCP's go-back-N on a cut path, was recorded at f33338d. The two
/// pFabric runs, the only pins of its priority queue and agent (the incast
/// overflows the shallow buffers, so it evicts, drops and resends on RTO),
/// were recorded at 916427a.
const PINS: &[(&str, u64)] = &[
    (
        "incast --topology fat-tree:k=4 --fanin 4 --size 100000",
        0xa34b_9956_bb5c_da6a,
    ),
    (
        "shuffle --topology oversub:4:1 --hosts 4 --size 50000",
        0x671e_8461_49f4_3fc2,
    ),
    (
        "stride --topology leaf-spine --millis 2",
        0x0c6d_9d28_3aa3_9b26,
    ),
    ("churn --millis 4 --drain-millis 40", 0x9d5d_04d9_0964_e1bf),
    ("recovery", 0x6e92_224f_d986_ba49),
    ("recovery --restore-us 3000", 0x5eb7_7dd8_43cb_21c0),
    ("recovery --protocol dctcp", 0xb6fd_0ef7_b4a4_122d),
    (
        "stride --topology fat-tree:k=4 --millis 2 --impair down-fwd@500:64,up@1200:64",
        0x7184_7d17_45a9_7190,
    ),
    (
        "incast --topology fat-tree:k=4 --fanin 4 --size 100000 --protocol dctcp \
         --impair loss@0:22=0.02",
        0xe22a_f794_0ec7_6ae2,
    ),
    ("sweep", 0xa2ba_6b87_6070_5b33),
    (
        "incast --topology fat-tree:k=4 --fanin 8 --size 100000 --protocol pfabric",
        0x7195_fac1_9ae0_150e,
    ),
    (
        "churn --protocol pfabric --millis 4 --drain-millis 40",
        0x0ab2_8714_2520_23cb,
    ),
];

/// `(command line, digest)` of plain stdout — the figure and generic-driver
/// tables, which refuse `--json` — recorded at commit f7c3791 (the parent of
/// the one-driver change). `dynamic --protocol dgd` is the pin that notices
/// recycled flow slots: DGD's pacing-timer keys carry the flow id, so a
/// reused id reorders same-instant timers. `table2` was recorded once its
/// DGD heading pointed at `DgdConfig`'s docs.
const STDOUT_PINS: &[(&str, u64)] = &[
    ("fig9", 0xdac2_fab0_951f_11bd),
    ("fig10", 0x4c40_4d99_67c5_1f4a),
    ("table2", 0x458d_9a01_38aa_e201),
    ("dynamic --load 0.3", 0x4aef_e3cd_f22a_d752),
    ("dynamic --protocol dgd --load 0.7", 0x5577_2566_d430_6e99),
    ("semi-dynamic --events 2", 0x83d2_593a_680f_e133),
];

#[test]
fn json_reports_are_byte_identical_to_the_recorded_commit() {
    let moved = moved_pins(PINS, report_digest);
    assert!(
        moved.is_empty(),
        "report bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn figure_tables_are_byte_identical_to_the_recorded_commit() {
    let moved = moved_pins(STDOUT_PINS, stdout_digest);
    assert!(moved.is_empty(), "table bytes moved:\n{}", moved.join("\n"));
}

#[test]
fn the_digest_is_fnv1a_64() {
    // Reference vectors from the FNV specification.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
