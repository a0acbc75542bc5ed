//! The text snapshot formats older builds wrote are refused by
//! `persist::read_state` as `InvalidData`. (Kept out of `persist.rs`,
//! whose CI guard forbids those formats' magic strings.)

use dppr_core::crc32;
use dppr_core::persist::read_state;
use std::io;

#[test]
fn text_snapshots_are_refused() {
    let alpha = 0.15f64.to_bits();
    let epsilon = 1e-4f64.to_bits();
    let row = format!("{:016x} {:016x}\n", 0.5f64.to_bits(), 0.0f64.to_bits());
    // A 70-byte v1 header claiming 10^12 rows: the text reader allocated
    // for them before reading any row and the process aborted.
    let v1 = format!(
        "dppr-state v1\nsource 0 alpha {alpha:016x} epsilon {epsilon:016x} len 1000000000000\n{row}"
    );
    let covered =
        format!("dppr-state v2\nsource 0 alpha {alpha:016x} epsilon {epsilon:016x} len 1\n{row}");
    let v2 = format!("{covered}crc32 {:08x}\n", crc32(covered.as_bytes()));
    for text in [v1, v2] {
        let err = read_state(text.as_bytes()).expect_err("text snapshots are not read");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
