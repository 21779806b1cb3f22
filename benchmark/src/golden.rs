//! The committed report hashes of seed 42. The simulator is deterministic,
//! so the `{:?}` text of every `RunReport` and `ServiceReport` at a given
//! seed is a constant of the code; a change that alters one altered what the
//! runtime decides, not only how fast it decides it.
//!
//! Line format: `<scale> <workload> <label> <fnv1a64 hex>`; `#` starts a
//! comment. Regenerate with `--write-golden` after an intended change of
//! behaviour.

use crate::inputs::Scale;

pub const SEED: u64 = 42;

pub const COMMITTED: &str = include_str!("../golden/seed42.txt");

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    }
}

/// The golden lines of one workload's outputs.
pub fn render(scale: Scale, workload: &str, outputs: &[(String, u64)]) -> String {
    outputs
        .iter()
        .map(|(label, hash)| format!("{} {workload} {label} {hash:016x}\n", scale_name(scale)))
        .collect()
}

/// Compare `outputs` with `golden`; one message per mismatch or missing
/// line.
pub fn check(golden: &str, scale: Scale, workload: &str, outputs: &[(String, u64)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (label, hash) in outputs {
        let want = golden.lines().find_map(|l| {
            let mut t = l.split_whitespace();
            (t.next() == Some(scale_name(scale))
                && t.next() == Some(workload)
                && t.next() == Some(label))
            .then(|| t.next().unwrap_or(""))
        });
        let got = format!("{hash:016x}");
        match want {
            Some(w) if w == got => {}
            Some(w) => errors.push(format!(
                "golden: {workload} {label}: report hash {got}, committed {w}"
            )),
            None => errors.push(format!(
                "golden: {workload} {label}: no committed hash for scale {}",
                scale_name(scale)
            )),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_golden_line_fails_the_check() {
        let outputs = vec![("WarpX".to_string(), 0xABCDu64), ("DMRG".to_string(), 7)];
        let good = render(Scale::Full, "solo_regular", &outputs);
        assert!(check(&good, Scale::Full, "solo_regular", &outputs).is_empty());

        let corrupted = good.replace("000000000000abcd", "000000000000abce");
        let errs = check(&corrupted, Scale::Full, "solo_regular", &outputs);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("WarpX"), "{errs:?}");

        // Another scale or workload does not vouch for this one.
        assert_eq!(
            check(&good, Scale::Smoke, "solo_regular", &outputs).len(),
            2
        );
        assert_eq!(
            check(&good, Scale::Full, "solo_irregular", &outputs).len(),
            2
        );
    }

    #[test]
    fn committed_file_covers_every_workload_at_both_scales() {
        for scale in [Scale::Full, Scale::Smoke] {
            for w in &crate::workloads::WORKLOADS {
                assert!(
                    COMMITTED.lines().any(|l| {
                        let mut t = l.split_whitespace();
                        t.next() == Some(scale_name(scale)) && t.next() == Some(w.name)
                    }),
                    "no {} line for {}",
                    scale_name(scale),
                    w.name
                );
            }
        }
    }
}
