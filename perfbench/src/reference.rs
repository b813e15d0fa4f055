//! Reference outputs committed in `expected.txt`: one line per output,
//! `<workload> <key> <value>`.

const EXPECTED: &str = include_str!("../expected.txt");

/// The committed value of `key` for `workload`.
pub fn expected(workload: &str, key: &str) -> Option<&'static str> {
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(key))
            .then(|| f.next())
            .flatten()
    })
}

/// Whether `got` matches the committed value of `key`. A key with no
/// committed value never matches, so a missing reference line fails the
/// run and the failure message carries the line to commit.
pub fn matches(workload: &str, key: &str, got: &str) -> Result<(), String> {
    match expected(workload, key) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("{workload} {key}: expected {want}, got {got}")),
        None => Err(format!("no reference line `{workload} {key} {got}`")),
    }
}
