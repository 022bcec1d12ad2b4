//! The `BENCH_*.json` record: ordered `"key": value` lines in one fixed,
//! machine-written layout, and the gates `--check` holds it to.

use std::fmt;

/// A fresh value may differ from its committed value by this factor in
/// either direction before a drift gate fails.
pub(crate) const DRIFT_FACTOR: f64 = 8.0;

/// One record value, tagged with the form it is written in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Value {
    /// A count, written as a bare integer.
    Count(u64),
    /// A measurement, written with one decimal.
    Fixed(f64),
    /// A measurement too small for one decimal, written in the shortest
    /// exponent form that reads back to the same `f64`.
    Exp(f64),
}

impl Value {
    fn number(self) -> f64 {
        match self {
            Value::Count(n) => n as f64,
            Value::Fixed(x) | Value::Exp(x) => x,
        }
    }

    /// Reads a token back into the form it was written in.
    fn parse(token: &str) -> Option<Value> {
        if token.contains('e') {
            token.parse().ok().map(Value::Exp)
        } else if token.contains('.') {
            token.parse().ok().map(Value::Fixed)
        } else {
            token.parse().ok().map(Value::Count)
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Fixed(x) => write!(f, "{x:.1}"),
            Value::Exp(x) => write!(f, "{x:e}"),
        }
    }
}

/// One section's record, its keys in file order.
#[derive(Debug, Default)]
pub(crate) struct Record(Vec<(String, Value)>);

impl Record {
    pub(crate) fn new(entries: &[(&str, Value)]) -> Record {
        Record(entries.iter().map(|&(k, v)| (k.to_owned(), v)).collect())
    }

    pub(crate) fn entries(&self) -> impl Iterator<Item = &(String, Value)> {
        self.0.iter()
    }

    pub(crate) fn get(&self, key: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v.number())
    }

    /// The committed layout: `{`, one indented `"key": value` line per
    /// entry, `}` and a final newline.
    pub(crate) fn render(&self) -> String {
        let lines: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Reads the layout [`Record::render`] writes and nothing looser, so a
    /// hand edit that breaks it is reported rather than half-read.
    pub(crate) fn parse(text: &str) -> Result<Record, String> {
        let body = text
            .strip_prefix("{\n")
            .and_then(|t| t.strip_suffix("\n}\n"))
            .ok_or("not a bench record: expected a `{` line, entries and a `}` line")?;
        body.split(",\n")
            .map(|line| {
                line.strip_prefix("  \"")
                    .and_then(|l| l.split_once("\": "))
                    .and_then(|(k, v)| Some((k.to_owned(), Value::parse(v)?)))
                    .ok_or_else(|| format!("malformed record line {line:?}"))
            })
            .collect::<Result<_, _>>()
            .map(Record)
    }
}

/// What `--check` requires of one record key.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Gate {
    /// At least this much, measured and committed: a speedup claim.
    Floor(&'static str, f64),
    /// At most this much, measured and committed: a cost the project
    /// claims absolutely.
    Ceiling(&'static str, f64),
    /// Measured and committed within [`DRIFT_FACTOR`] of each other:
    /// machine noise passes, a regression of the timed path does not.
    Drift(&'static str),
}

impl Gate {
    pub(crate) fn key(self) -> &'static str {
        match self {
            Gate::Floor(key, _) | Gate::Ceiling(key, _) | Gate::Drift(key) => key,
        }
    }
}

/// Every way `gates` fail on the measured and committed records; empty
/// when all hold. A missing or NaN value fails every gate on it, and a
/// drift gate also fails on a value that is not positive.
pub(crate) fn check(gates: &[Gate], fresh: &Record, committed: &Record) -> Vec<String> {
    let mut failed = Vec::new();
    for &gate in gates {
        let key = gate.key();
        for (side, record) in [("measured", fresh), ("committed", committed)] {
            match (record.get(key), gate) {
                (None, _) => failed.push(format!("{side} record lacks {key}")),
                (Some(v), Gate::Floor(_, min)) if v.is_nan() || v < min => {
                    failed.push(format!("{side} {key} {v:.1} is below the {min:.1} floor"));
                }
                (Some(v), Gate::Ceiling(_, max)) if v.is_nan() || v > max => {
                    failed.push(format!("{side} {key} {v:.1} exceeds the {max:.1} ceiling"));
                }
                _ => {}
            }
        }
        if let (Gate::Drift(_), Some(measured), Some(recorded)) =
            (gate, fresh.get(key), committed.get(key))
        {
            let ratio = if measured > recorded {
                measured / recorded
            } else {
                recorded / measured
            };
            let within = measured > 0.0 && recorded > 0.0 && ratio <= DRIFT_FACTOR;
            if !within {
                failed.push(format!(
                    "{key} drifted: committed {recorded:.1}, measured {measured:.1} \
                     (beyond {DRIFT_FACTOR:.0}x; rerun with --write on this machine)"
                ));
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, value: f64) -> Record {
        Record::new(&[(key, Value::Fixed(value))])
    }

    /// Failures of one gate on a single-key measured/committed pair.
    fn failures(gate: Gate, measured: f64, committed: f64) -> Vec<String> {
        check(&[gate], &record("x", measured), &record("x", committed))
    }

    #[test]
    fn values_read_back_in_the_form_they_were_written() {
        for token in [
            "0",
            "3024",
            "155.7",
            "140318.0",
            "4.2494493745888805e-3",
            "1e-2",
        ] {
            let value = Value::parse(token).unwrap();
            assert_eq!(value.to_string(), token);
        }
        for token in ["", "NaN", "inf", "1.2.3", "-1", "12 ", "0x10"] {
            assert!(Value::parse(token).is_none(), "{token:?}");
        }
    }

    #[test]
    fn parse_refuses_anything_but_the_written_layout() {
        let good = "{\n  \"a\": 1,\n  \"b\": 2.5\n}\n";
        assert_eq!(Record::parse(good).unwrap().render(), good);
        for bad in [
            "{\n  \"a\": 1,\n  \"b\": 2.5\n}",
            "{\n  \"a\": 1\n  \"b\": 2.5\n}\n",
            "{\n  \"a\": 1,\n\n}\n",
            "{\r\n  \"a\": 1\r\n}\r\n",
            "{\n  a: 1\n}\n",
            "{\n  \"a\": x\n}\n",
        ] {
            assert!(Record::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn floor_fails_on_the_measured_and_on_the_committed_value() {
        let floor = Gate::Floor("x", 5.0);
        assert!(failures(floor, 5.0, 900.0).is_empty());
        let low_measured = failures(floor, 4.9, 900.0);
        assert_eq!(low_measured.len(), 1);
        assert!(low_measured[0].starts_with("measured x 4.9 is below"));
        let low_committed = failures(floor, 900.0, 4.9);
        assert_eq!(low_committed.len(), 1);
        assert!(low_committed[0].starts_with("committed x 4.9 is below"));
        assert_eq!(failures(floor, f64::NAN, f64::NAN).len(), 2);
    }

    #[test]
    fn ceiling_fails_on_the_measured_and_on_the_committed_value() {
        let ceiling = Gate::Ceiling("x", 100.0);
        assert!(failures(ceiling, 100.0, 31.0).is_empty());
        let high_measured = failures(ceiling, 100.1, 31.0);
        assert_eq!(high_measured.len(), 1);
        assert!(high_measured[0].starts_with("measured x 100.1 exceeds"));
        let high_committed = failures(ceiling, 31.0, 100.1);
        assert_eq!(high_committed.len(), 1);
        assert!(high_committed[0].starts_with("committed x 100.1 exceeds"));
        assert_eq!(failures(ceiling, f64::NAN, f64::NAN).len(), 2);
    }

    #[test]
    fn drift_holds_at_eight_times_and_fails_beyond_in_both_directions() {
        let drift = Gate::Drift("x");
        assert!(failures(drift, 800.0, 100.0).is_empty());
        assert!(failures(drift, 12.5, 100.0).is_empty());
        assert_eq!(failures(drift, 801.0, 100.0).len(), 1);
        assert_eq!(failures(drift, 100.0 / 8.01, 100.0).len(), 1);
    }

    #[test]
    fn drift_fails_on_a_zero_negative_nan_or_missing_value() {
        let drift = Gate::Drift("x");
        for bad in [0.0, -100.0, f64::NAN] {
            assert_eq!(failures(drift, 100.0, bad).len(), 1, "committed {bad}");
            assert_eq!(failures(drift, bad, 100.0).len(), 1, "measured {bad}");
        }
        let missing = check(&[drift], &record("x", 100.0), &record("y", 100.0));
        assert_eq!(missing, ["committed record lacks x"]);
    }

    #[test]
    fn check_reports_every_failed_gate() {
        let gates = [
            Gate::Floor("speedup", 5.0),
            Gate::Ceiling("cost", 10.0),
            Gate::Drift("cost"),
        ];
        let fresh = Record::new(&[("speedup", Value::Fixed(1.0)), ("cost", Value::Fixed(99.0))]);
        let committed = Record::new(&[("speedup", Value::Fixed(2.0)), ("cost", Value::Fixed(1.0))]);
        assert_eq!(check(&gates, &fresh, &committed).len(), 4);
    }
}
