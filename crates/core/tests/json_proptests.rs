//! Round-trip properties of the shared JSON codec ([`relia_core::json`]).
//!
//! The vendored proptest yields only printable-ASCII strings and `f64`s
//! in `[0, 1)`, so both properties draw raw `u32`/`u64` words and build
//! their inputs from them: code points from every class the escaper
//! treats differently, and arbitrary finite bit patterns.

use proptest::prelude::*;
use relia_core::json::{escape, fmt_f64, parse};

/// Maps a random word to a code point. The low three bits pick the class
/// (controls, `"` and `\`, printable ASCII, the rest of the BMP, astral),
/// the rest pick within it. Surrogates are not scalar values, so they
/// fall back to U+FFFD.
fn code_point(w: u32) -> char {
    let r = w >> 3;
    let cp = match w & 7 {
        0 | 1 => r % 0x20,
        2 => [u32::from('"'), u32::from('\\')][(r & 1) as usize],
        3 | 4 => 0x20 + r % 0x60,
        5 | 6 => 0x80 + r % (0x1_0000 - 0x80),
        _ => 0x1_0000 + r % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(cp).unwrap_or('\u{FFFD}')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `escape` output, quoted, parses back to the original string.
    #[test]
    fn escaped_strings_parse_back(words in prop::collection::vec(any::<u32>(), 0..48)) {
        let s: String = words.into_iter().map(code_point).collect();
        let literal = format!("\"{}\"", escape(&s));
        let back = parse(literal.as_bytes()).map_err(|e| format!("{literal:?}: {e}"))?;
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    /// `fmt_f64` of any finite value parses back to the same bits.
    #[test]
    fn finite_floats_round_trip_bit_exactly(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            let text = fmt_f64(v);
            let back = parse(text.as_bytes()).map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(bits), "{}", text);
        }
    }
}
