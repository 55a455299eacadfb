//! Round trip of the JSON string decoder: any text, written by an encoder
//! that picks per character between the raw form and every escape JSON
//! allows (short escapes, `\uXXXX`, UTF-16 surrogate pairs for
//! supplementary characters), decodes back to itself; and so does any
//! text written by the codec's own writer.

use proptest::prelude::*;
use tr_trace::json::{json_string, parse, Json};

/// Characters the strings draw from: ASCII, the two characters JSON must
/// escape, control characters, and 2-, 3- and 4-byte UTF-8 text.
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '{',
    ':',
    ',',
    '"',
    '\\',
    '\u{0}',
    '\u{8}',
    '\t',
    '\n',
    '\u{b}',
    '\u{c}',
    '\r',
    '\u{1f}',
    '\u{7f}',
    'é',
    'µ',
    'Ж',
    '€',
    '—',
    '中',
    '\u{fffd}',
    '\u{ffff}',
    '😀',
    '𝄞',
    '\u{10ffff}',
];

/// Writes `c` in the form `style` selects among those valid for it.
fn encode_char(out: &mut String, c: char, style: u8) {
    let short = match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\u{8}' => Some("\\b"),
        '\u{c}' => Some("\\f"),
        '\n' => Some("\\n"),
        '\r' => Some("\\r"),
        '\t' => Some("\\t"),
        _ => None,
    };
    let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
    match (style % 3, short) {
        (0, _) if !must_escape => out.push(c),
        (1, Some(s)) => out.push_str(s),
        _ => {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                // Both hex cases are valid JSON.
                if style >= 128 {
                    out.push_str(&format!("\\u{unit:04X}"));
                } else {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn strings_survive_every_escape_form(
        picks in prop::collection::vec((0usize..PALETTE.len(), any::<u8>()), 0..64),
    ) {
        let text: String = picks.iter().map(|&(i, _)| PALETTE[i]).collect();
        let mut doc = String::from("[\"");
        for &(i, style) in &picks {
            encode_char(&mut doc, PALETTE[i], style);
        }
        doc.push_str("\"]");
        prop_assert_eq!(parse(&doc), Ok(Json::Arr(vec![Json::Str(text)])), "{}", doc);
    }

    #[test]
    fn written_strings_parse_back(
        picks in prop::collection::vec(0usize..PALETTE.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| PALETTE[i]).collect();
        let doc = json_string(&text);
        prop_assert_eq!(parse(&doc), Ok(Json::Str(text)), "{}", doc);
    }
}

#[test]
fn unpaired_surrogates_decode_to_replacement_without_eating_neighbours() {
    // A high surrogate before a non-surrogate escape, before a raw
    // character, before another high surrogate that does pair, and a
    // lone low surrogate.
    assert_eq!(
        parse(r#""\ud83d\u0041\ud83dB\ud83d\ud83d\ude00\ude00""#),
        Ok(Json::Str(
            "\u{fffd}A\u{fffd}B\u{fffd}😀\u{fffd}".to_string()
        ))
    );
}
