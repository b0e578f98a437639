//! The check every fixture's JSON rendering passes: it parses, and its
//! headings, non-empty lines and table cells are the text rendering's,
//! in order.

use ifko::report::{parse_json, Json};

/// Assert that `json` and `text`, two renderings of one document, carry
/// the same headings, non-empty lines and table cells in the same order.
pub fn assert_json_follows_text(json: &str, text: &str) {
    let Some(Json::Arr(blocks)) = parse_json(json) else {
        panic!("not a JSON array of blocks:\n{json}");
    };
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let mut next = || lines.next().expect("text ended before the JSON");
    for b in &blocks {
        if let Some(h) = b.get("heading").and_then(Json::as_str) {
            assert_eq!(next(), format!("== {h} =="));
        } else if let Some(l) = b.get("line").and_then(Json::as_str) {
            assert_eq!(next(), l);
        } else if let Some(Json::Arr(rows)) = b.get("table") {
            let cells = |row: &Json, key: bool| -> Vec<String> {
                let Json::Obj(fields) = row else {
                    panic!("a table row is an object: {row:?}");
                };
                let cell = |(k, v): &(String, Json)| match key {
                    true => k.clone(),
                    false => v.as_str().expect("cells are strings").to_string(),
                };
                fields.iter().map(cell).collect()
            };
            // The heading line; a table without rows has no keys to match.
            match rows.first() {
                Some(first) => assert_cells(next(), &cells(first, true)),
                None => _ = next(),
            }
            for row in rows {
                assert_cells(next(), &cells(row, false));
            }
        } else {
            panic!("unknown block {b:?}");
        }
    }
    assert_eq!(lines.next(), None, "the text has lines the JSON lacks");
}

/// `line` is `cells` in order, each padded with spaces only.
fn assert_cells(line: &str, cells: &[String]) {
    let mut rest = line;
    for c in cells {
        rest = rest.trim_start_matches(' ');
        assert!(
            rest.starts_with(c.as_str()),
            "cell `{c}` is not next in `{line}`"
        );
        rest = &rest[c.len()..];
    }
    assert_eq!(
        rest.trim_end_matches(' '),
        "",
        "`{line}` has more than its cells"
    );
}
