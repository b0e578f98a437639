//! What a client sends cannot grow `ifkod`'s metrics or break their
//! text: every command the daemon does not serve is counted under one
//! `ifkod_requests_total{kind="unknown"}` series. This file holds one
//! test on purpose — the metrics registry is process-wide, and a
//! concurrent test's requests would add series of their own.

use ifko_daemon::client::Client;
use ifko_daemon::server::{Daemon, DaemonConfig};

/// Whether `line` has the shape `name{k="v",...} value` (labels
/// optional): a metric name, quoted label values with every quote
/// closed, one space, a number.
fn well_formed(line: &str) -> bool {
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => match rest.strip_suffix('}') {
            Some(labels) => (name, Some(labels)),
            None => return false,
        },
        None => (series, None),
    };
    let name_ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    let labels_ok = labels.is_none_or(|labels| {
        labels.split(',').all(|pair| match pair.split_once('=') {
            Some((key, v)) => {
                !key.is_empty()
                    && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && v.len() >= 2
                    && v.starts_with('"')
                    && v.ends_with('"')
                    && !v[1..v.len() - 1].contains('"')
            }
            None => false,
        })
    });
    name_ok && labels_ok && value.parse::<f64>().is_ok()
}

#[test]
fn unknown_commands_share_one_series_and_keep_the_text_well_formed() {
    let dir = std::env::temp_dir().join(format!("ifkod-labels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("ifkod.sock");
    let handle = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        db_dir: dir.join("db"),
        cache_dir: None,
        jobs: 1,
        quiet: true,
    })
    .unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let series = |text: &str| {
        let lines = text.lines();
        lines
            .filter(|l| l.starts_with("ifkod_requests_total"))
            .count()
    };
    let before = series(&client.metrics().unwrap());

    for i in 0..500 {
        let cmd = if i == 250 {
            "a\\\"b".to_string()
        } else {
            format!("bogus-{i}")
        };
        let request = format!("{{\"cmd\":\"{cmd}\"}}");
        assert!(client.request(&request).is_err(), "{request}");
    }

    let text = client.metrics().unwrap();
    assert!(
        series(&text) <= before + 1,
        "{} ifkod_requests_total series after 500 unknown commands, {before} before",
        series(&text)
    );
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        assert!(well_formed(line), "malformed exposition line: {line}");
    }
    assert!(text.contains("ifkod_requests_total{kind=\"unknown\"} 500\n"));

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
