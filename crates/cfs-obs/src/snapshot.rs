//! Point-in-time metric views, window diffs, and JSON rendering.

use std::collections::BTreeMap;

/// Gauge value plus its high-water mark at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub value: i64,
    pub high_water: i64,
}

/// Histogram totals plus the non-empty log2 buckets as
/// `(bucket_index, sample_count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time view of every metric in a registry.
///
/// Budget tests take one snapshot before a window of work and one after,
/// then assert on [`MetricsSnapshot::diff`]: counters become "events in
/// the window", which is what an exact budget ("these 100 appends issued
/// exactly 5 meta syncs") needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 for metrics never touched (a metric
    /// that was never created counts zero events, which is what a budget
    /// assertion wants).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge view, if the gauge exists.
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        self.gauges.get(name).copied()
    }

    /// Sum of every counter whose name starts with `prefix` (e.g. all
    /// routes of one fabric: `net.calls{fabric=data`).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Events between `earlier` and `self`: counters and histogram totals
    /// subtract; gauges keep the later view (their high-water mark is
    /// already a lifetime property).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let old = earlier.histograms.get(k);
                let buckets = v
                    .buckets
                    .iter()
                    .filter_map(|&(i, n)| {
                        let prev = old
                            .map(|o| {
                                o.buckets
                                    .iter()
                                    .find(|&&(j, _)| j == i)
                                    .map(|&(_, m)| m)
                                    .unwrap_or(0)
                            })
                            .unwrap_or(0);
                        (n > prev).then_some((i, n - prev))
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count - old.map(|o| o.count).unwrap_or(0),
                        sum: v.sum - old.map(|o| o.sum).unwrap_or(0),
                        buckets,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Render as a JSON object (hand-rolled: the repo vendors no serde).
    /// Keys are metric names; counters map to numbers, gauges to
    /// `{value, high_water}`, histograms to `{count, sum, buckets}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, g| {
            out.push_str(&format!(
                "{{\"value\":{},\"high_water\":{}}}",
                g.value, g.high_water
            ))
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (i, (bucket, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bucket},{n}]"));
            }
            out.push_str("]}");
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(out, k);
        out.push_str("\":");
        render(out, v);
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("x.ops");
        let h = r.histogram("x.lat");
        c.add(3);
        h.record(4);
        let before = r.snapshot();
        c.add(2);
        h.record(4);
        h.record(1 << 20);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("x.ops"), 2);
        assert_eq!(d.histograms["x.lat"].count, 2);
        assert_eq!(d.histograms["x.lat"].sum, 4 + (1 << 20));
        assert_eq!(d.histograms["x.lat"].buckets, vec![(3, 1), (21, 1)]);
    }

    #[test]
    fn counter_sum_aggregates_by_prefix() {
        let r = Registry::new();
        r.counter("net.calls{fabric=data,route=append}").add(5);
        r.counter("net.calls{fabric=data,route=read}").add(2);
        r.counter("net.calls{fabric=meta,route=write}").add(9);
        let s = r.snapshot();
        assert_eq!(s.counter_sum("net.calls{fabric=data"), 7);
        assert_eq!(s.counter_sum("net.calls{"), 16);
    }

    #[test]
    fn json_output_is_well_formed() {
        let r = Registry::new();
        r.counter("a.c{k=v}").add(7);
        r.gauge("a.g").set(3);
        r.histogram("a.h").record(2);
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.c{k=v}\":7},\
             \"gauges\":{\"a.g\":{\"value\":3,\"high_water\":3}},\
             \"histograms\":{\"a.h\":{\"count\":1,\"sum\":2,\"buckets\":[[2,1]]}}}"
        );
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }
}
