//! `ccs explain` — provenance queries against a recorded
//! `ccs-ledger-v1` document (written by `ccs synth --ledger FILE`).
//!
//! Three query shapes, mirroring the questions the ledger was built to
//! answer:
//!
//! * `--hub N` — why does the N-th selected candidate exist? Walks back
//!   from the `covering.selected` event to the `placement.kept` event
//!   that admitted the candidate into the covering matrix.
//! * `--candidate a,b,...` — what happened to the merge subset with
//!   these constraint arcs? Replays every recorded decision about the
//!   subset in pipeline order (geometry prune → bandwidth prune →
//!   lower-bound gate → placement → covering).
//! * `--arc N` — which selected candidate implements constraint arc N,
//!   and what else (deactivation, simulated blackout) touched it?
//!
//! Counts in the ledger are exact; the per-cause event sample is
//! bounded, so a query about a pruned subset can fall back to a
//! count-only answer when the specific event was sampled out.

use ccs_obs::json;
use ccs_obs::ledger::{Cause, DecisionEvent, Ledger, CAUSES, LEDGER_SCHEMA};
use std::fmt::Write as _;

/// A provenance query against a recorded ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Why does the N-th selected candidate (in candidate-index order)
    /// exist?
    Hub(usize),
    /// What happened to the merge subset with these constraint arcs?
    Candidate(Vec<u32>),
    /// Which selected candidate implements this constraint arc?
    Arc(u32),
}

/// Parses a `ccs-ledger-v1` document.
///
/// # Errors
///
/// A human-readable message when the text is not valid JSON, carries
/// the wrong schema tag, or is structurally malformed.
pub fn load_ledger(text: &str) -> Result<Ledger, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(json::Value::as_str) {
        Some(s) if s == LEDGER_SCHEMA => {}
        Some(other) => {
            return Err(format!(
                "expected a {LEDGER_SCHEMA} document, got {other:?}"
            ))
        }
        None => return Err(format!("missing \"schema\" key (expected {LEDGER_SCHEMA})")),
    }
    Ledger::from_json(&doc).ok_or_else(|| "malformed ledger document".to_string())
}

/// Answers `query` against `ledger`.
///
/// # Errors
///
/// A human-readable message when the query cannot be answered (e.g. a
/// hub index out of range). An answer of the form "this subset was
/// pruned" is a success, not an error.
pub fn explain(ledger: &Ledger, query: &Query) -> Result<String, String> {
    match query {
        Query::Hub(n) => explain_hub(ledger, *n),
        Query::Candidate(arcs) => Ok(explain_candidate(ledger, arcs)),
        Query::Arc(a) => Ok(explain_arc(ledger, *a)),
    }
}

/// The selected candidates, ordered by their candidate-slice index
/// (the `index=` detail tag both `placement.kept` and the covering
/// events carry).
fn selected_by_index(ledger: &Ledger) -> Vec<(usize, &DecisionEvent)> {
    let mut v: Vec<(usize, &DecisionEvent)> = ledger
        .cause(Cause::CoveringSelected)
        .events()
        .map(|e| (candidate_index(e).unwrap_or(usize::MAX), e))
        .collect();
    v.sort_by_key(|&(i, _)| i);
    v
}

fn candidate_index(e: &DecisionEvent) -> Option<usize> {
    e.detail_tag("index").and_then(|s| s.parse().ok())
}

fn arcs_list(arcs: &[u32]) -> String {
    let items: Vec<String> = arcs.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn explain_hub(ledger: &Ledger, n: usize) -> Result<String, String> {
    let selected = selected_by_index(ledger);
    if selected.is_empty() {
        return Err(
            "the ledger records no covering.selected events — was it written by a synth run?"
                .to_string(),
        );
    }
    let &(index, event) = selected.get(n).ok_or_else(|| {
        format!(
            "hub {n} out of range: {} selected candidates",
            selected.len()
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hub {n}: candidate index={index} implements arcs {} at cost {:.4}",
        arcs_list(&event.arcs),
        event.cost
    );
    let _ = writeln!(
        out,
        "  covering.selected: the exact cover solver chose it for the minimum-cost solution"
    );
    if event.arcs.len() <= 1 {
        let _ = writeln!(
            out,
            "  origin: point-to-point candidate (generated unconditionally for its arc)"
        );
        return Ok(out);
    }
    let kept = ledger
        .cause(Cause::PlacementKept)
        .events()
        .find(|e| candidate_index(e) == Some(index));
    match kept {
        Some(k) => {
            let _ = writeln!(
                out,
                "  placement.kept: merged cost {:.4} beat the members' sum {:.4}{}",
                k.cost,
                k.bound,
                k.detail_tag("k")
                    .map(|k| format!(" (k={k} merge)"))
                    .unwrap_or_default()
            );
        }
        None => {
            let rec = ledger.cause(Cause::PlacementKept);
            let _ = writeln!(
                out,
                "  placement.kept: event not in the sample ({} of {} kept decisions retained); \
                 the exact count stands",
                rec.sampled(),
                rec.count
            );
        }
    }
    Ok(out)
}

/// One human-readable line for a recorded decision about a subset.
fn describe(e: &DecisionEvent) -> String {
    let k = e
        .detail_tag("k")
        .map(|k| format!(" (k={k})"))
        .unwrap_or_default();
    match e.cause {
        Cause::MergingGeometryPruned => {
            format!("merging.geometry_pruned{k}: the distance test ruled the merge out")
        }
        Cause::MergingBandwidthPruned => format!(
            "merging.bandwidth_pruned{k}: trunk demand {:.1} Mb/s exceeds the fastest link {:.1} Mb/s",
            e.cost, e.bound
        ),
        Cause::MergingDeactivated => {
            format!("merging.deactivated{k}: the arc stopped participating in higher merge levels")
        }
        Cause::MergingTruncated => format!(
            "merging.truncated{k}: enumeration stopped at the candidate cap ({:.0} of {:.0})",
            e.cost, e.bound
        ),
        Cause::PlacementLbGated => format!(
            "placement.lb_gated{k}: lower bound {:.4} already reached the members' sum {:.4}, solve skipped",
            e.cost, e.bound
        ),
        Cause::PlacementInfeasible => format!(
            "placement.infeasible{k}: no feasible hub placement ({})",
            e.detail
                .split(',')
                .find(|t| !t.contains('='))
                .unwrap_or("unknown reason")
        ),
        Cause::PlacementDominated if e.detail.split(',').any(|t| t == "warm") => format!(
            "placement.dominated{k}: dominated (warm-certified): a certified lower bound {:.4} \
             on the merged cost did not beat the members' sum {:.4}, so no cold solve ran",
            e.cost, e.bound
        ),
        Cause::PlacementDominated => format!(
            "placement.dominated{k}: merged cost {:.4} did not beat the members' sum {:.4}",
            e.cost, e.bound
        ),
        Cause::PlacementKept => format!(
            "placement.kept{k}: merged cost {:.4} beat the members' sum {:.4}; entered the covering matrix as index={}",
            e.cost,
            e.bound,
            e.detail_tag("index").unwrap_or("?")
        ),
        Cause::CoveringSelected => format!(
            "covering.selected: chosen by the exact cover solver at cost {:.4} (index={})",
            e.cost,
            e.detail_tag("index").unwrap_or("?")
        ),
        Cause::CoveringRejected => format!(
            "covering.rejected: priced at {:.4} but a cheaper cover existed (index={})",
            e.cost,
            e.detail_tag("index").unwrap_or("?")
        ),
        Cause::NetsimBlackout => format!(
            "netsim.blackout: flow blacked out in simulation ({})",
            e.detail
        ),
        Cause::ResynthInvalidated => format!(
            "resynth.invalidated: cached result dropped by an edit ({})",
            e.detail
        ),
        Cause::ResynthReused => format!(
            "resynth.reused{k}: cached placement verdict reused untouched ({})",
            e.detail
                .split(',')
                .find(|t| !t.contains('='))
                .unwrap_or("verdict")
        ),
    }
}

fn explain_candidate(ledger: &Ledger, arcs: &[u32]) -> String {
    let mut subset = arcs.to_vec();
    subset.sort_unstable();
    subset.dedup();
    let mut out = format!("candidate {}:\n", arcs_list(&subset));
    let mut hits = 0usize;
    for cause in CAUSES {
        for e in ledger.cause(cause).events() {
            if e.arcs == subset {
                let _ = writeln!(out, "  {}", describe(e));
                hits += 1;
            }
        }
    }
    if hits > 0 {
        return out;
    }
    let _ = writeln!(out, "  no sampled event mentions this subset.");
    // The counts are exact even when the bounded sample dropped the
    // event — say where it could be hiding.
    let mut lossy = false;
    for cause in CAUSES {
        let rec = ledger.cause(cause);
        if (rec.sampled() as u64) < rec.count {
            let _ = writeln!(
                out,
                "  {}: {} events, {} sampled — the decision may be among the unsampled ones",
                cause.id(),
                rec.count,
                rec.sampled()
            );
            lossy = true;
        }
    }
    if !lossy {
        let _ = writeln!(
            out,
            "  every emitted event is in the sample: the pipeline never considered this subset \
             (it was likely never enumerated — check --max-k and the arc ids)"
        );
    }
    out
}

fn explain_arc(ledger: &Ledger, arc: u32) -> String {
    let mut out = format!("arc {arc}:\n");
    let mut any = false;
    for (index, e) in selected_by_index(ledger) {
        if e.arcs.contains(&arc) {
            let shared = if e.arcs.len() > 1 {
                format!("shared trunk with arcs {}", arcs_list(&e.arcs))
            } else {
                "dedicated point-to-point implementation".to_string()
            };
            let _ = writeln!(
                out,
                "  implemented by selected candidate index={index} at cost {:.4} ({shared})",
                e.cost
            );
            any = true;
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "  not covered by any selected candidate in this ledger"
        );
    }
    for e in ledger.cause(Cause::MergingDeactivated).events() {
        if e.arcs == [arc] {
            let _ = writeln!(out, "  {}", describe(e));
        }
    }
    for e in ledger.cause(Cause::NetsimBlackout).events() {
        if e.arcs == [arc] {
            let _ = writeln!(out, "  {}", describe(e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_obs::ledger::DEFAULT_CAP;

    fn sample_ledger() -> Ledger {
        let mut l = Ledger::new(DEFAULT_CAP);
        l.insert(DecisionEvent::new(
            Cause::MergingGeometryPruned,
            vec![0, 2],
            0.0,
            0.0,
            "k=2".to_string(),
        ));
        l.insert(DecisionEvent::new(
            Cause::PlacementKept,
            vec![0, 1],
            80.0,
            100.0,
            "k=2,index=2".to_string(),
        ));
        l.insert(DecisionEvent::new(
            Cause::CoveringSelected,
            vec![0, 1],
            80.0,
            0.0,
            "index=2".to_string(),
        ));
        l.insert(DecisionEvent::new(
            Cause::CoveringRejected,
            vec![0],
            60.0,
            0.0,
            "index=0".to_string(),
        ));
        l
    }

    #[test]
    fn dominated_events_say_how_they_were_decided() {
        let mut l = sample_ledger();
        for (arcs, detail) in [(vec![1, 2], "k=2,warm"), (vec![0, 2], "k=2")] {
            l.insert(DecisionEvent::new(
                Cause::PlacementDominated,
                arcs,
                120.0,
                100.0,
                detail.to_string(),
            ));
        }
        let warm = explain(&l, &Query::Candidate(vec![1, 2])).unwrap();
        assert!(warm.contains("(k=2): dominated (warm-certified)"), "{warm}");
        assert!(warm.contains("lower bound 120.0000"), "{warm}");
        let cold = explain(&l, &Query::Candidate(vec![0, 2])).unwrap();
        assert!(cold.contains("merged cost 120.0000 did not beat"), "{cold}");
        assert!(!cold.contains("warm"), "{cold}");
    }

    #[test]
    fn hub_query_walks_back_to_the_kept_event() {
        let l = sample_ledger();
        let out = explain(&l, &Query::Hub(0)).unwrap();
        assert!(out.contains("index=2"), "{out}");
        assert!(out.contains("covering.selected"), "{out}");
        assert!(out.contains("beat the members' sum 100.0000"), "{out}");
        assert!(explain(&l, &Query::Hub(5)).is_err());
    }

    #[test]
    fn candidate_query_replays_the_decision_chain() {
        let l = sample_ledger();
        let out = explain(&l, &Query::Candidate(vec![2, 0])).unwrap();
        assert!(out.contains("merging.geometry_pruned"), "{out}");
        let out = explain(&l, &Query::Candidate(vec![0, 1])).unwrap();
        assert!(out.contains("placement.kept"), "{out}");
        assert!(out.contains("covering.selected"), "{out}");
    }

    #[test]
    fn unseen_candidate_reports_the_sampling_caveat_or_absence() {
        let l = sample_ledger();
        let out = explain(&l, &Query::Candidate(vec![7, 8, 9])).unwrap();
        assert!(out.contains("no sampled event"), "{out}");
        assert!(out.contains("never considered"), "{out}");
    }

    #[test]
    fn arc_query_names_the_covering_candidate() {
        let l = sample_ledger();
        let out = explain(&l, &Query::Arc(1)).unwrap();
        assert!(out.contains("index=2"), "{out}");
        assert!(out.contains("shared trunk"), "{out}");
        let out = explain(&l, &Query::Arc(9)).unwrap();
        assert!(out.contains("not covered"), "{out}");
    }

    #[test]
    fn load_rejects_wrong_documents() {
        assert!(load_ledger("not json").is_err());
        assert!(load_ledger("{\"schema\":\"ccs-metrics-v1\"}").is_err());
        assert!(load_ledger("{}").is_err());
        let text = sample_ledger().to_json().to_string();
        let l = load_ledger(&text).unwrap();
        assert_eq!(l.cause(Cause::CoveringSelected).count, 1);
    }
}
