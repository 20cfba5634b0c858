//! Hierarchical wall-clock profiler with deterministic call counts.
//!
//! The flat [`phase`](crate::phase) guard answers "how long did phase
//! X take in total"; this module answers "*where inside* X did the time
//! go, per thread". Instrumented code opens RAII [`scope`]s that nest
//! into a call tree:
//!
//! ```text
//! synthesize
//! ├── p2p
//! │   └── plan_arc        (once per arc, from worker threads)
//! ├── merging
//! │   ├── pairs
//! │   └── k3, k4, ...
//! ├── placement
//! │   ├── lb_gate         (once per surviving subset)
//! │   ├── warm_certify    (once per Euclidean subset past the gate)
//! │   └── solve_merge     (once per cold solve)
//! └── covering
//!     └── select
//! ```
//!
//! Every thread accumulates into a **thread-local** tree (no locks, no
//! contention on the hot path). Worker threads spawned by `ccs-exec`
//! wrap their run loop in a [`worker_scope`] carrying the spawning
//! thread's current path; on scope exit the worker's local tree is
//! grafted under that path into the process-global merged tree. Because
//! grafting is a commutative merge (sums, min, max) and every scope runs
//! exactly once per work item regardless of scheduling, the merged
//! tree's **structure and call counts are bit-identical for every
//! thread count** — only the nanosecond fields vary run to run. The
//! deterministic view is exposed separately as
//! [`ProfileNode::counts_json`].
//!
//! When the profiler is disabled (the default) a scope costs one
//! relaxed atomic load.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// Schema identifier of the `"profile"` section embedded in
/// `ccs-metrics-v1` documents.
pub const PROFILE_SCHEMA: &str = "ccs-profile-v1";

/// One node of the aggregated call tree.
///
/// The tree root handed out by [`stop`] is an anonymous container
/// (`calls == 0`); instrumented scopes appear as its descendants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Completed scopes aggregated into this node.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those scopes. For scopes
    /// executed concurrently by several workers this is the *sum* over
    /// workers, so it may exceed the parent's wall time.
    pub total_ns: u64,
    /// Fastest single execution (`u64::MAX` while `calls == 0`).
    pub min_ns: u64,
    /// Slowest single execution.
    pub max_ns: u64,
    /// Child scopes by name (sorted, so every rendering is
    /// deterministic given deterministic counts).
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// An empty node.
    pub const fn new() -> ProfileNode {
        ProfileNode {
            calls: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            children: BTreeMap::new(),
        }
    }

    /// Whether neither this node nor any descendant recorded a call.
    pub fn is_empty(&self) -> bool {
        self.calls == 0 && self.children.is_empty()
    }

    /// Adds one completed execution of `wall_ns` to this node.
    fn add_call(&mut self, wall_ns: u64) {
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(wall_ns);
        self.min_ns = self.min_ns.min(wall_ns);
        self.max_ns = self.max_ns.max(wall_ns);
    }

    /// The child for `name`, created empty on first use.
    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        // `entry` requires an owned key even on hits; probe first so the
        // steady state allocates nothing.
        if !self.children.contains_key(name) {
            self.children.insert(name.to_string(), ProfileNode::new());
        }
        self.children.get_mut(name).expect("just inserted")
    }

    /// Commutatively folds `other` into `self` (sums calls and totals,
    /// widens min/max, recurses into children).
    pub fn merge(&mut self, other: &ProfileNode) {
        self.calls += other.calls;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (name, child) in &other.children {
            self.child_mut(name).merge(child);
        }
    }

    /// Wall time not attributed to any child. Saturates at zero: a
    /// phase timed on one thread whose children ran on `N` workers can
    /// have more summed child time than own wall time.
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self
            .children
            .values()
            .fold(0u64, |acc, c| acc.saturating_add(c.total_ns));
        self.total_ns.saturating_sub(children)
    }

    /// Renders the full node (timings included) as JSON:
    /// `{"calls":…,"wall_ns":…,"self_ns":…,"min_ns":…,"max_ns":…,"children":{…}}`.
    pub fn to_json(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("calls".to_string(), Value::Num(self.calls as f64));
        obj.insert("wall_ns".to_string(), Value::Num(self.total_ns as f64));
        obj.insert("self_ns".to_string(), Value::Num(self.self_ns() as f64));
        let min = if self.calls == 0 { 0 } else { self.min_ns };
        obj.insert("min_ns".to_string(), Value::Num(min as f64));
        obj.insert("max_ns".to_string(), Value::Num(self.max_ns as f64));
        obj.insert(
            "children".to_string(),
            Value::Obj(
                self.children
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        );
        Value::Obj(obj)
    }

    /// Renders only the scheduling-independent fields — names and call
    /// counts. Two runs of the same workload produce byte-identical
    /// `counts_json` output for **any** thread counts; CI diffs this
    /// view.
    pub fn counts_json(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("calls".to_string(), Value::Num(self.calls as f64));
        obj.insert(
            "children".to_string(),
            Value::Obj(
                self.children
                    .iter()
                    .map(|(k, v)| (k.clone(), v.counts_json()))
                    .collect(),
            ),
        );
        Value::Obj(obj)
    }

    /// Writes the tree in folded-stack format (`a;b;c <self_ns>`, one
    /// line per node, children in sorted order) — the input format of
    /// flamegraph renderers. `self` is treated as the anonymous root
    /// and contributes no frame. Frame names are sanitized: `;` is the
    /// format's stack separator and the final space separates the
    /// count, so those characters (and all other whitespace) are
    /// rewritten to `_` rather than corrupting the row structure.
    pub fn write_folded(&self, out: &mut String) {
        for (name, child) in &self.children {
            child.folded_into(&folded_frame(name), out);
        }
    }

    fn folded_into(&self, prefix: &str, out: &mut String) {
        out.push_str(prefix);
        out.push(' ');
        out.push_str(&self.self_ns().to_string());
        out.push('\n');
        for (name, child) in &self.children {
            child.folded_into(&format!("{prefix};{}", folded_frame(name)), out);
        }
    }

    /// Parses a node previously rendered by [`ProfileNode::to_json`].
    /// Returns `None`
    /// on a malformed document.
    pub fn from_json(value: &Value) -> Option<ProfileNode> {
        let mut node = ProfileNode::new();
        node.calls = value.get("calls")?.as_num()? as u64;
        node.total_ns = value.get("wall_ns")?.as_num()? as u64;
        node.max_ns = value.get("max_ns")?.as_num()? as u64;
        let min = value.get("min_ns")?.as_num()? as u64;
        node.min_ns = if node.calls == 0 { u64::MAX } else { min };
        for (name, child) in value.get("children")?.as_obj()? {
            node.children
                .insert(name.clone(), ProfileNode::from_json(child)?);
        }
        Some(node)
    }
}

impl Default for ProfileNode {
    fn default() -> Self {
        ProfileNode::new()
    }
}

/// A frame name made safe for folded-stack rows: `;` and whitespace
/// are structural in that format, so they become `_`. Clean names are
/// borrowed unchanged.
fn folded_frame(name: &str) -> Cow<'_, str> {
    if name.contains(|c: char| c == ';' || c.is_whitespace()) {
        Cow::Owned(
            name.chars()
                .map(|c| {
                    if c == ';' || c.is_whitespace() {
                        '_'
                    } else {
                        c
                    }
                })
                .collect(),
        )
    } else {
        Cow::Borrowed(name)
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static MERGED: Mutex<ProfileNode> = Mutex::new(ProfileNode::new());

struct LocalProfile {
    /// Path in the global tree this thread's local root grafts under
    /// (empty on the main thread, the spawner's path on exec workers).
    base: Vec<String>,
    /// Names of the currently open scopes, outermost first.
    stack: Vec<Cow<'static, str>>,
    /// The tree accumulated by this thread since its last flush.
    root: ProfileNode,
}

thread_local! {
    static LOCAL: RefCell<LocalProfile> = const {
        RefCell::new(LocalProfile {
            base: Vec::new(),
            stack: Vec::new(),
            root: ProfileNode::new(),
        })
    };
}

/// Whether the profiler is collecting. One relaxed load.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Resets all profiler state (global tree and the calling thread's
/// local tree) and starts collecting.
pub fn start() {
    *MERGED.lock().unwrap_or_else(|e| e.into_inner()) = ProfileNode::new();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.base.clear();
        l.stack.clear();
        l.root = ProfileNode::new();
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Stops collecting and returns the merged tree (the calling thread's
/// local tree is flushed first; exec workers flushed theirs when their
/// [`worker_scope`] dropped).
pub fn stop() -> ProfileNode {
    ACTIVE.store(false, Ordering::Release);
    flush_local();
    std::mem::take(&mut *MERGED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Opens a profiling scope; time from now until the guard drops is
/// recorded under `name`, nested inside every currently open scope on
/// this thread. A no-op when the profiler is inactive.
#[inline]
#[must_use = "a scope measures until it is dropped"]
pub fn scope(name: &'static str) -> ProfileScope {
    scope_cow(Cow::Borrowed(name))
}

/// [`scope`] with a runtime-built name (e.g. a per-level `k3`, `k4`).
#[inline]
#[must_use = "a scope measures until it is dropped"]
pub fn scope_owned(name: String) -> ProfileScope {
    scope_cow(Cow::Owned(name))
}

fn scope_cow(name: Cow<'static, str>) -> ProfileScope {
    if !is_active() {
        return ProfileScope { start: None };
    }
    LOCAL.with(|l| l.borrow_mut().stack.push(name));
    ProfileScope {
        start: Some(Instant::now()),
    }
}

/// RAII guard created by [`scope`]; records its duration on drop —
/// including drops during panic unwinding, so a panicking phase still
/// contributes to the profile.
#[derive(Debug)]
pub struct ProfileScope {
    pub(crate) start: Option<Instant>,
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let LocalProfile { stack, root, .. } = &mut *l;
            // The matching push happened at creation; the stack can only
            // be empty if the profiler was restarted mid-scope.
            let Some(name) = stack.pop() else { return };
            if !is_active() {
                return;
            }
            let mut node = &mut *root;
            for part in stack.iter() {
                node = node.child_mut(part);
            }
            node.child_mut(&name).add_call(wall_ns);
        });
    }
}

/// The calling thread's current profile path (graft base plus open
/// scopes, outermost first). Capture this before spawning workers and
/// hand it to each worker's [`worker_scope`] so their subtrees land in
/// the same place a serial run would put them. Empty when inactive.
pub fn current_path() -> Vec<String> {
    if !is_active() {
        return Vec::new();
    }
    LOCAL.with(|l| {
        let l = l.borrow();
        l.base
            .iter()
            .cloned()
            .chain(l.stack.iter().map(|c| c.to_string()))
            .collect()
    })
}

/// RAII registration of a worker thread: scopes opened while the guard
/// lives nest under `base`, and the worker's local tree is flushed into
/// the global tree when the guard drops (normally or during unwind).
#[must_use = "a worker's tree is flushed when the guard drops"]
#[derive(Debug)]
pub struct WorkerScope {
    active: bool,
}

/// See [`WorkerScope`]. A no-op when the profiler is inactive.
pub fn worker_scope(base: Vec<String>) -> WorkerScope {
    if !is_active() {
        return WorkerScope { active: false };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.base = base;
        l.stack.clear();
        l.root = ProfileNode::new();
    });
    WorkerScope { active: true }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        if self.active {
            flush_local();
        }
    }
}

/// Grafts the calling thread's local tree under its base path in the
/// global merged tree and clears the local state.
fn flush_local() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let local = std::mem::take(&mut l.root);
        let base = std::mem::take(&mut l.base);
        l.stack.clear();
        if local.is_empty() {
            return;
        }
        let mut merged = MERGED.lock().unwrap_or_else(|e| e.into_inner());
        let mut target = &mut *merged;
        for name in &base {
            target = target.child_mut(name);
        }
        for (name, child) in &local.children {
            target.child_mut(name).merge(child);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Profiler state is process-global; tests must not interleave
    // (with each other, nor with the phase tests in the crate root).
    use crate::tests::exclusive;

    #[test]
    fn inactive_scopes_record_nothing() {
        let _guard = exclusive();
        ACTIVE.store(false, Ordering::Release);
        {
            let _s = scope("ignored");
        }
        start();
        let tree = stop();
        assert!(tree.is_empty());
    }

    #[test]
    fn scopes_nest_into_a_tree() {
        let _guard = exclusive();
        start();
        {
            let _outer = scope("outer");
            for _ in 0..3 {
                let _inner = scope("inner");
            }
            let _other = scope_owned("k3".to_string());
        }
        let tree = stop();
        let outer = &tree.children["outer"];
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.children["inner"].calls, 3);
        assert_eq!(outer.children["k3"].calls, 1);
        assert!(outer.total_ns >= outer.children["inner"].total_ns);
        assert!(outer.children["inner"].min_ns <= outer.children["inner"].max_ns);
    }

    #[test]
    fn worker_trees_graft_under_the_captured_path() {
        let _guard = exclusive();
        start();
        {
            let _phase = scope("phase");
            let base = current_path();
            assert_eq!(base, vec!["phase".to_string()]);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let base = base.clone();
                    s.spawn(move || {
                        let _w = worker_scope(base);
                        for _ in 0..5 {
                            let _item = scope("item");
                        }
                    });
                }
            });
            // Serial share on the spawning thread as well.
            let _item = scope("item");
        }
        let tree = stop();
        let phase = &tree.children["phase"];
        assert_eq!(phase.calls, 1);
        assert_eq!(phase.children["item"].calls, 11);
    }

    #[test]
    fn merge_is_commutative_on_counts() {
        let mut a = ProfileNode::new();
        a.child_mut("x").add_call(10);
        a.child_mut("x").child_mut("y").add_call(5);
        let mut b = ProfileNode::new();
        b.child_mut("x").add_call(20);
        b.child_mut("z").add_call(1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.children["x"].calls, 2);
        assert_eq!(ab.children["x"].total_ns, 30);
        assert_eq!(ab.children["x"].min_ns, 10);
        assert_eq!(ab.children["x"].max_ns, 20);
    }

    #[test]
    fn scope_records_during_panic_unwind() {
        let _guard = exclusive();
        start();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = scope("panicking");
            let _inner = scope("inner");
            panic!("boom");
        }));
        assert!(r.is_err());
        let tree = stop();
        assert_eq!(tree.children["panicking"].calls, 1);
        assert_eq!(tree.children["panicking"].children["inner"].calls, 1);
    }

    #[test]
    fn json_round_trip_and_counts_view() {
        let mut root = ProfileNode::new();
        root.child_mut("a").add_call(100);
        root.child_mut("a").child_mut("b").add_call(40);
        root.child_mut("a").child_mut("b").add_call(20);

        let doc = root.to_json();
        assert_eq!(ProfileNode::from_json(&doc), Some(root.clone()));

        let a = doc.get("children").unwrap().get("a").unwrap();
        assert_eq!(a.get("wall_ns").and_then(Value::as_num), Some(100.0));
        assert_eq!(a.get("self_ns").and_then(Value::as_num), Some(40.0));

        let counts = root.counts_json();
        let mut s = String::new();
        counts.write_compact(&mut s);
        assert!(!s.contains("ns"), "counts view must carry no timings: {s}");
        assert!(s.contains("\"calls\":2"));
    }

    #[test]
    fn folded_output_lists_every_stack() {
        let mut root = ProfileNode::new();
        root.child_mut("synth").add_call(100);
        root.child_mut("synth").child_mut("p2p").add_call(30);
        root.child_mut("synth")
            .child_mut("p2p")
            .child_mut("plan")
            .add_call(25);
        let mut out = String::new();
        root.write_folded(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec!["synth 70", "synth;p2p 5", "synth;p2p;plan 25"],
            "{out}"
        );
    }

    #[test]
    fn folded_output_escapes_separator_and_whitespace_in_frame_names() {
        let mut root = ProfileNode::new();
        root.child_mut("a;b c").add_call(40);
        root.child_mut("a;b c").child_mut("tab\tname").add_call(15);
        let mut out = String::new();
        root.write_folded(&mut out);
        assert_eq!(
            out.lines().collect::<Vec<_>>(),
            vec!["a_b_c 25", "a_b_c;tab_name 15",]
        );
        // Every row still splits into exactly (stack, count).
        for line in out.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("one separating space");
            assert!(!stack.contains(' ') && !stack.contains('\t'));
            count.parse::<u64>().expect("numeric sample count");
        }
    }

    #[test]
    fn self_ns_saturates_when_children_exceed_parent() {
        let mut root = ProfileNode::new();
        root.child_mut("phase").add_call(100);
        // Four workers each spent 80ns — more summed time than the
        // phase's wall clock.
        for _ in 0..4 {
            root.child_mut("phase").child_mut("item").add_call(80);
        }
        assert_eq!(root.children["phase"].self_ns(), 0);
    }
}
