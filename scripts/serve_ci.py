#!/usr/bin/env python3
"""CI driver proving the `ccs serve` daemon under load.

Checks, in order:

1. **Concurrent equivalence** — 32 synth/analyze requests from 8
   parallel TCP connections; every response's topology / resilience /
   ledger document must be byte-identical (canonical JSON) to a
   one-shot `ccs synth` / `ccs analyze` run of the same instance.
2. **Queued-request cancellation** — with one worker slot, a request
   queued behind a long-running one is cancelled before it starts; its
   response is `"status": "cancelled"` with no body.
3. **In-flight cancellation** — a cancel landing while the pipeline is
   running aborts it cooperatively (no body, `cancelled` status).
4. **Graceful shutdown** — a `shutdown` request drains every queued
   request to a real response and is acknowledged last; the daemon
   exits 0.
5. **Stdin mode** — ping/shutdown over stdin/stdout JSON lines.
6. **Incremental re-synthesis sessions** — a named `resynth` session
   driven through an edit sequence over TCP; every step's warm
   topology must be byte-identical (canonical JSON) to a one-shot
   `ccs resynth --cold-check` run of the same edit prefix.
7. **Fleet telemetry** — `{"op":"stats"}` answered inline under the
   32-way load (served counts match, per-op p99 >= p50, windowed
   counts <= lifetime), a `ccs top --once --json` smoke test against
   a live daemon, and `--slow-ms 0 --slow-log` capturing every
   request to a valid `ccs-serve-slow-v1` JSONL.
8. **Hostile input** — over one TCP connection: 200k `[`, a synth whose
   port sits at 1e308, a line over the daemon's line cap, and a line
   that is not valid UTF-8. Each gets exactly one `error` response and
   the shutdown ack counts all four; afterwards `ping` answers and a
   normal synth is byte-identical to its one-shot run.

Usage: scripts/serve_ci.py path/to/ccs
"""

import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

CONNECTIONS = 8
REQUESTS_PER_CONNECTION = 4  # 32 total
SLOW_SEED, SLOW_CHANNELS = 7, 12  # ~0.5 s optimized: ample cancel window
MAX_LINE_BYTES = 1 << 20  # mirrors ccs::serve::MAX_LINE_BYTES


def run(argv, **kw):
    return subprocess.run(argv, check=True, capture_output=True, text=True, **kw).stdout


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Daemon:
    def __init__(self, ccs, workers, extra=()):
        self.proc = subprocess.Popen(
            [ccs, "serve", "--listen", "127.0.0.1:0", "--workers", str(workers), *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline().strip()
        prefix = "ccs serve: listening on "
        assert banner.startswith(prefix), f"unexpected banner: {banner!r}"
        host, port = banner[len(prefix):].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        return Conn(self.addr)

    def wait(self, timeout=60):
        out, err = self.proc.communicate(timeout=timeout)
        assert self.proc.returncode == 0, f"daemon exited {self.proc.returncode}: {err}"
        return err


class Conn:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr)
        self.reader = self.sock.makefile("r")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self):
        line = self.reader.readline()
        assert line, "daemon closed the connection"
        return json.loads(line)


def request(rid, kind, instance=None, library=None, **extra):
    req = {"schema": "ccs-request-v1", "id": rid, "kind": kind, **extra}
    if instance is not None:
        req["instance"] = instance
        req["library"] = library
    return req


def main():
    ccs = sys.argv[1]
    tmp = Path(tempfile.mkdtemp(prefix="serve-ci-"))
    library = run([ccs, "example", "library", "wan"])
    lib_file = tmp / "lib.ccs"
    lib_file.write_text(library)

    # --- reference one-shot runs -----------------------------------------
    # 8 distinct workloads; each is requested 4 times concurrently.
    seeds = list(range(300, 300 + CONNECTIONS))
    instances, references = {}, {}
    for i, seed in enumerate(seeds):
        inst = run([ccs, "gen", "wan", "--seed", str(seed), "--channels", "6"])
        instances[seed] = inst
        inst_file = tmp / f"i{seed}.ccs"
        inst_file.write_text(inst)
        metrics = tmp / f"m{seed}.json"
        ledger = tmp / f"l{seed}.json"
        kind = "analyze" if i % 2 else "synth"
        argv = [ccs, kind, "--instance", str(inst_file), "--library", str(lib_file),
                "--threads", "1", "--metrics-json", str(metrics), "--ledger", str(ledger)]
        if kind == "analyze":
            argv += ["--fail-k", "2", "--scenario-budget", "128"]
        run(argv)
        doc = json.loads(metrics.read_text())
        references[seed] = {
            "kind": kind,
            "topology": canonical(doc["topology"]),
            "resilience": canonical(doc["resilience"]) if kind == "analyze" else None,
            "ledger": canonical(json.loads(ledger.read_text())),
        }

    # --- 1. concurrent equivalence over TCP ------------------------------
    daemon = Daemon(ccs, workers=4)
    failures = []

    def client(c_idx):
        conn = daemon.connect()
        sent = []
        for j in range(REQUESTS_PER_CONNECTION):
            seed = seeds[(c_idx + j) % len(seeds)]
            ref = references[seed]
            rid = f"c{c_idx}-r{j}-s{seed}"
            req = request(rid, ref["kind"], instances[seed], library,
                          ledger=True, threads=2, priority=j % 3)
            if ref["kind"] == "analyze":
                req["fail_k"] = 2
                req["scenario_budget"] = 128
            conn.send(req)
            sent.append((rid, seed))
        got = {}
        for _ in sent:
            resp = conn.recv()
            got[resp["id"]] = resp
        for rid, seed in sent:
            ref, resp = references[seed], got.get(rid)
            try:
                assert resp is not None, f"{rid}: no response"
                assert resp["status"] == "ok", f"{rid}: {resp.get('error')}"
                assert canonical(resp["metrics"]["topology"]) == ref["topology"], \
                    f"{rid}: topology diverges from one-shot"
                if ref["resilience"] is not None:
                    assert canonical(resp["metrics"]["resilience"]) == ref["resilience"], \
                        f"{rid}: resilience diverges from one-shot"
                assert canonical(resp["ledger"]) == ref["ledger"], \
                    f"{rid}: ledger diverges from one-shot"
            except AssertionError as e:
                failures.append(str(e))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, "\n".join(failures)

    total = CONNECTIONS * REQUESTS_PER_CONNECTION

    # Fleet telemetry under load: a bare {"op":"stats"} line (no schema,
    # no id) is answered inline with per-op latency histograms covering
    # all 32 served requests.
    mon = daemon.connect()
    mon.send({"op": "stats"})
    stats_resp = mon.recv()
    assert stats_resp["status"] == "ok" and stats_resp["kind"] == "stats", stats_resp
    stats = stats_resp["stats"]
    assert stats["schema"] == "ccs-serve-stats-v1", stats
    assert stats["deterministic"] is False, stats
    assert stats["served"] == total, stats
    op_total = 0
    for op in ("synth", "analyze"):
        for metric in ("queue_wait", "run", "total"):
            lifetime = stats["ops"][op][metric]["lifetime"]
            for window in ("last_10s", "last_60s", "lifetime"):
                w = stats["ops"][op][metric][window]
                assert w["p50_ns"] <= w["p90_ns"] <= w["p99_ns"] <= w["max_ns"], (op, metric, w)
                assert w["count"] <= lifetime["count"], (op, metric, w)
        run_lifetime = stats["ops"][op]["run"]["lifetime"]
        assert run_lifetime["p99_ns"] >= run_lifetime["p50_ns"] > 0, (op, run_lifetime)
        op_total += stats["ops"][op]["total"]["lifetime"]["count"]
    assert op_total == total, op_total
    assert stats["cache"]["hits"] + stats["cache"]["misses"] == total, stats["cache"]
    assert stats["queue"]["inflight_hwm"] >= 1, stats["queue"]

    bye = daemon.connect()
    bye.send(request("bye", "shutdown"))
    ack = bye.recv()
    assert ack["kind"] == "shutdown" and ack["served"] == total, ack
    assert ack["uptime_ns"] > 0 and ack["inflight_hwm"] >= 1, ack
    assert ack["cache_hits"] + ack["cache_misses"] == total, ack
    daemon.wait()
    print(f"[1/8] {total} concurrent requests byte-identical to one-shot runs; "
          "stats answered inline under load")

    # --- 2. queued-request cancellation ----------------------------------
    slow = run([ccs, "gen", "wan", "--seed", str(SLOW_SEED),
                "--channels", str(SLOW_CHANNELS)])
    daemon = Daemon(ccs, workers=1)
    conn = daemon.connect()
    conn.send(request("slow", "synth", slow, library))
    conn.send(request("victim", "synth", instances[seeds[0]], library, ledger=True))
    conn.send(request("c1", "cancel", target="victim"))
    ack = conn.recv()
    assert ack["kind"] == "cancel" and ack["found"], ack
    slow_resp = conn.recv()
    assert slow_resp["id"] == "slow" and slow_resp["status"] == "ok", slow_resp
    victim = conn.recv()
    assert victim["id"] == "victim" and victim["status"] == "cancelled", victim
    for key in ("metrics", "ledger", "topology", "error"):
        assert key not in victim, f"cancelled response leaked {key!r}"
    print("[2/8] queued request cancelled before starting, no body")

    # --- 3. in-flight cancellation ---------------------------------------
    side = daemon.connect()
    cancelled_mid_run = False
    for attempt in range(5):
        rid = f"mid{attempt}"
        conn.send(request(rid, "synth", slow, library, ledger=True))
        time.sleep(0.1)
        side.send(request(f"c-{rid}", "cancel", target=rid))
        ack = side.recv()
        resp = conn.recv()
        if ack["found"]:
            assert resp["status"] == "cancelled", resp
            assert "metrics" not in resp and "ledger" not in resp, resp
            cancelled_mid_run = True
            break
        # The run finished before the cancel landed; it must have served.
        assert resp["status"] == "ok", resp
    assert cancelled_mid_run, "cancel never landed mid-run in 5 attempts"
    conn.send(request("bye", "shutdown"))
    daemon.wait()
    print("[3/8] in-flight request aborted cooperatively")

    # --- 4. graceful shutdown drains queued work -------------------------
    daemon = Daemon(ccs, workers=2)
    conn = daemon.connect()
    ids = [f"drain{i}" for i in range(6)]
    for i, rid in enumerate(ids):
        conn.send(request(rid, "synth", instances[seeds[i % len(seeds)]], library))
    conn.send(request("bye", "shutdown"))
    drained = [conn.recv() for _ in ids]
    assert all(r["status"] == "ok" for r in drained), drained
    assert sorted(r["id"] for r in drained) == sorted(ids)
    ack = conn.recv()
    assert ack["kind"] == "shutdown" and ack["served"] == len(ids), ack
    daemon.wait()
    print("[4/8] shutdown drained 6 queued requests, acknowledged last")

    # --- 5. stdin mode ----------------------------------------------------
    lines = "\n".join(json.dumps(r) for r in [
        request("p1", "ping"),
        request("s1", "synth", instances[seeds[0]], library),
        request("bye", "shutdown"),
    ])
    out = subprocess.run([ccs, "serve"], input=lines + "\n", capture_output=True,
                         text=True, check=True, timeout=60)
    docs = [json.loads(l) for l in out.stdout.splitlines() if l.strip()]
    assert [d["id"] for d in docs] == ["p1", "s1", "bye"], docs
    assert docs[0]["kind"] == "ping" and docs[1]["status"] == "ok", docs
    assert docs[2]["kind"] == "shutdown" and docs[2]["served"] == 1, docs
    print("[5/8] stdin mode: pure JSON-lines stdout, summary on stderr")

    # --- 6. incremental re-synthesis sessions ----------------------------
    # A named session driven through an edit sequence over TCP; every
    # step must match a one-shot `ccs resynth --cold-check` run of the
    # same edit prefix (which itself proves warm == cold in-process).
    seed = seeds[0]
    inst = instances[seed]
    inst_file = tmp / f"i{seed}.ccs"
    port_name = next(l.split()[1] for l in inst.splitlines() if l.startswith("port "))
    cli_specs = [
        ["--edit", "arc_rate:0:9.5"],
        ["--edit", "arc_bound:1:none"],
        ["--edit", f"move:{port_name}:3.5,-2.25"],
    ]
    wire_edits = [
        [{"op": "arc_rate", "arc": 0, "mbps": 9.5}],
        [{"op": "arc_bound", "arc": 1, "hops": None}],
        [{"op": "move", "port": port_name, "x": 3.5, "y": -2.25}],
    ]
    step_refs = []
    for k in range(len(cli_specs)):
        metrics = tmp / f"resynth{k}.json"
        argv = [ccs, "resynth", "--instance", str(inst_file), "--library", str(lib_file),
                "--threads", "1", "--cold-check", "--metrics-json", str(metrics)]
        for spec in cli_specs[:k + 1]:
            argv += spec
        out = run(argv)
        assert "cold check: warm topology byte-identical" in out, out
        step_refs.append(canonical(json.loads(metrics.read_text())["topology"]))

    daemon = Daemon(ccs, workers=2)
    conn = daemon.connect()
    conn.send(request("r0", "resynth", inst, library, session="edit-loop"))
    resp = conn.recv()
    assert resp["status"] == "ok" and resp["kind"] == "resynth", resp
    assert resp["session"] == "edit-loop", resp
    for k, edits in enumerate(wire_edits):
        conn.send(request(f"r{k + 1}", "resynth", session="edit-loop", edits=edits))
        resp = conn.recv()
        assert resp["status"] == "ok", resp
        assert canonical(resp["metrics"]["topology"]) == step_refs[k], \
            f"resynth step {k}: warm session topology diverges from cold CLI run"
    # A resynth against an unknown session (no instance attached) errors.
    conn.send(request("ghost", "resynth", session="no-such-session"))
    resp = conn.recv()
    assert resp["status"] == "error" and "session" in resp["error"], resp
    conn.send(request("bye", "shutdown"))
    ack = conn.recv()
    assert ack["kind"] == "shutdown", ack
    daemon.wait()
    print("[6/8] resynth session over TCP matches cold CLI runs at every edit step")

    # --- 7. fleet telemetry: ccs top + slow-request capture ---------------
    slow_log = tmp / "slow.jsonl"
    daemon = Daemon(ccs, workers=2,
                    extra=["--slow-ms", "0", "--slow-log", str(slow_log)])
    conn = daemon.connect()
    top_ids = [f"top{i}" for i in range(3)]
    for i, rid in enumerate(top_ids):
        conn.send(request(rid, "synth", instances[seeds[i]], library))
    for _ in top_ids:
        resp = conn.recv()
        assert resp["status"] == "ok", resp

    addr = f"{daemon.addr[0]}:{daemon.addr[1]}"
    top_json = json.loads(run([ccs, "top", addr, "--once", "--json"]))
    assert top_json["schema"] == "ccs-serve-stats-v1", top_json
    assert top_json["served"] == len(top_ids), top_json
    top_table = run([ccs, "top", addr, "--once"])
    assert "synth" in top_table and "served" in top_table, top_table

    conn.send(request("bye", "shutdown"))
    ack = conn.recv()
    assert ack["kind"] == "shutdown" and ack["served"] == len(top_ids), ack
    daemon.wait()

    # --slow-ms 0 means every request is "slow": one JSONL entry each,
    # with consistent timings and the response metrics embedded.
    entries = [json.loads(l) for l in slow_log.read_text().splitlines() if l.strip()]
    assert len(entries) == len(top_ids), entries
    assert sorted(e["id"] for e in entries) == sorted(top_ids), entries
    for e in entries:
        assert e["schema"] == "ccs-serve-slow-v1", e
        assert e["op"] == "synth" and e["status"] == "ok", e
        assert e["total_ns"] >= e["run_ns"] > 0, e
        assert e["total_ns"] >= e["queue_wait_ns"], e
        assert "metrics" in e, e
    print(f"[7/8] ccs top reads live stats; --slow-ms 0 captured "
          f"{len(entries)} slow-request entries")

    # --- 8. hostile input -------------------------------------------------
    # One worker: the far-port synth must fail as a typed error and leave
    # the only worker alive for the normal synth queued behind it.
    far = instances[seeds[0]].splitlines()
    port = next(i for i, l in enumerate(far) if l.startswith("port "))
    far[port] = f"port {far[port].split()[1]} 1e308 0"
    far = "\n".join(far) + "\n"
    expected_errors = {
        None: ["nesting too deep", "longer than", "not valid UTF-8"],
        "far": ["distances must be positive and finite"],
    }
    daemon = Daemon(ccs, workers=1)
    conn = daemon.connect()
    conn.send_raw(b"[" * 200_000 + b"\n")
    conn.send(request("far", "synth", far, library))
    conn.send_raw(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
    conn.send_raw(b'{"id":"\xff\xfe"}\n')
    conn.send(request("p8", "ping"))
    ref = references[seeds[0]]
    assert ref["kind"] == "synth", ref
    conn.send(request("ok8", "synth", instances[seeds[0]], library, ledger=True, threads=2))
    got = [conn.recv() for _ in range(6)]
    errors = {}
    for resp in got:
        if resp["status"] == "error":
            errors.setdefault(resp["id"], []).append(resp["error"])
    for rid, needles in expected_errors.items():
        messages = errors.get(rid, [])
        assert len(messages) == len(needles), (rid, messages)
        for needle in needles:
            assert sum(needle in m for m in messages) == 1, (rid, needle, messages)
    inline = [r for r in got if r["id"] in (None, "p8")]
    assert inline[-1]["id"] == "p8" and inline[-1]["kind"] == "ping", got
    ok = next(r for r in got if r["id"] == "ok8")
    assert ok["status"] == "ok", ok
    assert canonical(ok["metrics"]["topology"]) == ref["topology"], \
        "synth after hostile input diverges from one-shot"
    assert canonical(ok["ledger"]) == ref["ledger"], \
        "ledger after hostile input diverges from one-shot"
    conn.send(request("bye", "shutdown"))
    ack = conn.recv()
    bad_lines = sum(len(n) for n in expected_errors.values())
    assert ack["kind"] == "shutdown" and ack["errors"] == bad_lines, ack
    assert ack["served"] == 1, ack
    daemon.wait()
    print(f"[8/8] {bad_lines} hostile lines got one counted error each; "
          "ping and a byte-identical synth still answer")
    print("serve CI: all checks passed")


if __name__ == "__main__":
    main()
