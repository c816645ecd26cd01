"""Serve workload: a durable ``repro serve --wal-dir`` daemon under a
closed loop.

Each session starts a fresh daemon in its own process with an empty
WAL directory, times spawn -> ``ready`` (set-up), then drives it from
this process over the manifest's ``connections`` (2).  A connection
sends its next request only after the previous one's ``done``: callers
wait for their schedule.  One more connection polls ``health``, so a
run in which the overload ladder leaves L0 -- an L2 brownout switches
builder chains, which would measure a different program -- fails.

The traced run adds an in-process replay of one pass of the mix
through the public serve functions (wire codec, ``request_blocks``,
``run_request``, ``WriteAheadLog.log_*``) and the layer-by-layer
replay of the blocks they expand to.
"""

from __future__ import annotations

import asyncio
import gc
import os
import signal
import subprocess
import sys
import time
from statistics import median
from time import perf_counter

import inputs
import layers
from common import (BenchError, child_env, cpu_seconds, percentile,
                    pin_to_one_cpu)
from workclock import WorkClock, at_reference

#: a daemon that is not ready this long after spawn fails the run
READY_TIMEOUT_S = 30.0
#: no single request may take longer than this (client side)
REQUEST_TIMEOUT_S = 30.0
#: how often the overload level is polled
POLL_S = 0.2
#: a SIGTERM'd daemon must drain and exit within this
STOP_TIMEOUT_S = 20.0


def run(spec: dict, seed: int, seconds: float, trace: bool,
        workdir: str, src: str) -> tuple[list[str], int, int, dict]:
    from repro.cli import MACHINES

    machine = MACHINES["sparc"]()
    mix = inputs.serve_mix(seed, spec["requests_per_pass"], spec["tenants"])
    root = os.getcwd()
    env = child_env(src)
    # The daemon inherits this, so it and the client's work clock share
    # one vCPU (its Python work holds one lock anyway).
    pin_to_one_cpu()
    sessions = 1 if trace else spec["sessions"]
    load_s = seconds / spec["sessions"]
    results = [asyncio.run(_session(root, env, mix, spec["connections"],
                                    load_s, workdir, k))
               for k in range(sessions)]

    problems: list[str] = []
    reference: dict[int, str] = {}
    makespans = {s["pass_makespan"] for s in results} - {None}
    if len(makespans) > 1:
        problems.append(f"pass makespans differ: {sorted(makespans)}")
    for session in results:
        problems.extend(session["problems"])
        for index, result in session["digests"]:
            first = reference.setdefault(index, result)
            if result != first:
                problems.append(f"request {index}: schedules differ "
                                f"between passes")
    checked, failures = _verify(mix, results, machine)
    problems.extend(failures)

    sent = sum(s["sent"] for s in results)
    ok = sum(s["ok"] for s in results)
    # every session of a run sends the same mix, so their requests
    # pool into one sample and the tail rests on more of them
    latencies = [t for s in results for t in s["latencies"]]
    if trace:
        replay = _replay(mix, machine, workdir)
        for index, result in replay["digests"]:
            if reference.get(index, result) != result:
                problems.append(f"request {index}: replay schedules differ "
                                f"from the daemon's")
        stats = results[0]["stats"]
        cache = stats["cache"]
        lookups = cache["hits"] + cache["misses"]
        values = {
            **replay["values"],
            # raw walls on both sides, as every per-layer time is
            "serve.overhead_ms":
                percentile(results[0]["raw_latencies"], 0.50) * 1e3
                - replay["values"]["serve.engine_ms"],
            "serve.queue_depth_max":
                stats["admission"]["occupancy_high_water"],
            "serve.rejected": stats["admission"]["rejected_total"],
            "serve.overload_max_level": results[0]["max_level"],
            "dag.cache_hit_ratio":
                cache["hits"] / lookups if lookups else 0.0,
            "verify.blocks_checked": checked,
        }
    else:
        walls = [w for s in results for w in s["pass_walls"]]
        if not walls:
            raise BenchError(f"no session completed a pass of the "
                             f"{len(mix)}-request mix; raise --seconds")
        busy = sum(s["busy_s"] for s in results)
        values = {
            "setup_s": median([s["setup_s"] for s in results]),
            "compile_s": median(walls),
            "makespan_cycles": results[0]["pass_makespan"],
            "ok_frac": ok / max(1, sent),
            "peak_rss_mb": median([s["rss_mb"] for s in results]),
            "req_p50_ms": percentile(latencies, 0.50) * 1e3,
            "req_p99_ms": percentile(latencies, 0.99) * 1e3,
            "req_per_s": ok / busy,
        }
    setups = ", ".join(f"{s['setup_s']:.3f}" for s in results)
    setup_walls = ", ".join(f"{s['setup_wall']:.3f}" for s in results)
    print(f"# setup_s samples: {setups}; raw walls: {setup_walls}")
    print(f"# {sent} requests in {sessions} session(s), {ok} ok; "
          f"{len(reference)} of {len(mix)} mix requests seen, {checked} "
          f"distinct blocks verified")
    for failure in sorted({f for s in results for f in s["failed"]})[:5]:
        print(f"# failed request: {failure}")
    return problems, sent, sent - ok + len(failures), values


# -- one live session ---------------------------------------------------------


async def _session(root: str, env: dict, mix: list[dict], connections: int,
                   load_s: float, workdir: str, k: int) -> dict:
    from repro.serve import protocol

    wal_dir = os.path.join(workdir, f"wal{k}")
    os.makedirs(wal_dir)
    sock = os.path.relpath(os.path.join(workdir, f"s{k}.sock"), root)
    log_path = os.path.join(workdir, f"daemon{k}.log")
    out = {"problems": [], "failed": [], "sent": 0, "ok": 0,
           "max_level": 0, "blocks": {}, "digests": []}
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--address", f"unix:{sock}", "--wal-dir", wal_dir],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            monitor = await _wait_ready(sock, proc, t_spawn)
            out["setup_wall"] = perf_counter() - t_spawn
            out["setup_s"] = at_reference(cpu_seconds(proc.pid))
            conns = [await _open(sock) for _ in range(connections)]
            await _closed_loop(protocol, conns, monitor, mix, load_s, out)
            out["stats"] = await _op(protocol, monitor, "stats")
            for _, writer in conns + [monitor]:
                writer.close()
        finally:
            code, out["rss_mb"] = _stop(proc)
    with open(log_path, encoding="utf-8") as log:
        drained = "drained, all requests accounted" in log.read()
    server = out["stats"]["server"]
    if code != 0 or not drained:
        out["problems"].append(f"daemon {k} exited {code} without a clean "
                               f"drain")
    if not server["accounted"] or server["duplicate_blocks"]:
        out["problems"].append(f"daemon {k} stats: accounted="
                               f"{server['accounted']}, duplicate_blocks="
                               f"{server['duplicate_blocks']}")
    level = out["stats"]["overload"].get("max_level", 0)
    out["max_level"] = max(out["max_level"], level)
    if out["max_level"]:
        out["problems"].append(f"daemon {k}: overload ladder reached "
                               f"L{out['max_level']}")
    return out


async def _open(sock: str):
    from repro.serve.protocol import MAX_LINE_BYTES

    return await asyncio.open_unix_connection(sock, limit=MAX_LINE_BYTES)


async def _op(protocol, conn, op: str) -> dict:
    reader, writer = conn
    writer.write(protocol.encode({"op": op}))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
    if not line:
        raise BenchError(f"daemon closed the connection on {op!r}")
    return protocol.decode(line)


async def _wait_ready(sock: str, proc, t_spawn: float):
    from repro.serve import protocol

    while perf_counter() - t_spawn < READY_TIMEOUT_S:
        if proc.poll() is not None:
            raise BenchError(f"daemon exited {proc.returncode} at start")
        try:
            conn = await _open(sock)
        except (FileNotFoundError, ConnectionRefusedError):
            await asyncio.sleep(0.005)
            continue
        if (await _op(protocol, conn, "ready")).get("ok"):
            return conn
        conn[1].close()
        await asyncio.sleep(0.005)
    raise BenchError(f"daemon not ready after {READY_TIMEOUT_S:.0f}s")


async def _closed_loop(protocol, conns, monitor, mix: list[dict],
                       load_s: float, out: dict) -> None:
    """Drive the mix over ``conns`` until ``load_s`` has passed and
    the whole mix has been sent at least once.

    Times are taken on a ``WorkClock``: this process shares its vCPU
    with the daemon (``run`` pins both), so the clock's probe reads the
    speed of the CPU the daemon runs on.
    """
    n = len(mix)
    state = {"next": 0, "stop": False}
    sends: dict[int, float] = {}
    ends: dict[int, float] = {}
    replies: dict[int, list[dict]] = {}
    makespans: dict[int, int] = {}
    t_end = perf_counter() + load_s

    async def client(conn) -> None:
        while perf_counter() < t_end or state["next"] < n:
            seq = state["next"]
            state["next"] += 1
            message = dict(mix[seq % n])
            message["id"] = f"{message['id']}-{seq // n}"
            message["trace"] = f"{message['trace']}-{seq // n}"
            sends[seq] = clock.now()
            status, blocks, summary = await _request(protocol, conn,
                                                     message)
            ends[seq] = clock.now()
            out["sent"] += 1
            if status != "ok":
                out["failed"].append(status)
                continue
            out["ok"] += 1
            replies[seq] = blocks
            makespans[seq] = summary["makespan"]

    async def poll() -> None:
        while not state["stop"]:
            health = await _op(protocol, monitor, "health")
            level = health.get("overload", {}).get("level", 0)
            out["max_level"] = max(out["max_level"], level)
            await asyncio.sleep(POLL_S)

    # The client's own collector pauses would land in the measured
    # latencies; this process allocates little while the loop runs.
    gc.disable()
    try:
        with WorkClock() as clock:
            t_start = clock.now()
            poller = asyncio.ensure_future(poll())
            try:
                await asyncio.gather(*(client(conn) for conn in conns))
            finally:
                state["stop"] = True
                await poller
    finally:
        gc.enable()
    out["latencies"] = [clock.seconds(sends[seq], ends[seq])
                        for seq in sorted(replies)]
    out["raw_latencies"] = [ends[seq] - sends[seq] for seq in sorted(replies)]
    for seq, blocks in sorted(replies.items()):
        lines = [layers.schedule_line(b["index"], b["builder"], b["order"],
                                      b["makespan"], None) for b in blocks]
        out["digests"].append((seq % n, layers.digest(lines)))
        out["blocks"].setdefault(seq % n, lines)
    out["busy_s"] = clock.seconds(t_start, max(ends.values(),
                                               default=t_start))
    out["pass_walls"] = []
    out["pass_makespan"] = None
    for p in range(state["next"] // n):
        seqs = range(p * n, (p + 1) * n)
        if all(s in makespans for s in seqs):
            out["pass_walls"].append(clock.seconds(
                min(sends[s] for s in seqs), max(ends[s] for s in seqs)))
            total = sum(makespans[s] for s in seqs)
            if out["pass_makespan"] not in (None, total):
                out["problems"].append("pass makespans differ")
            out["pass_makespan"] = total


async def _request(protocol, conn, message: dict):
    """Send one request; read its frames up to the terminal one."""
    reader, writer = conn
    writer.write(protocol.encode(message))
    await writer.drain()
    blocks = []
    while True:
        line = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
        if not line:
            return "disconnected", blocks, None
        frame = protocol.decode(line)
        if frame.get("id") != message["id"]:
            continue
        kind = frame.get("type")
        if kind == "block":
            blocks.append(frame["block"])
        elif kind == "done":
            summary = frame["summary"]
            if summary["shed"] or summary["degraded"] \
                    or summary["quarantined"]:
                return "incomplete", blocks, summary
            if summary.get("deadline_met") is False:
                return "deadline-missed", blocks, summary
            return "ok", blocks, summary
        elif kind in ("rejected", "error"):
            return f"{kind}:{frame.get('reason') or frame.get('error')}", \
                blocks, None


def _stop(proc) -> tuple[int, float]:
    """SIGTERM the daemon, reap it; return (exit code, peak RSS MB)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -- checks and the traced replay ---------------------------------------------


def _expand(message: dict):
    from repro.serve.engine import request_blocks
    from repro.serve.protocol import ScheduleRequest

    return request_blocks(ScheduleRequest.from_message(message))


def _verify(mix: list[dict], results: list[dict],
            machine) -> tuple[int, list[str]]:
    """``verify_schedule`` on every block of every distinct request;
    returns (blocks checked, failures)."""
    problems = []
    seen = set()
    checked = 0
    for session in results:
        for index, lines in session["blocks"].items():
            workload = mix[index]["workload"]
            shape = (workload["kernel"], workload["copies"])
            if shape in seen:
                continue
            seen.add(shape)
            n, _, failures = layers.verify_lines(_expand(mix[index]), lines,
                                                 machine, None)
            checked += n
            problems.extend(f"request {index}: {f}" for f in failures)
    return checked, problems


def _replay(mix: list[dict], machine, workdir: str) -> dict:
    """One pass of the mix through the public serve functions."""
    from repro.dag.builders import PairwiseCache
    from repro.runner import DEFAULT_CHAIN
    from repro.serve import protocol
    from repro.serve.engine import request_blocks, run_request
    from repro.serve.wal import FINISHED_OK, WriteAheadLog

    wal, _ = WriteAheadLog.open(os.path.join(workdir, "replay.wal"))
    cache = PairwiseCache(max_entries=512)
    codec, expand, engine, appends = [], [], [], []
    digests, all_blocks = [], []
    try:
        for index, message in enumerate(mix):
            key = f"replay-{index}"
            t = perf_counter()
            request = protocol.ScheduleRequest.from_message(
                protocol.decode(protocol.encode(message)))
            codec_s = perf_counter() - t
            t = perf_counter()
            blocks = request_blocks(request)
            expand.append(perf_counter() - t)
            all_blocks.extend(blocks)
            t = perf_counter()
            wal.log_accepted(key, dict(message, key=key), len(blocks))
            wal_s = perf_counter() - t
            frames: list[dict] = []
            t = perf_counter()
            summary = run_request(request, machine, blocks, frames.append,
                                  cache=cache)
            engine.append(perf_counter() - t)
            frames.append(protocol.done_frame(request.id, summary,
                                              trace=request.trace))
            lines = []
            for frame in frames:
                if frame["type"] == "block":
                    t = perf_counter()
                    wal.log_block(key, frame["block"])
                    wal_s += perf_counter() - t
                    b = frame["block"]
                    lines.append(layers.schedule_line(
                        b["index"], b["builder"], b["order"], b["makespan"],
                        None))
                t = perf_counter()
                protocol.decode(protocol.encode(frame))
                codec_s += perf_counter() - t
            t = perf_counter()
            wal.log_finished(key, FINISHED_OK, summary)
            appends.append(wal_s + perf_counter() - t)
            codec.append(codec_s)
            digests.append((index, layers.digest(lines)))
    finally:
        wal.close()
    rep = layers.replay(all_blocks, machine, DEFAULT_CHAIN,
                        PairwiseCache(max_entries=512), False)
    values = {
        "serve.codec_us": median(codec) * 1e6,
        "serve.expand_ms": median(expand) * 1e3,
        "serve.engine_ms": median(engine) * 1e3,
        "serve.wal_append_ms": median(appends) * 1e3,
        **rep["layers"],
        **{f"dag.{c}": rep["counters"][c] for c in layers.COUNTERS},
        "runner.overhead_s": sum(engine) - sum(rep["layers"].values()),
        "runner.attempts_per_block": rep["attempts"] / max(1, rep["blocks"]),
        "runner.jobs_speedup": 1.0,
    }
    return {"values": values, "digests": digests}
