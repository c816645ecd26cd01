"""``repro report``: paper-style tables from a journal and/or metrics.

The paper's evaluation is three tables -- Table 3 (benchmark
structure), Table 4 (the ``n**2`` construction work), Table 5 (table
building and end-to-end run times) -- and this module reconstructs
their shape from the artifacts a run leaves behind:

* a **run journal** (:mod:`repro.runner.journal` JSONL) supplies
  per-block outcomes: accepted builder, makespans, every fallback
  attempt, and (since the field was added) per-block wall-clock
  seconds, from which Table 5-style run times are rebuilt per builder;
* a **metrics snapshot** (:func:`repro.obs.metrics.write_metrics`
  JSON) supplies the exact work counters: comparisons, table probes,
  alias checks, bitmap operations and words touched, block structure,
  and cache activity.

Either input works alone; together the report is complete.  Output is
a plain JSON-ready dict (:func:`report_from`) and a Markdown rendering
(:func:`render_markdown`), wired to the CLI as ``repro report``.
"""

from __future__ import annotations

from repro.errors import ReproError

#: journal block records missing a field (old journals) show this
_ABSENT = None


def load_journal_blocks(path: str) -> list[dict]:
    """Read a run journal's block records (header skipped).

    Uses the same hardened line reader as
    :meth:`repro.runner.journal.RunJournal.load` -- v1 plain-JSON and
    v2 CRC-framed lines both parse, the torn final line of a killed
    run is tolerated, and interior damage (CRC mismatch, truncated
    frame, unparseable line) raises -- but does not demand a
    fingerprint match: a report is read-only archaeology.

    Raises:
        ReproError: when the file is unreadable, has no journal
            header, or is damaged anywhere but the torn tail.
    """
    # Imported lazily: repro.obs is imported by low-level modules that
    # repro.runner's package init itself depends on.
    from repro.runner.journal import (
        DAMAGE_TORN_TAIL,
        parse_record_line,
        scan_lines,
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ReproError(f"cannot read journal {path!r}: {exc}")
    if not lines:
        raise ReproError(f"journal {path!r} is empty")
    header, _, _ = parse_record_line(lines[0])
    if header is None or header.get("type") != "header":
        raise ReproError(f"{path!r} does not look like a run journal "
                         f"(missing header line)")
    records, damage = scan_lines(lines[1:], first_lineno=2)
    for defect in damage:
        if defect.kind == DAMAGE_TORN_TAIL:
            continue  # torn final write of a killed run
        raise ReproError(
            f"journal {path!r} is corrupt at line {defect.lineno}: "
            f"{defect.kind}: {defect.detail}; "
            f"run 'repro fsck' to classify and repair")
    return [record for _, record in records
            if record.get("type") in ("block", "quarantined")]


def _values(snapshot: dict | None, name: str) -> dict:
    """One metric's values dict, searching both snapshot sections."""
    if snapshot is None:
        return {}
    for section in ("stable", "volatile"):
        metric = snapshot.get(section, {}).get(name)
        if metric is not None:
            return metric.get("values", {})
    return {}


def _scalar(snapshot: dict | None, name: str, default=None):
    """An unlabelled metric's single value."""
    return _values(snapshot, name).get("", default)


def _per_builder(snapshot: dict | None, name: str) -> dict[str, object]:
    """A ``builder``-labelled metric as ``{builder: value}``."""
    out = {}
    for key, value in _values(snapshot, name).items():
        if key.startswith("builder="):
            out[key[len("builder="):]] = value
    return out


def _round(value, digits: int = 2):
    return None if value is None else round(value, digits)


def _table3(blocks: list[dict] | None, snapshot: dict | None) -> dict:
    """Table 3: benchmark structure (blocks, insts/bb, memexpr/bb)."""
    n_blocks = _scalar(snapshot, "repro_blocks_total")
    n_insts = _scalar(snapshot, "repro_instructions_total")
    row = {
        "blocks": n_blocks,
        "insts": n_insts,
        "insts/bb max": _scalar(snapshot, "repro_block_size_max"),
        "insts/bb avg": _round(n_insts / n_blocks)
        if n_blocks else None,
        "memexpr/bb max": _scalar(snapshot, "repro_mem_exprs_max"),
        "memexpr/bb avg": _round(
            _scalar(snapshot, "repro_mem_exprs_total", 0) / n_blocks)
        if n_blocks else None,
    }
    if row["blocks"] is None and blocks:
        # Journal-only fallback: structure from the block records
        # (memory expressions are not journaled -- left absent).
        sizes = [len(b.get("order", [])) for b in blocks]
        row["blocks"] = len(sizes)
        row["insts"] = sum(sizes)
        row["insts/bb max"] = max(sizes, default=0)
        row["insts/bb avg"] = (_round(sum(sizes) / len(sizes))
                               if sizes else None)
    return row


def _table4(snapshot: dict | None) -> list[dict]:
    """Table 4: per-builder construction work (the n**2 quantities)."""
    built = _per_builder(snapshot, "repro_build_blocks_total")
    comparisons = _per_builder(snapshot, "repro_build_comparisons_total")
    alias = _per_builder(snapshot, "repro_build_alias_checks_total")
    added = _per_builder(snapshot, "repro_build_arcs_added_total")
    merged = _per_builder(snapshot, "repro_build_arcs_merged_total")
    suppressed = _per_builder(snapshot,
                              "repro_build_arcs_suppressed_total")
    rows = []
    for builder in sorted(built):
        rows.append({
            "builder": builder,
            "blocks": built.get(builder, 0),
            "comparisons": comparisons.get(builder, 0),
            "alias checks": alias.get(builder, 0),
            "arcs added": added.get(builder, 0),
            "arcs merged": merged.get(builder, 0),
            "arcs suppressed": suppressed.get(builder, 0),
        })
    return rows


def _table5(blocks: list[dict] | None,
            snapshot: dict | None) -> list[dict]:
    """Table 5: table building cost and per-builder run times.

    Work counters come from the metrics snapshot; wall-clock seconds
    come from journal ``wall_s`` fields summed per accepted builder
    (blocks journaled before the field existed contribute nothing and
    are counted in ``untimed blocks``).
    """
    probes = _per_builder(snapshot, "repro_build_table_probes_total")
    bitmap_ops = _per_builder(snapshot, "repro_build_bitmap_ops_total")
    words = _per_builder(snapshot, "repro_bitmap_words_touched_total")
    wall: dict[str, float] = {}
    untimed: dict[str, int] = {}
    for record in blocks or []:
        builder = record.get("builder") or "(degraded)"
        seconds = record.get("wall_s")
        if seconds is None:
            untimed[builder] = untimed.get(builder, 0) + 1
        else:
            wall[builder] = wall.get(builder, 0.0) + seconds
    rows = []
    for builder in sorted(set(probes) | set(wall) | set(untimed)):
        rows.append({
            "builder": builder,
            "table probes": probes.get(builder, 0),
            "bitmap ops": bitmap_ops.get(builder, 0),
            "bitmap words": words.get(builder, 0),
            "run time (s)": _round(wall.get(builder), 6)
            if builder in wall else _ABSENT,
            "untimed blocks": untimed.get(builder, 0),
        })
    return rows


def _fallback(blocks: list[dict] | None, snapshot: dict | None) -> dict:
    """Fallback-chain and schedule-quality summary."""
    summary: dict = {
        "attempts": {},
        "degraded blocks": _scalar(snapshot,
                                   "repro_blocks_degraded_total", 0),
        "replayed blocks": _scalar(snapshot,
                                   "repro_blocks_replayed_total", 0),
        "wasted work": _scalar(snapshot,
                               "repro_fallback_wasted_work_total", 0),
        "total makespan": _scalar(snapshot,
                                  "repro_makespan_cycles_total"),
        "total original makespan": _scalar(
            snapshot, "repro_original_makespan_cycles_total"),
    }
    for key, value in _values(
            snapshot, "repro_fallback_attempts_total").items():
        summary["attempts"][key] = value
    if blocks:
        if summary["total makespan"] is None:
            summary["total makespan"] = sum(
                b.get("makespan", 0) for b in blocks)
            summary["total original makespan"] = sum(
                b.get("original_makespan", 0) for b in blocks)
        if not summary["attempts"]:
            for record in blocks:
                for attempt in record.get("attempts", []):
                    key = (f"builder={attempt.get('builder')},"
                           f"stage={attempt.get('stage')}")
                    summary["attempts"][key] = \
                        summary["attempts"].get(key, 0) + 1
        if not summary["degraded blocks"]:
            summary["degraded blocks"] = sum(
                1 for b in blocks if b.get("builder") is None)
    scheduled = (summary["total makespan"] or 0)
    original = (summary["total original makespan"] or 0)
    summary["speedup"] = (_round(original / scheduled)
                          if scheduled else None)
    return summary


def _degradations(blocks: list[dict] | None) -> list[dict]:
    """Per-block detail for every degraded block in the journal."""
    rows = []
    for record in blocks or []:
        if record.get("builder") is not None:
            continue
        rows.append({
            "index": record.get("index"),
            "label": record.get("label"),
            "attempts": [
                {"builder": a.get("builder"), "stage": a.get("stage"),
                 "error": a.get("error")}
                for a in record.get("attempts", [])],
        })
    return rows


def _resilience(blocks: list[dict] | None,
                snapshot: dict | None) -> dict | None:
    """Supervised-pool resilience summary: block accounting, crashes,
    retries, quarantines.

    Returns None when there is nothing to report (no quarantined
    records in the journal and no resilience metrics in the
    snapshot), so clean-run reports keep their shape.
    """
    crash_values = _values(snapshot, "repro_worker_crashes_total")
    retries = _scalar(snapshot, "repro_retries_total")
    restarts = _scalar(snapshot, "repro_worker_restarts_total")
    quarantined_metric = _scalar(snapshot,
                                 "repro_quarantined_blocks_total")
    quarantined_records = [b for b in blocks or []
                           if b.get("type") == "quarantined"]
    if not quarantined_records and not crash_values \
            and retries is None and restarts is None \
            and quarantined_metric is None:
        return None
    section: dict = {
        "worker crashes": {
            key[len("kind="):]: value
            for key, value in sorted(crash_values.items())},
        "worker restarts": restarts or 0,
        "retries": retries or 0,
        "quarantined blocks": (quarantined_metric
                               if quarantined_metric is not None
                               else len(quarantined_records)),
        "quarantines": [
            {"index": b.get("index"), "label": b.get("label"),
             "attempts": len(b.get("attempts", [])),
             "reproducer": b.get("reproducer")}
            for b in quarantined_records],
    }
    if blocks:
        total = len(blocks)
        quarantined = len(quarantined_records)
        degraded = sum(1 for b in blocks
                       if b.get("builder") is None
                       and b.get("type") != "quarantined")
        scheduled = total - degraded - quarantined
        section["accounting"] = {
            "total": total,
            "scheduled": scheduled,
            "degraded": degraded,
            "quarantined": quarantined,
            "accounted": scheduled + degraded + quarantined == total,
        }
    return section


def _cache(snapshot: dict | None) -> dict | None:
    """Pairwise-cache summary (volatile), when the snapshot has one."""
    hits = _scalar(snapshot, "repro_cache_hits_total")
    misses = _scalar(snapshot, "repro_cache_misses_total")
    if hits is None and misses is None:
        return None
    total = (hits or 0) + (misses or 0)
    return {
        "hits": hits or 0,
        "misses": misses or 0,
        "hit rate": _round((hits or 0) / total) if total else None,
        "entries": _scalar(snapshot, "repro_cache_entries"),
        "recipes": _scalar(snapshot, "repro_cache_recipes"),
    }


def _durability(snapshot: dict | None) -> dict | None:
    """Serve-daemon durability summary: WAL replay and dedup counters.

    Returns None when the snapshot carries no WAL metrics (batch runs,
    pre-WAL daemons), so existing reports keep their shape.
    """
    replayed = _scalar(snapshot, "repro_wal_replayed")
    dropped = _scalar(snapshot, "repro_wal_dropped")
    recovered = _scalar(snapshot, "repro_wal_recovered_requests_total")
    deduped = _scalar(snapshot, "repro_wal_deduped_requests_total")
    if replayed is None and dropped is None \
            and recovered is None and deduped is None:
        return None
    return {
        "wal records replayed": replayed or 0,
        "torn records dropped": dropped or 0,
        "requests recovered": recovered or 0,
        "requests deduped": deduped or 0,
    }


def _overload(snapshot: dict | None) -> dict | None:
    """Overload-ladder summary: transitions and typed rejections.

    Returns None when the snapshot carries no overload metrics (the
    ladder never moved and nothing was shed), so existing reports
    keep their shape.
    """
    transitions = _values(snapshot, "repro_overload_transitions_total")
    rejections = _values(snapshot, "repro_overload_rejections_total")
    if not transitions and not rejections:
        return None
    ascents = sum(v for k, v in transitions.items()
                  if "direction=ascend" in k)
    descents = sum(v for k, v in transitions.items()
                   if "direction=descend" in k)
    by_class = {}
    for key, value in rejections.items():
        if key.startswith("tenant_class="):
            by_class[key[len("tenant_class="):]] = value
    return {
        "ladder transitions": sum(transitions.values()),
        "ascents": ascents,
        "descents": descents,
        "overload rejections": sum(rejections.values()),
        "best-effort rejections": by_class.get("best-effort", 0),
        "priority rejections": by_class.get("priority", 0),
    }


def report_from(blocks: list[dict] | None = None,
                snapshot: dict | None = None) -> dict:
    """Build the full report document from either or both inputs.

    Args:
        blocks: journal block records
            (:func:`load_journal_blocks`), or None.
        snapshot: a metrics snapshot document
            (:func:`repro.obs.metrics.read_metrics`), or None.

    Raises:
        ReproError: when both inputs are None.
    """
    if blocks is None and snapshot is None:
        raise ReproError(
            "report needs a journal, a metrics snapshot, or both")
    return {
        "sources": {"journal": blocks is not None,
                    "metrics": snapshot is not None},
        "table3": _table3(blocks, snapshot),
        "table4": _table4(snapshot),
        "table5": _table5(blocks, snapshot),
        "fallback": _fallback(blocks, snapshot),
        "degradations": _degradations(blocks),
        "resilience": _resilience(blocks, snapshot),
        "durability": _durability(snapshot),
        "overload": _overload(snapshot),
        "cache": _cache(snapshot),
    }


def _md_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(_md_cell(v) for v in row) + " |")
    return out


def _md_dict_rows(rows: list[dict]) -> list[str]:
    if not rows:
        return ["(no data)"]
    headers = list(rows[0].keys())
    return _md_table(headers,
                     [[row.get(h) for h in headers] for row in rows])


def render_markdown(report: dict) -> str:
    """Render :func:`report_from` output as a Markdown document."""
    lines: list[str] = ["# Scheduling run report", ""]
    sources = report.get("sources", {})
    used = [name for name in ("journal", "metrics")
            if sources.get(name)]
    lines += [f"Sources: {', '.join(used) if used else 'none'}", ""]

    lines += ["## Table 3 — benchmark structure", ""]
    t3 = report.get("table3", {})
    lines += _md_table(["quantity", "value"],
                       [[k, t3[k]] for k in t3])
    lines.append("")

    lines += ["## Table 4 — DAG construction work", ""]
    lines += _md_dict_rows(report.get("table4", []))
    lines.append("")

    lines += ["## Table 5 — table building and run times", ""]
    lines += _md_dict_rows(report.get("table5", []))
    lines.append("")

    lines += ["## Fallback and schedule quality", ""]
    fb = report.get("fallback", {})
    rows = [[k, fb[k]] for k in fb if k != "attempts"]
    lines += _md_table(["quantity", "value"], rows)
    lines.append("")
    attempts = fb.get("attempts", {})
    if attempts:
        lines += ["### Attempts by builder and stage", ""]
        lines += _md_table(
            ["series", "count"],
            [[k, attempts[k]] for k in sorted(attempts)])
        lines.append("")

    degradations = report.get("degradations", [])
    lines += ["## Degraded blocks", ""]
    if degradations:
        for item in degradations:
            label = item.get("label") or item.get("index")
            lines.append(f"- block {item.get('index')} ({label}):")
            for attempt in item.get("attempts", []):
                lines.append(
                    f"  - {attempt.get('builder')} -> "
                    f"{attempt.get('stage')}"
                    + (f": {attempt.get('error')}"
                       if attempt.get("error") else ""))
    else:
        lines.append("(none)")
    lines.append("")

    resilience = report.get("resilience")
    if resilience:
        lines += ["## Resilience", ""]
        accounting = resilience.get("accounting")
        if accounting:
            lines += _md_table(
                ["quantity", "value"],
                [[k, accounting[k]] for k in accounting])
            lines.append("")
        crashes = resilience.get("worker crashes", {})
        rows = [["worker restarts", resilience.get("worker restarts")],
                ["retries", resilience.get("retries")],
                ["quarantined blocks",
                 resilience.get("quarantined blocks")]]
        rows += [[f"crashes ({kind})", count]
                 for kind, count in crashes.items()]
        lines += _md_table(["quantity", "value"], rows)
        lines.append("")
        quarantines = resilience.get("quarantines", [])
        if quarantines:
            lines += ["### Quarantined blocks", ""]
            for item in quarantines:
                label = item.get("label") or item.get("index")
                lines.append(
                    f"- block {item.get('index')} ({label}): "
                    f"{item.get('attempts')} attempts"
                    + (f", reproducer `{item.get('reproducer')}`"
                       if item.get("reproducer") else ""))
            lines.append("")

    durability = report.get("durability")
    if durability:
        lines += ["## Durability", ""]
        lines += _md_table(["quantity", "value"],
                           [[k, durability[k]] for k in durability])
        lines.append("")

    overload = report.get("overload")
    if overload:
        lines += ["## Overload", ""]
        lines += _md_table(["quantity", "value"],
                           [[k, overload[k]] for k in overload])
        lines.append("")

    cache = report.get("cache")
    lines += ["## Pairwise cache", ""]
    if cache:
        lines += _md_table(["quantity", "value"],
                           [[k, cache[k]] for k in cache])
    else:
        lines.append("(no cache data)")
    lines.append("")
    return "\n".join(lines)
