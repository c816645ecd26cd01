"""Seeded benchmark inputs.

Every input is made from the workload seed before any timing starts.
The program under test only ever sees the result: assembly text for
the batch workloads, wire messages for the serve workload.
"""

from __future__ import annotations

import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))

_LABEL = re.compile(r"\bL(\d+)\b")


def load_manifest() -> dict:
    """The per-workload record (generator, seeds, counts, predictions)."""
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


def batch_source(profiles: list[str], seed: int) -> str:
    """Assembly text for the Table 3 profiles, generated from ``seed``.

    Each profile's block labels (``L<k>``) are prefixed with the
    profile name so several profiles concatenate into one program
    without label clashes.
    """
    from repro.asm import render_program
    from repro.workloads import generate_program, get_profile

    texts = []
    for name in profiles:
        text = render_program(generate_program(get_profile(name), seed=seed))
        if len(profiles) > 1:
            text = _LABEL.sub(f"{name}_L\\1", text)
        texts.append(text)
    return "\n".join(texts) + "\n"


def serve_mix(seed: int, requests: int, tenants: int) -> list[dict]:
    """The seeded loadtest kernel x copies (1-4) request mix.

    Traffic is spread over ``tenants`` tenants so the daemon's default
    per-tenant token bucket never refuses the closed loop.
    """
    from repro.serve.loadtest import LoadtestConfig, generate_mix

    return generate_mix(LoadtestConfig(
        address="unused", seed=seed, requests=requests, tenants=tenants,
        copies_max=4, machine="sparc"))
