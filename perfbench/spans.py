"""Reading the program's own ``--trace`` JSONL spans, as it writes them."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any


def load(path: Path) -> list[dict[str, Any]]:
    """Every ``span`` record of a trace file."""
    spans = []
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("type") == "span":
                spans.append(rec)
    return spans


def by_name(spans: list[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
    grouped: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    return grouped


def total_s(spans: list[dict[str, Any]]) -> float:
    return sum(s["duration_s"] for s in spans)


def attr_sum(spans: list[dict[str, Any]], attr: str) -> int:
    return sum(int(s["attrs"].get(attr, 0)) for s in spans)
