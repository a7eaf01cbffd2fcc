"""Per-layer time by request kind, from a spans file written by a traced run.

    python3 perfbench/shares.py .perfbench_run/spans-brute-seed1.jsonl

A request kind is the request id without its numbers ("brute-3/greedy" ->
"brute/greedy", "cell-2-1" -> "cell").  For each kind it prints, per layer,
the calls, busy seconds, self seconds and the self share of the time the
kind's spans cover.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict


def main(path: str) -> int:
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        kind = re.sub(r"-?\d+", "", str(s["request"]))
        dur = s["end"] - s["start"]
        row = table[kind, s["name"]]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[s["id"]]
    covered = defaultdict(float)
    for (kind, _), (_, _, self_s) in table.items():
        covered[kind] += self_s
    print(f"{'request kind':16s} {'layer':30s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s} {'self_share':>10s}")
    for (kind, layer), (calls, busy, self_s) in sorted(table.items()):
        print(f"{kind:16s} {layer:30s} {calls:7d} {busy:10.4f} {self_s:10.4f} {self_s / covered[kind]:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
