#!/usr/bin/env python3
"""Compare two perfbench results.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a detail block that perfbench/run.py keeps under
<target>/perfbench-results/. The two results must come from the same
workload on the same kind of host: their workload-and-host blocks must
agree on every field except `seed` and `rev`, or the comparison is
refused (exit 2). Otherwise every metric is printed for both, with the
change as a share of the base; end-to-end metrics that got worse by more
than the bound in BENCHMARK.json are flagged and make the exit status 1.
A single pair of runs is only a smoke check: a claim needs the repeated,
alternating runs the benchmark's README describes.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
UNCOMPARED = {"seed", "rev"}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["perfbench"]


def bounds():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return {}
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    differing = sorted(
        k for k in set(base["block"]) | set(new["block"])
        if k not in UNCOMPARED and base["block"].get(k) != new["block"].get(k)
    )
    if differing:
        for k in differing:
            print(f"refused: {k} differs: {base['block'].get(k)!r} vs {new['block'].get(k)!r}",
                  file=sys.stderr)
        return 2
    if not (base["correct"] and new["correct"]):
        print("refused: a result failed its correctness checks", file=sys.stderr)
        return 2

    limits = bounds()
    worse = 0
    print(f"{base['block']['workload']}: {base['block']['rev']} -> {new['block']['rev']}")
    for name in sorted(set(base["values"]) & set(new["values"])):
        a, b = base["values"][name], new["values"][name]
        change = (b - a) / abs(a) if a else float("nan")
        flag = ""
        if name in limits:
            better, bound = limits[name]
            loss = change if better == "lower" else -change
            if loss > bound:
                flag = f"  WORSE than the {bound:.0%} bound"
                worse += 1
        print(f"  {name:34} {a:>16.6g} {b:>16.6g} {change:>+9.2%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
