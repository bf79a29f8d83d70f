"""Run one fixed set of CLI configs on two checkouts and report every
difference in what the runs give.

A case is a subcommand, a config and the input files it reads.  Each case
runs as ``python -m cvlab.cli SUBCOMMAND config.ini`` in a fresh directory
per checkout, with ``PYTHONPATH`` set to that checkout's ``src`` alone and
no bytecode written.  Every path in a config is relative to its directory,
so the two runs of a correct change match byte for byte.  For each case the
exit code, stdout, stderr and every file the run left there (its name and
bytes; an input file only if the run changed it) are compared; each
difference is printed with a diff of its text.

The cases: every estimator version and variant through ``estimate`` (LOOB
under both sampling models, the AUC CVK reduced variant included), each
writing its JSON report and its CSV row; one ``simulate`` per metric;
``ratio-curve`` under both sampling models; ``decompose``; ``verify``; and
five refusals: a negative estimator seed with a dataset that does not
exist; a fold map too large to allocate (2^50 rows, above any user
address space) through ``estimate`` and through ``simulate``; and two
``[io]`` paths that name one file, through ``estimate`` (``out_json`` is the
dataset) and through ``simulate`` (``out_triples`` is ``out_table``).

Usage: ``python tools/same_outputs.py PARENT HEAD``, each a checkout whose
``src`` holds ``cvlab``.  Prints each difference, then one summary line;
exits 1 if there is any difference, else 0.  It runs 34 cases on each side,
one process at a time.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# 4 class-1 and 8 class-2 points in two features: K = 3 and K1 = K2 = 2
# divide the classes, and a LOOB error replicate of 12 loses class 1 often
# enough that B = 400 redraws some.
_DATASET = "class,f1,f2\n" + "".join(
    f"{label},{((7 * i) % 11 - 5) / 4 + (label - 1) * 0.6!r},{((5 * i) % 13 - 6) / 5!r}\n"
    for i, label in enumerate([1] * 4 + [2] * 8)
)
_PAIRS = "s,s_hat\n" + "".join(f"{0.6 + (i % 5) / 50!r},{0.55 + (i * 3 % 7) / 40!r}\n"
                               for i in range(20))
_UNALLOCATABLE_M = 2**50

# metric -> {version: (its size and seed lines, its variants)}; "" is no
# variant line (CVN takes none).
_ESTIMATORS = {
    "error": {
        "CVN": ([], [""]),
        "CVK": (["K = 3", "seed = 5"], ["pooled", "partitioned"]),
        "CVKR": (["K = 3", "M = 4", "seed = 5"], ["pooled", "partitioned"]),
        "CVKM": (["K = 3", "M = 20", "seed = 5"], ["pooled", "partitioned"]),
        "LOOB": (["B = 400", "seed = 5"], ["pooled", "partitioned"]),
    },
    "auc": {
        "CVN": ([], [""]),
        "CVK": (["K1 = 2", "K2 = 2", "seed = 5"], ["pooled", "partitioned", "reduced"]),
        "CVKR": (["K1 = 2", "K2 = 2", "M = 3", "seed = 5"], ["pooled", "partitioned"]),
        "CVKM": (["K1 = 2", "K2 = 2", "M = 10", "seed = 5"], ["pooled", "partitioned"]),
        "LOOB": (["B = 100", "seed = 5"], ["pooled", "partitioned"]),
    },
}
_SAMPLINGS = ("ordered", "unordered-multiset")


def _estimate(lines: list[str], dataset: str = "data.csv", out_json: str = "out.json") -> str:
    return "\n".join([
        "[estimator]", *lines, "", "[trainer]", "id = nearest-mean", "",
        "[io]", f"dataset = {dataset}", f"out_json = {out_json}", "out_csv = out.csv", "",
    ])


def _simulate(estimator: list[str], out_triples: str = "triples.csv") -> str:
    return "\n".join([
        "[data]", "p = 2", "delta = 1.0", "n1 = 6", "n2 = 6", "",
        "[campaign]", "trials = 4", "test_per_class = 20", "seed = 31", "",
        "[estimator]", *estimator, "", "[trainer]", "id = nearest-mean", "",
        "[io]", "out_table = table.csv", f"out_triples = {out_triples}",
        "out_manifest = manifest.ini", "",
    ])


def cases() -> dict[str, tuple[str, str, dict[str, str]]]:
    """{name: (subcommand, config text, {input file name: text})}."""
    data = {"data.csv": _DATASET}
    out = {}
    for metric, versions in _ESTIMATORS.items():
        for version, (sizes, variants) in versions.items():
            for variant in variants:
                for sampling in _SAMPLINGS if version == "LOOB" else ("",):
                    lines = [f"version = {version}", f"metric = {metric}", *sizes]
                    lines += [f"variant = {variant}"] * bool(variant)
                    lines += [f"sampling = {sampling}"] * bool(sampling)
                    name = "-".join(filter(None, ["estimate", metric, version, variant, sampling]))
                    out[name] = ("estimate", _estimate(lines), data)
    out["simulate-error"] = ("simulate", _simulate(
        ["version = CVKR", "metric = error", "K = 3", "M = 3", "variant = pooled"]), {})
    out["simulate-auc"] = ("simulate", _simulate(
        ["version = LOOB", "metric = auc", "B = 40", "variant = partitioned"]), {})
    for sampling in _SAMPLINGS:
        out[f"ratio-curve-{sampling}"] = ("ratio-curve", "\n".join([
            "[curve]", "n1_grid = 3 4", "B = 40", f"sampling = {sampling}", "replicates = 2",
            "seed = 7", "", "[trainer]", "id = nearest-mean", "", "[io]", "out_csv = curve.csv", "",
        ]), {})
    out["decompose"] = ("decompose", "[io]\ninput = pairs.csv\nout_json = out.json\n"
                        "out_csv = out.csv\n", {"pairs.csv": _PAIRS})
    out["verify"] = ("verify", "[verify]\nn_max = 6\n", {})
    out["refuse-negative-seed"] = ("estimate", _estimate(
        ["version = LOOB", "metric = error", "B = 5", "seed = -1"], dataset="missing.csv"), {})
    out["refuse-huge-map-estimate"] = ("estimate", _estimate(
        ["version = CVKR", "metric = error", "K = 2", f"M = {_UNALLOCATABLE_M}", "seed = 1"]),
        data)
    out["refuse-huge-map-simulate"] = ("simulate", _simulate(
        ["version = CVKM", "metric = error", "K = 2", f"M = {_UNALLOCATABLE_M}"]), {})
    out["refuse-same-file-estimate"] = ("estimate", _estimate(
        ["version = CVN", "metric = error"], out_json="data.csv"), data)
    out["refuse-same-file-simulate"] = ("simulate", _simulate(
        ["version = CVN", "metric = error"], out_triples="table.csv"), {})
    return out


def run_cases(checkout: Path, names: list[str] | None = None) -> dict[str, dict[str, bytes]]:
    """{case: {"exit code" | "stdout" | "stderr" | "file <name>": bytes}} of
    each named case (every case by default) run on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = {}
    for name, (subcommand, config, inputs) in cases().items():
        if names is not None and name not in names:
            continue
        with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
            work = Path(tmp)
            written = {**inputs, "config.ini": config}
            for file, text in written.items():
                (work / file).write_text(text, encoding="utf-8")
            proc = subprocess.run([sys.executable, "-m", "cvlab.cli", subcommand, "config.ini"],
                                  cwd=work, env=env, capture_output=True)
            result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
                      "stderr": proc.stderr}
            for path in sorted(work.iterdir()):
                data = path.read_bytes()
                if path.name not in written or data != written[path.name].encode():
                    result[f"file {path.name}"] = data
            results[name] = result
    return results


def differences(old: dict, new: dict) -> list[str]:
    """One entry per (case, part) whose bytes differ between two
    ``run_cases`` results, or that only one side has: a header line, then a
    diff of the two texts."""
    found = []
    for name in [*old, *(n for n in new if n not in old)]:
        was, now = old.get(name, {}), new.get(name, {})
        for part in [*was, *(p for p in now if p not in was)]:
            if was.get(part) == now.get(part):
                continue
            lines = [text.decode("utf-8", "replace").splitlines()
                     for text in (was.get(part, b""), now.get(part, b""))]
            diff = difflib.unified_diff(*lines, "parent", "head", lineterm="", n=0)
            missing = "" if part in was and part in now else " (only one side has it)"
            found.append("\n".join([f"{name}: {part} differs{missing}", *list(diff)[2:]]))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(a) / "src" / "cvlab").is_dir() for a in argv):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/same_outputs.py PARENT HEAD", file=sys.stderr)
        return 2
    old, new = (run_cases(Path(a)) for a in argv)
    found = differences(old, new)
    for entry in found:
        print(entry)
    print(f"{len(old)} cases, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
