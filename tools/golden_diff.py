"""Compare two golden-value files key by key.

A golden file is a JSON object that maps each case key to the list of its
recorded outcomes (``tests/golden_estimators.json``).  For every key, in the
old file's order, then each key only the new file has, prints one line:
``kept`` when the new list is the old one, entry for entry and in order;
``moved`` when it differs; ``added`` or ``removed`` when only one file has
the key.  Each line gives the old and new list lengths, and a key that moved
outside the ``--moved`` globs is marked.  The last line gives the number of
keys and of entries in each file, then the keys and entries of each kind.

Usage: ``python tools/golden_diff.py OLD.json NEW.json [--moved GLOB ...]``.
Each glob is an ``fnmatch`` pattern over the keys (``*/err_cvk``).  Exits 1
if a key outside the globs moved, or if a key was added or removed, else 0.
So a re-freeze names the keys it means to move, and this checks that no
other key moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare two golden-value files key by key.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--moved", nargs="*", default=[], metavar="GLOB")
    args = parser.parse_args(argv)
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.old, args.new))
    totals = {kind: [0, 0, 0] for kind in ("kept", "moved", "added", "removed")}
    failed = False
    for key in [*old, *(k for k in new if k not in old)]:
        was, now = old.get(key, []), new.get(key, [])
        kind = ("added" if key not in old else "removed" if key not in new
                else "kept" if was == now else "moved")
        stray = kind == "moved" and not any(fnmatchcase(key, glob) for glob in args.moved)
        failed |= stray or kind in ("added", "removed")
        print(f"{kind:8s}{key}  {len(was)} -> {len(now)}" + ("  (not under --moved)" if stray else ""))
        for i, n in enumerate((1, len(was), len(now))):
            totals[kind][i] += n
    print(f"{len(old.keys() | new.keys())} keys, "
          f"{sum(map(len, old.values()))} -> {sum(map(len, new.values()))} entries: "
          + "; ".join(f"{keys} {kind} ({was} -> {now} entries)"
                      for kind, (keys, was, now) in totals.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
