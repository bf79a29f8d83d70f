"""Config-driven command-line front end.

Subcommands: ``estimate``, ``verify``, ``simulate``, ``ratio-curve``,
``decompose``.  Each takes a plain-text config file with ``[section]``
headers and ``key = value`` lines.  ``_SCHEMAS`` is the whole input contract:
:func:`load_config` reads, checks and renders the config in one pass, before
any handler runs, and :func:`main` hands the handler the converted sections
and the canonical text.  Unknown sections or keys (``[DEFAULT]`` among them:
it is an ordinary section here, so no section inherits its keys), bad values
and missing required keys are thus all rejected before any work, so such a
config exits 2 with nothing run or written.  A handler then builds its
estimator config, trainer and campaign before it reads any data or runs any
trial or unit, and they refuse a key the chosen estimator version or trainer
does not take and sizes the estimator cannot run on: every input is used or
refused before any work.  A seed is mandatory for any randomized run.
Outputs are written atomically (temp file + rename) so re-running a config
overwrites rather than appends, and a fixed seed reproduces every output
byte for byte.

Exit codes: 0 success, 1 when ``verify`` finds an identity that fails,
2 configuration or input error, 3 estimation error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import astuple, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from cvlab import analysis, combinatorics, estimators, simlab
from cvlab.core import DomainError, read_csv_rows, read_dataset_csv
from cvlab.estimators import (
    EstimationError,
    EstimatorConfig,
    Metric,
    Variant,
    Version,
)
from cvlab.resampling import SamplingModel, derive_seed


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------

_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _to_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise DomainError(f"expected a boolean, got '{raw}'") from None


def _to_int_list(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"expected a list of integers, got '{raw}'") from None


_CONVERTERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _to_bool,
    "int_list": _to_int_list,
    "version": lambda raw: Version(raw.upper()),
    "variant": lambda raw: Variant(raw.lower()),
    "metric": lambda raw: Metric(raw.lower()),
    "sampling": lambda raw: SamplingModel(raw.lower()),
}

# {section: {key: type name}}, the whole input contract of each subcommand.  A
# type name ending in "?" marks a key that may be left out; every other key
# is required.  A section name ending in "?" may be left out or left empty,
# and then none of its keys is asked for: a simulate config without
# [estimator] runs ``simlab.DEFAULT_ESTIMATOR``.  ``load_config`` reads,
# checks and renders the config against this in one pass, before a handler
# starts, and refuses [DEFAULT] as an unknown section, so an unknown or
# missing key exits 2 with nothing run or written.  Each [estimator] key names
# an EstimatorConfig field (``estimators._CONFIG_KEYS`` maps the ones spelled
# differently), and EstimatorConfig checks every estimator rule when the
# handler builds it, before any data is read or trial run, refusing a key its
# version does not take; ``estimators.variant_values`` rejects a missing
# seed.  A campaign derives each trial's estimator seed, so only ``estimate``
# takes [estimator] seed.  The [trainer] keys other than id are keywords of
# the trainer class, and ``simlab.trainer_from_id`` refuses one it does not
# take.
_ESTIMATOR_KEYS = {
    "version": "version", "variant": "variant?", "metric": "metric",
    "th": "float?", "K": "int?", "K1": "int?", "K2": "int?", "M": "int?",
    "B": "int?", "sampling": "sampling?", "strict": "bool?",
}
_TRAINER_KEYS = {"id": "str", "ridge": "float?"}
_SCHEMAS: dict[str, dict[str, dict[str, str]]] = {
    "estimate": {
        "estimator": {**_ESTIMATOR_KEYS, "seed": "int?"},
        "trainer": _TRAINER_KEYS,
        "io": {"dataset": "str", "out_json": "str?", "out_csv": "str?"},
    },
    "verify": {
        "verify": {"n_max": "int"},
    },
    "simulate": {
        "data": {"p": "int", "delta": "float", "n1": "int", "n2": "int"},
        "campaign": {"trials": "int", "test_per_class": "int", "seed": "int"},
        "estimator?": _ESTIMATOR_KEYS,
        "trainer": _TRAINER_KEYS,
        "io": {"out_table": "str", "out_triples": "str", "out_manifest": "str"},
    },
    "ratio-curve": {
        "curve": {
            "n1_grid": "int_list", "B": "int", "sampling": "sampling?",
            "replicates": "int", "seed": "int",
        },
        "trainer": _TRAINER_KEYS,
        "io": {"out_csv": "str"},
    },
    "decompose": {
        "io": {"input": "str", "out_json": "str?", "out_csv": "str?"},
    },
}


def load_config(path: str | Path, subcommand: str) -> tuple[dict[str, dict[str, object]], str]:
    """Read, check and render the config at ``path`` in one pass.

    Each section and key is checked against the subcommand's schema and its
    value converted as it is read; then a missing required key is refused.
    Returns the converted sections (every schema section is there, empty if
    left out) and the canonical ``[section]`` / ``key = value`` text that the
    simulate manifest echoes."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    # No header spells a line break, so [DEFAULT] is an ordinary section,
    # refused as unknown, and no section inherits another's keys.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"config parse error: {exc}") from exc
    schema = _SCHEMAS[subcommand]
    kinds = {name.rstrip("?"): keys for name, keys in schema.items()}
    values: dict[str, dict[str, object]] = {}
    lines = []
    for section in parser.sections():
        if section not in kinds:
            raise DomainError(f"unknown config section [{section}]")
        values[section] = {}
        lines.append(f"[{section}]")
        for key, raw in parser.items(section):
            raw = raw.strip()
            if key not in kinds[section]:
                raise DomainError(f"unknown key '{key}' in section [{section}]")
            try:
                values[section][key] = _CONVERTERS[kinds[section][key].rstrip("?")](raw)
            except (ValueError, KeyError) as exc:
                raise DomainError(f"[{section}] {key}: bad value '{raw}' ({exc})") from None
            lines.append(f"{key} = {raw}")
        lines.append("")
    for name, keys in schema.items():
        section = name.rstrip("?")
        given = values.setdefault(section, {})
        if name.endswith("?") and not given:
            continue
        for key, kind in keys.items():
            if key not in given and not kind.endswith("?"):
                raise DomainError(f"missing required key '{key}' in section [{section}]")
    return values, "\n".join(lines)


def _estimator_config(section: dict) -> EstimatorConfig:
    field_of = {key: field for field, key in estimators._CONFIG_KEYS.items()}
    return EstimatorConfig(**{field_of.get(k, k): v for k, v in section.items()})


def _trainer(values: dict) -> simlab.Trainer:
    return simlab.trainer_from_id(values["trainer"]["id"], values["trainer"])


# ---------------------------------------------------------------------------
# Atomic output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str | Path, data: str) -> None:
    """Write through a temp file and a rename; a path that cannot be written
    (a directory, or one holding a NUL byte, say) is a :class:`DomainError`."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _records_csv(records: Sequence) -> str:
    """One CSV row per dataclass record, under its field names."""
    return _csv_text([f.name for f in fields(records[0])], [astuple(r) for r in records])


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_payload(io_section: dict, payload: dict) -> None:
    """Write ``payload`` to [io] out_json and, as one CSV row, to out_csv (each if set)."""
    if io_section.get("out_json"):
        _atomic_write(io_section["out_json"], _json_text(payload))
    if io_section.get("out_csv"):
        _atomic_write(io_section["out_csv"], _csv_text(list(payload), [list(payload.values())]))


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the sections and the canonical text that
# ``load_config`` returned; only the simulate manifest reads the text.
# ---------------------------------------------------------------------------


def cmd_estimate(values: dict, text: str) -> int:
    est_cfg = _estimator_config(values["estimator"])
    trainer = _trainer(values)
    dataset = read_dataset_csv(values["io"]["dataset"])
    report = estimators.run(dataset, trainer, est_cfg)
    _write_payload(values["io"], report.to_json_dict())
    print(f"{report.version.value}/{report.variant.value} {report.metric.value} "
          f"= {report.value!r} (excluded={report.excluded_count})")
    return 0


def run_verify(n_max: int) -> bool:
    """PASS/FAIL line per identity per n, then the overall verdict."""
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    all_ok = True
    for n in range(2, n_max + 1):
        for name, ok in combinatorics.identity_checks(n):
            all_ok &= ok
            print(f"{'PASS' if ok else 'FAIL'} n={n} {name}")
    print(f"{'PASS' if all_ok else 'FAIL'} overall (n_max={n_max})")
    return all_ok


def cmd_verify(values: dict, text: str) -> int:
    return 0 if run_verify(values["verify"]["n_max"]) else 1


def _campaign_from_config(values: dict) -> simlab.WeakCorrConfig:
    est = values["estimator"]
    return simlab.WeakCorrConfig(
        spec=simlab.MultinormalSpec(**values["data"]),
        estimator=_estimator_config(est) if est else simlab.DEFAULT_ESTIMATOR,
        trainer=_trainer(values),
        **values["campaign"],
    )


def triples_csv_text(result: simlab.WeakCorrResult) -> str:
    rows = [
        [t, row[0], row[1], row[2]] for t, row in enumerate(result.triples)
    ]
    return _csv_text(["trial", "S", "Sbar", "Shat"], rows)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_text(text: str, outputs: dict[str, str]) -> str:
    digests = "".join(f"{name} = {digest}\n" for name, digest in sorted(outputs.items()))
    return text.rstrip("\n") + "\n\n[outputs]\n" + digests


def cmd_simulate(values: dict, text: str) -> int:
    campaign = _campaign_from_config(values)
    result = simlab.run_weak_correlation(campaign)
    table = _records_csv(result.rows)
    triples = triples_csv_text(result)
    io_section = values["io"]
    _atomic_write(io_section["out_table"], table)
    _atomic_write(io_section["out_triples"], triples)
    _atomic_write(
        io_section["out_manifest"],
        manifest_text(
            text, {"table_sha256": _sha256(table), "triples_sha256": _sha256(triples)}
        ),
    )
    for row in result.rows:
        print(
            f"{row.role}: mean={row.mean:.4f} sigma={row.sigma:.4f} "
            f"rms_cond={row.rms_cond:.4f} rms_mean={row.rms_mean:.4f} rho={row.rho:.4f}"
        )
    print(f"aborted trials: {result.aborted}")
    return 0


def cmd_ratio_curve(values: dict, text: str) -> int:
    curve = values["curve"]
    model = curve.get("sampling", SamplingModel.ORDERED)
    seeds = [derive_seed(curve["seed"], "ratio-replicate", r) for r in range(curve["replicates"])]
    points = simlab.run_ratio_curve(curve["n1_grid"], _trainer(values), curve["B"], model, seeds)
    _atomic_write(values["io"]["out_csv"], _records_csv(points))
    for p in points:
        print(
            f"n1={p.n1}: empirical={p.ratio_empirical:.4f} theory={p.ratio_theory:.4f}"
        )
    return 0


def cmd_decompose(values: dict, text: str) -> int:
    path = Path(values["io"]["input"])
    header, rows = read_csv_rows(path, "pairs")
    if [h.strip() for h in header[:2]] != ["s", "s_hat"]:
        raise DomainError(f"{path}: expected header 's,s_hat'")
    pairs = []
    for lineno, row in rows:
        if len(row) < 2:
            raise DomainError(f"{path}:{lineno}: expected 2 fields")
        try:
            pairs.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
    sample = analysis.PairedPerformanceSample(
        s=np.array([p[0] for p in pairs]), s_hat=np.array([p[1] for p in pairs])
    )
    report = analysis.decompose(sample)
    _write_payload(values["io"], report.to_json_dict())
    print(
        f"rms_cond={report.rms_cond!r} rms_mean={report.rms_mean!r} "
        f"rho={report.rho!r} residual={report.residual!r}"
    )
    return 0


_HANDLERS = {
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "ratio-curve": cmd_ratio_curve,
    "decompose": cmd_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvlab",
        description="Resampling estimator laboratory: estimators, exact "
        "identities, and Monte-Carlo campaigns.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to an INI-style config file")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](*load_config(args.config, args.subcommand))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
