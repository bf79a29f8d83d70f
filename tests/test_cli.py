import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cvlab import analysis, cli, combinatorics, estimators, simlab
from cvlab.combinatorics import pmf_unseen_count
from cvlab.core import StratifiedDataset, write_dataset_csv
from cvlab.estimators import err_cvn
from cvlab.simlab import NearestMeanTrainer
from oracles import fresh_process_peak

SIX_POINT = StratifiedDataset(
    np.array([[-1.1], [0.2], [0.9]]), np.array([[-0.3], [0.8], [1.7]])
)


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(SIX_POINT, path)
    return path


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def estimate_config(tmp_path, dataset_csv, *, version, out_json, variant=None, extra=""):
    """An error ``estimate`` config; ``variant`` is written only if given, as
    CVN takes none."""
    variant_line = "" if variant is None else f"variant = {variant}"
    return write_config(
        tmp_path,
        f"est-{version}-{variant}.ini",
        f"""
[estimator]
version = {version}
{variant_line}
metric = error
th = 0.0
{extra}

[trainer]
id = nearest-mean

[io]
dataset = {dataset_csv}
out_json = {out_json}
""",
    )


class TestEstimate:
    def test_pooled_and_partitioned_agree(self, tmp_path, dataset_csv):
        values = {}
        for variant in ("pooled", "partitioned"):
            out = tmp_path / f"{variant}.json"
            config = estimate_config(
                tmp_path, dataset_csv, version="CVK", variant=variant,
                out_json=out, extra="K = 3\nseed = 1",
            )
            assert cli.main(["estimate", str(config)]) == 0
            values[variant] = json.loads(out.read_text())["value"]
        assert values["pooled"] == values["partitioned"]

    def test_divisibility_error_exits_2(self, tmp_path, dataset_csv):
        config = estimate_config(
            tmp_path, dataset_csv, version="CVK", variant="pooled",
            out_json=tmp_path / "x.json", extra="K = 4",
        )
        assert cli.main(["estimate", str(config)]) == 2

    def test_cvn_matches_library_value(self, tmp_path, dataset_csv):
        out = tmp_path / "cvn.json"
        config = estimate_config(
            tmp_path, dataset_csv, version="CVN", out_json=out
        )
        assert cli.main(["estimate", str(config)]) == 0
        payload = json.loads(out.read_text())
        want = err_cvn(SIX_POINT, NearestMeanTrainer()).value
        assert payload["value"] == want
        assert payload["schema"] == 1

    def test_unknown_key_rejected(self, tmp_path, dataset_csv):
        config = estimate_config(
            tmp_path, dataset_csv, version="CVN",
            out_json=tmp_path / "x.json", extra="bogus = 1",
        )
        assert cli.main(["estimate", str(config)]) == 2

    def test_randomized_run_requires_seed(self, tmp_path, dataset_csv, capsys):
        config = estimate_config(
            tmp_path, dataset_csv, version="LOOB", variant="pooled",
            out_json=tmp_path / "x.json", extra="B = 10",
        )
        assert cli.main(["estimate", str(config)]) == 2
        assert "needs 'seed'" in capsys.readouterr().err

    def test_cvn_reduced_variant_exits_2_and_writes_nothing(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "cvn.json"
        config = write_config(
            tmp_path,
            "cvn-reduced.ini",
            f"""
[estimator]
version = CVN
variant = reduced
metric = auc

[trainer]
id = nearest-mean

[io]
dataset = {dataset_csv}
out_json = {out}
""",
        )
        assert cli.main(["estimate", str(config)]) == 2
        assert "auc_cvn does not take 'variant'" in capsys.readouterr().err
        assert not out.exists()

    def test_estimation_failure_exits_3(self, tmp_path, dataset_csv):
        # ridgeless LDA on 1-D six points: leave-one-out can produce a
        # zero-variance class pair... use a singular setting instead
        bad = tmp_path / "singular.csv"
        write_dataset_csv(
            StratifiedDataset(np.zeros((2, 4)), np.ones((2, 4))), bad
        )
        config = write_config(
            tmp_path,
            "bad.ini",
            f"""
[estimator]
version = CVN
metric = error

[trainer]
id = lda
ridge = 0.0

[io]
dataset = {bad}
out_json = {tmp_path / 'bad.json'}
""",
        )
        assert cli.main(["estimate", str(config)]) == 3

    def test_csv_report_single_line(self, tmp_path, dataset_csv):
        out_csv = tmp_path / "report.csv"
        config = write_config(
            tmp_path,
            "csv.ini",
            f"""
[estimator]
version = CVN
metric = error

[trainer]
id = nearest-mean

[io]
dataset = {dataset_csv}
out_csv = {out_csv}
""",
        )
        assert cli.main(["estimate", str(config)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row
        payload = err_cvn(SIX_POINT, NearestMeanTrainer()).to_json_dict()
        assert lines[0].split(",") == list(payload)
        assert lines[1].split(",") == [str(v) for v in payload.values()]


class TestVerify:
    def test_all_identities_pass(self, capsys):
        assert cli.run_verify(20)
        out = capsys.readouterr().out
        assert "PASS n=20 expected-unseen" in out
        assert "FAIL" not in out

    def test_perturbed_pmf_fails(self, capsys, monkeypatch):
        def bad(n, m, k):
            value = pmf_unseen_count(n, m, k)  # the real pmf, imported before the patch
            return value + Fraction(1, 7) if (k == 1 and n == 5) else value

        monkeypatch.setattr(combinatorics, "pmf_unseen_count", bad)
        assert not cli.run_verify(6)
        assert "FAIL n=5" in capsys.readouterr().out

    def test_cli_exit_code(self, tmp_path):
        config = write_config(tmp_path, "verify.ini", "[verify]\nn_max = 10\n")
        assert cli.main(["verify", str(config)]) == 0

    def test_bad_n_max(self, tmp_path):
        config = write_config(tmp_path, "verify.ini", "[verify]\nn_max = 1\n")
        assert cli.main(["verify", str(config)]) == 2


SIMULATE_TEMPLATE = """
[data]
p = 2
delta = 1.0
n1 = 6
n2 = 6

[campaign]
trials = 10
test_per_class = 40
seed = 31

[trainer]
id = nearest-mean

[io]
out_table = {table}
out_triples = {triples}
out_manifest = {manifest}
"""


class TestSimulate:
    def test_smoke_files_and_columns(self, tmp_path):
        paths = {
            "table": tmp_path / "table.csv",
            "triples": tmp_path / "triples.csv",
            "manifest": tmp_path / "manifest.ini",
        }
        config = write_config(
            tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths)
        )
        assert cli.main(["simulate", str(config)]) == 0
        table_lines = paths["table"].read_text().strip().splitlines()
        assert table_lines[0] == "role,mean,sigma,rms_cond,rms_mean,rho,n"
        assert [line.split(",")[0] for line in table_lines[1:]] == ["S", "Sbar", "Shat"]
        triples_lines = paths["triples"].read_text().strip().splitlines()
        assert triples_lines[0] == "trial,S,Sbar,Shat"
        assert len(triples_lines) == 11

    def test_byte_identical_reruns(self, tmp_path):
        paths = {
            "table": tmp_path / "table.csv",
            "triples": tmp_path / "triples.csv",
            "manifest": tmp_path / "manifest.ini",
        }
        config = write_config(tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths))
        assert cli.main(["simulate", str(config)]) == 0
        first = {k: p.read_bytes() for k, p in paths.items()}
        assert cli.main(["simulate", str(config)]) == 0
        second = {k: p.read_bytes() for k, p in paths.items()}
        assert first == second

    def test_manifest_round_trip(self, tmp_path):
        paths = {
            "table": tmp_path / "table.csv",
            "triples": tmp_path / "triples.csv",
            "manifest": tmp_path / "manifest.ini",
        }
        config_path = write_config(tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths))
        assert cli.main(["simulate", str(config_path)]) == 0
        _, text = cli.load_config(config_path, "simulate")
        # the manifest is the config's canonical text, then an [outputs]
        # section with the content hashes of both outputs
        echoed, sep, outputs = paths["manifest"].read_text().partition("\n[outputs]\n")
        assert sep and echoed == text

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert outputs == (
            f"table_sha256 = {sha256(paths['table'])}\n"
            f"triples_sha256 = {sha256(paths['triples'])}\n"
        )

    def test_estimator_override_section(self, tmp_path):
        paths = {
            "table": tmp_path / "table.csv",
            "triples": tmp_path / "triples.csv",
            "manifest": tmp_path / "manifest.ini",
        }
        text = SIMULATE_TEMPLATE.format(**paths) + (
            "\n[estimator]\nversion = CVK\nvariant = pooled\nmetric = auc\nK1 = 3\nK2 = 3\n"
        )
        config = write_config(tmp_path, "sim.ini", text)
        assert cli.main(["simulate", str(config)]) == 0


class CampaignStarted(Exception):
    """Raised by the stand-in for ``simlab.run_weak_correlation``."""


class TestSimulateConfigErrors:
    """A bad [estimator] or [trainer] section, or class sizes the estimator
    cannot run on, is refused before any trial runs."""

    @pytest.mark.parametrize("estimator, edit, message", [
        ("version = CVN\nvariant = partitioned\nmetric = error\n", None,
         "err_cvn does not take 'variant'"),
        ("version = CVKR\nvariant = reduced\nmetric = error\nK = 2\nM = 3\n", None,
         "variant reduced not defined for this estimator"),
        ("version = CVKM\nmetric = auc\nM = 3\n", None, "CVKM needs 'K1'"),
        ("version = LOOB\nmetric = auc\nB = 20\nK = 7\nth = 3.5\n", None,
         "auc_lpobs does not take 'th'"),
        ("version = CVK\nmetric = auc\nK1 = 2\nK2 = 2\n", ("n1 = 6", "n1 = 1"),
         "AUC estimators require n1 >= 2 and n2 >= 2"),
        ("version = CVK\nmetric = error\nK = 3\n", ("n1 = 6\nn2 = 6", "n1 = 20\nn2 = 20"),
         "K=3 does not divide n=40"),
        ("", ("id = nearest-mean", "id = nearest-mean\nridge = 5"),
         "nearest-mean does not take 'ridge'"),
    ], ids=["cvn-partitioned", "cvkr-reduced", "cvkm-no-k", "loob-auc-th", "auc-n1-1",
            "cvk-k3-n40", "nearest-mean-ridge"])
    def test_exits_2_without_a_trial(self, tmp_path, capsys, monkeypatch, estimator, edit,
                                     message):
        def campaign(*args, **kwargs):
            raise CampaignStarted

        monkeypatch.setattr(simlab, "run_weak_correlation", campaign)
        out = tmp_path / "out"
        paths = {k: out / f"{k}.csv" for k in ("table", "triples", "manifest")}
        text = SIMULATE_TEMPLATE.format(**paths) + "\n[estimator]\n" + estimator
        if edit:
            text = text.replace(*edit)
        assert cli.main(["simulate", str(write_config(tmp_path, "sim.ini", text))]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestRatioCurveConfigErrors:
    """A bad B or grid n1 is refused before the first unit draws its data."""

    @pytest.mark.parametrize("grid, b, message", [
        ("5 0", 2000, "class sizes must be >= 1"),
        ("5", 0, "err_loob requires B >= 1"),
    ], ids=["n1-0", "b-0"])
    def test_exits_2_without_a_unit(self, tmp_path, capsys, monkeypatch, grid, b, message):
        def dataset(*args):
            raise AssertionError("a unit drew its dataset")

        monkeypatch.setattr(simlab, "ratio_curve_dataset", dataset)
        out = tmp_path / "ratio.csv"
        text = (
            f"[curve]\nn1_grid = {grid}\nB = {b}\nreplicates = 50\nseed = 3\n\n"
            f"[trainer]\nid = lda\nridge = 1e-6\n\n[io]\nout_csv = {out}\n"
        )
        assert cli.main(["ratio-curve", str(write_config(tmp_path, "curve.ini", text))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestRatioCurve:
    def test_smoke_and_determinism(self, tmp_path):
        out = tmp_path / "ratio.csv"
        config = write_config(
            tmp_path,
            "curve.ini",
            f"""
[curve]
n1_grid = 3, 5
B = 40
sampling = ordered
replicates = 3
seed = 17

[trainer]
id = lda
ridge = 1e-6

[io]
out_csv = {out}
""",
        )
        assert cli.main(["ratio-curve", str(config)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n1,ratio_empirical,ratio_theory,model"
        assert len(lines) == 3
        first = out.read_bytes()
        assert cli.main(["ratio-curve", str(config)]) == 0
        assert out.read_bytes() == first


# name -> (subcommand, config).  The dataset of "estimate-missing-dataset"
# does not exist: the seed is refused before the dataset is read.
NEGATIVE_SEED_CONFIGS = {
    "estimate": ("estimate", """
[estimator]
version = CVKR
variant = pooled
metric = error
K = 3
M = 2
seed = -1

[trainer]
id = nearest-mean

[io]
dataset = {dataset}
out_json = {out}
"""),
    "estimate-missing-dataset": ("estimate", """
[estimator]
version = LOOB
metric = error
B = 5
seed = -1

[trainer]
id = nearest-mean

[io]
dataset = {missing}
out_json = {out}
"""),
    "simulate": ("simulate", SIMULATE_TEMPLATE.replace("seed = 31", "seed = -5")),
    "ratio-curve": ("ratio-curve", """
[curve]
n1_grid = 3
B = 10
replicates = 2
seed = -3

[trainer]
id = nearest-mean

[io]
out_csv = {out}
"""),
}


def run_cli_process(subcommand, config, umask=-1):
    """``python -m cvlab.cli subcommand config`` in a fresh process, under
    ``umask`` if one is given."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "cvlab.cli", subcommand, str(config)],
        capture_output=True, text=True, env=env, umask=umask,
    )


class TestNegativeSeed:
    @pytest.mark.parametrize("name", sorted(NEGATIVE_SEED_CONFIGS))
    def test_exits_2_without_traceback(self, tmp_path, dataset_csv, name):
        subcommand, text = NEGATIVE_SEED_CONFIGS[name]
        out = tmp_path / "out.txt"
        text = text.format(
            dataset=dataset_csv, missing=tmp_path / "missing.csv", out=out, table=out,
            triples=tmp_path / "t.csv", manifest=tmp_path / "m.ini",
        )
        config = write_config(tmp_path, "negative-seed.ini", text)
        proc = run_cli_process(subcommand, config)
        assert proc.returncode == 2
        assert "error: seed must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


# M = 2^50 rows of 12 one-byte fold ids: about 13.5 PB, above any user
# address space (2^47 bytes on x86-64, 2^52 on arm64), so the map's
# allocation fails at once whatever the overcommit setting.
UNALLOCATABLE_MAP_CONFIGS = {
    "estimate": f"""
[estimator]
version = CVKR
metric = error
K = 2
M = {2**50}
seed = 1

[trainer]
id = nearest-mean

[io]
dataset = {{dataset}}
out_json = {{out}}/est.json
""",
    "simulate": SIMULATE_TEMPLATE + f"""
[estimator]
version = CVKM
metric = error
K = 2
M = {2**50}
""",
}


class TestUnallocatableFoldMap:
    @pytest.mark.parametrize("subcommand", sorted(UNALLOCATABLE_MAP_CONFIGS))
    def test_exits_3_without_traceback(self, tmp_path, subcommand):
        dataset = tmp_path / "data.csv"
        write_dataset_csv(simlab.gen_multinormal(simlab.MultinormalSpec(2, 1.0, 6, 6), 0), dataset)
        out = tmp_path / "out"
        text = UNALLOCATABLE_MAP_CONFIGS[subcommand].format(
            dataset=dataset, out=out, table=out / "table.csv", triples=out / "triples.csv",
            manifest=out / "manifest.ini",
        )
        proc = run_cli_process(subcommand, write_config(tmp_path, "huge-map.ini", text))
        assert proc.returncode == 3
        assert proc.stderr.startswith("estimation error: Unable to allocate")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


NON_FINITE_CONFIGS = {
    "ridge": ("estimate", """
[estimator]
version = CVN
metric = error

[trainer]
id = lda
ridge = nan

[io]
dataset = {dataset}
out_json = {out}
"""),
    "th": ("estimate", """
[estimator]
version = CVN
metric = error
th = inf

[trainer]
id = nearest-mean

[io]
dataset = {dataset}
out_json = {out}
"""),
    "delta": ("simulate", SIMULATE_TEMPLATE.replace("delta = 1.0", "delta = nan")),
}


class TestNonFiniteValues:
    @pytest.mark.parametrize("key", sorted(NON_FINITE_CONFIGS))
    def test_exits_2_naming_the_key(self, tmp_path, dataset_csv, key):
        subcommand, template = NON_FINITE_CONFIGS[key]
        out = tmp_path / "out.txt"
        text = template.format(
            dataset=dataset_csv, out=out, table=out, triples=tmp_path / "t.csv",
            manifest=tmp_path / "m.ini",
        )
        proc = run_cli_process(subcommand, write_config(tmp_path, "non-finite.ini", text))
        assert proc.returncode == 2
        assert f"error: {key} must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class WorkStarted(Exception):
    """Raised by the stand-ins for each subcommand's work."""


REQUIRED_KEYS = [
    (subcommand, name.rstrip("?"), key)
    for subcommand, schema in cli._SCHEMAS.items()
    for name, keys in schema.items()
    for key, kind in keys.items()
    if not kind.endswith("?")
]


def complete_configs(tmp_path, dataset_csv):
    """{subcommand: {section: {key: value}}} of one valid config each, with
    every output under tmp_path / "out"."""
    out = tmp_path / "out"
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("s,s_hat\n0.5,0.4\n0.7,0.6\n")
    trainer = {"id": "nearest-mean"}
    return {
        "estimate": {
            "estimator": {"version": "CVN", "metric": "error"},
            "trainer": trainer,
            "io": {"dataset": dataset_csv, "out_json": out / "e.json", "out_csv": out / "e.csv"},
        },
        "verify": {"verify": {"n_max": 3}},
        "simulate": {
            "data": {"p": 2, "delta": 1.0, "n1": 6, "n2": 6},
            "campaign": {"trials": 10, "test_per_class": 40, "seed": 31},
            "estimator": {"version": "CVN", "metric": "auc"},
            "trainer": trainer,
            "io": {"out_table": out / "t.csv", "out_triples": out / "tr.csv",
                   "out_manifest": out / "m.ini"},
        },
        "ratio-curve": {
            "curve": {"n1_grid": "3", "B": 10, "replicates": 2, "seed": 1},
            "trainer": trainer,
            "io": {"out_csv": out / "r.csv"},
        },
        "decompose": {"io": {"input": pairs, "out_json": out / "d.json"}},
    }


class TestRequiredKeys:
    @pytest.mark.parametrize(
        "subcommand,section,key", REQUIRED_KEYS, ids=["-".join(case) for case in REQUIRED_KEYS]
    )
    def test_missing_key_exits_2_before_any_work(
        self, tmp_path, dataset_csv, capsys, monkeypatch, subcommand, section, key
    ):
        def work(*args, **kwargs):
            raise WorkStarted(subcommand)

        for module, name in [(simlab, "run_weak_correlation"), (simlab, "run_ratio_curve"),
                             (estimators, "run"), (analysis, "decompose"), (cli, "run_verify")]:
            monkeypatch.setattr(module, name, work)
        sections = complete_configs(tmp_path, dataset_csv)[subcommand]
        del sections[section][key]
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in sections.items()
        )
        assert cli.main([subcommand, str(write_config(tmp_path, "missing.ini", text))]) == 2
        assert f"error: missing required key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def config_of(tmp_path, sections):
    """A config file of ``{section: {key: value}}``."""
    return write_config(tmp_path, "c.ini", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    ))


class TestRefusedValues:
    """Values refused at load time or before any work, each with exit 2 and
    its message, and nothing written."""

    @pytest.mark.parametrize("subcommand, section, key", [
        ("estimate", "io", "out_json"), ("simulate", "io", "out_table"),
        ("estimate", "io", "dataset"), ("estimate", "trainer", "id"),
    ])
    def test_an_empty_string_value(self, tmp_path, dataset_csv, capsys, subcommand, section,
                                   key):
        sections = complete_configs(tmp_path, dataset_csv)[subcommand]
        sections[section][key] = ""
        assert cli.main([subcommand, str(config_of(tmp_path, sections))]) == 2
        assert capsys.readouterr().err == (
            f"error: [{section}] {key}: bad value '' (expected a non-empty value)\n")
        assert not (tmp_path / "out").exists()

    def test_an_int_list_with_a_non_integer(self, tmp_path, dataset_csv, capsys):
        sections = complete_configs(tmp_path, dataset_csv)["ratio-curve"]
        sections["curve"]["n1_grid"] = "5, x"
        assert cli.main(["ratio-curve", str(config_of(tmp_path, sections))]) == 2
        assert capsys.readouterr().err == (
            "error: [curve] n1_grid: bad value '5, x' (expected a list of integers, got '5, x')\n")
        assert not (tmp_path / "out").exists()

    def test_a_line_before_any_section_header(self, tmp_path, capsys):
        config = write_config(tmp_path, "c.ini", "n_max = 3\n[verify]\nn_max = 3\n")
        assert cli.main(["verify", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: config parse error: File contains no section headers.\n")

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_an_unreadable_dataset(self, tmp_path, dataset_csv, capsys, kind):
        sections = complete_configs(tmp_path, dataset_csv)["estimate"]
        dataset = tmp_path / "data-dir"
        if kind == "directory":
            dataset.mkdir()
            reason = "[Errno 21] Is a directory"
        else:
            dataset.write_bytes(b"class,f1\n1,0.5\n1,0.7\xe9\n2,1.5\n")
            reason = "'utf-8' codec can't decode"
        sections["io"]["dataset"] = dataset
        assert cli.main(["estimate", str(config_of(tmp_path, sections))]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read dataset {dataset}: {reason}")
        assert not (tmp_path / "out").exists()

    def test_an_out_csv_that_is_a_directory(self, tmp_path, dataset_csv, capsys):
        sections = complete_configs(tmp_path, dataset_csv)["estimate"]
        out_csv = tmp_path / "out-dir"
        out_csv.mkdir()
        sections["io"] = {"dataset": dataset_csv, "out_csv": out_csv}
        assert cli.main(["estimate", str(config_of(tmp_path, sections))]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_csv}: ")
        assert list(tmp_path.glob(f".{out_csv.name}.*.tmp")) == []
        assert list(out_csv.iterdir()) == []

    def test_zero_test_points_per_class(self, tmp_path, dataset_csv, capsys):
        sections = complete_configs(tmp_path, dataset_csv)["simulate"]
        sections["campaign"]["test_per_class"] = 0
        assert cli.main(["simulate", str(config_of(tmp_path, sections))]) == 2
        assert capsys.readouterr().err == "error: test_per_class must be >= 1\n"
        assert not (tmp_path / "out").exists()


class TestDefaultSection:
    """[DEFAULT] is an ordinary section to the config reader, so it is refused
    as unknown, and none of its keys reaches another section."""

    @pytest.mark.parametrize("subcommand", sorted(cli._SCHEMAS))
    def test_exits_2_before_any_work(
        self, tmp_path, dataset_csv, capsys, monkeypatch, subcommand
    ):
        def work(*args, **kwargs):
            raise WorkStarted(subcommand)

        for module, name in [(simlab, "run_weak_correlation"), (simlab, "run_ratio_curve"),
                             (estimators, "run"), (analysis, "decompose"), (cli, "run_verify")]:
            monkeypatch.setattr(module, name, work)
        sections = complete_configs(tmp_path, dataset_csv)[subcommand]
        text = "[DEFAULT]\nseed = 3\n\n" + "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in sections.items()
        )
        assert cli.main([subcommand, str(write_config(tmp_path, "default.ini", text))]) == 2
        assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"
        assert not (tmp_path / "out").exists()

    def test_decompose_writes_no_default_out_json(self, tmp_path, capsys):
        pairs, sneaky = tmp_path / "pairs.csv", tmp_path / "sneaky.json"
        pairs.write_text("s,s_hat\n0.5,0.4\n0.7,0.6\n")
        text = f"[DEFAULT]\nout_json = {sneaky}\n\n[io]\ninput = {pairs}\n"
        assert cli.main(["decompose", str(write_config(tmp_path, "d.ini", text))]) == 2
        assert "error: unknown config section [DEFAULT]" in capsys.readouterr().err
        assert not sneaky.exists()

    def test_verify_does_not_run_on_a_default_n_max(self, tmp_path, capsys):
        text = "[DEFAULT]\nn_max = 3\n\n[verify]\n"
        assert cli.main(["verify", str(write_config(tmp_path, "v.ini", text))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config section [DEFAULT]\n"


def unreadable_case(name, tmp_path, dataset_csv):
    """(subcommand, config path) of a run with a path it cannot read or write."""
    if name == "config-not-utf8":
        config = tmp_path / "latin1.ini"
        config.write_bytes(b"[verify]\nn_max = 5\n# caf\xe9\n")
        return "verify", config
    if name.startswith("pairs-"):
        pairs = {
            "pairs-missing": tmp_path / "missing.csv",
            "pairs-is-directory": tmp_path,
            "pairs-nul-byte": tmp_path / "p\0.csv",
        }.get(name, tmp_path / "pairs.csv")
        if name == "pairs-field-too-large":
            pairs.write_text("s,s_hat\n0.5," + "1" * 200_000 + "\n")
        elif name == "pairs-not-utf8":
            pairs.write_bytes(b"s,s_hat\n0.5,0.4\n0.7,0.6\xe9\n")
        text = f"[io]\ninput = {pairs}\nout_json = {tmp_path / 'out.json'}\n"
        return "decompose", write_config(tmp_path, "unreadable.ini", text)
    dataset, out_json = dataset_csv, tmp_path / "out.json"
    if name == "dataset-not-utf8":
        dataset = tmp_path / "latin1.csv"
        dataset.write_bytes(b"class,f1\n1,0.5\n1,0.7\xe9\n2,1.5\n")
    elif name == "dataset-field-too-large":
        dataset = tmp_path / "wide.csv"
        dataset.write_text("class,f1\n1," + "1" * 200_000 + "\n2,1.5\n")
    elif name == "dataset-is-directory":
        dataset = tmp_path
    elif name == "dataset-missing":
        dataset = tmp_path / "missing.csv"
    elif name == "dataset-nul-byte":
        dataset = tmp_path / "d\0.csv"
    elif name == "out-json-is-directory":
        out_json = tmp_path / "out-dir"
        out_json.mkdir()
    elif name == "out-json-nul-byte":
        out_json = tmp_path / "o\0.json"
    text = (
        "[estimator]\nversion = CVN\nmetric = error\n\n[trainer]\nid = nearest-mean\n\n"
        f"[io]\ndataset = {dataset}\nout_json = {out_json}\n"
    )
    return "estimate", write_config(tmp_path, "unreadable.ini", text)


class TestUnreadablePaths:
    @pytest.mark.parametrize("name", [
        "config-not-utf8", "dataset-not-utf8", "dataset-field-too-large",
        "dataset-is-directory", "dataset-missing", "dataset-nul-byte", "out-json-is-directory",
        "out-json-nul-byte", "pairs-field-too-large", "pairs-not-utf8", "pairs-nul-byte",
        "pairs-missing", "pairs-is-directory",
    ])
    def test_exits_2_without_traceback(self, tmp_path, dataset_csv, name):
        proc = run_cli_process(*unreadable_case(name, tmp_path, dataset_csv))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot ")
        assert "Traceback" not in proc.stderr


class TestSameFilePaths:
    """Two [io] paths that resolve to one file are refused at load time, so
    no output overwrites an input or another output."""

    @pytest.mark.parametrize("subcommand, first, second, spelling", [
        ("estimate", "dataset", "out_json", "same"),
        ("estimate", "dataset", "out_json", "dot"),
        ("estimate", "dataset", "out_csv", "link"),
        ("simulate", "out_table", "out_triples", "same"),
        ("decompose", "input", "out_csv", "same"),
    ])
    def test_exits_2_before_anything_is_read_or_written(
        self, tmp_path, dataset_csv, capsys, monkeypatch, subcommand, first, second, spelling
    ):
        def work(*args, **kwargs):
            raise WorkStarted(subcommand)

        for module, name in [(simlab, "run_weak_correlation"), (estimators, "run"),
                             (analysis, "decompose"), (cli, "read_dataset_csv"),
                             (cli, "read_csv_table")]:
            monkeypatch.setattr(module, name, work)
        monkeypatch.chdir(tmp_path)
        sections = complete_configs(tmp_path, dataset_csv)[subcommand]
        io_section = sections["io"]
        if spelling == "dot":
            io_section[first] = Path(io_section[first]).relative_to(tmp_path)
            io_section[second] = f"./{io_section[first]}"
        elif spelling == "link":
            (tmp_path / "link").symlink_to(io_section[first])
            io_section[second] = tmp_path / "link"
        else:
            io_section[second] = io_section[first]
        before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
        config = config_of(tmp_path, sections)
        assert cli.main([subcommand, str(config)]) == 2
        assert capsys.readouterr().err == f"error: [io] {first} and {second} name the same file\n"
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path != config} == before


class TestOutputModes:
    @pytest.mark.parametrize("subcommand, keys", [
        ("estimate", ["out_json", "out_csv"]),
        ("simulate", ["out_table", "out_triples", "out_manifest"]),
    ])
    def test_outputs_honour_the_umask(self, tmp_path, dataset_csv, subcommand, keys):
        for umask in (0o022, 0o077):
            work = tmp_path / f"umask-{umask:03o}"
            work.mkdir()
            sections = complete_configs(work, dataset_csv)[subcommand]
            proc = run_cli_process(subcommand, config_of(tmp_path, sections), umask=umask)
            assert proc.returncode == 0, proc.stderr
            modes = {key: stat.S_IMODE(os.stat(sections["io"][key]).st_mode) for key in keys}
            assert modes == dict.fromkeys(keys, 0o666 & ~umask)


class TestDecompose:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        s = rng.normal(0.6, 0.05, 200)
        s_hat = 0.5 * s + rng.normal(0.3, 0.08, 200)
        paired = tmp_path / "paired.csv"
        paired.write_text(
            "s,s_hat\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(s, s_hat))
            + "\n"
        )
        out_json = tmp_path / "decomp.json"
        out_csv = tmp_path / "decomp.csv"
        config = write_config(
            tmp_path,
            "dec.ini",
            f"[io]\ninput = {paired}\nout_json = {out_json}\nout_csv = {out_csv}\n",
        )
        assert cli.main(["decompose", str(config)]) == 0
        payload = json.loads(out_json.read_text())
        assert abs(payload["residual"]) <= 1e-12
        assert payload["trials"] == 200
        header = out_csv.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["schema", "trials", "mean_s"]

    def test_degenerate_input_still_reports(self, tmp_path):
        paired = tmp_path / "flat.csv"
        paired.write_text("s,s_hat\n0.5,0.1\n0.5,0.9\n")
        out_json = tmp_path / "flat.json"
        config = write_config(
            tmp_path, "flat.ini", f"[io]\ninput = {paired}\nout_json = {out_json}\n"
        )
        assert cli.main(["decompose", str(config)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["degenerate"] is True
        assert payload["rho"] is None

    def test_bad_header_exits_2(self, tmp_path):
        paired = tmp_path / "bad.csv"
        paired.write_text("x,y\n0.5,0.1\n")
        config = write_config(
            tmp_path, "bad.ini", f"[io]\ninput = {paired}\nout_json = {tmp_path/'o.json'}\n"
        )
        assert cli.main(["decompose", str(config)]) == 2

    def test_one_field_row_exits_2_naming_the_line(self, tmp_path, capsys):
        paired = tmp_path / "short.csv"
        paired.write_text("s,s_hat\n0.5,0.1\n0.7\n")
        config = write_config(
            tmp_path, "short.ini", f"[io]\ninput = {paired}\nout_json = {tmp_path/'o.json'}\n"
        )
        assert cli.main(["decompose", str(config)]) == 2
        assert f"{paired}:3: expected 2 fields" in capsys.readouterr().err


# name -> (file text, the message after "error: "), for each reader error.
DATASET_ERRORS = {
    "empty": ("", "{path}: empty dataset file"),
    "no-feature-column": ("class\n1\n2\n", "{path}: no feature columns"),
    "first-column": ("label,f1\n1,0.5\n2,1.5\n", "{path}: first column must be 'class'"),
    "wrong-header": ("class,x1\n1,0.5\n2,1.5\n", "{path}: header must be class,f1"),
    "field-count": ("class,f1\n1,0.5\n2,1.5,2.5\n", "{path}:3: expected 2 fields"),
    "bad-number": ("class,f1\n1,0.5\n2,abc\n",
                   "{path}:3: could not convert string to float: 'abc'"),
    "class-3-after-blank-row": ("class,f1\n1,0.5\n\n3,1.5\n", "{path}:4: class must be 1 or 2"),
    "class-3-after-multiline-field": ('class,f1\n1,"0.5\n"\n2,1.5\n3,2.0\n',
                                      "{path}:5: class must be 1 or 2"),
    "one-class": ("class,f1\n1,0.5\n1,0.7\n", "{path}: both classes must be present"),
}
PAIRS_ERRORS = {
    "empty": ("", "{path}: empty pairs file"),
    "bad-header": ("x,y\n0.5,0.1\n0.7,0.6\n", "{path}: expected header 's,s_hat'"),
    "one-field-row": ("s,s_hat\n0.5,0.1\n0.7\n", "{path}:3: expected 2 fields"),
    "one-field-row-after-blank-row": ("s,s_hat\n0.5,0.1\n\n0.7\n", "{path}:4: expected 2 fields"),
    "one-field-row-after-multiline-field": ('s,s_hat\n0.5,"0.1\n"\n0.6,0.2\n0.7\n',
                                            "{path}:5: expected 2 fields"),
    "bad-number": ("s,s_hat\n0.5,0.1\n0.7,x\n", "{path}:3: could not convert string to float: 'x'"),
    "one-pair": ("s,s_hat\n0.5,0.1\n", "need at least two trials"),
    "non-finite": ("s,s_hat\n0.5,0.1\n0.7,nan\n", "entries must be finite"),
}


class TestReaderMessages:
    """Each input-file error is one ``error:`` line naming its file once."""

    @pytest.mark.parametrize("name", sorted(DATASET_ERRORS))
    def test_dataset(self, tmp_path, capsys, name):
        text, message = DATASET_ERRORS[name]
        path = tmp_path / "data.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        config = estimate_config(tmp_path, path, version="CVN", out_json=out)
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(PAIRS_ERRORS))
    def test_pairs(self, tmp_path, capsys, name):
        text, message = PAIRS_ERRORS[name]
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "dec.ini", f"[io]\ninput = {path}\nout_json = {out}\n")
        assert cli.main(["decompose", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_blank_rows_are_skipped(self, tmp_path, dataset_csv):
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(dataset_csv.read_text().replace("\n", "\n\n"))
        outs = []
        for path in (dataset_csv, spaced):
            out = tmp_path / f"{path.stem}.json"
            config = estimate_config(tmp_path, path, version="CVN", out_json=out)
            assert cli.main(["estimate", str(config)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# name -> (file text, the message after "error: ") for a pairs file one
# column wider than ``s,s_hat``, in its header or in a row.
WIDE_PAIRS = {
    "third-header-column": ("s,s_hat,note\n0.5,0.1,1\n0.7,0.6,2\n",
                            "{path}: expected header 's,s_hat'"),
    "third-field": ("s,s_hat\n0.5,0.1\n0.7,0.6,0.9\n0.2,0.3\n", "{path}:3: expected 2 fields"),
}


class TestOneTableReader:
    """Both CSV inputs go through ``core.read_csv_table``: every row as wide
    as the header and every field a float, before the caller's own rules."""

    @pytest.mark.parametrize("name", sorted(WIDE_PAIRS))
    def test_a_wider_pairs_file_exits_2_and_writes_nothing(self, tmp_path, capsys, name):
        text, message = WIDE_PAIRS[name]
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        config = write_config(tmp_path, "dec.ini", f"[io]\ninput = {path}\nout_json = {out}\n")
        assert cli.main(["decompose", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_a_label_that_reads_as_a_float_is_its_class(self, tmp_path, dataset_csv):
        floats = tmp_path / "floats.csv"
        lines = dataset_csv.read_text().splitlines()
        floats.write_text("\n".join(lines[:1] + [f"{line[0]}.0{line[1:]}" for line in lines[1:]]))
        assert floats.read_text().splitlines()[1].startswith("1.0,")
        outs = []
        for path in (dataset_csv, floats):
            out = tmp_path / f"{path.stem}.json"
            config = estimate_config(tmp_path, path, version="CVN", out_json=out)
            assert cli.main(["estimate", str(config)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text, message", [
        ("class,f1\n1,0.5\none,1.5\n2,0.1\n", "{path}:3: could not convert string to float: 'one'"),
        ("class,f1\n3,0.5\n1,0.1\n2,1.5,9\n", "{path}:4: expected 2 fields"),
        ("class,f1\n3,0.5\n1,0.1\n2,x\n", "{path}:4: could not convert string to float: 'x'"),
        ("class,f1\n1,0.5\n2.5,0.1\n2,1.5\n", "{path}:3: class must be 1 or 2"),
    ], ids=["word-label", "bad-label-then-wide-row", "bad-label-then-bad-number",
            "fractional-label"])
    def test_labels_are_checked_after_every_row_is_read(self, tmp_path, capsys, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        config = estimate_config(tmp_path, path, version="CVN", out_json=out)
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()


def estimator_text(tmp_path, dataset_csv, out, metric, lines):
    return write_config(tmp_path, "est.ini", "\n".join([
        "[estimator]", f"metric = {metric}", *lines,
        "[trainer]", "id = nearest-mean",
        "[io]", f"dataset = {dataset_csv}", f"out_json = {out}",
    ]) + "\n")


class TestUnusedEstimatorKeys:
    """A seed on a version that does not draw, any other key a version does
    not take, at any value, and a ``strict`` key exit 2 before the dataset is
    read."""

    @pytest.mark.parametrize("name, metric, lines", [
        ("err_cvn", "error", ["version = CVN"]),
        ("auc_cvn", "auc", ["version = CVN"]),
    ], ids=["err_cvn", "auc_cvn"])
    def test_a_seed_its_version_does_not_take(self, tmp_path, dataset_csv, capsys, name,
                                              metric, lines):
        out = tmp_path / "out.json"
        config = estimator_text(tmp_path, dataset_csv, out, metric, lines)
        assert cli.main(["estimate", str(config)]) == 0
        config = estimator_text(tmp_path, dataset_csv, out, metric, lines + ["seed = 7"])
        out.unlink()
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {name} does not take 'seed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["estimate", "simulate"])
    def test_strict_is_an_unknown_key(self, tmp_path, dataset_csv, capsys, subcommand):
        """A pooled estimate always drops the units no task tested and counts
        them in ``excluded_count``; there is no key to raise instead."""
        out = tmp_path / "out"
        lines = ["version = CVKM", "K = 3", "M = 4", "variant = pooled"]

        def config(extra):
            if subcommand == "estimate":
                return estimator_text(tmp_path, dataset_csv, out / "est.json", "error",
                                      lines + ["seed = 1"] + extra)
            paths = {k: out / f"{k}.csv" for k in ("table", "triples", "manifest")}
            return write_config(tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths)
                                + "\n".join(["[estimator]", "metric = error", *lines, *extra]))

        assert cli.main([subcommand, str(config(["strict = true"]))]) == 2
        assert capsys.readouterr().err == "error: unknown key 'strict' in section [estimator]\n"
        assert not out.exists()
        assert cli.main([subcommand, str(config([]))]) == 0

    # case -> (metric, the version's lines, a key it does not take at that
    # key's default value, the estimator's name)
    UNTAKEN_AT_DEFAULT = {
        "variant-on-error-cvn": ("error", ["version = CVN"], "variant = pooled", "err_cvn"),
        "th-on-auc-cvkr": ("auc", ["version = CVKR", "K1 = 3", "K2 = 3", "M = 2"], "th = 0.0",
                           "auc_cvkr"),
        "sampling-on-cvkm": ("error", ["version = CVKM", "K = 3", "M = 2"], "sampling = ordered",
                             "err_cvkm"),
    }

    @pytest.mark.parametrize("subcommand", ["estimate", "simulate"])
    @pytest.mark.parametrize("case", sorted(UNTAKEN_AT_DEFAULT))
    def test_an_untaken_key_at_its_default_value(self, tmp_path, dataset_csv, capsys,
                                                 subcommand, case):
        """The default value is no exception: the key is refused, while the
        same config without it runs."""
        metric, lines, extra, name = self.UNTAKEN_AT_DEFAULT[case]
        out = tmp_path / "out"

        def config(given):
            if subcommand == "estimate":
                seed = [] if "version = CVN" in lines else ["seed = 1"]
                return estimator_text(tmp_path, dataset_csv, out / "est.json", metric,
                                      lines + seed + given)
            paths = {k: out / f"{k}.csv" for k in ("table", "triples", "manifest")}
            return write_config(tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths) + "\n".join(
                ["[estimator]", f"metric = {metric}", *lines, *given]))

        assert cli.main([subcommand, str(config([extra]))]) == 2
        key = extra.split(" = ")[0]
        assert capsys.readouterr().err == f"error: {name} does not take '{key}'\n"
        assert not out.exists()
        assert cli.main([subcommand, str(config([]))]) == 0

    def test_a_cvk_campaign_still_runs(self, tmp_path):
        paths = {k: tmp_path / f"{k}.csv" for k in ("table", "triples", "manifest")}
        text = (SIMULATE_TEMPLATE.format(**paths)
                + "\n[estimator]\nversion = CVK\nmetric = auc\nK1 = 2\nK2 = 2\n")
        assert cli.main(["simulate", str(write_config(tmp_path, "sim.ini", text))]) == 0
        assert len(paths["triples"].read_text().splitlines()) == 11


TWELVE_POINT = StratifiedDataset(
    np.random.default_rng(6).normal(0, 1, (6, 2)), np.random.default_rng(7).normal(1, 1, (6, 2))
)


class TestCvkSeed:
    """CVK draws its one run's folds from its seed, as row 0 of the
    repeated-CV map, so an ``estimate`` config must give one."""

    @pytest.mark.parametrize("metric, lines", [
        ("error", ["version = CVK", "K = 3"]),
        ("auc", ["version = CVK", "K1 = 3", "K2 = 3"]),
    ], ids=["error", "auc"])
    def test_cvk_needs_a_seed(self, tmp_path, dataset_csv, capsys, metric, lines):
        out = tmp_path / "out.json"
        config = estimator_text(tmp_path, dataset_csv, out, metric, lines)
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == "error: CVK needs 'seed'\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", range(4))
    def test_error_k2_runs_on_shuffled_folds(self, tmp_path, seed):
        """Shuffled K = 2 folds of a 6+6 set keep both classes in every
        training set, where contiguous blocks of the class-sorted order would
        each hold one whole class (``estimation error: fold 1 leaves a
        one-class training set``, exit 3)."""
        dataset = tmp_path / "twelve.csv"
        write_dataset_csv(TWELVE_POINT, dataset)
        out = tmp_path / "out.json"
        lines = ["version = CVK", "K = 2", f"seed = {seed}"]
        config = estimator_text(tmp_path, dataset, out, "error", lines)
        assert cli.main(["estimate", str(config)]) == 0
        payload = json.loads(out.read_text())
        want = estimators.err_cvk(TWELVE_POINT, NearestMeanTrainer(), 0.0, 2, seed=seed)
        assert (payload["value"], payload["seed"]) == (want.value, seed)


class TestBoundMessages:
    """A size bound names its config key."""

    def test_zero_repetitions_names_m(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "out.json"
        config = estimate_config(
            tmp_path, dataset_csv, version="CVKR", variant="pooled", out_json=out,
            extra="K = 3\nM = 0\nseed = 1",
        )
        assert cli.main(["estimate", str(config)]) == 2
        assert capsys.readouterr().err == "error: err_cvkr requires M >= 1\n"
        assert not out.exists()

    def test_zero_curve_replicates_names_b(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        text = (
            "[curve]\nn1_grid = 3\nB = 0\nreplicates = 2\nseed = 3\n\n"
            f"[trainer]\nid = nearest-mean\n\n[io]\nout_csv = {out}\n"
        )
        assert cli.main(["ratio-curve", str(write_config(tmp_path, "curve.ini", text))]) == 2
        assert capsys.readouterr().err == "error: err_loob requires B >= 1\n"
        assert not out.exists()


class TestEstimatorKeys:
    def test_schema_keys_are_the_config_fields(self):
        """The [estimator] keys are the EstimatorConfig fields other than the
        seed, the sizes spelled through ``_SIZES``; ``estimate`` adds only
        seed."""
        fields = [f.name for f in dataclasses.fields(estimators.EstimatorConfig)]
        keys = {estimators._SIZES.get(f, (f,))[0] for f in fields if f != "seed"}
        assert set(cli._ESTIMATOR_KEYS) == keys
        assert cli._SCHEMAS["estimate"]["estimator"] == {**cli._ESTIMATOR_KEYS, "seed": "int?"}


class TestImportCost:
    def test_import_leaves_numpy_random_and_multiprocessing_unloaded(self):
        """Every CLI call pays for what ``import cvlab.cli`` loads, so the
        modules that only some runs use load when a run first needs them."""
        script = (
            "import sys\nimport cvlab.cli\n"
            "print(sorted(m for m in ('numpy.random', 'multiprocessing') if m in sys.modules))\n"
        )
        _, loaded = fresh_process_peak(script)
        assert loaded == "[]"

    def test_fork_map_leaves_multiprocessing_and_signal_unloaded(self, tmp_path):
        """A campaign's units run in a fork map of ``os.fork`` and pipes,
        so a pooled ``simulate`` or ``ratio-curve`` loads no multiprocessing;
        nor ``signal``, which only a map that raises needs."""
        paths = {name: tmp_path / f"{name}.csv" for name in ("table", "triples", "manifest")}
        simulate = write_config(tmp_path, "sim.ini", SIMULATE_TEMPLATE.format(**paths))
        curve = write_config(tmp_path, "curve.ini", (
            "[curve]\nn1_grid = 3, 5\nB = 40\nsampling = ordered\nreplicates = 3\nseed = 17\n"
            f"[trainer]\nid = lda\nridge = 1e-6\n[io]\nout_csv = {tmp_path / 'ratio.csv'}\n"
        ))
        script = (
            "import sys\nfrom cvlab import cli, simlab\n"
            "simlab._usable_cpus = lambda: 3\n"
            f"assert cli.main(['simulate', {str(simulate)!r}]) == 0\n"
            f"assert cli.main(['ratio-curve', {str(curve)!r}]) == 0\n"
            "print(sorted(m for m in ('multiprocessing', 'signal') if m in sys.modules))\n"
        )
        _, loaded = fresh_process_peak(script)
        assert loaded.splitlines()[-1] == "[]"


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        config = write_config(tmp_path, "weird.ini", "[verify]\nn_max = 5\n\n[extra]\nx = 1\n")
        assert cli.main(["verify", str(config)]) == 2

    @pytest.mark.parametrize(
        "subcommand", ["estimate", "verify", "simulate", "ratio-curve", "decompose"]
    )
    def test_run_section_is_unknown(self, tmp_path, capsys, subcommand):
        config = write_config(tmp_path, "run.ini", "[run]\nthreads = 2\n")
        assert cli.main([subcommand, str(config)]) == 2
        assert "unknown config section [run]" in capsys.readouterr().err

    def test_missing_file(self):
        assert cli.main(["verify", "/nonexistent/path.ini"]) == 2

    def test_render_parse_round_trip(self, tmp_path):
        text = "[estimator]\nversion=cvkr\nmetric =  auc \nK1 = 2\nK2 = 2\nM = 3\n" + (
            "[trainer]\nid = lda\nridge = 1e-3\n[io]\ndataset = d.csv\n"
        )
        values, canonical = cli.load_config(write_config(tmp_path, "a.ini", text), "estimate")
        assert canonical.startswith("[estimator]\nversion = cvkr\nmetric = auc\nK1 = 2\n")
        assert values["estimator"]["version"] is estimators.Version.CVKR
        # re-reading a canonical text gives the same text and sections
        again = cli.load_config(write_config(tmp_path, "b.ini", canonical), "estimate")
        assert again == (values, canonical)
