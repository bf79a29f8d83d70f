"""Fuzz of the CLI's exit-code contract, run in-process through ``cli.main``.

Each example writes a config built from one subcommand's schema keys, a
dataset CSV and a decompose pairs CSV, then runs the subcommand.  Half of the
examples are clean (every key the run uses present with a plausible value:
the [estimator] keys the drawn version takes, and ridge only for lda), so
that many runs get past the config checks; the other half are noisy: they
drop sections and keys, and mix in negative ints, junk values (non-ASCII and
NUL text), odd paths and junk lines.  Every [io] path, junk or odd, lies in
the example's own temporary directory.  Whatever the input, ``main`` must
return 0, 2 or 3 (or 1 for ``verify``) and let no exception escape.  Every
count that sizes a job (B, M, trials, replicates, n_max, test_per_class, p,
the class sizes) stays at most 12, so no example runs a large job.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvlab import cli, estimators
from cvlab.estimators import Metric, Version

SMALL_INTS = st.integers(min_value=-3, max_value=12)
POSITIVE_INTS = st.integers(min_value=1, max_value=12)
JUNK = st.text(st.sampled_from("a1-.,é\x00ß☃ "), max_size=6)
ODD_PATHS = st.sampled_from(["missing.csv", ".", "o\x00.json", "data.csv", "out"])
JUNK_LINES = st.sampled_from(
    ["[junk]", "junk", "= 1", "  cont = 2", "[io]", "# c", "%(x)s = 1", "\x00", "é = 1", "K = 2",
     "[DEFAULT]"]
)
ENUMS = {
    "version": ["CVN", "CVK", "CVKR", "CVKM", "LOOB", "cvkr"],
    "variant": ["pooled", "partitioned", "reduced"],
    "metric": ["error", "auc"],
    "sampling": ["ordered", "unordered-multiset"],
    "bool": ["true", "false", "1", "0", "no"],
    "str": ["lda", "nearest-mean"],
    "float": ["0.5", "1e-3", "0", "1", "2.5"],
}
NUMBERS = st.one_of(SMALL_INTS.map(str), st.sampled_from(["nan", "inf", "-inf"] + ENUMS["float"]))


def rarely(draw) -> bool:
    """True about one time in ten."""
    return draw(st.sampled_from([False] * 9 + [True]))


def typed_value(draw, section, key, kind, noisy):
    """A value of the schema's type for (section, key).  An [io] value is a
    path under ``{tmp}/``, so no run writes outside the example's directory;
    a noisy one is rarely a junk name or an odd path there."""
    if section == "io":
        name = {"dataset": "data.csv", "input": "pairs.csv"}.get(key, f"out/{key}")
        if noisy and rarely(draw):
            name = draw(JUNK)
        elif noisy and rarely(draw):
            name = draw(ODD_PATHS)
        return "{tmp}/" + name
    if noisy and rarely(draw):
        return draw(JUNK)
    if kind == "float" and noisy:
        return draw(NUMBERS)
    if kind in ENUMS:
        return draw(st.sampled_from(ENUMS[kind]))
    ints = SMALL_INTS if noisy else POSITIVE_INTS
    if kind == "int_list":
        return ", ".join(map(str, draw(st.lists(ints, min_size=0 if noisy else 1, max_size=3))))
    return str(draw(ints))


FIELD_OF = {key: field for field, key in estimators._CONFIG_KEYS.items()}


def used(section, values, key) -> bool:
    """Whether the run uses ``key`` of a section whose drawn ``values`` are
    given: an [estimator] key that the drawn version takes (or the version,
    metric or seed), and ridge only for lda."""
    if section == "trainer":
        return key != "ridge" or values["id"] == "lda"
    if section != "estimator" or key in ("version", "metric", "seed"):
        return True
    version, metric = Version(values["version"].upper()), Metric(values["metric"])
    return FIELD_OF.get(key, key) in estimators._DISPATCH[metric, version][1].split()


def config_text(draw, subcommand, noisy):
    lines = []
    for name, keys in cli._SCHEMAS[subcommand].items():
        if noisy and rarely(draw):
            continue
        section = name.rstrip("?")  # "?" marks an optional section or key
        lines.append(f"[{section}]")
        values = {}
        for key, kind in keys.items():
            if not (noisy and rarely(draw)):
                values[key] = typed_value(draw, section, key, kind.rstrip("?"), noisy)
        lines += [f"{key} = {value}" for key, value in values.items()
                  if noisy or used(section, values, key)]
    while noisy and rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINES))
    return "\n".join(lines) + "\n"


def csv_text(draw, header, rows, noisy):
    """``header`` and ``rows`` (lists of cells) as CSV; a noisy file may have
    a junk header and, rarely, a row cut short or with junk cells added."""
    if noisy and rarely(draw):
        header = draw(st.lists(JUNK, min_size=1, max_size=3))
    lines = [",".join(header)]
    for row in rows:
        if noisy and rarely(draw):
            row = row[:draw(st.integers(0, len(row)))] + draw(
                st.lists(st.one_of(NUMBERS, JUNK), max_size=2))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def dataset_text(draw, noisy):
    p = draw(st.integers(1, 3))
    sizes = st.integers(0 if noisy else 1, 12)
    labels = [1] * draw(sizes) + [2] * draw(sizes)
    features = st.integers(-3, 3).map(str)
    rows = [[str(label)] + [draw(features) for _ in range(p)] for label in labels]
    return csv_text(draw, ["class"] + [f"f{j}" for j in range(1, p + 1)], rows, noisy)


def pairs_text(draw, noisy):
    cells = NUMBERS if noisy else st.sampled_from(["0", "0.25", "0.5", "0.75", "1"])
    rows = [[draw(cells), draw(cells)] for _ in range(draw(st.integers(0, 12)))]
    return csv_text(draw, ["s", "s_hat"], rows, noisy)


@st.composite
def cli_run(draw):
    """(subcommand, config text, dataset CSV text, pairs CSV text)."""
    subcommand = draw(st.sampled_from(sorted(cli._SCHEMAS)))
    noisy = draw(st.booleans())
    return (subcommand, config_text(draw, subcommand, noisy), dataset_text(draw, noisy),
            pairs_text(draw, noisy))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_io_values_stay_under_tmp(data):
    subcommand = data.draw(st.sampled_from(sorted(cli._SCHEMAS)))
    text = config_text(data.draw, subcommand, data.draw(st.booleans()))
    io_keys = cli._SCHEMAS[subcommand].get("io", {})
    section = None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        key, sep, value = line.partition(" = ")
        if section == "io" and sep and key in io_keys:
            assert value.startswith("{tmp}/"), line


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(run=cli_run())
def test_main_keeps_exit_code_contract(tmp_path, run):
    subcommand, config, dataset, pairs = run
    (tmp_path / "data.csv").write_text(dataset, encoding="utf-8")
    (tmp_path / "pairs.csv").write_text(pairs, encoding="utf-8")
    path = tmp_path / "fuzz.ini"
    path.write_text(config.replace("{tmp}", str(tmp_path)), encoding="utf-8")
    allowed = {0, 1, 2, 3} if subcommand == "verify" else {0, 2, 3}
    assert cli.main([subcommand, str(path)]) in allowed
