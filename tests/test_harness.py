import dataclasses
import functools
import json
import math
import os
import pathlib
import pickle
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from setlp import harness, matrices, operators, seminorms
from setlp.bodies import ConvexBody, magnitude
from setlp.cli import _CONFIG_KEYS, ConfigError, _build_config, build_parser, load_config, main
from setlp.fields import SetField, random_simple_field
from setlp.grids import DyadicDomain
from setlp.harness import (
    DEFAULT_TRIALS,
    SUITE_RUNNERS,
    SUITES,
    ExperimentConfig,
    ExperimentReport,
    _comparability_block,
    _comparability_draw,
    _endpoint_trial,
    _failure_fixture,
    _fixture_pair,
    _jsonable,
    _marcinkiewicz_trial,
    _run_trials,
    _usable_cores,
    run_bodies_selftest,
    run_endpoint_bounds,
    run_marcinkiewicz,
    run_reverse_factorization,
    run_riesz_thorin,
    thread_count,
    trial_field,
)
from setlp.matrices import MatrixField, random_spd_matrix, spd_stack
from setlp.operators import ExponentConfig
from setlp.seminorms import (
    _NESTED_BLOCK,
    GeometricMeanDoubleDual,
    MatrixNorm,
    direction_grid,
    inner_duals,
    nested_maxima,
)
from setlp.weights import averaging_norms, reverse_factorization


def test_config_validation():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="level"):
        ExperimentConfig(level=0)
    with pytest.raises(ValueError, match="level"):
        ExperimentConfig(level=11)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(alpha=1.0)
    with pytest.raises(ValueError, match="interpolation"):
        ExperimentConfig(ts=(0.5, 1.0))
    with pytest.raises(ValueError, match="direction"):
        ExperimentConfig(directions=4)
    with pytest.raises(ValueError, match="fixtures"):
        ExperimentConfig(fixtures=("euclidean", "bogus"))


def test_config_rejects_a_direction_count_that_is_not_an_integer():
    for bad in (240.5, 240.0, "240"):
        with pytest.raises(ValueError, match="directions must be an integer"):
            ExperimentConfig(directions=bad)
    assert ExperimentConfig(directions=240).directions == 240


def test_config_trial_counts():
    cfg = ExperimentConfig()
    assert cfg.trial_count("marcinkiewicz") == DEFAULT_TRIALS["marcinkiewicz"]
    assert ExperimentConfig(trials=3).trial_count("riesz-thorin") == 3
    assert set(SUITES) < set(SUITE_RUNNERS)


def test_config_refuses_bools_and_non_numbers_by_name():
    # bool is an int: a flag-like true must not pass as seed 1 and echo as true
    for key, bad in (("seed", True), ("level", True), ("trials", True), ("directions", True),
                     ("alpha", "0.5"), ("alpha", True), ("ts", ("0.5",)), ("ts", (True,)),
                     ("ts", ()), ("fixtures", (["euclidean"],)), ("fixtures", ()),
                     ("name", 5), ("out", 7), ("emit_plot_data", "false"),
                     ("emit_plot_data", 1), ("exponents", {"p0": 2.0})):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            ExperimentConfig(**{key: bad})
    assert ExperimentConfig(seed=0, trials=1, directions=8).to_dict()["seed"] == 0


def test_config_refuses_exponents_of_another_order():
    supplied = ExponentConfig.for_fractional_maximal(0.5, 0.5)
    with pytest.raises(ValueError, match="^exponents give alpha=0.5, config has alpha=0.25"):
        ExperimentConfig(alpha=0.25, exponents=supplied)
    assert ExperimentConfig(exponents=supplied).exponents is supplied


def test_config_echo_leaves_out_where_and_what_is_written():
    keys = {"name", "seed", "level", "trials", "alpha", "ts", "directions", "fixtures"}
    config = ExperimentConfig(out="x", emit_plot_data=True)
    assert set(config.to_dict()) == keys
    assert config.to_dict()["ts"] == [0.25, 0.5, 0.75]
    supplied = ExponentConfig.for_fractional_maximal(0.5, 0.4)
    echoed = ExperimentConfig(exponents=supplied).to_dict()
    assert set(echoed) == keys | {"exponents"}
    assert echoed["exponents"] == supplied.to_dict()


_EXPONENTS = '"exponents": {"p0": 2.0, "q0": "inf", "p1": 1.0, "q1": 2.0, "t": 0.5}'


@pytest.mark.parametrize("body,line,msg", [
    ('{\n  "seed": true\n}\n', 2, "seed must be "),
    ('{\n  "level": true\n}\n', 2, "level must be "),
    ('{\n  "trials": true\n}\n', 2, "trials must be "),
    ('{\n  "alpha": "0.5"\n}\n', 2, "alpha must be "),
    ('{\n  "seed": 3,\n  "directions": 4\n}\n', 3, "directions must be "),
    ('{\n  "ts": [0.5, 1.5]\n}\n', 2, "ts must be "),
    ('{\n  "ts": 0.5\n}\n', 2, "ts must be "),
    ('{\n  "name": "short",\n  "t": 1.5\n}\n', 3, "ts must be "),
    ('{\n  "seed": 3,\n  "fixtures": ["nope"]\n}\n', 3, "fixtures must be "),
    ('{\n  "seed": 3,\n  "emit_plot_data": "false"\n}\n', 3, "emit_plot_data must be "),
    ('{\n  "seed": 3,\n  "name": 5\n}\n', 3, "name must be a string, got 5"),
    # a key's name inside a nested object or a string value is not its line
    ('{\n  ' + _EXPONENTS + ',\n  "t": 1.5\n}\n', 3, "ts must be "),
    ('{\n  "out": "seed",\n  "seed": -1\n}\n', 3, "seed must be "),
    ('{\n  "alpha": 0.25,\n  ' + _EXPONENTS + '\n}\n', 3,
     "exponents give alpha=0.5, config has alpha=0.25"),
    ('{\n  "seed": 3,\n  "exponents": {"p0": 0.5}\n}\n', 3, "exponents are invalid: "),
    ('{\n  "seed": 3,\n  "fixtures": []\n}\n', 3, "fixtures must be a nonempty tuple"),
    ('{\n  "seed": 3,\n  "seed": 4\n}\n', 3, "duplicate config key 'seed'"),
    ('{\n  "ts": [0.5],\n  "t": 0.5\n}\n', 3, "'t' and 'ts' both set ts"),
    ('{\n  "t": 0.5,\n  "ts": [0.5]\n}\n', 3, "'t' and 'ts' both set ts"),
])
def test_cli_config_value_errors_open_with_their_key_line(tmp_path, capsys, body, line, msg):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert main(["riesz-thorin", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{line}: {msg}")
    assert not (tmp_path / "riesz-thorin.json").exists()


def test_cli_refuses_a_config_out_that_is_not_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SETLP_OUT", raising=False)
    (tmp_path / "cfg.json").write_text('{\n  "seed": 3,\n  "out": 7\n}\n')
    assert main(["marcinkiewicz", "--config", "cfg.json", "--trials", "2"]) == 2
    assert capsys.readouterr().err == "error: cfg.json:3: out must be a directory path, got 7\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_cli_blames_a_flag_value_on_no_file_line(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text('{\n  "seed": 3,\n  "level": 3\n}\n')
    assert main(["marcinkiewicz", "--config", str(tmp_path / "cfg.json"),
                 "--level", "11", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: level must be an integer in [1, 10], got 11\n"


def test_cli_writes_a_failure_fixture_next_to_the_default_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SETLP_OUT", raising=False)
    monkeypatch.delenv("SETLP_THREADS", raising=False)
    monkeypatch.setattr(harness, "BOUND_SLACK", -100.0)
    assert main(["endpoints", "--trials", "2", "--level", "3"]) == 1
    report = json.loads((tmp_path / "endpoints.json").read_text())
    fixture = report["aggregate"]["failure_fixture"]
    assert os.path.normpath(fixture) == "endpoints-failure-trial0.json"
    assert json.loads((tmp_path / fixture).read_text())["trial"] == 0


DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def test_documented_config_matches_the_cli(monkeypatch):
    schema = json.loads((DOCS / "config_schema.json").read_text())
    assert set(schema["properties"]) == _CONFIG_KEYS
    monkeypatch.delenv("SETLP_OUT", raising=False)
    path = str(DOCS / "example_config.json")
    example = json.loads((DOCS / "example_config.json").read_text())
    config = _build_config(build_parser().parse_args(["all", "--config", path]),
                           *load_config(path))
    echoed = config.to_dict()
    for key, value in example.items():
        if key == "exponents":
            assert {k: echoed[key][k] for k in value} == value
        elif key in echoed:
            assert echoed[key] == value, key
        else:
            assert getattr(config, key) == value, key
    # a schema default is the dataclass default; a key without one defaults to None
    for f in dataclasses.fields(ExperimentConfig):
        prop = schema["properties"][f.name]
        want = list(f.default) if isinstance(f.default, tuple) else f.default
        assert prop.get("default") == want, f.name


def test_trial_field_deterministic_and_kinds():
    domain = DyadicDomain(1, 4)
    one = trial_field(np.random.default_rng([5, 0]), domain, 2, "smooth")
    two = trial_field(np.random.default_rng([5, 0]), domain, 2, "smooth")
    assert one.to_dict() == two.to_dict()
    spike = trial_field(np.random.default_rng(6), domain, 1, "spike")
    mags = sorted(magnitude(c) for c in spike.cells)
    assert mags[-1] > 1.0 and mags[-2] < 0.01  # one hot cell over a tiny floor
    board = trial_field(np.random.default_rng(6), domain, 1, "checkerboard")
    mags = np.array([magnitude(c) for c in board.cells])
    # scales alternate 4:1 by parity; the random bodies blur but keep the tilt
    assert mags[0::2].mean() > 2.0 * mags[1::2].mean()
    with pytest.raises(ValueError, match="kind"):
        trial_field(np.random.default_rng(6), domain, 1, "nope")


def test_checkerboard_parity_matches_cell_coords():
    for n in (1, 2):
        domain = DyadicDomain(n, 3)
        got = trial_field(np.random.default_rng(9), domain, 2, "checkerboard")
        rng = np.random.default_rng(9)
        hi = 1.0 + rng.uniform(0.0, 0.5)
        parity = np.array([sum(domain.cell_coords(i)) % 2 for i in range(domain.num_cells)])
        want = random_simple_field(rng, domain, 2,
                                   magnitude_scale=np.where(parity == 0, hi, 0.25 * hi))
        for a, b in zip(got.cells, want.cells, strict=True):
            assert np.array_equal(a.generators, b.generators)


def test_failure_fixture_reloads_to_the_trial_field(tmp_path):
    config = ExperimentConfig(seed=7, level=3, trials=8, out=str(tmp_path))
    records = [{"trial": i, "ok": i != 7} for i in range(8)]
    assert _failure_fixture(config, "endpoints", records[:7]) is None
    path = _failure_fixture(config, "endpoints", records)
    assert os.path.basename(path) == "endpoints-failure-trial7.json"
    with open(path) as fh:
        doc = json.load(fh)
    assert (doc["suite"], doc["trial"], doc["info"]) == ("endpoints", 7, records[7])
    loaded = SetField.from_dict(doc["field"])
    # trial 7 of the field suites: n = 2, d = 2, a checkerboard field
    want = trial_field(np.random.default_rng([7, 7]), DyadicDomain(2, 3), 2, "checkerboard")
    assert loaded.domain == want.domain
    assert loaded.generators.tobytes() == want.generators.tobytes()
    for a, b in zip(loaded.cells, want.cells, strict=True):
        assert np.array_equal(a.generators, b.generators)
    no_out = ExperimentConfig(seed=7, level=3, trials=8)
    assert _failure_fixture(no_out, "endpoints", records) is None


def test_jsonable_sanitizes_numpy_and_infinities():
    blob = {
        "a": np.float64(1.5),
        "b": np.bool_(True),
        "c": [np.int64(3), math.inf],
        "d": {"e": -math.inf},
    }
    got = _jsonable(blob)
    assert got == {"a": 1.5, "b": True, "c": [3, "inf"], "d": {"e": "-inf"}}
    assert isinstance(got["b"], bool) and isinstance(got["c"][0], int)
    json.dumps(got)


def test_report_serialization_round_trip():
    rep = ExperimentReport(
        suite="demo", config={"seed": 1}, records=[{"z": 1, "a": {"y": 2.0, "x": 3}}],
        aggregate={"worst": np.float64(0.5)}, passed=True, wall_clock=9.9)
    data = json.loads(rep.to_json())
    assert "wall_clock" not in data
    assert data["passed"] is True and data["aggregate"]["worst"] == 0.5
    assert rep.to_json().endswith("\n")
    rows = rep.csv_rows()
    assert rows[0] == ("record", "field", "value")
    assert ("0", "a.x", "3") in rows and ("aggregate", "worst", "0.5") in rows


def test_marcinkiewicz_small_run():
    cfg = ExperimentConfig(seed=3, level=3, trials=4, ts=(0.5,))
    rep = run_marcinkiewicz(cfg)
    assert rep.passed
    assert len(rep.records) == 4
    agg = rep.aggregate
    assert agg["min_slack"] > 0.0
    worst = max(r["ratios"]["0.5"] for r in rep.records)
    assert agg["max_ratio"]["0.5"] == pytest.approx(worst, rel=1e-12)
    assert agg["constants"]["0.5"] == pytest.approx(2.0 * 2.0 ** 0.25, rel=1e-12)


def test_marcinkiewicz_constants_cover_a_supplied_t_outside_ts():
    supplied = ExponentConfig.for_fractional_maximal(0.5, 0.4)
    rep = run_marcinkiewicz(ExperimentConfig(seed=3, level=3, trials=2, exponents=supplied))
    agg = rep.aggregate
    assert set(agg["constants"]) == set(agg["max_ratio"]) == {"0.25", "0.4", "0.5", "0.75"}
    assert agg["constants"]["0.4"] == supplied.interpolation_constant


def test_endpoint_small_run():
    cfg = ExperimentConfig(seed=3, level=3, trials=3)
    rep = run_endpoint_bounds(cfg)
    assert rep.passed
    assert all(r["slack"] >= -1e-9 for r in rep.records)
    alphas = {r["alpha"] for r in rep.records}
    assert len(alphas) == 3  # round-robin over the three endpoint exponents


def test_riesz_thorin_small_run():
    cfg = ExperimentConfig(seed=3, level=3, fixtures=("euclidean", "rotated"),
                           directions=60)
    rep = run_riesz_thorin(cfg)
    assert rep.passed
    names = {r["fixture"] for r in rep.records}
    assert names == {"euclidean", "rotated"}
    for r in rep.records:
        assert len(r["nq"]) == len(r["nq_ratio"]) == len(r["nq_worst"]) == len(r["levels"])
        if r["fixture"] == "euclidean":
            assert max(r["sup_ratios"]) <= 1.0 + 1e-9
            # no cube varies: N_Q is 1 and there is no informative ratio
            assert r["nq"] == [1.0] * len(r["levels"])
            assert r["nq_ratio"] == r["nq_worst"] == [None] * len(r["levels"])
        else:
            assert all(ratio < 1.0 for ratio in r["nq_ratio"])


@pytest.mark.parametrize("name", ["two_scales", "rotated", "random"])
def test_nq_interpolates_on_every_cube(name):
    # N_Q(W_t) <= N_Q(W0)^(1-t) N_Q(W1)^t at the riesz-thorin levels of
    # seeds 7 and 13 (the fixtures do not depend on the seed) and deeper
    for level in (3, 4, 5, 7):
        mf0, mf1 = _fixture_pair(name, DyadicDomain(1, level))
        for t in (0.25, 0.5, 0.75):
            nq0, nq1, nqt = (averaging_norms(W)
                             for W in (mf0, mf1, reverse_factorization(mf0, mf1, t)))
            for a, b, c in zip(nq0, nq1, nqt):
                assert (c <= a ** (1.0 - t) * b ** t * (1.0 + 1e-12)).all()


def test_nq_worst_names_the_cube_of_the_worst_ratio():
    config = ExperimentConfig(seed=7, level=4, trials=2, directions=60,
                              fixtures=("random",))
    record = run_riesz_thorin(config).records[0]
    t = record["t"]
    for level, ratio, (j, i) in zip(record["levels"], record["nq_ratio"], record["nq_worst"]):
        mf0, mf1 = _fixture_pair("random", DyadicDomain(1, level))
        nq0, nq1, nqt = (averaging_norms(W)
                         for W in (mf0, mf1, reverse_factorization(mf0, mf1, t)))
        assert ratio == nqt[j][i] / (nq0[j][i] ** (1.0 - t) * nq1[j][i] ** t)
        # every cube of the random pair varies below the single cells
        assert ratio == max(float((c / (a ** (1.0 - t) * b ** t)).max())
                            for a, b, c in zip(nq0[:-1], nq1[:-1], nqt[:-1]))


def _arithmetic_mean(W0, W1, t):
    """W_t^2 = (1-t) W0^2 + t W1^2: the arithmetic in place of the geometric mean."""
    squares = (1.0 - t) * W0.spd.power(2.0).arr + t * W1.spd.power(2.0).arr
    return MatrixField(W0.domain, spd_stack(squares).power(0.5))


def test_riesz_thorin_fails_on_the_arithmetic_mean(monkeypatch):
    monkeypatch.setattr("setlp.harness.reverse_factorization", _arithmetic_mean)
    rep = run_riesz_thorin(ExperimentConfig(seed=7))
    assert not rep.passed
    failed = [r for r in rep.records if not r["ok"]]
    assert [r["fixture"] for r in failed] == ["random"]
    assert max(failed[0]["nq_ratio"]) > 1.0 + 1e-9


def test_riesz_thorin_keeps_one_record_per_fixture_position():
    cfg = ExperimentConfig(seed=3, level=3, trials=4, directions=60,
                           fixtures=("rotated", "euclidean", "rotated"))
    records = run_riesz_thorin(cfg).records
    assert [r["fixture"] for r in records] == ["rotated", "euclidean", "rotated"]
    assert records[0] == records[2]


@pytest.mark.parametrize("seed", [7, 16, 24, 10001, 10006])
def test_comparability_orders_every_pair(seed):
    # one d = 3 pair per seed once broke the ordering on a coarse grid
    # only (360 at seed 24, 720 at seed 10001), when each grid was solved
    # apart from the finest one; at seeds 16 and 10006 a local search for
    # the inner duals stopped below the supremum and broke it at 1440.
    # The widths never grow under refinement, with no slack.
    records, _ = _comparability_block(ExperimentConfig(seed=seed))
    assert len(records) == 20
    assert all(r["ordering_ok"] for r in records)
    for r in records:
        assert r["widths"][0] >= r["widths"][1] >= r["widths"][2], r["pair"]


def _spd_stacks_made(monkeypatch, runner, config) -> int:
    # every SPD matrix is validated in some spd_stack call
    made = []

    def counting(*args, **kwargs):
        made.append(1)
        return spd_stack(*args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (matrices, harness):  # the name, wherever it is imported
            patch.setattr(module, "spd_stack", counting, raising=False)
        assert runner(config).passed
    return len(made)


@pytest.mark.parametrize("runner, options", [
    (run_reverse_factorization, {}),
    (run_riesz_thorin, {"trials": 2, "directions": 60}),
])
def test_weight_suites_make_no_spd_matrix_per_cell(monkeypatch, runner, options):
    coarse = _spd_stacks_made(monkeypatch, runner, ExperimentConfig(seed=7, level=3, **options))
    fine = _spd_stacks_made(monkeypatch, runner, ExperimentConfig(seed=7, level=5, **options))
    assert coarse == fine


def _body_work(monkeypatch, config) -> tuple:
    # (ConvexBody constructions, cube_integral_tree calls) of one riesz-thorin run
    made, trees = [], []
    init, tree = ConvexBody.__init__, operators.cube_integral_tree

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counting_tree(*args, **kwargs):
        trees.append(1)
        return tree(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ConvexBody, "__init__", counting_init)
        for module in (operators, harness):  # the name, wherever it is imported
            patch.setattr(module, "cube_integral_tree", counting_tree, raising=False)
        assert run_riesz_thorin(config).passed
    return len(made), len(trees)


@pytest.mark.parametrize("level", [3, 5])
def test_riesz_thorin_builds_no_body(monkeypatch, level):
    config = ExperimentConfig(seed=7, level=level, trials=4, directions=60)
    assert _body_work(monkeypatch, config) == (0, 0)


def _nested_pair(d):
    """1440-direction inner duals and 1000 unit probes, as _comparability_block's."""
    rng = np.random.default_rng(40 + d)
    w0, w1 = (random_spd_matrix(rng, d, spread=0.8) for _ in range(2))
    inner = inner_duals(w0[None], w1[None], 0.5, 1440)
    probe = rng.standard_normal((1000, d))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    return inner, probe


@pytest.mark.parametrize("d", [2, 3])
def test_nested_maxima_are_bitwise_the_subgrid_values(d):
    inner, probe = _nested_pair(d)
    B, grids = _NESTED_BLOCK, (1440, 360, 720)
    # each coarse grid is a stride (circle) or a prefix (sphere) of the fine one
    subgrid = {m: slice(None, None, 1440 // m) if d == 2 else slice(None, m) for m in grids}
    fine = direction_grid(d, 1440)
    for m, rows in subgrid.items():
        assert np.array_equal(direction_grid(d, m), fine[rows])
    for rows in (0, 1, 2, B - 1, B, B + 1, 2 * B + 1, 1000):  # B + 1: a one-row tail
        V = probe[:rows]
        got = nested_maxima(V[None], inner, grids)
        assert got.shape == (1, len(grids), rows)
        for m, values in zip(grids, got[0]):
            polar = direction_grid(d, m) / inner[0, subgrid[m], None]  # u_i / p_t*(u_i)
            assert values.tobytes() == np.abs(V @ polar.T).max(axis=1).tobytes(), (rows, m)
    with pytest.raises(ValueError, match="not nested"):
        nested_maxima(probe[None], inner, (2880,))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_polar_point_maxima_stay_near_the_divided_ratios(d):
    # each polar point u_i / p_t*(u_i) is rounded once, where the ratio form
    # divided every |<v, u_i>| by p_t*(u_i)
    inner, probe = _nested_pair(d)
    count = inner.shape[1]
    got = nested_maxima(probe[None], inner, (count,))[0, 0]
    want = (np.abs(probe @ direction_grid(d, count).T) / inner[0]).max(axis=1)
    assert np.abs(got / want - 1.0).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_nested_maxima_build_no_full_ratio_matrix(d):
    # one 1000 x 1440 ratio matrix is 11.5 MB; the row blocks stay near 0.7 MB
    inner, probe = _nested_pair(d)
    tracemalloc.start()
    try:
        nested_maxima(probe[None], inner, (360, 720, 1440))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def _comparability_circle(seed):
    """The d = 2 comparability pairs' 1440-direction inner duals and unit
    probes, drawn and solved as _comparability_block draws and solves them,
    each pair's probes led by probes within 1e-9 rad of angles 0 and pi and
    of the normal of the seam edge from -P[M-1] into P[0]."""
    config = ExperimentConfig(seed=seed)
    t = config.ts[len(config.ts) // 2]
    W0, W1, drawn = map(np.stack, zip(*[_comparability_draw(seed, k, 2) for k in range(10)]))
    inner = inner_duals(W0, W1, t, 1440)
    fine = direction_grid(2, 1440)
    seam = fine[0] / inner[:, 0, None] + fine[-1] / inner[:, -1, None]  # P[0] + P[M-1]
    normal = np.arctan2(-seam[:, 0], seam[:, 1])
    offsets = np.array([0.0, 1e-9, -1e-9, 3e-10])
    angles = np.concatenate([np.broadcast_to(offsets, (10, 4)), np.pi + offsets + np.zeros((10, 1)),
                             normal[:, None] + offsets], axis=1)
    probes = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    return inner, np.concatenate([probes, drawn], axis=1)


def _full_scans(V, inner, grids):
    # every grid's maximum over all of its polar points, one pair at a time
    return [[np.abs(v @ (direction_grid(2, m) / row[::1440 // m, None]).T).max(axis=1)
             for m in grids] for v, row in zip(V, inner)]


def _record_block_scans(monkeypatch):
    scanned = []
    scan = seminorms._scan_blocks

    def recording(V, *args):
        scanned.extend(V.copy())
        return scan(V, *args)

    monkeypatch.setattr(seminorms, "_scan_blocks", recording)
    return scanned


@pytest.mark.parametrize("seed", [7, 13])
def test_arc_maxima_are_the_full_scan_on_the_comparability_pairs(monkeypatch, seed):
    inner, probes = _comparability_circle(seed)
    grids = (360, 720, 1440)
    scanned = _record_block_scans(monkeypatch)
    ring = direction_grid(2, 1440) / inner[:, :, None]
    facing = np.abs(probes @ np.swapaxes(ring, 1, 2)).argmax(axis=2)
    # each pair has probes whose window wraps across the sign-flip seam
    assert np.all(np.any((facing < 8) | (facing >= 1440 - 8), axis=1))
    for rows in (2, 3, 65, 129, probes.shape[1]):  # no one-row product
        V = probes[:, :rows]
        got = nested_maxima(V, inner, grids)
        for pair, want in zip(got, _full_scans(V, inner, grids)):
            for values, full in zip(pair, want):
                assert values.tobytes() == full.tobytes(), rows
    assert sum(map(len, scanned)) <= 2  # the arc windows certify the rest


def test_arc_maxima_fall_back_on_a_dented_ring(monkeypatch):
    inner, probes = _comparability_circle(7)
    inner = inner.copy()
    inner[3, 700] *= 1.0 - 1e-3  # P[700] moves out: its neighbours turn right
    assert list(seminorms._arc_rings(direction_grid(2, 1440), inner, 16, 8)[0]) == [
        k != 3 for k in range(10)]
    grids = (360, 720, 1440)
    for pairs in (slice(None), slice(3, 4)):
        scanned = _record_block_scans(monkeypatch)
        got = nested_maxima(probes[pairs], inner[pairs], grids)
        for pair, want in zip(got, _full_scans(probes[pairs], inner[pairs], grids)):
            for values, full in zip(pair, want):
                assert values.tobytes() == full.tobytes()
        # every row of the dented pair, and no other, takes the block scan
        assert len(scanned) == 1 and np.array_equal(scanned[0], probes[3])


@pytest.mark.parametrize("wrong", [[0, 9, 512], [40]])
def test_arc_maxima_fall_back_on_a_wrong_vertex_guess(monkeypatch, wrong):
    inner, probes = _comparability_circle(13)
    facing = seminorms._facing_angles

    def half_the_cycle_off(first, V):
        angle = facing(first, V)
        angle[:, wrong] = np.mod(angle[:, wrong] + np.pi / 2, np.pi)
        return angle

    monkeypatch.setattr(seminorms, "_facing_angles", half_the_cycle_off)
    scanned = _record_block_scans(monkeypatch)
    grids = (360, 720, 1440)
    got = nested_maxima(probes, inner, grids)
    for pair, want in zip(got, _full_scans(probes, inner, grids)):
        for values, full in zip(pair, want):
            assert values.tobytes() == full.tobytes()
    assert len(scanned) == 10 and all(len(rows) >= 2 for rows in scanned)
    for rows, V in zip(scanned, probes):
        # the misplaced rows take the block scan; a lone one brings a partner
        assert rows[:len(wrong)].tobytes() == V[wrong].tobytes()
        assert len(rows) == max(len(wrong), 2)


@pytest.mark.parametrize("d", [2, 3])
def test_blocked_inner_duals_are_bitwise_the_per_pair_rows(d):
    # the seed-7 comparability pairs, drawn as _comparability_block draws them
    config = ExperimentConfig(seed=7)
    t = config.ts[len(config.ts) // 2]
    pairs = range(10) if d == 2 else range(10, 20)
    W0, W1 = (np.stack(side) for side in zip(*[_comparability_draw(7, k, d)[:2] for k in pairs]))
    alone = [inner_duals(W0[k:k + 1], W1[k:k + 1], t, 1440)[0] for k in range(10)]
    assert all(np.array_equal(row, want)  # one call, solved in its own batches
               for row, want in zip(inner_duals(W0, W1, t, 1440), alone))
    for step in (3, 10):
        blocked = np.concatenate([inner_duals(W0[k:k + step], W1[k:k + step], t, 1440)
                                  for k in range(0, 10, step)])
        assert all(np.array_equal(row, want) for row, want in zip(blocked, alone)), step
    if d == 3:
        for w0, w1, want in zip(W0, W1, alone):
            dd = GeometricMeanDoubleDual(MatrixNorm(w0), MatrixNorm(w1), t, directions=1440)
            assert np.array_equal(dd.inner, want)


@pytest.mark.parametrize("d", [2, 3])
def test_inner_duals_bound_their_own_working_set(d, monkeypatch):
    # ten comparability pairs in one batch peak near 3.2 MB at d = 2 and
    # 6.7 MB at d = 3; one call solves them in batches of at most 2 MB
    pairs = range(10) if d == 2 else range(10, 20)
    W0, W1 = (np.stack(side) for side in zip(*[_comparability_draw(7, k, d)[:2] for k in pairs]))
    batches = []
    solve = seminorms._matrix_mean_duals

    def counting(A0, A1, t, U):
        batches.append(len(A0))
        return solve(A0, A1, t, U)

    monkeypatch.setattr(seminorms, "_matrix_mean_duals", counting)
    inner_duals(W0, W1, 0.5, 1440)  # direction grid cached
    tracemalloc.start()
    try:
        inner_duals(W0, W1, 0.5, 1440)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    assert sum(batches) == 20 and max(batches) < 10
    if d == 2:  # riesz-thorin's 240 directions: a level-5 field's 32 pairs in one batch
        batches.clear()
        inner_duals(W0[:1] * np.arange(1.0, 33.0)[:, None, None], W1[[0] * 32], 0.5, 240)
        assert batches == [32]


def test_comparability_block_stays_small():
    # an inner-dual solve peaks near 0.67 MB a pair at d = 3; ten pairs
    # solved in one batch would take the block near 9 MB
    _comparability_block(ExperimentConfig(seed=7))  # direction grids cached
    tracemalloc.start()
    try:
        _comparability_block(ExperimentConfig(seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_reverse_factorization_validates_few_stacks(monkeypatch):
    # the comparability block validates its pairs as two stacks per d, not
    # matrix by matrix; the A_p ladder and the side-by-side field make the rest
    config = ExperimentConfig(seed=7)
    assert _spd_stacks_made(monkeypatch, run_reverse_factorization, config) <= 180


def test_bodies_selftest_runs():
    rep = run_bodies_selftest(ExperimentConfig(seed=3, level=3))
    assert rep.passed
    assert rep.aggregate["checks"] == len(rep.records)
    assert all(r["ok"] for r in rep.records)


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("SETLP_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("SETLP_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("SETLP_THREADS", "0")
    assert thread_count() == 1


def test_reports_identical_across_thread_counts(monkeypatch):
    cfg = ExperimentConfig(seed=11, level=3, trials=6, ts=(0.5,))
    monkeypatch.setenv("SETLP_THREADS", "1")
    serial = run_marcinkiewicz(cfg).to_json()
    monkeypatch.setenv("SETLP_THREADS", "4")
    threaded = run_marcinkiewicz(cfg).to_json()
    assert serial == threaded


def test_pool_reports_equal_serial_reports(monkeypatch):
    cfg = ExperimentConfig(seed=5, level=3, trials=8, ts=(0.5,))
    for run in (run_marcinkiewicz, run_endpoint_bounds):
        monkeypatch.setenv("SETLP_THREADS", "1")
        serial = run(cfg).to_json()
        monkeypatch.setenv("SETLP_THREADS", "2")
        assert run(cfg).to_json() == serial


def _trial_pid(i):
    time.sleep(0.2)  # long enough that one worker cannot take every index
    return os.getpid()


def _broken_trial(i):
    if i == 3:
        raise ValueError(f"trial {i} broke")
    return i


@pytest.mark.skipif(_usable_cores() < 2, reason="needs two usable cores")
def test_trials_run_in_worker_processes(monkeypatch):
    monkeypatch.setenv("SETLP_THREADS", "2")
    pids = _run_trials(_trial_pid, range(6))
    assert len(set(pids)) >= 2
    assert os.getpid() not in pids


def test_worker_exception_reaches_caller(monkeypatch):
    monkeypatch.setenv("SETLP_THREADS", "2")
    with pytest.raises(ValueError, match="trial 3 broke"):
        _run_trials(_broken_trial, range(6))


def test_trial_workers_pickle():
    cfg = ExperimentConfig(seed=2, level=2, trials=2)
    for fn in (_marcinkiewicz_trial, _endpoint_trial):
        worker = functools.partial(fn, cfg)
        back = pickle.loads(pickle.dumps(worker))
        assert back.func is fn and back.args == (cfg,)
        assert back(1) == worker(1)


def test_cli_runs_suite_and_writes_report(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["marcinkiewicz", "--trials", "2", "--level", "3",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "marcinkiewicz: PASS" in capsys.readouterr().out
    data = json.loads((out / "marcinkiewicz.json").read_text())
    assert data["suite"] == "marcinkiewicz"
    assert data["config"]["seed"] == 1


def test_cli_csv_and_plot_outputs(tmp_path):
    out = tmp_path / "r"
    code = main(["marcinkiewicz", "--trials", "2", "--level", "3",
                 "--out", str(out), "--format", "csv", "--emit-plot-data"])
    assert code == 0
    assert (out / "marcinkiewicz.csv").exists()
    plot = (out / "marcinkiewicz_plot.csv").read_text().splitlines()
    assert plot[0] == "x,series,value"


def test_cli_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg_out = tmp_path / "from_config"
    env_out = tmp_path / "from_env"
    flag_out = tmp_path / "from_flag"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2, "level": 3, "trials": 2,
                               "out": str(cfg_out)}))
    monkeypatch.setenv("SETLP_OUT", str(env_out))
    assert main(["marcinkiewicz", "--config", str(cfg)]) == 0
    assert (env_out / "marcinkiewicz.json").exists() and not cfg_out.exists()
    assert main(["marcinkiewicz", "--config", str(cfg), "--out", str(flag_out)]) == 0
    assert (flag_out / "marcinkiewicz.json").exists()


def test_cli_config_errors_are_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": 1,\n  "level": 99\n}\n')
    assert main(["marcinkiewicz", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3: level must be an integer" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{\n  "bogus_key": 1\n}\n')
    assert main(["marcinkiewicz", "--config", str(unknown)]) == 2
    assert "unknown config key 'bogus_key'" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "seed": oops\n}\n')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(broken))
    assert main(["marcinkiewicz", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_config_error_line_does_not_depend_on_the_hash_seed(tmp_path):
    # "trials" starts with the key "t" too; the line must be that of "trials"
    # whatever order the set of keys iterates in
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": 3,\n  "trials": 0\n}\n')
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "setlp", "marcinkiewicz", "--config",
                               str(bad)], capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"{bad}:3: trials must be a positive integer" in proc.stderr, hash_seed


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-suite"])
    assert exc.value.code == 2


def test_field_trials_build_no_bodies(monkeypatch):
    # the field suites' trials run on generator arrays end to end
    built = []
    init = ConvexBody.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConvexBody, "__init__", counting_init)
    cfg = ExperimentConfig(seed=7, level=4, trials=8)
    records = [worker(cfg, i) for worker in (_marcinkiewicz_trial, _endpoint_trial)
               for i in range(8)]
    assert {(r["n"], r["d"]) for r in records} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert all(r["ok"] for r in records)
    assert not built
    # the counter does see body construction
    assert len(trial_field(np.random.default_rng(0), DyadicDomain(1, 2), 2, "smooth").cells) == 4
    assert len(built) == 4
