"""A random YAML value at any one key of a shipped config: `enermach
validate` passes, fails its checks, or prints one named error, and no
exception escapes `cli.main`.  A size beyond the address space is one
`error:` line and exit 1 under every verb that allocates by it."""

import copy
import random

import pytest
import yaml

from enermach.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main

from helpers import CONFIG_DIR

CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
BEYOND = 2**53 + 1  # float64 elements: far past any address space, so the allocation fails at once
VALUES = [
    None, True, False, 0, -1, BEYOND, 10**400, 0.0, -0.0, 1.0e-320, 1.0e308, -1.0e308,
    float("nan"), float("inf"), float("-inf"), "", "x", [], [1], [1.0, 2.0], {}, {"a": 1},
]


def _raw(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        raw = yaml.safe_load(f)
    raw["validate"] = {"n_samples": 16}
    return raw


def _paths(node, path=()):
    """Every key path below ``node``, mapping keys and list entries alike, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _with(raw: dict, path: tuple, value) -> dict:
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def _run(verb: str, raw: dict, tmp_path, capsys, label) -> tuple:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        code = main([verb, "--config", str(path), "--out", str(tmp_path / "out.csv")])
    except Exception as e:  # the test is that nothing escapes; name the case that did
        pytest.fail(f"{label}: {type(e).__name__}: {e}")
    return code, capsys.readouterr().err


# numpy's overflow warnings and the flux box warnings of a check that then fails are not errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::enermach.saturation.SaturationRangeWarning")
@pytest.mark.parametrize("config", CONFIGS)
def test_a_random_value_at_any_key_validates_or_is_one_named_error(config, tmp_path, capsys):
    raw = _raw(config)
    rng = random.Random(config)
    for path in _paths(raw):
        value = rng.choice(VALUES)
        label = f"{config}:{'.'.join(map(str, path))}={value!r}"
        code, err = _run("validate", _with(raw, path, value), tmp_path, capsys, label)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), (label, err)
        assert err.count("error:") <= 1 and "Traceback" not in err, (label, err)


@pytest.mark.parametrize(
    "verb, path",
    [("validate", ("validate", "n_samples")), ("ripple", ("ripple", "n_points")), ("flux-map", ("flux_map", "phi_d", "n"))],
    ids=["validate.n_samples", "ripple.n_points", "flux_map.phi_d.n"],
)
def test_a_size_beyond_memory_is_one_error_line_and_exit_1(verb, path, tmp_path, capsys):
    raw = _raw("saturated_ipm")
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = BEYOND
    code, err = _run(verb, raw, tmp_path, capsys, f"{verb} {'.'.join(path)}={BEYOND}")
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1, err
