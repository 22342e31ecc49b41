"""Seeded fuzz of the configuration boundary: load_config and the records.

Every config key is set, one at a time, to each of a set of awkward values
drawn from a seeded generator. Each such config ends in one of two ways. It
loads: equal to the config rebuilt from its own values through the records'
constructors, with every other key at its default, and with the key's value
equal to int(), float() or the stripped text of the value (element-wise for
lists) where the key holds such a value. Or ``main`` exits 2 with the key's
section and name on stderr, no traceback and no file written. Every count
field of the five records is drawn as an int, a numpy integer, a bool, a
numpy bool, a float, an integral float, a string and None: the record
accepts exactly the integers at or above the field's minimum, and stores a
plain int.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tensorcast.cli import _SCHEMA, ConfigError, load_config, main
from tensorcast.evaluation import RollingPlan, SimSpec
from tensorcast.factor_model import Ranks, rank_bounds
from tensorcast.forecast import ScoreModel
from tensorcast.panel import CalendarSpec


def split(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def awkward_values(rng: np.random.Generator, default: str) -> dict[str, str]:
    """The values a key with this default is set to, by kind."""
    entries = split(default) or ["1"]
    return {
        "empty": "",
        "whitespace": " \t ",
        "minus one": "-1",
        "zero": "0",
        "fraction": "1.5",
        "boolean": "true",
        "exponent": "1e3",
        "huge integer": str(rng.integers(1, 10)) + "0" * int(rng.integers(19, 40)),
        "non-numeric": "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=5)),
        "repeated entry": ",".join([*entries, str(rng.choice(entries))]),
        "trailing comma": default + ",",
    }


def value_of(cfg, section: str, key: str):
    if section == "run":
        return {"out": cfg.base_out_dir, "seed": cfg.seed}[key]
    return getattr(getattr(cfg, section), key)


def through_records(cfg):
    """cfg with every record rebuilt from its section values by its constructor."""
    recipe = cfg.simulate._asdict()
    del recipe["archive"], recipe["truth"]
    model, bt = cfg.model, cfg.backtest
    return dataclasses.replace(
        cfg,
        calendar=CalendarSpec(periods=cfg.calendar.periods, week_start=cfg.calendar.week_start),
        score=ScoreModel(model.period, model.score_model, model.max_order),
        plan=None if bt.train_length is None else RollingPlan(bt.train_length, bt.horizons),
        sim=SimSpec(**recipe, seed=cfg.seed),
    )


def plain_value(default, raw: str):
    """The value ``raw`` gives a key whose default value is ``default``, for
    ints, floats, text and non-empty tuples of numbers; else Ellipsis."""
    if type(default) is tuple and default and type(default[0]) in (int, float):
        return tuple(type(default[0])(token) for token in split(raw))
    return type(default)(raw.strip()) if type(default) in (int, float, str) else ...


def test_every_key_loads_through_the_records_or_exits_2_naming_it(tmp_path, capsys):
    rng = np.random.default_rng(23)
    path = tmp_path / "run.ini"
    path.write_text("")
    default = load_config(path)
    keys = [(section, key) for section, names in _SCHEMA.items() for key in names]
    loaded = failed = 0
    for section, key in keys:
        for kind, value in awkward_values(rng, _SCHEMA[section][key][0]).items():
            case = f"[{section}] {key} = {value!r} ({kind})"
            path.write_text(f"[{section}]\n{key} = {value}\n")
            try:
                cfg = load_config(path)
            except ConfigError:
                failed += 1
                assert main(["fit", "--config", str(path)]) == 2, case
                err = capsys.readouterr().err
                assert section in err and key in err and "Traceback" not in err, (case, err)
                assert [p.name for p in tmp_path.iterdir()] == ["run.ini"], case
                continue
            loaded += 1
            assert cfg == through_records(cfg), case
            expected = plain_value(value_of(default, section, key), value)
            if expected is not ...:
                assert value_of(cfg, section, key) == expected, case
            for other in keys:
                if other != (section, key):
                    assert value_of(cfg, *other) == value_of(default, *other), (case, other)
    assert loaded + failed == 11 * len(keys)
    assert loaded >= 100 and failed >= 200, (loaded, failed)


# Each count field of the records: a record built with one drawn value, the
# field's minimum, the stored value, and the integers to draw (every integer
# at or above the minimum must pass the record's other rules).
COUNT_FIELDS = {
    "Ranks.r": (lambda v: Ranks(v, (1,)), 1, lambda rec: rec.r, range(-2, 12)),
    "Ranks.k": (lambda v: Ranks(1, (2, v)), 1, lambda rec: rec.k[1], range(-2, 12)),
    "ScoreModel.period": (lambda v: ScoreModel(period=v), 2, lambda rec: rec.period, range(-2, 12)),
    "ScoreModel.max_order": (lambda v: ScoreModel(max_order=v), 0, lambda rec: rec.max_order,
                             range(-2, 12)),
    "RollingPlan.train_length": (lambda v: RollingPlan(v), 2, lambda rec: rec.train_length,
                                 range(-2, 12)),
    "RollingPlan.horizons": (lambda v: RollingPlan(10, horizons=[v]), 1,
                             lambda rec: rec.horizons[0], range(-2, 12)),
    "SimSpec.dims": (lambda v: SimSpec(dims=(2, v, 4), ranks=Ranks(1, (1, 1)), num_periods=5), 1,
                     lambda rec: rec.dims[1], range(-2, 12)),
    "SimSpec.num_periods": (lambda v: SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)),
                                              num_periods=v), 2, lambda rec: rec.num_periods,
                            range(-2, 12)),
    "SimSpec.periods": (lambda v: SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)), num_periods=5,
                                          periods=v), 1, lambda rec: rec.periods, range(-2, 12)),
    "SimSpec.periods[j]": (lambda v: SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)),
                                             num_periods=5, periods=(3, v)), 1,
                           lambda rec: rec.periods[1], range(-2, 12)),
    "SimSpec.seed": (lambda v: SimSpec(dims=(2, 3, 4), ranks=Ranks(1, (1, 1)), num_periods=5,
                                       seed=v), 0, lambda rec: rec.seed, range(-2, 12)),
    # Only divisors of 168 hours tile a week.
    "CalendarSpec.periods": (lambda v: CalendarSpec(periods=(v,)), 2, lambda rec: rec.periods[0],
                             (-1, 0, 1, 2, 7, 24, 168)),
}

DRAWS = {
    "int": int,
    "np.int64": np.int64,
    "bool": lambda v: bool(v % 2),
    "np.bool_": lambda v: np.bool_(v % 2),
    "float": lambda v: v + 0.5,
    "integral float": float,
    "str": str,
    "None": lambda v: None,
}


def test_records_accept_exactly_the_integers_at_their_minimum():
    rng = np.random.default_rng(7)
    for field, (build, minimum, stored, integers) in COUNT_FIELDS.items():
        for kind, draw in DRAWS.items():
            for v in rng.choice(integers, size=4):
                value = draw(int(v))
                case = f"{field} = {value!r} ({kind})"
                try:
                    record = build(value)
                except ValueError as exc:
                    assert field.split(".")[1].split("[")[0] in str(exc), (case, str(exc))
                    assert not (kind in ("int", "np.int64") and v >= minimum), (case, str(exc))
                    continue
                assert kind in ("int", "np.int64") and v >= minimum, case
                assert type(stored(record)) is int and stored(record) == v, case


# A list field given no list, and week_start given no string: each once
# raised TypeError or AttributeError, or named an element, instead of a
# ValueError naming the field and what it must be.
NOT_A_LIST = {
    "Ranks.k = 5": (lambda: Ranks(1, 5), "k must be a list"),
    "Ranks.k = '12'": (lambda: Ranks(1, "12"), "k must be a list"),
    "Ranks.k = b'12'": (lambda: Ranks(1, b"12"), "k must be a list"),
    "CalendarSpec.periods = None": (lambda: CalendarSpec(periods=None), "periods must be a list"),
    "CalendarSpec.periods = 2-D array": (lambda: CalendarSpec(periods=np.array([[7, 24]])),
                                         "periods must be a list"),
    "CalendarSpec.week_start = 3": (lambda: CalendarSpec(week_start=3), "unknown week_start 3"),
    "RollingPlan.horizons = 4": (lambda: RollingPlan(10, horizons=4), "horizons must be a list"),
    "SimSpec.dims = 5": (lambda: SimSpec(dims=5, ranks=Ranks(1, (1,)), num_periods=5),
                         "dims must be a list"),
    "rank_bounds k_max = 3": (lambda: rank_bounds((9, 7, 24), 3, k_max=3),
                              "k_max must be a list"),
}


@pytest.mark.parametrize("case", NOT_A_LIST)
def test_a_field_of_the_wrong_container_type_is_a_value_error_naming_it(case):
    build, message = NOT_A_LIST[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_list_fields_take_lists_tuples_and_1d_integer_arrays():
    for values in ([7, 24], (7, 24), np.array([7, 24])):
        periods = CalendarSpec(periods=values).periods
        assert periods == (7, 24) and all(type(p) is int for p in periods), values
