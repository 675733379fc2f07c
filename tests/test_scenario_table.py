"""The scenario field table is declared once — as executable properties.

``ScenarioSpec`` is the single table of scenario fields: validation rules and
command-line flags are read from each field's own declaration
(``runner/scenario.py::_declare``).  These tests pin what that derivation must
never change — the literals below were recorded from the last commit that
still wrote every flag, rule and mapping by hand — and what it must keep
true: no hand-written spec flag beside the derived loop, every declared rule
and every field type enforced for every system on every path that builds a
spec (the constructor, ``with_overrides``, ``dataclasses.replace``,
``from_mapping`` and a ``matrix`` document), and every rule a system adds in
its own ``validate(spec)`` rejecting a bad spec by name while each system's
default and fully-engaged specs validate.

A rule that reads one field is declared on that field, so it is enforced for
every system and needs only a :data:`BAD_VALUE` entry for its check; a
system's ``validate`` holds only the rules that read several fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.cli import build_parser
from repro import api
from repro.runner import engine, scenario
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.store.keys import spec_key
from repro.utils import validation

#: ``(subcommand, --flag) -> (default, choices, argparse action)``; "" is the
#: top-level parser.
FLAG_TABLE = {
    ('', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('', '--plugins'): (None, None, '_AppendAction'),
    ('run', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('run', '--clients'): (12, None, '_StoreAction'),
    ('run', '--miners'): (2, None, '_StoreAction'),
    ('run', '--rounds'): (8, None, '_StoreAction'),
    ('run', '--samples'): (1000, None, '_StoreAction'),
    ('run', '--participation'): (0.5, None, '_StoreAction'),
    ('run', '--lr'): (0.05, None, '_StoreAction'),
    ('run', '--epochs'): (2, None, '_StoreAction'),
    ('run', '--batch-size'): (10, None, '_StoreAction'),
    ('run', '--scheme'): ('dirichlet', ('iid', 'shard', 'dirichlet'), '_StoreAction'),
    ('run', '--round-mode'): ('sync', ('sync', 'semi_sync', 'async'), '_StoreAction'),
    ('run', '--straggler-deadline'): (6.0, None, '_StoreAction'),
    ('run', '--async-quorum'): (0.5, None, '_StoreAction'),
    ('run', '--staleness-decay'): (0.5, None, '_StoreAction'),
    ('run', '--attacks'): (False, None, '_StoreTrueAction'),
    ('run', '--attack-name'): ('sign_flip', ('sign_flip', 'scaling', 'gaussian_noise', 'zero_gradient', 'label_flip', 'mixed', 'none'), '_StoreAction'),
    ('run', '--defense'): ('none', None, '_StoreAction'),
    ('run', '--defense-fraction'): (0.2, None, '_StoreAction'),
    ('run', '--topology'): ('global', ('global', 'full', 'ring', 'random_k'), '_StoreAction'),
    ('run', '--peer-k'): (2, None, '_StoreAction'),
    ('run', '--partition'): ('none', None, '_StoreAction'),
    ('run', '--churn'): ('none', None, '_StoreAction'),
    ('run', '--seed'): (0, None, '_StoreAction'),
    ('run', '--export'): (None, None, '_StoreAction'),
    ('run', '--backend'): ('serial', ('serial', 'cohort'), '_StoreAction'),
    ('run', '--workers'): (None, None, '_StoreAction'),
    ('run', '--server'): (None, None, '_StoreAction'),
    ('compare', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('compare', '--clients'): (12, None, '_StoreAction'),
    ('compare', '--miners'): (2, None, '_StoreAction'),
    ('compare', '--rounds'): (8, None, '_StoreAction'),
    ('compare', '--samples'): (1000, None, '_StoreAction'),
    ('compare', '--participation'): (0.5, None, '_StoreAction'),
    ('compare', '--lr'): (0.05, None, '_StoreAction'),
    ('compare', '--epochs'): (2, None, '_StoreAction'),
    ('compare', '--batch-size'): (10, None, '_StoreAction'),
    ('compare', '--scheme'): ('dirichlet', ('iid', 'shard', 'dirichlet'), '_StoreAction'),
    ('compare', '--round-mode'): ('sync', ('sync', 'semi_sync', 'async'), '_StoreAction'),
    ('compare', '--straggler-deadline'): (6.0, None, '_StoreAction'),
    ('compare', '--async-quorum'): (0.5, None, '_StoreAction'),
    ('compare', '--staleness-decay'): (0.5, None, '_StoreAction'),
    ('compare', '--attacks'): (False, None, '_StoreTrueAction'),
    ('compare', '--attack-name'): ('sign_flip', ('sign_flip', 'scaling', 'gaussian_noise', 'zero_gradient', 'label_flip', 'mixed', 'none'), '_StoreAction'),
    ('compare', '--defense'): ('none', None, '_StoreAction'),
    ('compare', '--defense-fraction'): (0.2, None, '_StoreAction'),
    ('compare', '--topology'): ('global', ('global', 'full', 'ring', 'random_k'), '_StoreAction'),
    ('compare', '--peer-k'): (2, None, '_StoreAction'),
    ('compare', '--partition'): ('none', None, '_StoreAction'),
    ('compare', '--churn'): ('none', None, '_StoreAction'),
    ('compare', '--seed'): (0, None, '_StoreAction'),
    ('compare', '--export'): (None, None, '_StoreAction'),
    ('compare', '--backend'): ('serial', ('serial', 'cohort'), '_StoreAction'),
    ('compare', '--workers'): (None, None, '_StoreAction'),
    ('sweep', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('sweep', '--scenario'): (None, None, '_AppendAction'),
    ('sweep', '--export'): (None, None, '_StoreAction'),
    ('sweep', '--backend'): (None, ('serial', 'cohort'), '_StoreAction'),
    ('sweep', '--workers'): (None, None, '_StoreAction'),
    ('sweep', '--round-mode'): (None, ('sync', 'semi_sync', 'async'), '_StoreAction'),
    ('sweep', '--defense'): (None, None, '_StoreAction'),
    ('sweep', '--store'): ('results/store', None, '_StoreAction'),
    ('sweep', '--resume'): (False, None, '_StoreTrueAction'),
    ('sweep', '--no-cache'): (False, None, '_StoreTrueAction'),
    ('sweep', '--server'): (None, None, '_StoreAction'),
    ('search', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('search', '--scenario'): (None, None, '_AppendAction'),
    ('search', '--metric'): ('final_accuracy', ('final_accuracy', 'avg_accuracy', 'delay'), '_StoreAction'),
    ('search', '--eta'): (3, None, '_StoreAction'),
    ('search', '--min-rounds'): (None, None, '_StoreAction'),
    ('search', '--max-rounds'): (None, None, '_StoreAction'),
    ('search', '--export'): (None, None, '_StoreAction'),
    ('search', '--backend'): (None, ('serial', 'cohort'), '_StoreAction'),
    ('search', '--workers'): (None, None, '_StoreAction'),
    ('search', '--store'): ('results/store', None, '_StoreAction'),
    ('search', '--no-cache'): (False, None, '_StoreTrueAction'),
    ('report', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('report', '--store'): ('results/store', None, '_StoreAction'),
    ('report', '--system'): (None, None, '_AppendAction'),
    ('report', '--export'): (None, None, '_StoreAction'),
    ('report', '--markdown'): (None, None, '_StoreAction'),
    ('serve', '--help'): ('==SUPPRESS==', None, '_HelpAction'),
    ('serve', '--host'): ('127.0.0.1', None, '_StoreAction'),
    ('serve', '--port'): (8731, None, '_StoreAction'),
    ('serve', '--workers'): (2, None, '_StoreAction'),
    ('serve', '--isolation'): ('thread', ('thread', 'process'), '_StoreAction'),
    ('serve', '--max-retries'): (1, None, '_StoreAction'),
    ('serve', '--store'): ('results/store', None, '_StoreAction'),
}

DEFAULT_SPEC_KEYS = {
    "fairbfl": "6fefed36926076bf10dce7feb845dd50209be72de0a03c173776063dd6b9d68e",
    "fairbfl-discard": "59f12cdceadb2c773452e50c99d8db4d70b9cba15f0b433ac7fc2b96f8c57f53",
    "fedavg": "d6c54a7ffc25a5b8ea2f9d8c80f95b8f14fee45ebb36385fb983a6fca285aa47",
    "fedprox": "f33d7a74b903d0fafb5621ba410021acd4be3d39014c76e2948f87446b358a05",
    "blockchain": "ff4484ac14b41d411e2517e8b087734cbbca8cd7e51d0c4179e842064fd97d37",
}

#: SHA-256 of the JSON list of ``[name, type, default]`` over all 45 fields.
FIELD_TABLE_DIGEST = "e5addb17648c1bc2aa4787bd4a4e6edca172fed65605d7f443c5e0176ae5b8ba"

#: One value each declared ``check`` must reject.
BAD_VALUE = {
    validation.check_positive: 0,
    validation.check_fraction: 0.0,
    validation.check_minority: 0.5,
    validation.check_non_negative: -1.0,
    validation.check_probability: 2.0,
    scenario._check_each_positive: (0,),
    scenario._check_defense_chain: "bogus",
    scenario._check_difficulty: 0.5,
}

SPEC_SUBCOMMANDS = ("run", "compare", "sweep", "search")
FLAGGED = {f.metadata["flag"]: f.name for f in fields(ScenarioSpec) if "flag" in f.metadata}
RULED = [f for f in fields(ScenarioSpec) if "check" in f.metadata or "choices" in f.metadata]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {"": parser, **sub.choices}


def test_no_flag_default_or_choice_moved():
    table = {}
    for command, parser in _subparsers().items():
        for action in parser._actions:
            choices = tuple(action.choices) if action.choices is not None else None
            for option in action.option_strings:
                if option.startswith("--"):
                    table[(command, option)] = (action.default, choices, type(action).__name__)
    assert table == FLAG_TABLE


@pytest.mark.parametrize("command", ["run", "compare"])
def test_every_flagged_field_is_exposed(command):
    options = {o for a in _subparsers()[command]._actions for o in a.option_strings}
    assert set(FLAGGED) <= options


@pytest.mark.parametrize("command", SPEC_SUBCOMMANDS)
def test_spec_flags_come_only_from_the_declaration(command):
    """A declared flag lands under its field's name, and nothing else writes a field."""
    names = set(ScenarioSpec.field_names())
    for action in _subparsers()[command]._actions:
        declared = [FLAGGED[o] for o in action.option_strings if o in FLAGGED]
        if declared:
            assert [action.dest] == declared, action.option_strings
        elif action.option_strings:
            assert action.dest not in names, f"hand-written spec flag {action.option_strings}"


def test_field_table_unchanged():
    table = [
        [f.name, f.type, list(f.default) if isinstance(f.default, tuple) else f.default]
        for f in fields(ScenarioSpec)
    ]
    assert len(table) == 45
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == FIELD_TABLE_DIGEST


@pytest.mark.parametrize("system", sorted(DEFAULT_SPEC_KEYS))
def test_default_spec_keys_unchanged(system):
    assert spec_key(ScenarioSpec(system=system)) == DEFAULT_SPEC_KEYS[system]


def _from_matrix(system: str, overrides: dict) -> list[ScenarioSpec]:
    document = {"base": {"system": system}, "matrix": {k: [v] for k, v in overrides.items()}}
    return scenario.scenarios_from_mapping(document)


#: Every way a spec is built, as ``build(system, overrides)``; each applies
#: the field types and rules once, in ``ScenarioSpec.__post_init__``.
BUILD_PATHS = {
    "constructor": lambda system, f: ScenarioSpec(**{"system": system, **f}),
    "with_overrides": lambda system, f: ScenarioSpec(system=system).with_overrides(**f),
    "replace": lambda system, f: dataclasses.replace(ScenarioSpec(system=system), **f),
    "from_mapping": lambda system, f: ScenarioSpec.from_mapping({"system": system, **f}),
    "matrix": _from_matrix,
}


@pytest.mark.parametrize("path", sorted(BUILD_PATHS))
@pytest.mark.parametrize("system", ["fairbfl", "fedavg", "blockchain"])
@pytest.mark.parametrize("field", RULED, ids=lambda f: f.name)
def test_every_declared_rule_is_enforced_for_every_system(field, system, path):
    bad = "__bogus__" if "choices" in field.metadata else BAD_VALUE[field.metadata["check"]]
    with pytest.raises(ScenarioError, match=field.name):
        BUILD_PATHS[path](system, {field.name: bad})


#: One value of the wrong type per annotation.
WRONG_TYPE = {
    "str": 5,
    "int": 1.5,
    "float": "0.5",
    "bool": 1,
    "tuple[int, ...]": (1.5,),
    "int | None": True,
}


@pytest.mark.parametrize(
    "field, path",
    # A matrix names each grid point itself, so it never carries a ``name``.
    [(f, path) for f in fields(ScenarioSpec) for path in sorted(BUILD_PATHS)
     if (f.name, path) != ("name", "matrix")],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_every_field_type_is_enforced_on_every_build_path(field, path):
    with pytest.raises(ScenarioError, match=rf"\b{field.name}\b"):
        BUILD_PATHS[path]("fairbfl", {field.name: WRONG_TYPE[field.type]})


@pytest.mark.parametrize(
    "name, bad",
    [("num_clients", 4.5), ("dbscan_min_samples", 1.5), ("seed", True), ("max_workers", True)],
)
def test_a_non_integer_is_refused_at_construction(name, bad):
    """Each of these once validated, and none of them could be keyed."""
    with pytest.raises(ScenarioError, match=name):
        ScenarioSpec(**{name: bad})


@pytest.mark.parametrize("value", [np.int64(4), 4.0], ids=["numpy", "float"])
def test_an_integral_value_is_held_as_an_int_and_keys_like_one(value):
    spec = ScenarioSpec(num_clients=value)
    assert type(spec.num_clients) is int and spec.num_clients == 4
    assert spec_key(spec) == spec_key(ScenarioSpec(num_clients=4))


def test_validate_is_a_recheck_that_returns_the_spec():
    spec = ScenarioSpec()
    assert spec.validate() is spec


#: Values whose rule only the component that reads them had: each passed
#: validation and failed mid-run, after the dataset was built.
COMPONENT_ONLY = [
    ("dbscan_eps", -1.0),
    ("dbscan_min_samples", 0),
    ("base_reward", -5.0),
    ("noise_std", -1.0),
]


@pytest.mark.parametrize("name, bad", COMPONENT_ONLY)
def test_a_component_value_is_refused_before_any_dataset_is_built(
    name, bad, monkeypatch, tmp_path
):
    def unbuilt(**kwargs):
        raise AssertionError("a dataset was built for an invalid scenario")

    monkeypatch.setattr(engine, "build_federated_dataset", unbuilt)
    with pytest.raises(ScenarioError, match=name):
        api.run("fairbfl", **{name: bad})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": "fairbfl", name: bad}), encoding="utf-8")
    with pytest.raises(ScenarioError, match=name):
        scenario.load_scenario_file(path)


FLOAT_FIELDS = [f.name for f in fields(ScenarioSpec) if f.type == "float"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_floats_are_rejected(name, value):
    """NaN/inf slip past range comparisons and cannot be content-hashed."""
    with pytest.raises(ScenarioError, match=name):
        ScenarioSpec.from_mapping({"system": "blockchain", name: value})
    with pytest.raises(ScenarioError, match=name):
        ScenarioSpec(system="blockchain", **{name: value}).validate()


# -- the rules each system adds --------------------------------------------
#: One bad spec per rule a trainer's inputs must satisfy, as
#: ``(field the error names, overrides)``.  The shared federated rules cover
#: the local update, selection, backend and defense settings.
FL_RULES = [
    ("num_rounds", {"num_rounds": 0}),
    ("participation", {"participation": 0.0}),
    ("learning_rate", {"learning_rate": 0.0}),
    ("backend", {"backend": "fibers"}),
    ("max_workers", {"max_workers": 0}),
    ("defense", {"defense": "median+krum"}),
    ("defense_fraction", {"defense_fraction": 0.5}),
]
FAIRBFL_RULES = FL_RULES + [
    ("miners", {"miners": 0}),
    ("strategy", {"strategy": "median"}),
    ("mode", {"mode": "hybrid"}),
    ("pow_difficulty", {"pow_difficulty": 0.5}),
    ("min_attackers", {"min_attackers": -1}),
    ("max_attackers", {"min_attackers": 3, "max_attackers": 2}),
    ("attack_name", {"attack_name": "backdoor"}),
    ("round_mode", {"round_mode": "bogus"}),
    ("straggler_deadline", {"straggler_deadline": 0.0}),
    ("async_quorum", {"async_quorum": 0.0}),
    ("staleness_decay", {"staleness_decay": -0.1}),
    ("topology", {"topology": "mesh"}),
    ("partition", {"partition": "1-2:0|1"}),
    ("churn", {"churn": "1:-0"}),
    ("mode", {"topology": "ring", "mode": "fl_only"}),
    ("round_mode", {"topology": "ring", "round_mode": "async"}),
    ("peer_k", {"topology": "random_k", "miners": 3, "peer_k": 3}),
    ("partition", {"topology": "ring", "partition": "2-1:0|1"}),
    ("churn", {"topology": "ring", "churn": "1:-0;1:-1"}),
]
SYSTEM_RULES = {
    "fairbfl": FAIRBFL_RULES,
    "fairbfl-discard": FAIRBFL_RULES,
    "fedavg": FL_RULES,
    "fedprox": FL_RULES
    + [("proximal_mu", {"proximal_mu": -1.0}), ("drop_percent", {"drop_percent": 1.5})],
    "blockchain": [
        ("num_clients", {"num_clients": 0}),
        ("miners", {"miners": 0}),
        ("num_rounds", {"num_rounds": 0}),
    ],
}

_NET_AND_THREAT = dict(
    topology="random_k",
    miners=4,
    peer_k=2,
    partition="1-2:0,1",
    churn="3:-3",
    attacks=True,
    attack_name="scaling",
    min_attackers=0,
    max_attackers=2,
    defense="norm_clip+multi_krum",
    defense_fraction=0.3,
    pow_difficulty=1.0,
    strategy="discard",
    clustering="kmeans",
)
_FL_ENGAGED = dict(
    participation=1.0,
    learning_rate=0.2,
    defense="norm_clip+krum",
    defense_fraction=0.45,
    backend="cohort",
    max_workers=2,
)
#: A spec per system with every axis it supports engaged at an edge value.
ENGAGED = {
    "fairbfl": {**_FL_ENGAGED, **_NET_AND_THREAT},
    "fairbfl-discard": {**_FL_ENGAGED, **_NET_AND_THREAT},
    "fedavg": _FL_ENGAGED,
    "fedprox": {**_FL_ENGAGED, "proximal_mu": 0.0, "drop_percent": 1.0},
    "blockchain": dict(num_clients=250, miners=8, learning_rate=1e-9, proximal_mu=0.0),
}


@pytest.mark.parametrize("path", sorted(BUILD_PATHS))
@pytest.mark.parametrize(
    "system, field, overrides",
    [(system, *rule) for system, rules in SYSTEM_RULES.items() for rule in rules],
    ids=[f"{system}-{name}-{i}" for system, rules in SYSTEM_RULES.items()
         for i, (name, _) in enumerate(rules)],
)
def test_every_system_rule_rejects_its_bad_spec(system, field, overrides, path):
    with pytest.raises(ScenarioError, match=rf"\b{field}\b"):
        BUILD_PATHS[path](system, overrides)


@pytest.mark.parametrize("system", sorted(SYSTEM_RULES))
def test_default_and_engaged_specs_validate(system):
    assert ScenarioSpec(system=system).validate().system == system
    ScenarioSpec(system=system, **ENGAGED[system]).validate()
